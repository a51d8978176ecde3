// Package store is the persistent, content-addressed artifact store: the
// disk-backed tier between memory and computation in
// experiments.Context's resolvers for GPU Stats, warp traces and
// CPU-profile sweeps.
// Artifacts — warp traces, GPU Stats, CPU profile sets — are keyed by a
// stable hash of their full identity (benchmark/workload, problem-size
// class, timing configuration, encoding version), so a warm store turns
// every repeated characterization across processes, CI jobs and service
// requests into a disk read.
//
// The store is crash- and corruption-safe by construction: blobs are
// written to a temp file and renamed into place atomically, every blob
// carries a checksum verified on load, and any damaged or undecodable
// blob is discarded and recomputed — a bad store can cost time, never
// correctness.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"

	"repro/internal/gpusim"
	"repro/internal/sizes"
)

// EncodingVersion stamps every key. Bump it whenever any persisted
// encoding changes meaning — the blob formats in codec.go, the semantics
// of a Stats counter, the warp-trace step encoding — so artifacts written
// by older code are never decoded by newer code (they become unreachable
// keys and age out of the LRU).
const EncodingVersion = 2

// Key is the content address of one artifact: a SHA-256 over the
// artifact's canonical identity string (see keyFor).
type Key [sha256.Size]byte

// String renders the key as lowercase hex — also the blob's file name.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// StatsKey addresses the GPU Stats of one (benchmark, size class, timing
// configuration) characterization, identified by StatsConfig(cfg).
func StatsKey(bench string, size sizes.Class, cfg gpusim.Config) Key {
	cfg = StatsConfig(cfg)
	return keyFor("gpu-stats", bench, size, EncodingVersion, &cfg)
}

// StatsConfig is the part of cfg that a characterization's Stats depend
// on: cfg with the host-side execution knobs — Name, ShardWorkers,
// EpochCycles — cleared. They never change Stats (pinned by the suite
// matrix), so results computed under any of them are one result.
func StatsConfig(cfg gpusim.Config) gpusim.Config {
	cfg.Name = ""
	cfg.ShardWorkers = 0
	cfg.EpochCycles = 0
	return cfg
}

// TraceKey addresses the warp trace of one benchmark instance. Traces
// carry no configuration in their identity: a replayable trace captured
// under any configuration replays under every other (the capture
// configuration travels inside the blob).
func TraceKey(bench string, size sizes.Class) Key {
	return keyFor("warp-trace", bench, size, EncodingVersion, nil)
}

// ProfilesKey addresses one CPU-profile sweep: the given workloads, in
// order, characterized at one size class. Profile order is part of the
// artifact (experiments index into it), so the names hash in order.
func ProfilesKey(workloads []string, size sizes.Class) Key {
	return keyFor("cpu-profiles", strings.Join(workloads, ","), size, EncodingVersion, nil)
}

// keyFor hashes the canonical identity string. The format is
// line-oriented and versioned:
//
//	repro artifact v<version>
//	kind=<kind>
//	id=<benchmark abbrev or workload list>
//	size=<class>
//	cfg.<Field>=<value>   (one line per exported Config field, in
//	                       declaration order, when a config participates)
//
// Configuration fields are enumerated by reflection so a field added to
// gpusim.Config changes every config-keyed hash automatically — the safe
// direction: a stale artifact becomes a miss instead of a silent
// cross-config collision (the failure mode of the pre-PR 6 size bug).
func keyFor(kind, id string, size sizes.Class, version int, cfg *gpusim.Config) Key {
	var b strings.Builder
	fmt.Fprintf(&b, "repro artifact v%d\n", version)
	fmt.Fprintf(&b, "kind=%s\n", kind)
	fmt.Fprintf(&b, "id=%s\n", id)
	fmt.Fprintf(&b, "size=%s\n", size)
	if cfg != nil {
		writeConfig(&b, cfg)
	}
	return sha256.Sum256([]byte(b.String()))
}

// writeConfig renders every exported Config field as one canonical line.
// Only scalar fields are representable; a richer field added to Config
// (slice, map, pointer) must be taught to the canonical form explicitly,
// so its appearance panics rather than hashing something unstable.
func writeConfig(b *strings.Builder, cfg *gpusim.Config) {
	v := reflect.ValueOf(cfg).Elem()
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			fmt.Fprintf(b, "cfg.%s=%v\n", t.Field(i).Name, f.Interface())
		default:
			panic(fmt.Sprintf("store: gpusim.Config field %s has kind %s; extend the canonical key form",
				t.Field(i).Name, f.Kind()))
		}
	}
}
