package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/isa"
)

// Artifact codecs. Three kinds are persisted:
//
//   - GPU Stats and CPU profile sets are plain gob: small, structured,
//     and read rarely relative to their compute cost.
//   - Warp traces are a gob header (capture config, kernels, launch
//     geometries, per-warp stream lengths) followed by the warp streams
//     spilled verbatim — the slab-backed warptrace encoding is already
//     the compact on-disk representation, so loading is one read plus
//     re-slicing the slab into per-warp views; the step streams are
//     never re-decoded.
//
// Decoding is fail-safe, never fail-stop: every decoder returns an error
// for malformed input (the store discards the blob and the caller
// recomputes), and EncodingVersion in the key means a format change
// simply orphans old blobs rather than asking decoders to be clever.

// EncodeStats serializes one GPU characterization result.
func EncodeStats(st *gpusim.Stats) ([]byte, error) { return gobEncode(st) }

// DecodeStats is the inverse of EncodeStats.
func DecodeStats(blob []byte) (*gpusim.Stats, error) {
	// gob makes a map it decodes into at the size the stream claims, so a
	// blob of a few bytes could claim billions of per-kernel entries. A
	// first pass into statsShape, whose map already exists and whose
	// entries skip their own maps, reads every entry a map claims before
	// anything is sized by the claim, and fails on a blob that ends first.
	shape := statsShape{PerKernel: make(map[string]*struct{ Config string })}
	if err := gobDecode(blob, &shape); err != nil {
		return nil, err
	}
	st := new(gpusim.Stats)
	if err := gobDecode(blob, st); err != nil {
		return nil, err
	}
	return st, nil
}

// statsShape is the part of an encoded Stats that gob sizes from the
// stream: its per-kernel map (see DecodeStats). An entry keeps Config
// only because gob rejects a struct with no field in common with the
// stream's.
type statsShape struct {
	PerKernel map[string]*struct{ Config string }
}

// EncodeProfiles serializes one CPU-profile sweep (order is meaningful
// and preserved).
func EncodeProfiles(ps []*core.CPUProfile) ([]byte, error) { return gobEncode(ps) }

// DecodeProfiles is the inverse of EncodeProfiles.
func DecodeProfiles(blob []byte) ([]*core.CPUProfile, error) {
	var ps []*core.CPUProfile
	if err := gobDecode(blob, &ps); err != nil {
		return nil, err
	}
	return ps, nil
}

// kernelRec mirrors isa.Kernel's persistent identity field by field:
// copying the struct itself would copy its decode-state sync.Once, and
// gob would drag unexported fields into the contract. A field added to
// isa.Kernel that affects replay must be added here and EncodingVersion
// bumped.
type kernelRec struct {
	Name        string
	Instrs      []isa.Instr
	NumI        int
	NumF        int
	NumP        int
	PhysI       int
	PhysF       int
	SharedBytes int
	LocalBytes  int
}

func recordKernel(k *isa.Kernel) kernelRec {
	return kernelRec{
		Name: k.Name, Instrs: k.Instrs,
		NumI: k.NumI, NumF: k.NumF, NumP: k.NumP,
		PhysI: k.PhysI, PhysF: k.PhysF,
		SharedBytes: k.SharedBytes, LocalBytes: k.LocalBytes,
	}
}

func (r *kernelRec) kernel() *isa.Kernel {
	k := new(isa.Kernel)
	k.Name, k.Instrs = r.Name, r.Instrs
	k.NumI, k.NumF, k.NumP = r.NumI, r.NumF, r.NumP
	k.PhysI, k.PhysF = r.PhysI, r.PhysF
	k.SharedBytes, k.LocalBytes = r.SharedBytes, r.LocalBytes
	return k
}

// launchRec is one kernel launch's header: everything but the warp
// streams, which follow the gob section as one verbatim slab per launch.
type launchRec struct {
	Kernel   kernelRec
	Launch   isa.Launch
	WarpLens []int32
}

// traceHeader is the gob-encoded half of a trace blob.
type traceHeader struct {
	Cfg      gpusim.Config
	Invalid  string
	Launches []launchRec
}

// EncodeTrace serializes a captured run trace: an 8-byte gob-header
// length, the gob header, then each launch's warp streams concatenated
// verbatim.
func EncodeTrace(rt *gpusim.RunTrace) ([]byte, error) {
	cfg, launches, invalid := rt.Export()
	hdr := traceHeader{Cfg: cfg, Invalid: invalid}
	var slabBytes int
	for _, lt := range launches {
		rec := launchRec{Kernel: recordKernel(lt.Kernel), Launch: lt.Launch, WarpLens: make([]int32, len(lt.Warps))}
		for i := range lt.Warps {
			rec.WarpLens[i] = int32(len(lt.Warps[i].Data))
			slabBytes += len(lt.Warps[i].Data)
		}
		hdr.Launches = append(hdr.Launches, rec)
	}
	hdrBlob, err := gobEncode(&hdr)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8, 8+len(hdrBlob)+slabBytes)
	binary.LittleEndian.PutUint64(out, uint64(len(hdrBlob)))
	out = append(out, hdrBlob...)
	for _, lt := range launches {
		for i := range lt.Warps {
			out = append(out, lt.Warps[i].Data...)
		}
	}
	return out, nil
}

// DecodeTrace is the inverse of EncodeTrace. The returned trace's warp
// views alias the blob's slab region directly — no per-step re-decode,
// no copy — so the blob must not be mutated afterwards (the store always
// hands out fresh reads).
func DecodeTrace(blob []byte) (*gpusim.RunTrace, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("store: trace blob too short")
	}
	hdrLen := binary.LittleEndian.Uint64(blob)
	if hdrLen > uint64(len(blob)-8) {
		return nil, fmt.Errorf("store: trace header length %d exceeds blob", hdrLen)
	}
	var hdr traceHeader
	if err := gobDecode(blob[8:8+hdrLen], &hdr); err != nil {
		return nil, err
	}
	slab := blob[8+hdrLen:]
	var launches []*isa.LaunchTrace
	off := 0
	for li := range hdr.Launches {
		rec := &hdr.Launches[li]
		lt := &isa.LaunchTrace{Kernel: rec.Kernel.kernel(), Launch: rec.Launch, Warps: make([]isa.WarpTrace, len(rec.WarpLens))}
		for wi, n := range rec.WarpLens {
			if n < 0 || off+int(n) > len(slab) {
				return nil, fmt.Errorf("store: trace slab truncated at launch %d warp %d", li, wi)
			}
			lt.Warps[wi] = isa.WarpTrace{Data: slab[off : off+int(n) : off+int(n)]}
			off += int(n)
		}
		launches = append(launches, lt)
	}
	if off != len(slab) {
		return nil, fmt.Errorf("store: trace slab has %d trailing bytes", len(slab)-off)
	}
	return gpusim.ImportRunTrace(hdr.Cfg, launches, hdr.Invalid), nil
}

// Typed load/save wrappers: decode failures discard the blob and report
// a miss, so a stale or damaged artifact costs one recompute, never an
// error surfaced to an experiment.

// LoadStats fetches and decodes a GPU Stats artifact.
func (s *Store) LoadStats(k Key) (*gpusim.Stats, bool) {
	blob, ok := s.Get(k)
	if !ok {
		return nil, false
	}
	st, err := DecodeStats(blob)
	if err != nil {
		s.Discard(k)
		return nil, false
	}
	return st, true
}

// SaveStats encodes and stores a GPU Stats artifact.
func (s *Store) SaveStats(k Key, st *gpusim.Stats) error {
	blob, err := EncodeStats(st)
	if err != nil {
		return err
	}
	return s.Put(k, blob)
}

// LoadTrace fetches and decodes a warp-trace artifact.
func (s *Store) LoadTrace(k Key) (*gpusim.RunTrace, bool) {
	blob, ok := s.Get(k)
	if !ok {
		return nil, false
	}
	rt, err := DecodeTrace(blob)
	if err != nil {
		s.Discard(k)
		return nil, false
	}
	return rt, true
}

// SaveTrace encodes and stores a warp-trace artifact.
func (s *Store) SaveTrace(k Key, rt *gpusim.RunTrace) error {
	blob, err := EncodeTrace(rt)
	if err != nil {
		return err
	}
	return s.Put(k, blob)
}

// LoadProfiles fetches and decodes a CPU-profile-sweep artifact.
func (s *Store) LoadProfiles(k Key) ([]*core.CPUProfile, bool) {
	blob, ok := s.Get(k)
	if !ok {
		return nil, false
	}
	ps, err := DecodeProfiles(blob)
	if err != nil {
		s.Discard(k)
		return nil, false
	}
	return ps, true
}

// SaveProfiles encodes and stores a CPU-profile-sweep artifact.
func (s *Store) SaveProfiles(k Key, ps []*core.CPUProfile) error {
	blob, err := EncodeProfiles(ps)
	if err != nil {
		return err
	}
	return s.Put(k, blob)
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return buf.Bytes(), nil
}

func gobDecode(blob []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(v); err != nil {
		return fmt.Errorf("store: decode: %w", err)
	}
	return nil
}
