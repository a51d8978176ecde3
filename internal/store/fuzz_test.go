package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/sizes"
	"repro/internal/workloads"
)

// FuzzDecode feeds arbitrary bytes to everything the store reads back
// from disk: the blob framing, as an object file that Get reads, and the
// Stats, profile and trace decoders. Each must answer with a miss or an
// error, never a panic. It is seeded with a test-class Stats, a profile
// sweep and a trace, each as a bare payload and as a framed object file.
func FuzzDecode(f *testing.F) {
	st, rt, err := core.CaptureGPUAt(bench(f, "BP"), sizes.Test, gpusim.Base(), false)
	if err != nil {
		f.Fatal(err)
	}
	stats, err := EncodeStats(st)
	if err != nil {
		f.Fatal(err)
	}
	profiles, err := EncodeProfiles(core.CharacterizeCPUAllObs(workloads.All(), sizes.Test, 1, nil))
	if err != nil {
		f.Fatal(err)
	}
	// One warp of the trace's first launch: a whole trace is too large for
	// the fuzzer to minimize an input grown from it.
	cfg, launches, invalid := rt.Export()
	lt := *launches[0]
	lt.Warps = lt.Warps[:1]
	trace, err := EncodeTrace(gpusim.ImportRunTrace(cfg, []*isa.LaunchTrace{&lt}, invalid))
	if err != nil {
		f.Fatal(err)
	}
	s, err := Open(f.TempDir(), 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i, payload := range [][]byte{stats, profiles, trace} {
		k := testKey(string(rune('a' + i)))
		if err := s.Put(k, payload); err != nil {
			f.Fatal(err)
		}
		framed, err := os.ReadFile(s.objectPath(k))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(framed)
	}

	// One store directory for every input: a fresh one per input would
	// cost more than the decoding under test.
	dir, k := f.TempDir(), testKey("fuzz")
	obj := filepath.Join(dir, "objects", k.String())
	if err := os.MkdirAll(filepath.Dir(obj), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(obj, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(k); ok && !bytes.Equal(got, data[blobHdrLen:]) {
			t.Fatalf("Get served %d bytes that the %d-byte object file does not frame", len(got), len(data))
		}
		// An error is the expected answer to most inputs; only a panic fails.
		_, _ = DecodeStats(data)
		_, _ = DecodeProfiles(data)
		_, _ = DecodeTrace(data)
	})
}
