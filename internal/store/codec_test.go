package store

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/sizes"
)

func bench(t *testing.T, abbrev string) *kernels.Benchmark {
	t.Helper()
	b, ok := kernels.ByAbbrev(abbrev)
	if !ok {
		t.Fatalf("no benchmark %s", abbrev)
	}
	return b
}

func TestStatsCodecRoundTrip(t *testing.T) {
	st := gpusim.NewStats("gpgpusim-28sm")
	st.Cycles = 123456
	st.WarpInstrs = 4200
	st.ThreadInstrs = 134400
	st.Launches = 3
	st.CTAs = 96
	st.MemOps[1] = 777
	st.Occupancy = [4]uint64{1, 2, 3, 4}
	st.DRAMBytes = 1 << 20
	st.DRAMTxns = 9000
	st.PeakBytesPerCycle = 128.5
	st.L1Hits, st.L1Misses = 10, 20
	st.BankConflictCycles = 31
	st.BranchInstrs, st.DivergentBranches = 500, 42
	k := st.Kernel("kernelA")
	k.Cycles = 1000
	k.ThreadInstrs = 2000

	blob, err := EncodeStats(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStats(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("stats round trip diverged:\n got %+v\nwant %+v", got, st)
	}
}

func TestProfilesCodecRoundTrip(t *testing.T) {
	ps := []*core.CPUProfile{
		{
			Name: "barnes", Suite: "S",
			ALU: 0.5, Branch: 0.1, Load: 0.3, Store: 0.1,
			MissRates:      []float64{0.2, 0.1, 0.05},
			SharedLineFrac: 0.4, SharedAccessFrac: 0.3, SharedStoreFrac: 0.2, MeanSharers: 2.5,
			InstrBlocks: 321, DataPages: 654, MemRefs: 1e6, Instrs: 3e6,
		},
		{Name: "blackscholes", Suite: "P", MissRates: []float64{0.01}},
	}
	blob, err := EncodeProfiles(ps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProfiles(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ps) {
		t.Fatalf("profiles round trip diverged:\n got %+v\nwant %+v", got, ps)
	}
}

// TestTraceCodecRoundTripReplays is the codec's end-to-end property: a
// real captured trace survives encode → decode and the decoded trace
// replays to Stats bit-identical to replaying the original. The decoded
// warp streams are never re-encoded step by step — they alias the blob's
// slab — so this also pins the zero-copy reload path.
func TestTraceCodecRoundTripReplays(t *testing.T) {
	b := bench(t, "BFS")
	cfg := gpusim.Base()
	_, rt, err := core.CaptureGPUAt(b, sizes.Test, cfg, false)
	if err != nil {
		t.Fatal(err)
	}

	blob, err := EncodeTrace(rt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLaunches() != rt.NumLaunches() {
		t.Fatalf("decoded %d launches, want %d", got.NumLaunches(), rt.NumLaunches())
	}
	if got.Bytes() != rt.Bytes() {
		t.Fatalf("decoded trace is %d bytes, want %d", got.Bytes(), rt.Bytes())
	}
	if err := got.Replayable(); err != nil {
		t.Fatal(err)
	}

	// Replay under a different architecture than the capture's to prove
	// the embedded capture config (not the replay config) governs
	// compatibility.
	replayCfg := gpusim.GTX280()
	want, err := core.ReplayGPU(b, replayCfg, rt)
	if err != nil {
		t.Fatal(err)
	}
	have, err := core.ReplayGPU(b, replayCfg, got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatal("replay of the decoded trace diverged from replay of the original")
	}
}

func TestTraceCodecRejectsMalformedBlobs(t *testing.T) {
	b := bench(t, "BFS")
	_, rt, err := core.CaptureGPUAt(b, sizes.Test, gpusim.Base(), false)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeTrace(rt)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":              {},
		"short prefix":       blob[:4],
		"header over blob":   append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, blob[8:]...),
		"corrupt gob header": append(append([]byte{}, blob[:8]...), make([]byte, len(blob)-8)...),
		"truncated slab":     blob[:len(blob)-1],
		"trailing bytes":     append(append([]byte{}, blob...), 0xaa),
	}
	for name, data := range cases {
		if _, err := DecodeTrace(data); err == nil {
			t.Errorf("%s: DecodeTrace accepted a malformed blob", name)
		}
	}
}

// TestTypedLoadDiscardsUndecodableBlob pins the fail-safe contract: a
// blob that fetches fine but fails to decode is discarded (so the next
// Put heals it) and reported as a miss, never as an error.
func TestTypedLoadDiscardsUndecodableBlob(t *testing.T) {
	s, err := Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	k := testKey("not-stats")
	if err := s.Put(k, []byte("valid frame, invalid gob")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadStats(k); ok {
		t.Fatal("LoadStats decoded garbage")
	}
	if s.Len() != 0 {
		t.Fatal("undecodable blob not discarded")
	}
	// Recompute-and-put heals.
	if err := s.SaveStats(k, gpusim.NewStats("x")); err != nil {
		t.Fatal(err)
	}
	if st, ok := s.LoadStats(k); !ok || st.Config != "x" {
		t.Fatal("store did not heal after SaveStats")
	}
}

func TestTraceSaveLoadThroughStore(t *testing.T) {
	b := bench(t, "NW")
	_, rt, err := core.CaptureGPUAt(b, sizes.Test, gpusim.Base(), false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	k := TraceKey(b.Abbrev, sizes.Test)
	if _, ok := s.LoadTrace(k); ok {
		t.Fatal("hit before save")
	}
	if err := s.SaveTrace(k, rt); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadTrace(k)
	if !ok {
		t.Fatal("trace missed after save")
	}
	if err := got.Replayable(); err != nil {
		t.Fatalf("loaded trace not replayable: %v", err)
	}
}
