package kernels

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/sizes"
)

// TestAllBenchmarksFunctional runs every benchmark on the functional
// executor and validates against its CPU reference.
func TestAllBenchmarksFunctional(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			in := b.Instance()
			var ex isa.Functional
			if err := in.Run(&ex); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := in.Check(); err != nil {
				t.Fatalf("check: %v", err)
			}
			if ex.Steps == 0 {
				t.Fatal("no work executed")
			}
		})
	}
}

// TestIncrementalVersionsFunctional validates the Table III v1 variants.
func TestIncrementalVersionsFunctional(t *testing.T) {
	for _, b := range []*Benchmark{SRADv1, LeukocyteV1} {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			in := b.Instance()
			var ex isa.Functional
			if err := in.Run(&ex); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := in.Check(); err != nil {
				t.Fatalf("check: %v", err)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("All() returned %d benchmarks, want 12", len(all))
	}
	order := []string{"BP", "BFS", "CFD", "HW", "HS", "KM", "LC", "LUD", "MUM", "NW", "SRAD", "SC"}
	for i, b := range all {
		if b.Abbrev != order[i] {
			t.Errorf("All()[%d] = %s, want %s", i, b.Abbrev, order[i])
		}
		if b.Name == "" || b.Dwarf == "" || b.Domain == "" || b.PaperSize == "" {
			t.Errorf("%s: incomplete metadata %+v", b.Abbrev, b)
		}
		if b.New == nil {
			t.Errorf("%s: no constructor", b.Abbrev)
		}
		if b.Sizes.Render == nil {
			t.Errorf("%s: size table has no renderer", b.Abbrev)
		}
		for _, c := range sizes.Classes() {
			if len(b.Sizes.Params[c]) == 0 {
				t.Errorf("%s: size table has no params for class %s", b.Abbrev, c)
			}
			if b.SimSize(c) == "" {
				t.Errorf("%s: empty SimSize at class %s", b.Abbrev, c)
			}
		}
		if got, ok := ByAbbrev(b.Abbrev); !ok || got != b {
			t.Errorf("ByAbbrev(%s) failed", b.Abbrev)
		}
	}
	if _, ok := ByAbbrev("NOPE"); ok {
		t.Error("ByAbbrev accepted unknown abbrev")
	}
}

func TestInstanceSetsBench(t *testing.T) {
	in := HotSpot.Instance()
	if in.Bench != HotSpot {
		t.Fatal("Instance did not set Bench back-pointer")
	}
	if in.Mem == nil {
		t.Fatal("Instance has no memory")
	}
}

// --- Suffix tree unit tests (MUMmer substrate) ---

// naiveLongestMatch is the brute-force oracle: the longest prefix of q
// occurring anywhere in ref.
func naiveLongestMatch(ref, q []byte) int {
	best := 0
	for s := 0; s < len(ref); s++ {
		l := 0
		for s+l < len(ref) && l < len(q) && ref[s+l] == q[l] {
			l++
		}
		if l > best {
			best = l
		}
	}
	return best
}

func TestSuffixTreeMatchesNaive(t *testing.T) {
	r := newRNG(5)
	for trial := 0; trial < 30; trial++ {
		n := 20 + r.intn(200)
		ref := make([]byte, n)
		for i := range ref {
			ref[i] = byte(r.intn(4))
		}
		tree := buildSuffixTree(ref)
		for q := 0; q < 20; q++ {
			ql := 1 + r.intn(30)
			query := make([]byte, ql)
			if q%2 == 0 && n > ql {
				copy(query, ref[r.intn(n-ql):])
				if r.intn(2) == 0 {
					query[r.intn(ql)] = byte(r.intn(4))
				}
			} else {
				for i := range query {
					query[i] = byte(r.intn(4))
				}
			}
			got := tree.matchFrom(query)
			want := naiveLongestMatch(ref, query)
			if got != want {
				t.Fatalf("trial %d: matchFrom(%v) = %d, want %d (ref %v)", trial, query, got, want, ref)
			}
		}
	}
}

func TestSuffixTreeContainsAllSuffixes(t *testing.T) {
	r := newRNG(9)
	ref := make([]byte, 300)
	for i := range ref {
		ref[i] = byte(r.intn(4))
	}
	tree := buildSuffixTree(ref)
	for s := 0; s < len(ref); s++ {
		suffix := ref[s:]
		if got := tree.matchFrom(suffix); got != len(suffix) {
			t.Fatalf("suffix at %d matched %d of %d", s, got, len(suffix))
		}
	}
}

func TestQuickSuffixTreeProperty(t *testing.T) {
	f := func(refSeed, qSeed uint32) bool {
		r := newRNG(uint64(refSeed))
		n := 10 + r.intn(80)
		ref := make([]byte, n)
		for i := range ref {
			ref[i] = byte(r.intn(4))
		}
		tree := buildSuffixTree(ref)
		rq := newRNG(uint64(qSeed))
		q := make([]byte, 1+rq.intn(20))
		for i := range q {
			q[i] = byte(rq.intn(4))
		}
		return tree.matchFrom(q) == naiveLongestMatch(ref, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenedTreeConsistent(t *testing.T) {
	r := newRNG(3)
	ref := make([]byte, 500)
	for i := range ref {
		ref[i] = byte(r.intn(4))
	}
	tree := buildSuffixTree(ref)
	flat := tree.flatten()
	if len(flat.Children) != len(tree.Nodes)*4 {
		t.Fatalf("children table size %d, want %d", len(flat.Children), len(tree.Nodes)*4)
	}
	// Walk a query through the flattened tables and compare to matchFrom.
	walk := func(q []byte) int {
		node, j, matched := int32(0), 0, 0
		for j < len(q) {
			child := flat.Children[int(node)*4+int(q[j])]
			if child < 0 {
				return matched
			}
			k, el := flat.EdgeStart[child], flat.EdgeLen[child]
			l := int32(0)
			for l < el && j < len(q) {
				if tree.S[k+l] != q[j] {
					return matched
				}
				l++
				j++
				matched++
			}
			if l < el {
				return matched
			}
			node = child
		}
		return matched
	}
	for trial := 0; trial < 50; trial++ {
		q := make([]byte, 1+r.intn(40))
		for i := range q {
			q[i] = byte(r.intn(4))
		}
		if got, want := walk(q), tree.matchFrom(q); got != want {
			t.Fatalf("flat walk = %d, tree walk = %d for %v", got, want, q)
		}
	}
}

// --- Graph generator sanity (BFS substrate) ---

func TestGenGraphWellFormed(t *testing.T) {
	starts, edges := genGraph(1000, 5)
	if len(starts) != 1001 {
		t.Fatalf("starts length %d", len(starts))
	}
	if starts[0] != 0 || int(starts[1000]) != len(edges) {
		t.Fatal("CSR bounds wrong")
	}
	for i := 0; i < 1000; i++ {
		if starts[i] > starts[i+1] {
			t.Fatalf("non-monotonic starts at %d", i)
		}
		for e := starts[i]; e < starts[i+1]; e++ {
			if edges[e] < 0 || edges[e] >= 1000 {
				t.Fatalf("edge target out of range: %d", edges[e])
			}
		}
	}
}

func TestKernelNamesUnique(t *testing.T) {
	// Each benchmark instance must be constructible twice independently
	// (no shared mutable state between instances).
	a := BFS.Instance()
	b := BFS.Instance()
	var ex1, ex2 isa.Functional
	if err := a.Run(&ex1); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(&ex2); err != nil {
		t.Fatal(err)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	if ex1.Steps != ex2.Steps {
		t.Fatalf("non-deterministic instances: %d vs %d steps", ex1.Steps, ex2.Steps)
	}
}

func TestSimSizeMentionsScaling(t *testing.T) {
	// Every benchmark documents its simulated size at every class, the
	// string derives from the size table, and classes are distinguishable.
	for _, b := range All() {
		for _, c := range sizes.Classes() {
			s := b.SimSize(c)
			if !strings.ContainsAny(s, "0123456789") {
				t.Errorf("%s: SimSize(%s) %q has no numbers", b.Abbrev, c, s)
			}
			if want := b.Sizes.Render(b.Sizes.Params[c]); s != want {
				t.Errorf("%s: SimSize(%s) = %q, want table-derived %q", b.Abbrev, c, s, want)
			}
		}
		if b.SimSize(sizes.Test) == b.SimSize(sizes.Large) {
			t.Errorf("%s: test and large classes render identically (%q)", b.Abbrev, b.SimSize(sizes.Test))
		}
	}
}

// TestAllBenchmarksFunctionalTestSize runs every benchmark (and the v1
// variants) at the small "test" class and validates the oracle still
// holds — the size axis must not break any Check.
func TestAllBenchmarksFunctionalTestSize(t *testing.T) {
	bs := append(All(), SRADv1, LeukocyteV1, NWv1, LUDv1)
	for _, b := range bs {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			in := b.InstanceAt(sizes.Test)
			if in.Size != sizes.Test {
				t.Fatalf("instance size = %v, want test", in.Size)
			}
			var ex isa.Functional
			if err := in.Run(&ex); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := in.Check(); err != nil {
				t.Fatalf("check: %v", err)
			}
		})
	}
}

// TestAllBenchmarksFunctionalLargeSize validates the oracle at the large
// class too. Skipped under -short: large instances are expensive.
func TestAllBenchmarksFunctionalLargeSize(t *testing.T) {
	if testing.Short() {
		t.Skip("large size class skipped in -short mode")
	}
	for _, b := range All() {
		b := b
		t.Run(b.Abbrev, func(t *testing.T) {
			t.Parallel()
			in := b.InstanceAt(sizes.Large)
			var ex isa.Functional
			if err := in.Run(&ex); err != nil {
				t.Fatalf("run: %v", err)
			}
			if err := in.Check(); err != nil {
				t.Fatalf("check: %v", err)
			}
		})
	}
}

// TestDefaultInstanceIsMedium pins the byte-identity guarantee: the
// default instance must be the medium class, so results regenerated
// with no -size flag cannot drift.
func TestDefaultInstanceIsMedium(t *testing.T) {
	if sizes.Default != sizes.Medium {
		t.Fatalf("sizes.Default = %v, want medium", sizes.Default)
	}
	in := HotSpot.Instance()
	if in.Size != sizes.Medium {
		t.Fatalf("Instance() size = %v, want medium", in.Size)
	}
}

// TestSizeClassesScaleWork asserts the classes are genuinely ordered:
// the first size parameter grows strictly from test to large.
func TestSizeClassesScaleWork(t *testing.T) {
	for _, b := range All() {
		p := b.Sizes.Params
		if !(p[sizes.Test][0] < p[sizes.Medium][0] && p[sizes.Medium][0] < p[sizes.Large][0]) {
			t.Errorf("%s: primary size param not strictly increasing: %d, %d, %d",
				b.Abbrev, p[sizes.Test][0], p[sizes.Medium][0], p[sizes.Large][0])
		}
	}
}

// TestKernelListings disassembles every GPU kernel of every benchmark
// (what cmd/disasm prints): the header reports the kernel's register
// counts and shared memory, and the body has exactly one line per
// instruction, in PC order, none of them FormatInstr's unhandled-opcode
// marker.
func TestKernelListings(t *testing.T) {
	for _, ab := range ListingAbbrevs() {
		ks, err := KernelsOf(ab)
		if err != nil {
			t.Fatalf("%s: %v", ab, err)
		}
		if len(ks) == 0 {
			t.Fatalf("%s: no kernels", ab)
		}
		for _, k := range ks {
			lines := strings.Split(strings.TrimSuffix(isa.Disassemble(k), "\n"), "\n")
			if want := ".kernel " + k.Name; lines[0] != want {
				t.Errorf("%s/%s: first line %q, want %q", ab, k.Name, lines[0], want)
			}
			regs := fmt.Sprintf(".regs i=%d f=%d p=%d  // live: i=%d f=%d", k.NumI, k.NumF, k.NumP, k.PhysI, k.PhysF)
			if !slices.Contains(lines, regs) {
				t.Errorf("%s/%s: no %q line", ab, k.Name, regs)
			}
			shared := fmt.Sprintf(".shared %d", k.SharedBytes)
			if got := slices.Contains(lines, shared); got != (k.SharedBytes > 0) {
				t.Errorf("%s/%s: %q line present = %v, shared bytes %d", ab, k.Name, shared, got, k.SharedBytes)
			}
			pc := 0
			for _, l := range lines {
				if strings.HasPrefix(l, ".") {
					continue
				}
				if !strings.HasPrefix(l, fmt.Sprintf("%4d: ", pc)) {
					t.Fatalf("%s/%s: line %q, want pc %d", ab, k.Name, l, pc)
				}
				if strings.HasSuffix(l, " ...") {
					t.Errorf("%s/%s: pc %d has an unhandled opcode: %q", ab, k.Name, pc, l)
				}
				pc++
			}
			if pc != len(k.Instrs) {
				t.Errorf("%s/%s: %d instruction lines for %d instructions", ab, k.Name, pc, len(k.Instrs))
			}
		}
	}
}
