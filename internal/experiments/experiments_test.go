package experiments

import (
	"strings"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/sizes"
	"repro/internal/stats"
)

// TestNewContextDefaultsToMediumSize pins the paper-reproduction
// default: the Class zero value is the test class, so NewContext must
// set the medium class explicitly or every figure silently shrinks.
func TestNewContextDefaultsToMediumSize(t *testing.T) {
	if got := NewContext().Size; got != sizes.Default {
		t.Fatalf("NewContext().Size = %v, want %v", got, sizes.Default)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "fig1", "fig2", "fig3", "fig4",
		"table3", "fig5", "pb", "table4", "table5",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"dwarfs", "divergence", "correlate", "conc", "scaling",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("have %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiment %d is %s, want %s", i, got[i], want[i])
		}
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok || e.ID != id || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestStaticTables(t *testing.T) {
	ctx := NewContext()
	for _, id := range []string{"table1", "table2", "table4", "table5"} {
		e, _ := ByID(id)
		res, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id || res.Text == "" || len(res.Notes) == 0 {
			t.Fatalf("%s produced incomplete result", id)
		}
	}
}

func TestTable1ListsAllApplications(t *testing.T) {
	e, _ := ByID("table1")
	res, err := e.Run(NewContext())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"Kmeans", "Needleman-Wunsch", "HotSpot", "Back Propagation", "SRAD",
		"Leukocyte", "Breadth-First Search", "Stream Cluster", "MUMmerGPU",
		"CFD Solver", "LU Decomposition", "Heart Wall",
	} {
		if !strings.Contains(res.Text, name) {
			t.Errorf("table1 missing %q", name)
		}
	}
}

func TestTable5ListsAllParsecApps(t *testing.T) {
	e, _ := ByID("table5")
	res, err := e.Run(NewContext())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
		"fluidanimate", "freqmine", "raytrace", "streamcluster", "swaptions",
		"vips", "x264",
	} {
		if !strings.Contains(res.Text, name) {
			t.Errorf("table5 missing %q", name)
		}
	}
}

// TestCPUFigures runs the suite-comparison pipeline end to end (shared
// profile cache, so the workloads execute once).
func TestCPUFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling all workloads is slow; skipped with -short")
	}
	ctx := NewContext()
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"} {
		e, _ := ByID(id)
		res, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Text == "" || len(res.Notes) == 0 {
			t.Fatalf("%s produced incomplete result", id)
		}
	}
	// The dendrogram must include every workload label.
	e, _ := ByID("fig6")
	res, _ := e.Run(ctx)
	for _, l := range []string{"srad(R)", "streamcluster(R,P)", "x264(P)", "mummergpu(R)"} {
		if !strings.Contains(res.Text, l) {
			t.Errorf("fig6 missing leaf %s", l)
		}
	}
	// Figure 10's headline: MUMmer has the top miss rate.
	e, _ = ByID("fig10")
	res, _ = e.Run(ctx)
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "mummergpu(R): 1 of") {
			found = true
		}
	}
	if !found {
		t.Errorf("fig10 did not rank mummergpu first: %v", res.Notes)
	}
}

// TestGPUFigureSmoke runs one GPU experiment on the smallest benchmark
// set by reusing the memoized context across sub-experiments.
func TestGPUFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("GPU simulation experiments are slow; skipped with -short")
	}
	ctx := NewContext()
	ctx.Check = false
	e, _ := ByID("table3")
	res, err := e.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "SRAD v1") || !strings.Contains(res.Text, "Leukocyte v2") {
		t.Fatalf("table3 incomplete:\n%s", res.Text)
	}
}

func TestPBFactorsMatchPaper(t *testing.T) {
	if len(PBFactors) != 9 {
		t.Fatalf("%d PB factors, want the paper's 9", len(PBFactors))
	}
	if len(PBApps) == 0 {
		t.Fatal("no PB applications configured")
	}
}

func TestRankOf(t *testing.T) {
	r := rankOf([]string{"a", "b", "c"}, []float64{1, 3, 2})
	if r["b"] != 1 || r["c"] != 2 || r["a"] != 3 {
		t.Fatalf("ranks wrong: %v", r)
	}
}

func TestCutToKAndLastJoiners(t *testing.T) {
	// Synthetic data: three well-separated groups plus one extreme point.
	rows := [][]float64{
		{0}, {0.1}, // group A
		{5}, {5.1}, // group B
		{10}, {10.1}, // group C
		{100}, // outlier
	}
	labels := []string{"a1", "a2", "b1", "b2", "c1", "c2", "x"}
	m, err := stats.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	root, err := stats.HCluster(m, labels, stats.AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	groups := cutToK(root, 4)
	if len(groups) != 4 {
		t.Fatalf("cutToK(4) produced %d groups: %v", len(groups), groups)
	}
	joiners := lastJoiners(root, 1)
	if len(joiners) != 1 || joiners[0] != "x" {
		t.Fatalf("lastJoiners = %v, want [x]", joiners)
	}
}

// TestGPUExperimentsEndToEnd regenerates a representative subset of the
// GPU-side artifacts (the full set runs via cmd/experiments and the
// root-level benchmarks). Skipped with -short.
func TestGPUExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("GPU experiment drivers are slow; skipped with -short")
	}
	ctx := NewContext()
	ctx.Check = false
	for _, id := range []string{"fig1", "fig2", "fig3", "divergence", "conc"} {
		e, _ := ByID(id)
		res, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.Text == "" || len(res.Notes) == 0 {
			t.Fatalf("%s incomplete", id)
		}
	}
	// Spot-check the Figure 1 headline ordering from the notes.
	e, _ := ByID("fig1")
	res, _ := e.Run(ctx)
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "MUM=11") || strings.Contains(n, "MUM=12") {
			found = true
		}
	}
	if !found {
		t.Errorf("fig1 notes do not place MUM at the bottom: %v", res.Notes)
	}
}

// TestPBConfigsValidate pins that every Plackett-Burman row stays inside
// gpusim.Config's bounds.
func TestPBConfigsValidate(t *testing.T) {
	for r, row := range stats.PB12() {
		c := gpusim.Base()
		for f := range PBFactors {
			PBFactors[f].Apply(&c, row[f] > 0)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("row %d: %v", r, err)
		}
	}
}
