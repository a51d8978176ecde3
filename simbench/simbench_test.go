package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/sizes"
	"repro/internal/workloads"
)

// livePins derives pins at a size class from live, CPU-validated
// execution: every benchmark runs on a GPU without capture under each
// configuration, its output checked against the CPU reference, and every
// CPU workload is characterized on its own.
func livePins(t *testing.T, size sizes.Class) pins {
	t.Helper()
	p := pins{capture: map[string]string{}, replay: map[string]string{}, profile: map[string]string{}}
	for _, b := range kernels.All() {
		st, err := core.CharacterizeGPUAt(b, size, gpusim.Base(), true)
		if err != nil {
			t.Fatal(err)
		}
		p.capture[b.Abbrev] = jsonHash(st)
		for _, nc := range replayConfigs() {
			st, err := core.CharacterizeGPUAt(b, size, nc.cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			p.replay[b.Abbrev+"/"+nc.name] = jsonHash(st)
		}
	}
	for _, w := range workloads.All() {
		p.profile[profileID(w)] = jsonHash(core.CharacterizeCPUAt(w, size))
	}
	return p
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetrics checks that BENCHMARK.json declares exactly the
// metrics the program emits, with the same units.
func TestDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		var g, w []string
		for _, m := range got {
			g = append(g, m.Name+" "+m.Unit)
		}
		for _, m := range want {
			w = append(w, m.name+" "+m.unit)
		}
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("BENCHMARK.json %s:\n%s\nprogram emits:\n%s", what, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
}

// TestWorkloadsAtTestClass runs each workload once at the test class,
// untraced and traced, against pins derived from live execution, and
// checks that every declared metric is emitted with its unit, that every
// output check passes, and that a second run repeats every count.
func TestWorkloadsAtTestClass(t *testing.T) {
	testPins := livePins(t, sizes.Test)
	d := readDeclared(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, traced), func(t *testing.T) {
				o := options{workload: name, seed: 7, trace: traced, size: sizes.Test, workdir: t.TempDir(), pins: testPins}
				want := d.EndToEnd
				if traced {
					want = d.PerLayer
				}
				for run := 1; run <= 2; run++ {
					res, rec, err := measure(o)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
						t.Fatalf("run %d: correct=%t attempted=%d failed=%d; failures %q, moved %q",
							run, res.Correct, res.Attempted, res.Failed, rec.Failures, rec.Moved)
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("run %d: %d metrics, want %d", run, len(res.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := res.Metrics[m.Name]
						if !ok || got.Unit != m.Unit {
							t.Errorf("run %d: metric %s = %+v, want unit %s", run, m.Name, got, m.Unit)
						}
					}
					if len(rec.Counts) == 0 {
						t.Errorf("run %d: no counts recorded", run)
					}
				}
			})
		}
	}
}

// TestMediumPins re-derives the committed pins from live, validated
// execution at the medium class. On a mismatch it prints the table to
// paste into pins.go.
func TestMediumPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark live at the medium class under six configurations")
	}
	live := livePins(t, sizes.Medium)
	for _, table := range []struct {
		name      string
		got, want map[string]string
	}{
		{"capture", live.capture, committedPins.capture},
		{"replay", live.replay, committedPins.replay},
		{"profile", live.profile, committedPins.profile},
	} {
		var keys []string
		for k := range table.got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		mismatch := len(table.got) != len(table.want)
		for _, k := range keys {
			fmt.Fprintf(&b, "\t\t%q: %q,\n", k, table.got[k])
			mismatch = mismatch || table.got[k] != table.want[k]
		}
		if mismatch {
			t.Errorf("%s pins differ from live execution; live values:\n%s", table.name, b.String())
		}
	}
}
