package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/sizes"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// size is the class replay and profile run at; serve always runs at
	// the test class.
	size sizes.Class
	// workdir holds store copies, the counts of earlier runs and spans.
	workdir string
	pins    pins
}

// workload is one benchmark workload.
type workload interface {
	// setups is how many times setup runs in an untraced run; setup_s is
	// their median.
	setups() int
	// setup prepares the state passes run against, replacing any earlier.
	// The pass it returns, if any, holds the set-up's output checks and
	// counts.
	setup() (*pass, error)
	// run executes one pass. A non-nil tracer records spans around every
	// call into a layer.
	run(tr *tracer) (*pass, error)
	// layers runs the traced run's decomposition calls and sets the
	// per-layer metrics that spans and counts cannot give.
	layers(tr *tracer, traced *pass, m metrics) error
	close()
}

var workloadNames = []string{"replay", "profile", "serve"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "replay":
		return newReplay(o), nil
	case "profile":
		return newProfile(o), nil
	case "serve":
		return newServe(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

// pass is what one timed pass reports.
type pass struct {
	wall time.Duration // host time of the timed region
	// lat has one latency per request. On serve a request is one HTTP
	// request. On the batch workloads (replay, profile) a request is the
	// whole pass, the unit cmd/experiments runs: their single benchmarks
	// differ a hundredfold in size, so a quantile over them picked out one
	// benchmark's time, a sample too short to be steady on a shared host.
	lat       []time.Duration
	attempted int // characterizations or HTTP requests
	failed    int
	failures  []string
	// counts is the work the pass did. It must be identical on every pass
	// and every run of one commit.
	counts map[string]uint64
}

// timed records one characterization of a batch workload, whose timed
// region is the sum of its characterizations.
func (p *pass) timed(d time.Duration) {
	p.wall += d
	p.attempted++
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct{ name, unit string }

// endToEnd are the metrics --trace 0 reports. error_frac is printed and
// recorded too, but it reads 0 whenever the program is correct, so the
// result line carries it as failed/attempted instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"req_per_s", "1/s"},
}

// perLayer are the metrics --trace 1 reports. A layer a workload never
// calls reads 0 on it; a measurement that cannot be made on this host
// reads -1 and is listed as unmeasured in the run record.
var perLayer = []metricDef{
	{"kernels.instance_s", "s"},
	{"isa.exec_s", "s"},
	{"isa.trace_encode_s", "s"},
	{"isa.trace_decode_s", "s"},
	{"isa.trace_bytes", "bytes"},
	{"isa.warp_instrs", "count"},
	{"gpusim.timing_s.capture", "s"},
	{"gpusim.timing_s.replay", "s"},
	{"gpusim.replay_s.4ch", "s"},
	{"gpusim.replay_s.6ch", "s"},
	{"gpusim.replay_s.gtx280", "s"},
	{"gpusim.replay_s.gtx480-shared", "s"},
	{"gpusim.replay_s.gtx480-l1", "s"},
	{"gpusim.ns_per_warp_instr.capture", "ns"},
	{"gpusim.ns_per_warp_instr.replay", "ns"},
	{"gpusim.cycles", "count"},
	{"gpusim.dram.accesses", "count"},
	{"gpusim.l1.accesses", "count"},
	{"gpusim.l2.accesses", "count"},
	{"gpusim.clock.skipped_cycles", "count"},
	{"gpusim.stall.sched_cycles", "count"},
	{"gpusim.epoch_overhead", "ratio"},
	{"gpusim.barrier.crossings", "count"},
	{"store.get_s", "s"},
	{"store.put_s", "s"},
	{"store.stats_decode_s", "s"},
	{"store.trace_decode_s", "s"},
	{"store.bytes", "bytes"},
	{"store.hit", "count"},
	{"store.miss", "count"},
	{"experiments.resolve_us.memory", "us"},
	{"experiments.resolve_us.disk", "us"},
	{"experiments.resolve_us.compute", "us"},
	{"exp.gpu.runs", "count"},
	{"exp.trace.replays", "count"},
	{"experiments.memo_hit_ratio", "ratio"},
	{"simd.request_us.memory", "us"},
	{"simd.request_us.disk", "us"},
	{"simd.request_us.compute", "us"},
	{"simd.overhead_us", "us"},
	{"simd.response_bytes", "bytes"},
	{"workloads.generate_s", "s"},
	{"cpu.trace.events", "count"},
	{"cpu.trace.batches", "count"},
	{"cachesim.mix_s", "s"},
	{"cachesim.sweep_s", "s"},
	{"cachesim.sharing_s", "s"},
	{"cachesim.footprint_s", "s"},
	{"cpu.sweep.probes", "count"},
	{"cachesim.probes_per_access", "ratio"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.residual_frac", "ratio"},
	{"self_s.harness", "s"},
	{"self_s.gpusim", "s"},
	{"self_s.core", "s"},
	{"self_s.simd", "s"},
}

// spanLayers are the layers spans are recorded for, by self_s metric.
var spanLayers = []string{"harness", "gpusim", "core", "simd"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a declared metric name to its value and unit.
type metrics map[string]metric

var units = func() map[string]string {
	u := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("simbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// unmeasuredValue marks a metric this host cannot measure.
const unmeasuredValue = -1

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record describes the run: the host and build it ran on, what it ran,
// and every count, so two runs can be told apart or matched.
type record struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Size         string            `json:"size"`
	Trace        bool              `json:"trace"`
	CPUModel     string            `json:"cpu_model"`
	NProc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	GoVersion    string            `json:"go_version"`
	Commit       string            `json:"commit"`
	Dirty        string            `json:"dirty"`
	SetupRuns    int               `json:"setup_runs"`
	Passes       int               `json:"passes"`
	Requests     int               `json:"requests_per_pass"`
	ErrorFrac    float64           `json:"error_frac"`
	Counts       map[string]uint64 `json:"counts"`
	Moved        []string          `json:"moved_counts,omitempty"`
	ModelChanges []string          `json:"model_changes,omitempty"`
	Unmeasured   []string          `json:"unmeasured,omitempty"`
	Residual     string            `json:"residual,omitempty"`
	Spans        string            `json:"spans,omitempty"`
	Failures     []string          `json:"failures,omitempty"`
}

// measure runs one workload: its set-up, then timed passes until the
// run's seconds are spent, or the untraced and traced pass plus the
// decomposition calls of a traced run.
func measure(o options) (*result, *record, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	w, err := newWorkload(o)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	rec := newRecord(o)

	// A traced run reports no setup_s, so it sets up once.
	nSetups := w.setups()
	if o.trace {
		nSetups = 1
	}
	var setupS []float64
	var checked []*pass // every pass and set-up whose outputs were checked
	for i := 0; i < nSetups; i++ {
		settle()
		t0 := time.Now()
		p, err := w.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if p != nil {
			checked = append(checked, p)
		}
	}
	rec.SetupRuns = len(setupS)

	m := metrics{}
	var passes []*pass
	if o.trace {
		plain, err := runPass(w, nil)
		if err != nil {
			return nil, nil, err
		}
		tr := newTracer(fmt.Sprintf("%s-%d-%d", o.workload, o.seed, time.Now().UnixNano()))
		traced, err := runPass(w, tr)
		if err != nil {
			return nil, nil, err
		}
		passes = []*pass{plain, traced}
		if err := w.layers(tr, traced, m); err != nil {
			return nil, nil, fmt.Errorf("%s decomposition: %w", o.workload, err)
		}
		spanMetrics(m, tr, plain, traced, rec)
		for _, d := range perLayer {
			if v, ok := traced.counts[d.name]; ok {
				m.set(d.name, float64(v))
			} else if _, ok := m[d.name]; !ok {
				m.set(d.name, 0)
			}
			if m[d.name].Value == unmeasuredValue {
				rec.Unmeasured = append(rec.Unmeasured, d.name)
			}
		}
		rec.Spans = filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(rec.Spans); err != nil {
			return nil, nil, err
		}
	} else {
		deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		for {
			t0 := time.Now()
			p, err := runPass(w, nil)
			if err != nil {
				return nil, nil, err
			}
			passes = append(passes, p)
			// Start no pass that would end past the deadline.
			if time.Now().Add(time.Since(t0)).After(deadline) {
				break
			}
		}
		endToEndMetrics(m, setupS, passes)
	}

	res := &result{Metrics: m}
	rec.Passes = len(passes)
	rec.Requests = len(passes[0].lat)
	checked = append(checked, passes...)
	for _, p := range checked {
		res.Attempted += p.attempted
		res.Failed += p.failed
		rec.Failures = append(rec.Failures, p.failures...)
	}
	rec.ErrorFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
	if err := checkCounts(o, checked, rec); err != nil {
		return nil, nil, err
	}
	res.Correct = res.Failed == 0 && len(rec.Moved) == 0
	return res, rec, nil
}

// settle collects garbage before a request, outside its timed region, so
// every request starts from the same heap whatever ran before it. The
// freed memory stays with the process: returning it to the OS made every
// request fault its pages in again, which cost the 12-benchmark capture a
// fifth of its time and varied with the host's memory pressure.
func settle() { runtime.GC() }

func runPass(w workload, tr *tracer) (*pass, error) {
	settle()
	p, err := w.run(tr)
	if err != nil {
		return nil, err
	}
	if p.attempted == 0 {
		return nil, errors.New("pass attempted nothing")
	}
	if p.lat == nil { // a batch workload: one request is the whole pass
		p.lat = []time.Duration{p.wall}
	}
	return p, nil
}

// endToEndMetrics reports medians over the run's passes (setup_s over its
// set-ups), request-latency quantiles over every request of the run, and
// the process's resident-memory high-water mark.
func endToEndMetrics(m metrics, setupS []float64, passes []*pass) {
	var wall, rate, lat []float64
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		rate = append(rate, float64(len(p.lat))/p.wall.Seconds())
		lat = append(lat, seconds(p.lat)...)
	}
	sort.Float64s(lat)
	m.set("setup_s", median(setupS))
	m.set("wall_s", median(wall))
	m.set("peak_rss_mb", peakRSSMiB())
	m.set("req_p50_ms", 1e3*quantile(lat, 0.5))
	m.set("req_p99_ms", 1e3*quantile(lat, 0.99))
	m.set("req_per_s", median(rate))
}

// spanMetrics derives the traced run's self times, tracing overhead and
// residual from its spans.
func spanMetrics(m metrics, tr *tracer, plain, traced *pass, rec *record) {
	self := tr.selfTimes()
	var layers time.Duration
	for _, l := range spanLayers {
		m.set("self_s."+l, self[l].Seconds())
		if l != "harness" {
			layers += self[l]
		}
	}
	residual := (traced.wall - layers).Seconds() / traced.wall.Seconds()
	m.set("trace.wall_s", traced.wall.Seconds())
	m.set("trace.overhead_s", (traced.wall - plain.wall).Seconds())
	m.set("trace.residual_frac", residual)
	rec.Residual = fmt.Sprintf("layer self times sum to the traced wall_s within %.2g of it; the residual is the benchmark's own code between layer calls", math.Abs(residual))
}

// checkCounts is the exact-repeat guard: every pass of the run must do
// the same work, and so must every earlier run of this build (the same
// executable) with the same workload, size and tracing (and seed, for
// serve), whose counts the first such run saved in the work directory. Counts that differ from the pinned ones
// are reported as a model change, which is not a failure.
func checkCounts(o options, passes []*pass, rec *record) error {
	counts := make(map[string]uint64)
	for i, p := range passes {
		for k, v := range p.counts {
			if prev, ok := counts[k]; ok && prev != v {
				rec.Moved = append(rec.Moved, fmt.Sprintf("%s: %d on pass %d, %d before", k, v, i+1, prev))
				continue
			}
			counts[k] = v
		}
	}
	rec.Counts = counts
	for k, want := range o.pins.counts[o.workload] {
		if got, ok := counts[k]; ok && got != want {
			rec.ModelChanges = append(rec.ModelChanges, fmt.Sprintf("%s: %d, pinned %d", k, got, want))
		}
	}
	sort.Strings(rec.ModelChanges)

	exe, err := exeID()
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-%s-trace%t", exe, o.workload, o.size, o.trace)
	if o.workload == "serve" { // the only workload whose work depends on the seed
		name += fmt.Sprintf("-seed%d", o.seed)
	}
	path := filepath.Join(o.workdir, "counts", name+".json")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err := json.Marshal(counts)
		if err != nil {
			return err
		}
		return writeFileAtomic(path, data)
	}
	if err != nil {
		return err
	}
	var earlier map[string]uint64
	if err := json.Unmarshal(data, &earlier); err != nil {
		return fmt.Errorf("counts of an earlier run in %s: %w", path, err)
	}
	for k, v := range counts {
		if e, ok := earlier[k]; !ok || e != v {
			rec.Moved = append(rec.Moved, fmt.Sprintf("%s: %d, earlier run %d", k, v, e))
		}
	}
	for k, e := range earlier {
		if _, ok := counts[k]; !ok {
			rec.Moved = append(rec.Moved, fmt.Sprintf("%s: missing, earlier run %d", k, e))
		}
	}
	sort.Strings(rec.Moved)
	return nil
}

// exeID fingerprints the running executable, so counts saved by a run of
// another build are never compared with this one's.
func exeID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func newRecord(o options) *record {
	rec := &record{
		Workload:   o.workload,
		Seed:       o.seed,
		Size:       o.size.String(),
		Trace:      o.trace,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	if o.workload == "serve" {
		rec.Size = sizes.Test.String()
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rec.Commit = s.Value
			case "vcs.modified":
				rec.Dirty = s.Value
			}
		}
	}
	return rec
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's resident-memory high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// report prints every metric by name and unit, the run record, and the
// result line last.
func report(w io.Writer, o options, res *result, rec *record) error {
	fmt.Fprintf(w, "simbench %s: seed %d, %s class, %d set-up(s), %d pass(es) of %d requests\n",
		rec.Workload, rec.Seed, rec.Size, rec.SetupRuns, rec.Passes, rec.Requests)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %s\n", "error_frac", rec.ErrorFrac, "ratio")
	for _, s := range rec.ModelChanges {
		fmt.Fprintln(w, "  model change (not a speed-up):", s)
	}
	for _, s := range rec.Moved {
		fmt.Fprintln(w, "  count moved between runs of one build:", s)
	}
	for _, s := range rec.Failures {
		fmt.Fprintln(w, "  failed:", s)
	}
	for _, s := range rec.Unmeasured {
		fmt.Fprintf(w, "  unmeasured: %s needs nproc >= 2 (reads %d)\n", s, unmeasuredValue)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", data)
	data, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// medianMicros is the median of ds in microseconds (0 when empty).
func medianMicros(ds []time.Duration) float64 {
	return 1e6 * median(seconds(ds))
}

// jsonHash fingerprints a value by its JSON encoding, which sorts map
// keys; pins and output checks compare these.
func jsonHash(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// nsPer is host nanoseconds per unit of work.
func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
