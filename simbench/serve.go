package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/sizes"
	"repro/internal/store"
	"repro/internal/workloads"
)

// serve is cmd/simd's wiring — simd.NewServeMux on obs.ServeDebugMux over
// an experiments.Context — on a copy of a store warmed in set-up. The
// store holds every benchmark's test-class trace, the Stats of a
// seed-chosen third of the request keys, and the test-class CPU profiles.
// A pass is a fresh server on a fresh copy of that store, sent a seeded
// plan of /characterize requests over 12 benchmarks × 5 presets × {the
// preset's, 4, 6} channels at the test class, with an occasional
// /profiles, by one keep-alive client in a closed loop (it sends its next
// request when the last one is answered). One client, not two: with two
// the server's computations shared the host's two cores with each other
// and the garbage collector, and which requests overlapped changed from
// pass to pass, so the passes of one process took from 2.1 to 2.7 s. This
// is the
// warm path the resolver and hardening work will rewrite: request parsing
// and JSON encoding, the memo and singleflight, and store checksum,
// decode and fsync'd puts; gpusim runs only at the test class. The plan
// fixes the tier mix: memory hits, disk Stats hits, and replays from a
// disk trace.
type serve struct {
	o        options
	dir      string // this process's store copies
	warmDir  string
	nextDir  string // the fresh copy the next pass starts from
	copies   int
	plan     []planned
	warm     []reqKey
	expected map[string]string // result identity → hash of the direct characterization

	respBytes int // response bytes of the last pass
}

// The plan holds serveRequests requests, serveProfiles of them for
// /profiles and every /characterize key at least once, so a pass does the
// same work in each tier whatever the seed, and well over ten requests
// lie beyond p99 (the compute tier alone holds 96).
const (
	serveRequests = 3000
	serveProfiles = 60
)

const (
	tierMemory  = "memory"
	tierDisk    = "disk"
	tierCompute = "compute"
)

var tiers = []string{tierMemory, tierDisk, tierCompute}

// reqKey is one /characterize request.
type reqKey struct {
	bench    *kernels.Benchmark
	preset   string
	channels int // 0 keeps the preset's channel count
}

func allReqKeys() []reqKey {
	var out []reqKey
	for _, b := range kernels.All() {
		for _, p := range gpusim.PresetNames() {
			for _, ch := range []int{0, 4, 6} {
				out = append(out, reqKey{b, p, ch})
			}
		}
	}
	return out
}

// config resolves the request's configuration the way simd does.
func (k reqKey) config() gpusim.Config {
	cfg, err := gpusim.Preset(k.preset)
	if err != nil {
		panic(err) // k.preset comes from gpusim.PresetNames
	}
	if k.channels > 0 {
		cfg.MemChannels = k.channels
		cfg.Name = fmt.Sprintf("%s-%dch", cfg.Name, k.channels)
	}
	return cfg
}

func (k reqKey) path() string {
	p := "/characterize?bench=" + k.bench.Abbrev + "&size=test&config=" + k.preset
	if k.channels > 0 {
		p += "&channels=" + strconv.Itoa(k.channels)
	}
	return p
}

// identity is the store key, which like the memo ignores names.
func (k reqKey) identity() store.Key {
	return store.StatsKey(k.bench.Abbrev, sizes.Test, k.config())
}

// planned is one request of the plan.
type planned struct {
	path string
	key  *reqKey // nil for /profiles
	id   string  // result identity: the Stats key, or "profiles"
	tier string  // the tier the plan predicts will serve it
}

func newServe(o options) (*serve, error) {
	s := &serve{
		o:   o,
		dir: filepath.Join(o.workdir, fmt.Sprintf("serve-%d", os.Getpid())),
	}
	rng := rand.New(rand.NewSource(o.seed))
	keys := allReqKeys()
	// A third of the keys are warm: one of the three channel choices of
	// every (benchmark, preset), so the disk and compute tiers hold the
	// same mix of configurations whatever the seed.
	warmIDs := map[string]bool{"profiles": true}
	for g := 0; g < len(keys); g += 3 {
		k := keys[g+rng.Intn(3)]
		s.warm = append(s.warm, k)
		warmIDs[k.identity().String()] = true
	}
	var reqs []*reqKey // nil asks for /profiles
	for i := range keys {
		reqs = append(reqs, &keys[i])
	}
	for i := 0; i < serveProfiles; i++ {
		reqs = append(reqs, nil)
	}
	for len(reqs) < serveRequests {
		reqs = append(reqs, &keys[rng.Intn(len(keys))])
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	seen := make(map[string]bool)
	for _, k := range reqs {
		q := planned{path: "/profiles?size=test", id: "profiles"}
		if k != nil {
			q = planned{path: k.path(), key: k, id: k.identity().String()}
		}
		switch {
		case seen[q.id]:
			q.tier = tierMemory
		case warmIDs[q.id]:
			q.tier = tierDisk
		default:
			q.tier = tierCompute
		}
		seen[q.id] = true
		s.plan = append(s.plan, q)
	}
	if err := s.computeExpected(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serve) setups() int { return 3 }

// setup warms a store at the test class and makes the first pass's copy.
func (s *serve) setup() (*pass, error) {
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	s.warmDir = filepath.Join(s.dir, "warm")
	st, err := store.Open(s.warmDir, 0, nil)
	if err != nil {
		return nil, err
	}
	traces := make(map[string]*gpusim.RunTrace)
	for _, b := range kernels.All() {
		_, rt, err := core.CaptureGPUAt(b, sizes.Test, gpusim.Base(), true)
		if err != nil {
			return nil, err
		}
		if err := st.SaveTrace(store.TraceKey(b.Abbrev, sizes.Test), rt); err != nil {
			return nil, err
		}
		traces[b.Abbrev] = rt
	}
	for _, k := range s.warm {
		stats, err := core.ReplayGPU(k.bench, k.config(), traces[k.bench.Abbrev])
		if err != nil {
			return nil, err
		}
		if err := st.SaveStats(k.identity(), stats); err != nil {
			return nil, err
		}
	}
	if err := st.SaveProfiles(profilesKey(), core.CharacterizeCPUAllObs(workloads.All(), sizes.Test, 1, nil)); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return nil, s.copyStore()
}

// profilesKey is the key experiments.Context files the test-class CPU
// profile sweep under.
func profilesKey() store.Key {
	var names []string
	for _, w := range workloads.All() {
		names = append(names, w.Suite+"/"+w.Name)
	}
	return store.ProfilesKey(names, sizes.Test)
}

// copyStore makes a fresh copy of the warm store for the next pass.
func (s *serve) copyStore() error {
	s.copies++
	dst := filepath.Join(s.dir, fmt.Sprintf("copy-%d", s.copies))
	err := filepath.WalkDir(s.warmDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(s.warmDir, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	s.nextDir = dst
	return err
}

// openContext opens the next fresh store copy under a context configured
// as cmd/simd configures its own, at the test class with one CPU worker.
func (s *serve) openContext(reg *obs.Registry) (*experiments.Context, *store.Store, string, error) {
	dir := s.nextDir
	st, err := store.Open(dir, 0, reg)
	if err != nil {
		return nil, nil, "", err
	}
	ctx := experiments.NewContext()
	ctx.Size = sizes.Test
	ctx.Workers = 1
	ctx.Obs = reg
	ctx.Store = st
	if err := s.copyStore(); err != nil {
		return nil, nil, "", err
	}
	// Write the copy and the removal of the last one back now, so the
	// pass's fsync'd puts do not wait on them.
	syscall.Sync()
	return ctx, st, dir, nil
}

// computeExpected characterizes every result the plan asks for directly
// through core, outside any timed region. Every run computes them afresh,
// so every run's process does the same work before its set-up.
func (s *serve) computeExpected() error {
	s.expected = make(map[string]string)
	for _, q := range s.plan {
		if _, ok := s.expected[q.id]; ok {
			continue
		}
		if q.key == nil {
			var ps []*core.CPUProfile
			for _, w := range workloads.All() {
				ps = append(ps, core.CharacterizeCPUAt(w, sizes.Test))
			}
			s.expected[q.id] = jsonHash(ps)
			continue
		}
		st, err := core.CharacterizeGPUAt(q.key.bench, sizes.Test, q.key.config(), true)
		if err != nil {
			return fmt.Errorf("direct characterization of %s: %w", q.path, err)
		}
		s.expected[q.id] = jsonHash(anonymous(st))
	}
	return nil
}

// anonymous clears the configuration names in a Stats: the memo and the
// store key results by configuration value, so a served result carries
// the name of whichever request first computed it.
func anonymous(st *gpusim.Stats) *gpusim.Stats {
	st.Config = ""
	for _, k := range st.PerKernel {
		k.Config = ""
	}
	return st
}

type response struct {
	lat  time.Duration
	code int
	body []byte
	err  error
}

func (s *serve) run(tr *tracer) (*pass, error) {
	reg := obs.New()
	ctx, st, dir, err := s.openContext(reg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := obs.ServeDebugMux("127.0.0.1:0", reg, simd.NewServeMux(ctx))
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{}
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	base := "http://" + srv.Addr()

	out := make([]response, len(s.plan))
	root := tr.begin(0, "harness", "serve pass")
	t0 := time.Now()
	for i, q := range s.plan {
		out[i] = s.send(client, base+q.path, tr, root, q.tier)
	}
	p := &pass{wall: time.Since(t0)}
	tr.end(root)
	transport.CloseIdleConnections()
	srv.Close()
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Checks run after the timed region.
	tierCounts := make(map[string]uint64)
	s.respBytes = 0
	for i, r := range out {
		q := &s.plan[i]
		p.lat = append(p.lat, r.lat)
		p.attempted++
		tierCounts[q.tier]++
		s.respBytes += len(r.body)
		switch {
		case r.err != nil:
			p.fail("%s: %v", q.path, r.err)
		case r.code/100 != 2:
			p.fail("%s: HTTP %d: %s", q.path, r.code, r.body)
		default:
			if got := responseHash(q, r.body); got != s.expected[q.id] {
				p.fail("%s: response hash %s, direct characterization %s", q.path, got, s.expected[q.id])
			}
		}
	}
	c := reg.Counters()
	if runs := sumLabeled(c, "exp.gpu.runs"); runs != tierCounts[tierCompute] {
		p.fail("the plan predicts %d computations, the server ran %d", tierCounts[tierCompute], runs)
	}
	p.counts = map[string]uint64{
		"serve.requests.memory":  tierCounts[tierMemory],
		"serve.requests.disk":    tierCounts[tierDisk],
		"serve.requests.compute": tierCounts[tierCompute],
		"store.hit":              c["store.hit"],
		"store.miss":             c["store.miss"],
		"store.put":              c["store.put"],
		"store.bytes":            uint64(st.Bytes()),
		"exp.gpu.runs":           sumLabeled(c, "exp.gpu.runs"),
		"exp.trace.replays":      c["exp.trace.replays"],
		"gpusim.cycles":          c["gpusim.cycles"],
	}
	addGPUCounts(p.counts, reg)
	return p, nil
}

func (s *serve) send(c *http.Client, url string, tr *tracer, root int, tier string) response {
	sp := tr.begin(root, "simd", tier)
	t0 := time.Now()
	var r response
	resp, err := c.Get(url)
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.code = resp.StatusCode
	}
	r.lat = time.Since(t0)
	r.err = err
	tr.end(sp)
	return r
}

// responseHash fingerprints a response's result the way computeExpected
// fingerprints the direct characterization.
func responseHash(q *planned, body []byte) string {
	if q.key == nil {
		var pr simd.ProfilesResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			return "undecodable: " + err.Error()
		}
		return jsonHash(pr.Profiles)
	}
	var cr simd.Response
	if err := json.Unmarshal(body, &cr); err != nil {
		return "undecodable: " + err.Error()
	}
	if cr.Stats == nil {
		return "no stats"
	}
	return jsonHash(anonymous(cr.Stats))
}

// sumLabeled adds up every labeled instance of a counter.
func sumLabeled(counters map[string]uint64, base string) uint64 {
	var n uint64
	for name, v := range counters {
		if b, _ := obs.ParseName(name); b == base {
			n += v
		}
	}
	return n
}

// layers measures the tiers without HTTP — Context.GPUAt called directly
// over the plan on a fresh store copy — and the store's own costs: Get,
// Put and decode of every blob of another fresh copy.
func (s *serve) layers(tr *tracer, traced *pass, m metrics) error {
	reg := obs.New()
	ctx, st, dir, err := s.openContext(reg)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	resolve := make(map[string][]time.Duration)
	for _, q := range s.plan {
		t0 := time.Now()
		if q.key == nil {
			ctx.ProfilesAt(sizes.Test)
		} else if _, err := ctx.GPUAt(q.key.bench, sizes.Test, q.key.config()); err != nil {
			return err
		}
		resolve[q.tier] = append(resolve[q.tier], time.Since(t0))
	}
	if err := st.Close(); err != nil {
		return err
	}
	c := reg.Counters()
	m.set("exp.gpu.runs", float64(sumLabeled(c, "exp.gpu.runs")))
	m.set("exp.trace.replays", float64(c["exp.trace.replays"]))
	m.set("experiments.memo_hit_ratio", float64(len(resolve[tierMemory]))/float64(len(s.plan)))

	request := make(map[string][]time.Duration)
	for i, q := range s.plan {
		request[q.tier] = append(request[q.tier], traced.lat[i])
	}
	for _, tier := range tiers {
		m.set("experiments.resolve_us."+tier, medianMicros(resolve[tier]))
		m.set("simd.request_us."+tier, medianMicros(request[tier]))
	}
	m.set("simd.overhead_us", m["simd.request_us.memory"].Value-m["experiments.resolve_us.memory"].Value)
	m.set("simd.response_bytes", float64(s.respBytes))
	return s.storeLayer(m)
}

// storeLayer times Store.Get, Store.Put and the codecs over every blob of
// a fresh copy of the warm store.
func (s *serve) storeLayer(m metrics) error {
	dir := s.nextDir
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return err
	}
	type blob struct {
		key    store.Key
		decode func([]byte) error
		into   *time.Duration
	}
	var get, put, statsDecode, traceDecode time.Duration
	var blobs []blob
	for _, b := range kernels.All() {
		blobs = append(blobs, blob{store.TraceKey(b.Abbrev, sizes.Test), func(p []byte) error { _, err := store.DecodeTrace(p); return err }, &traceDecode})
	}
	for _, k := range s.warm {
		blobs = append(blobs, blob{k.identity(), func(p []byte) error { _, err := store.DecodeStats(p); return err }, &statsDecode})
	}
	// The profiles blob counts towards Get and Put; its decode time is not
	// a declared metric.
	blobs = append(blobs, blob{profilesKey(), func(p []byte) error { _, err := store.DecodeProfiles(p); return err }, nil})
	for _, b := range blobs {
		t0 := time.Now()
		payload, ok := st.Get(b.key)
		get += time.Since(t0)
		if !ok {
			return fmt.Errorf("warm store lacks %s", b.key)
		}
		t0 = time.Now()
		if err := b.decode(payload); err != nil {
			return err
		}
		if b.into != nil {
			*b.into += time.Since(t0)
		}
		t0 = time.Now()
		if err := st.Put(b.key, payload); err != nil {
			return err
		}
		put += time.Since(t0)
	}
	if err := st.Close(); err != nil {
		return err
	}
	m.set("store.get_s", get.Seconds())
	m.set("store.put_s", put.Seconds())
	m.set("store.stats_decode_s", statsDecode.Seconds())
	m.set("store.trace_decode_s", traceDecode.Seconds())
	return nil
}

func (s *serve) close() { os.RemoveAll(s.dir) }
