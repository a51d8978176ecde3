package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentUpdates hammers one counter, gauge and histogram from
// GOMAXPROCS goroutines — through registry lookups, not cached pointers,
// so the creation path races too — and checks the totals. CI runs this
// package under -race.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const ops = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				r.Counter("c").Add(2)
				r.Gauge("g").Add(1)
				r.Gauge("max").SetMax(int64(w*ops + i))
				r.Histogram("h").Observe(uint64(i))
				r.Eventf("quiet", "no sinks attached")
			}
		}(w)
	}
	wg.Wait()

	n := uint64(workers) * ops
	if got := r.Counter("c").Value(); got != 2*n {
		t.Errorf("counter = %d, want %d", got, 2*n)
	}
	if got := r.Gauge("g").Value(); got != int64(n) {
		t.Errorf("gauge = %d, want %d", got, n)
	}
	if want := int64(workers*ops - 1); r.Gauge("max").Value() != want {
		t.Errorf("max gauge = %d, want %d", r.Gauge("max").Value(), want)
	}
	h := r.Histogram("h")
	if got := h.Count(); got != n {
		t.Errorf("histogram count = %d, want %d", got, n)
	}
	wantSum := uint64(workers) * (ops * (ops - 1) / 2)
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %d, want %d", got, wantSum)
	}
}

// TestNoOpZeroAllocs pins the disabled path's cost: every operation on a
// nil registry and on nil instruments must allocate zero bytes, so
// instrumented hot paths are free when no registry is attached.
func TestNoOpZeroAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	span := r.Span("x")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		c.Inc()
		g.Set(7)
		g.Add(-1)
		g.SetMax(42)
		h.Observe(9)
		span.End()
		r.Counter("y").Add(1)
		r.Gauge("y").Set(1)
		r.Histogram("y").Observe(1)
		r.Span("y").End()
		r.Eventf("topic", "no args means no boxing")
		_ = c.Value()
		_ = g.Value()
		_ = h.Count()
	}); allocs != 0 {
		t.Fatalf("no-op path allocates %v bytes/op, want 0", allocs)
	}
}

// TestLiveInstrumentZeroAllocs pins the enabled path too: operating on
// instruments already resolved from a live registry must not allocate.
func TestLiveInstrumentZeroAllocs(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		g.Set(5)
		g.SetMax(9)
		h.Observe(17)
	}); allocs != 0 {
		t.Fatalf("live instrument ops allocate %v bytes/op, want 0", allocs)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []uint64{0, 1, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 7 || s.Sum != 1011 {
		t.Fatalf("snapshot count=%d sum=%d, want 7/1011", s.Count, s.Sum)
	}
	// 0 → le 1; 1,1 → le 2; 2,3 → le 4; 4 → le 8; 1000 → le 1024.
	want := []BucketCount{{1, 1}, {2, 2}, {4, 2}, {8, 1}, {1024, 1}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
}

func TestNameRoundTrip(t *testing.T) {
	name := Name("exp.gpu.cycles", "bench", "BFS@medium", "cfg", "base")
	if name != "exp.gpu.cycles{bench=BFS@medium,cfg=base}" {
		t.Fatalf("Name = %q", name)
	}
	base, labels := ParseName(name)
	if base != "exp.gpu.cycles" || labels["bench"] != "BFS@medium" || labels["cfg"] != "base" {
		t.Fatalf("ParseName = %q %v", base, labels)
	}
	if base, labels := ParseName("plain"); base != "plain" || labels != nil {
		t.Fatalf("ParseName(plain) = %q %v", base, labels)
	}
}

func TestEvents(t *testing.T) {
	r := New()
	var lines []string
	r.OnEvent("trace", func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	r.Eventf("trace", "capture %s on %s", "BFS@medium", "base")
	r.Eventf("other", "unsubscribed topic is dropped")
	if len(lines) != 1 || lines[0] != "capture BFS@medium on base" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestSnapshotAndDump(t *testing.T) {
	r := New()
	r.Counter("a.count").Add(3)
	r.Gauge("b.depth").Set(-2)
	r.Histogram("c.ns").Observe(100)
	snap := r.Snapshot()
	if snap["a.count"] != uint64(3) || snap["b.depth"] != int64(-2) {
		t.Fatalf("snapshot = %v", snap)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
	dump := r.Dump()
	for _, want := range []string{"a.count 3", "b.depth -2", "c.ns count=1 sum=100"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestServeDebug boots the debug server on an ephemeral port and fetches
// /debug/vars, asserting the registry's metrics are present — the same
// round trip CI's telemetry-smoke step performs against cmd/experiments.
func TestServeDebug(t *testing.T) {
	r := New()
	r.Counter("smoke.count").Add(41)
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("expvar output is not JSON: %v\n%s", err, body)
	}
	var snap map[string]any
	if err := json.Unmarshal(vars["obs"], &snap); err != nil {
		t.Fatalf("obs var is not JSON: %v", err)
	}
	if got, ok := snap["smoke.count"].(float64); !ok || got != 41 {
		t.Fatalf("smoke.count = %v, want 41", snap["smoke.count"])
	}

	// /debug/quit closes the Quit channel for -debug-hold callers.
	if _, err := http.Get("http://" + srv.Addr() + "/debug/quit"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Quit():
	case <-time.After(5 * time.Second):
		t.Fatal("Quit channel not closed after /debug/quit")
	}
}

// TestServeDebugDropsStalledHeaders opens a raw connection that sends
// half a request line and then nothing: the server must hang up within
// its header timeout instead of holding the connection for good.
func TestServeDebugDropsStalledHeaders(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /debug/va")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(debugHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("stalled request: %v after %v, reply %q; want the server to hang up", err, time.Since(t0), reply)
	}
}

// TestDebugFlags: without -debug-addr no server starts and nothing is
// printed; with it, the banner names the bound address in the exact form
// CI's smoke steps parse.
func TestDebugFlags(t *testing.T) {
	var out strings.Builder
	srv, err := DebugFlags(flag.NewFlagSet("off", flag.ContinueOnError)).Serve(New(), &out)
	if srv != nil || err != nil || out.Len() != 0 {
		t.Fatalf("without -debug-addr: server %v, err %v, output %q", srv, err, out.String())
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("nil server Close: %v", err)
	}

	fs := flag.NewFlagSet("on", flag.ContinueOnError)
	dbg := DebugFlags(fs)
	if err := fs.Parse([]string{"-debug-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	srv, err = dbg.Serve(New(), &out)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if want := "debug: serving expvar and pprof on http://" + srv.Addr() + "/debug/vars\n"; out.String() != want {
		t.Fatalf("banner %q, want %q", out.String(), want)
	}
}
