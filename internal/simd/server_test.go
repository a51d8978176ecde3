package simd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/store"
)

// newTestServer builds a service over a test-size context. Validation is
// off (the functional correctness of every kernel is pinned elsewhere)
// so requests stay fast.
func newTestServer(t *testing.T) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	ctx := experiments.NewContext()
	ctx.Check = false
	ctx.Size = sizes.Test
	ctx.Obs = reg
	return New(ctx), reg
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
	return rr
}

func TestCharacterizeRequestResponse(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()

	rr := get(t, h, "/characterize?bench=BFS&size=test&config=base8")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rr.Code, rr.Body)
	}
	var resp Response
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Bench != "BFS" || resp.Size != "test" || resp.Config != "gpgpusim-8sm" {
		t.Fatalf("response identity = %s/%s/%s", resp.Bench, resp.Size, resp.Config)
	}
	if resp.Stats == nil || resp.Stats.Cycles == 0 || resp.Stats.ThreadInstrs == 0 {
		t.Fatalf("response stats empty: %+v", resp.Stats)
	}

	// The POST body form resolves to the same memoized result.
	body, _ := json.Marshal(Request{Bench: "BFS", Size: "test", Config: "base8"})
	rr2 := httptest.NewRecorder()
	h.ServeHTTP(rr2, httptest.NewRequest(http.MethodPost, "/characterize", bytes.NewReader(body)))
	if rr2.Code != http.StatusOK {
		t.Fatalf("POST status %d: %s", rr2.Code, rr2.Body)
	}
	var resp2 Response
	if err := json.Unmarshal(rr2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Stats.Cycles != resp.Stats.Cycles || resp2.Stats.ThreadInstrs != resp.Stats.ThreadInstrs {
		t.Fatal("POST and GET forms of one request diverged")
	}
}

func TestCharacterizeRejectsBadRequests(t *testing.T) {
	srv, reg := newTestServer(t)
	h := srv.Handler()
	for _, url := range []string{
		"/characterize",                                   // no benchmark
		"/characterize?bench=NOPE&size=test",              // unknown benchmark
		"/characterize?bench=BFS&size=galactic",           // unknown size
		"/characterize?bench=BFS&size=test&config=vapor",  // unknown config
		"/characterize?bench=BFS&size=test&channels=zero", // malformed channels
	} {
		if rr := get(t, h, url); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rr.Code)
		}
	}
	if got := reg.Counters()[obs.Name("simd.errors", "endpoint", "characterize")]; got != 5 {
		t.Fatalf("simd.errors = %d, want 5", got)
	}
}

// TestCharacterizeRejectsAbsurdConfig sends a channel count Config's
// bounds reject, in both request forms, plus a negative count in the
// JSON form. Each must get a 400 without simulating anything: a
// 10⁹-channel DRAM model alone would allocate 8 GB.
func TestCharacterizeRejectsAbsurdConfig(t *testing.T) {
	srv, reg := newTestServer(t)
	h := srv.Handler()
	if rr := get(t, h, "/characterize?bench=BFS&size=test&channels=1000000000"); rr.Code != http.StatusBadRequest {
		t.Errorf("query form: status %d, want 400", rr.Code)
	}
	for _, body := range []string{
		`{"bench":"BFS","size":"test","channels":1000000000}`,
		`{"bench":"BFS","size":"test","channels":-3}`,
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/characterize", strings.NewReader(body)))
		if rr.Code != http.StatusBadRequest {
			t.Errorf("JSON form %s: status %d, want 400", body, rr.Code)
		}
	}
	if got := reg.Counters()[obs.Name("exp.gpu.runs", "bench", "BFS@test")]; got != 0 {
		t.Fatalf("exp.gpu.runs = %d, want 0", got)
	}
}

// TestCharacterizeRejectsOversizedBody sends a valid request padded to
// 1 MiB by an unknown field: it must get a 413 without simulating.
func TestCharacterizeRejectsOversizedBody(t *testing.T) {
	srv, reg := newTestServer(t)
	body := `{"bench":"BFS","size":"test","pad":"` + strings.Repeat("x", 1<<20) + `"}`
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/characterize", strings.NewReader(body)))
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rr.Code, rr.Body)
	}
	if got := reg.Counters()[obs.Name("exp.gpu.runs", "bench", "BFS@test")]; got != 0 {
		t.Fatalf("exp.gpu.runs = %d, want 0", got)
	}
}

// TestConcurrentRequestsComputeOnce is the service-level singleflight
// guarantee: N clients racing the same uncached key get identical
// responses from exactly one simulation (exp.gpu.runs counts executed
// simulations only — memo and disk hits never increment it).
func TestConcurrentRequestsComputeOnce(t *testing.T) {
	srv, reg := newTestServer(t)
	h := srv.Handler()

	const clients = 12
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/characterize?bench=BFS&size=test&config=base8", nil))
			if rr.Code != http.StatusOK {
				t.Errorf("client %d: status %d", i, rr.Code)
				return
			}
			var resp Response
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			bodies[i], _ = json.Marshal(resp.Stats)
		}(i)
	}
	wg.Wait()
	if got := reg.Counters()[obs.Name("exp.gpu.runs", "bench", "BFS@test")]; got != 1 {
		t.Fatalf("simulation ran %d times for %d concurrent requests, want 1", got, clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d observed different stats", i)
		}
	}
	if got := reg.Counters()[obs.Name("simd.requests", "endpoint", "characterize")]; got != clients {
		t.Fatalf("simd.requests = %d, want %d", got, clients)
	}
}

// TestServiceWarmStartsFromStore drives the full service-over-store
// stack: a second server process (fresh context, same store directory)
// answers from disk without simulating.
func TestServiceWarmStartsFromStore(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Server, *obs.Registry, *store.Store) {
		reg := obs.New()
		st, err := store.Open(dir, 0, reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		ctx := experiments.NewContext()
		ctx.Check = false
		ctx.Size = sizes.Test
		ctx.Obs = reg
		ctx.Store = st
		return New(ctx), reg, st
	}

	cold, _, _ := open()
	rr := get(t, cold.Handler(), "/characterize?bench=NW&size=test")
	if rr.Code != http.StatusOK {
		t.Fatalf("cold status %d: %s", rr.Code, rr.Body)
	}

	warm, reg, st := open()
	rr2 := get(t, warm.Handler(), "/characterize?bench=NW&size=test")
	if rr2.Code != http.StatusOK {
		t.Fatalf("warm status %d: %s", rr2.Code, rr2.Body)
	}
	if !bytes.Equal(rr.Body.Bytes(), rr2.Body.Bytes()) {
		// Bodies embed elapsed_ns; compare the stats instead.
		var a, b Response
		if err := json.Unmarshal(rr.Body.Bytes(), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rr2.Body.Bytes(), &b); err != nil {
			t.Fatal(err)
		}
		sa, _ := json.Marshal(a.Stats)
		sb, _ := json.Marshal(b.Stats)
		if !bytes.Equal(sa, sb) {
			t.Fatal("warm response stats diverged from cold")
		}
	}
	if got := reg.Counters()[obs.Name("exp.gpu.runs", "bench", "NW@test")]; got != 0 {
		t.Fatalf("warm server simulated %d times, want 0 (disk hit)", got)
	}
	if c := st.Counters(); c.Hits == 0 {
		t.Fatal("warm server never hit the store")
	}
}

func TestBenchmarksAndHealth(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()

	rr := get(t, h, "/benchmarks")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var rows []struct {
		Abbrev string            `json:"abbrev"`
		Sizes  map[string]string `json:"sizes"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d benchmarks listed, want 12", len(rows))
	}
	for _, row := range rows {
		if len(row.Sizes) != len(sizes.Classes()) {
			t.Fatalf("%s lists %d size classes", row.Abbrev, len(row.Sizes))
		}
	}

	if rr := get(t, h, "/healthz"); rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rr.Code, rr.Body)
	}
}
