// Package simd implements the characterization service: an HTTP/JSON
// front end over experiments.Context's resolvers (memory → persistent
// store → compute). A request names a benchmark, a size class and a
// timing configuration; the response is the cached-or-computed
// gpusim.Stats. Concurrent requests for the same uncached key share one
// simulation, and with a persistent store attached the service
// warm-starts across restarts — the paper's fixed benchmark matrix swept
// by many clients hits one warm pool. Memory stays bounded however many
// distinct configurations (say, channels= values) clients ask for: the
// context keeps the most recently used results and its store holds the
// rest. A failed characterization is not remembered, so the next
// request for its key runs it again.
//
// Endpoints (GET with query parameters, or POST with a JSON body):
//
//	/characterize?bench=BFS&size=test&config=base&channels=4
//	/profiles?size=medium
//	/benchmarks
//	/healthz
//
// cmd/simd mounts these next to the internal/obs debug surface
// (/debug/vars metrics, /debug/pprof, /debug/quit shutdown).
package simd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
)

// Request is one characterization request. Size defaults to the
// context's class, Config to the base preset; Channels > 0 overrides the
// preset's DRAM channel count (the Figure 4 sweep axis).
type Request struct {
	Bench    string `json:"bench"`
	Size     string `json:"size,omitempty"`
	Config   string `json:"config,omitempty"`
	Channels int    `json:"channels,omitempty"`
}

// Response carries the characterization result.
type Response struct {
	Bench     string        `json:"bench"`
	Size      string        `json:"size"`
	Config    string        `json:"config"`
	ElapsedNS int64         `json:"elapsed_ns"`
	Stats     *gpusim.Stats `json:"stats"`
}

// ProfilesResponse carries one CPU-profile sweep.
type ProfilesResponse struct {
	Size      string             `json:"size"`
	ElapsedNS int64              `json:"elapsed_ns"`
	Profiles  []*core.CPUProfile `json:"profiles"`
}

// Server resolves requests through one shared experiments.Context.
type Server struct {
	ctx *experiments.Context
}

// New returns a server over the context. The context's registry (Obs)
// receives the simd.* request instruments.
func New(ctx *experiments.Context) *Server { return &Server{ctx: ctx} }

// Register mounts the service's handlers on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/characterize", s.handleCharacterize)
	mux.HandleFunc("/profiles", s.handleProfiles)
	mux.HandleFunc("/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
}

// Handler returns a standalone handler (a fresh mux with Register
// applied) — what the tests and simple embedders drive.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// NewServeMux builds a mux with the service registered over ctx —
// cmd/simd layers the obs debug handlers onto the same mux.
func NewServeMux(ctx *experiments.Context) *http.ServeMux {
	mux := http.NewServeMux()
	New(ctx).Register(mux)
	return mux
}

// maxRequestBytes bounds a POST body. A valid request is a few dozen
// bytes; without a bound, json.Decoder would read through an unknown
// field of any size.
const maxRequestBytes = 64 << 10

// parseRequest accepts either form: query parameters on any method, or a
// JSON body on POST.
func parseRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	var req Request
	if r.Method == http.MethodPost && r.Body != nil {
		body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return req, fmt.Errorf("bad JSON body: %w", err)
		}
		if req.Channels < 0 {
			return req, fmt.Errorf("bad channels %d", req.Channels)
		}
	}
	q := r.URL.Query()
	if v := q.Get("bench"); v != "" {
		req.Bench = v
	}
	if v := q.Get("size"); v != "" {
		req.Size = v
	}
	if v := q.Get("config"); v != "" {
		req.Config = v
	}
	if v := q.Get("channels"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return req, fmt.Errorf("bad channels %q", v)
		}
		req.Channels = n
	}
	return req, nil
}

func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	reg := s.ctx.Obs
	span := reg.Span("simd.characterize")
	defer span.End()
	reg.Counter(obs.Name("simd.requests", "endpoint", "characterize")).Inc()

	req, err := parseRequest(w, r)
	if err != nil {
		s.fail(w, rejectStatus(err), "characterize", err)
		return
	}
	b, ok := kernels.ByAbbrev(req.Bench)
	if !ok {
		s.fail(w, http.StatusBadRequest, "characterize", fmt.Errorf("unknown benchmark %q", req.Bench))
		return
	}
	size := s.ctx.Size
	if req.Size != "" {
		if size, err = sizes.Parse(req.Size); err != nil {
			s.fail(w, http.StatusBadRequest, "characterize", err)
			return
		}
	}
	if req.Config == "" {
		req.Config = "base"
	}
	cfg, err := gpusim.Preset(req.Config)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "characterize", err)
		return
	}
	if req.Channels > 0 {
		cfg.MemChannels = req.Channels
		cfg.Name = fmt.Sprintf("%s-%dch", cfg.Name, req.Channels)
	}
	// Reject an absurd configuration before it reaches the resolver, so
	// it never allocates, never simulates and never keys a cache entry.
	if err := cfg.Validate(); err != nil {
		s.fail(w, http.StatusBadRequest, "characterize", err)
		return
	}
	t0 := time.Now()
	st, err := s.ctx.GPUAt(b, size, cfg)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "characterize", err)
		return
	}
	s.reply(w, &Response{
		Bench: b.Abbrev, Size: size.String(), Config: cfg.Name,
		ElapsedNS: time.Since(t0).Nanoseconds(), Stats: st,
	})
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	reg := s.ctx.Obs
	span := reg.Span("simd.profiles")
	defer span.End()
	reg.Counter(obs.Name("simd.requests", "endpoint", "profiles")).Inc()

	req, err := parseRequest(w, r)
	if err != nil {
		s.fail(w, rejectStatus(err), "profiles", err)
		return
	}
	size := s.ctx.Size
	if req.Size != "" {
		if size, err = sizes.Parse(req.Size); err != nil {
			s.fail(w, http.StatusBadRequest, "profiles", err)
			return
		}
	}
	t0 := time.Now()
	ps, err := s.ctx.CPUProfilesAt(size)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "profiles", err)
		return
	}
	s.reply(w, &ProfilesResponse{
		Size: size.String(), ElapsedNS: time.Since(t0).Nanoseconds(), Profiles: ps,
	})
}

// rejectStatus is the status answering a request parseRequest rejects:
// 413 for a body over maxRequestBytes, 400 otherwise.
func rejectStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// benchmarkInfo is one /benchmarks row.
type benchmarkInfo struct {
	Abbrev string            `json:"abbrev"`
	Name   string            `json:"name"`
	Dwarf  string            `json:"dwarf"`
	Sizes  map[string]string `json:"sizes"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	s.ctx.Obs.Counter(obs.Name("simd.requests", "endpoint", "benchmarks")).Inc()
	var out []benchmarkInfo
	for _, b := range kernels.All() {
		info := benchmarkInfo{Abbrev: b.Abbrev, Name: b.Name, Dwarf: b.Dwarf, Sizes: make(map[string]string)}
		for _, c := range sizes.Classes() {
			info.Sizes[c.String()] = b.SimSize(c)
		}
		out = append(out, info)
	}
	s.reply(w, out)
}

func (s *Server) reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is the client's problem
}

func (s *Server) fail(w http.ResponseWriter, code int, endpoint string, err error) {
	s.ctx.Obs.Counter(obs.Name("simd.errors", "endpoint", endpoint)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}
