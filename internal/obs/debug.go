package obs

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// The debug/API listener's timeouts. A client has debugHeaderTimeout to
// send a request's headers and may hold an idle keep-alive connection for
// debugIdleTimeout, so a connection that never finishes a request cannot
// hold a goroutine for good. There is no write timeout: a compute request
// or a /debug/pprof/profile capture can legitimately run long.
const (
	debugHeaderTimeout = 5 * time.Second
	debugIdleTimeout   = 2 * time.Minute
)

// debugRegistry is the registry the process-wide expvar "obs" variable
// snapshots. expvar names can be published exactly once per process, so
// ServeDebug swaps the pointer instead of re-publishing.
var (
	debugRegistry atomic.Pointer[Registry]
	publishOnce   sync.Once
)

// DebugServer is a live debug endpoint: expvar JSON (including the
// registry under the "obs" key) at /debug/vars and the standard pprof
// handlers under /debug/pprof/.
type DebugServer struct {
	ln   net.Listener
	quit chan struct{}
	once sync.Once
}

// ServeDebug starts a debug HTTP server on addr (host:port; port 0 picks
// an ephemeral port) exposing the registry. It returns once the listener
// is bound, serving in a background goroutine; Addr reports the bound
// address. GET /debug/quit closes the Quit channel so callers holding the
// process open for scraping (cmd/experiments -debug-hold) know to exit.
func ServeDebug(addr string, r *Registry) (*DebugServer, error) {
	return ServeDebugMux(addr, r, http.NewServeMux())
}

// ServeDebugMux is ServeDebug onto a caller-supplied mux: the debug
// handlers (expvar, pprof, quit) are registered alongside whatever the
// caller already mounted, so a service like cmd/simd serves its API and
// its debug surface from one listener.
func ServeDebugMux(addr string, r *Registry, mux *http.ServeMux) (*DebugServer, error) {
	debugRegistry.Store(r)
	publishOnce.Do(func() {
		expvar.Publish("obs", expvar.Func(func() any {
			return debugRegistry.Load().Snapshot()
		}))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	s := &DebugServer{ln: ln, quit: make(chan struct{})}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/quit", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "quitting")
		s.once.Do(func() { close(s.quit) })
	})
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: debugHeaderTimeout, IdleTimeout: debugIdleTimeout}
	go hs.Serve(ln) //nolint:errcheck // returns once Close closes the listener
	return s, nil
}

// Addr is the server's bound address (useful with port 0).
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Quit is closed when a client requests /debug/quit.
func (s *DebugServer) Quit() <-chan struct{} { return s.quit }

// Close stops the listener, leaving requests in flight to finish; it is a
// no-op on a nil server.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.ln.Close()
}

// DebugFlag owns a command's -debug-addr wiring, shared the way
// ProfileFlags shares the profiling flags:
//
//	dbg := obs.DebugFlags(flag.CommandLine)
//	flag.Parse()
//	srv, err := dbg.Serve(reg, os.Stderr)
//	if err != nil { ... }
//	defer srv.Close()
type DebugFlag struct{ addr *string }

// DebugFlags registers -debug-addr on the flag set.
func DebugFlags(fs *flag.FlagSet) *DebugFlag {
	return &DebugFlag{addr: fs.String("debug-addr", "", "serve expvar JSON and pprof on this host:port while running")}
}

// Serve starts the debug server on r if -debug-addr was given, and writes
// to w the banner naming the bound address (scripts parse it to find an
// ephemeral port). Without the flag it returns a nil server.
func (d *DebugFlag) Serve(r *Registry, w io.Writer) (*DebugServer, error) {
	if *d.addr == "" {
		return nil, nil
	}
	srv, err := ServeDebug(*d.addr, r)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "debug: serving expvar and pprof on http://%s/debug/vars\n", srv.Addr())
	return srv, nil
}
