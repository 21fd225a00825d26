package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
)

// Server is a running introspection endpoint. Close releases the
// listener; in-flight requests are abandoned (the endpoint is a debug
// surface, not a service).
type Server struct {
	ln    net.Listener
	srv   *http.Server
	ready atomic.Bool

	closeOnce sync.Once
	closeErr  error
}

// Addr returns the bound address, e.g. "127.0.0.1:6060".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetReady flips what /readyz reports. Servers start not-ready; the
// daemon marks itself ready once its accept loop is up and not-ready
// again when shutdown begins, so a load balancer drains before the
// listener disappears.
func (s *Server) SetReady(ok bool) {
	if s == nil {
		return
	}
	s.ready.Store(ok)
}

// Close shuts the endpoint down. Idempotent and safe to call from
// multiple goroutines concurrently — also concurrently with in-flight
// handlers, which http.Server.Close abandons.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.ready.Store(false)
		s.closeErr = s.srv.Close()
	})
	return s.closeErr
}

// Serve starts the introspection endpoint on addr and returns
// immediately. A bare ":port" binds 127.0.0.1 — the endpoint exposes
// pprof and internal counters, so reaching it from another host must be
// an explicit decision (pass a full host:port to opt in).
//
// Routes:
//
//	/              plain-text index
//	/metrics       Prometheus text exposition format 0.0.4
//	/healthz       liveness: 200 while the process serves requests
//	/readyz        readiness: 200 only after SetReady(true)
//	/debug/trace   the trace so far, Chrome trace_event JSON
//	/debug/pprof/  the standard pprof handlers
func Serve(addr string, o *Observer) (*Server, error) {
	if o == nil {
		return nil, fmt.Errorf("obs: cannot serve a nil observer")
	}
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	s := &Server{}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "redistgo observability endpoint\n\n"+
			"/metrics       Prometheus text format (with per-tenant SLO series)\n"+
			"/healthz       liveness probe\n"+
			"/readyz        readiness probe\n"+
			"/debug/trace   Chrome trace_event JSON (load in chrome://tracing)\n"+
			"/debug/pprof/  pprof profiles\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, o) // client went away; nothing to report to
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		_ = o.Trace.WriteJSON(w) // client went away; nothing to report to
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln, s.srv = ln, &http.Server{Handler: mux}
	go func() {
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}
