package redistgo

import "redistgo/internal/obs"

// Observer is the observability layer: a metrics registry plus a Chrome
// trace_event recorder, threaded through solves (Options.Obs), batches
// (BatchOptions.Obs) and cluster runs (ClusterConfig.Obs). A nil
// *Observer — the default everywhere — disables all instrumentation at
// zero cost, and observation is strictly passive: schedules are
// byte-identical with an observer attached or not.
type Observer = obs.Observer

// ObsServer is a running introspection endpoint; see ServeObs.
type ObsServer = obs.Server

// NewObserver returns an Observer with a fresh registry and trace buffer.
func NewObserver() *Observer { return obs.New() }

// ServeObs exposes an observer over HTTP for live introspection:
// /metrics (Prometheus text format), /healthz and /readyz probes,
// /debug/trace (Chrome trace_event JSON for chrome://tracing), and
// /debug/pprof. A bare ":port" address binds localhost only — the
// endpoint has no authentication, so bind non-loopback addresses
// deliberately. Close the returned server to release the port.
func ServeObs(addr string, o *Observer) (*ObsServer, error) { return obs.Serve(addr, o) }
