package obs

// The delta-solving view. Like every other view in this package it is
// nil-safe (nil Observer → no-ops) and strictly passive: the delta engine
// produces byte-identical schedules whether or not it is observed.

// deltaMetrics are the per-algorithm delta-solve metrics, resolved once
// per algorithm alongside solverMetrics.
type deltaMetrics struct {
	reuse, rebuild, cold *Counter
	fallbacks            *Counter
	edits                *Histogram
}

func (o *Observer) deltaMetrics(alg string) *deltaMetrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	if m, ok := o.deltas[alg]; ok {
		return m
	}
	if o.deltas == nil {
		o.deltas = make(map[string]*deltaMetrics)
	}
	m := &deltaMetrics{
		reuse:     o.Metrics.Counter("solver.delta.requests_total." + alg + ".reuse"),
		rebuild:   o.Metrics.Counter("solver.delta.requests_total." + alg + ".rebuild"),
		cold:      o.Metrics.Counter("solver.delta.requests_total." + alg + ".cold"),
		fallbacks: o.Metrics.Counter("solver.delta.fallbacks_total." + alg),
		edits:     o.Metrics.Histogram("solver.delta.edits."+alg, SizeBuckets),
	}
	o.deltas[alg] = m
	return m
}

// DeltaSolve records the outcome of one SolveDelta call: the repair path
// taken and the edit count. The rebuild and cold paths count as
// fallbacks.
func (o *Observer) DeltaSolve(alg, path string, edits int) {
	if o == nil {
		return
	}
	m := o.deltaMetrics(alg)
	switch path {
	case "reuse":
		m.reuse.Inc()
	case "rebuild":
		m.rebuild.Inc()
		m.fallbacks.Inc()
	case "cold":
		m.cold.Inc()
		m.fallbacks.Inc()
	}
	m.edits.Observe(int64(edits))
	o.Trace.Instant("solver", "delta "+path, PIDSolver, 0, []Arg{
		{"edits", int64(edits)},
	})
}
