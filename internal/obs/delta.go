package obs

// Delta-solving and solve-cache views (PR 10). Like every other view in
// this package they are nil-safe (nil Observer → no-ops) and strictly
// passive: the delta engine produces byte-identical schedules whether or
// not it is observed.

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

// ---------------------------------------------------------------------------
// Cache view: the content-addressed solve cache (kpbs.Cache) — hit/miss
// accounting, single-flight coalescing, checkouts and eviction counts.

// CacheObs is the solve cache's metrics bundle, cached per observer.
type CacheObs struct {
	hits, misses, evictions *Counter
	coalesced, checkouts    *Counter
	entries                 *Gauge
}

// Cache returns the solve-cache view, resolving its metrics on first use.
// Nil receiver → nil view.
func (o *Observer) Cache() *CacheObs {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cache == nil {
		o.cache = &CacheObs{
			hits:      o.Metrics.Counter("solver.cache.hits_total"),
			misses:    o.Metrics.Counter("solver.cache.misses_total"),
			evictions: o.Metrics.Counter("solver.cache.evictions_total"),
			coalesced: o.Metrics.Counter("solver.cache.coalesced_total"),
			checkouts: o.Metrics.Counter("solver.cache.checkouts_total"),
			entries:   o.Metrics.Gauge("solver.cache.entries"),
		}
	}
	return o.cache
}

// Hit counts a cache hit.
func (c *CacheObs) Hit() {
	if c == nil {
		return
	}
	c.hits.Inc()
}

// Miss counts a cache miss (a solve will run).
func (c *CacheObs) Miss() {
	if c == nil {
		return
	}
	c.misses.Inc()
}

// Coalesced counts a request that waited on another in-flight solve of
// the same instance instead of solving itself (single-flight dedup).
func (c *CacheObs) Coalesced() {
	if c == nil {
		return
	}
	c.coalesced.Inc()
}

// Checkout counts an exclusive Result transfer out of the cache.
func (c *CacheObs) Checkout() {
	if c == nil {
		return
	}
	c.checkouts.Inc()
}

// Evicted counts entries dropped by the LRU bound.
func (c *CacheObs) Evicted(n int) {
	if c == nil {
		return
	}
	c.evictions.Add(int64(n))
}

// Entries records the current entry count.
func (c *CacheObs) Entries(n int) {
	if c == nil {
		return
	}
	c.entries.Set(int64(n))
}
