// Package obs is redistgo's dependency-free observability layer: atomic
// counters, gauges and fixed-bucket histograms behind a nil-safe Registry,
// a structured trace recorder that renders as a timeline in
// chrome://tracing, and an opt-in Prometheus+pprof introspection endpoint.
//
// The package is built around two contracts:
//
//   - Nil safety. A nil *Registry hands out nil metric handles, and every
//     method on a nil handle (Counter, Gauge, Histogram, Trace, the
//     subsystem views in observer.go) is a no-op. Instrumented code
//     therefore carries no "is observability on?" branching, and the
//     //redistlint:hotpath zero-allocation contract of the peeling engine
//     holds unchanged when observation is disabled.
//   - Passivity. Recording never influences what is being recorded: the
//     solver produces byte-identical schedules with tracing on or off
//     (asserted by TestSolveObsDeterminism and the FuzzSolve differential
//     check), and metric updates are single atomic operations that never
//     allocate (asserted by AllocsPerRun tests).
//
// Handles are resolved by name from a Registry once, outside hot loops —
// the lookup takes a mutex and may allocate; the update path never does.
// tools/redistlint's hotpath analyzer enforces the split statically: a
// //redistlint:hotpath function may call handle methods but not Registry
// or Observer lookups.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on a nil counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count, 0 for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use;
// a nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (negative deltas allowed). No-op on nil.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value, 0 for a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations: bucket i
// counts observations v ≤ bounds[i], the last bucket is the +Inf
// overflow. Bounds are set at registration and never change, so Observe
// is a binary search plus one atomic add — no allocation, safe for
// concurrent use. A nil *Histogram discards observations.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sum     atomic.Int64
}

// newHistogram builds a histogram with the given strictly increasing
// upper bounds.
func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// NewHistogram builds a standalone histogram with the given strictly
// increasing upper bounds, not attached to any Registry. Per-tenant SLO
// slots use these so that tenant cardinality never leaks into registry
// metric names (the tenant id becomes a Prometheus label instead).
func NewHistogram(bounds []int64) *Histogram { return newHistogram(bounds) }

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; the overflow bucket catches
	// everything beyond the last bound.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations, 0 for a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations, 0 for a nil histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot copies the bucket counts (index i ≤ bounds[i]; last is +Inf).
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values by
// linear interpolation inside the bucket containing the target rank.
// Bucket i spans (bounds[i-1], bounds[i]] with a lower edge of 0 for the
// first bucket; ranks landing in the +Inf overflow bucket clamp to the
// last finite bound. Returns 0 for a nil or empty histogram. The estimate
// is read from a racy multi-word snapshot, which is fine for monitoring.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return quantile(q, h.bounds, h.snapshot())
}

// Quantile estimates the q-quantile of a frozen histogram; see
// (*Histogram).Quantile for the interpolation rules.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	return quantile(q, s.Bounds, s.Buckets)
}

func quantile(q float64, bounds []int64, buckets []int64) int64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation under the usual
	// nearest-rank-with-interpolation convention.
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var seen float64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		if i >= len(bounds) {
			// +Inf overflow bucket: no upper edge to interpolate toward.
			return bounds[len(bounds)-1]
		}
		lo := int64(0)
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := (rank - seen) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return bounds[len(bounds)-1]
}

// Registry names and owns the metrics of one process (or one test). All
// lookups are idempotent — the first registration of a name wins and
// later lookups return the same handle — and safe for concurrent use. A
// nil *Registry returns nil handles, turning every downstream update into
// a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Nil receiver → nil handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil receiver → nil handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given strictly increasing upper bounds on first use (later bounds
// are ignored — the first registration wins). Nil receiver → nil handle.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// DurationBuckets are the default histogram bounds for microsecond
// latencies: 10µs to ~100s, roughly ×3 per bucket.
var DurationBuckets = []int64{
	10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000,
	100_000, 300_000, 1_000_000, 3_000_000, 10_000_000, 30_000_000, 100_000_000,
}

// SizeBuckets are the default histogram bounds for cardinalities
// (matching sizes, step widths): powers of two from 1 to 64k.
var SizeBuckets = []int64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
}

// RatioBuckets are the default histogram bounds for percent ratios
// (actual/predicted·100): under-prediction below 100, skew above.
var RatioBuckets = []int64{
	25, 50, 75, 90, 100, 110, 125, 150, 200, 300, 500, 1000,
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Bounds  []int64 `json:"bounds"`  // upper bounds, one per bucket
	Buckets []int64 `json:"buckets"` // len(Bounds)+1; last is +Inf
}

// Snapshot is a frozen, deterministically ordered view of a registry, for
// the Prometheus writer and for test assertions.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the current value of every metric. Histograms are
// sorted by name; the counter and gauge maps serialize deterministically
// because encoding/json sorts map keys. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name:    name,
			Count:   h.Count(),
			Sum:     h.Sum(),
			Bounds:  h.bounds,
			Buckets: h.snapshot(),
		})
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
