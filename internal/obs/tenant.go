package obs

import (
	"container/list"
	"sort"
	"sync"
	"time"
)

// tenantCap bounds how many tenants hold live SLO slots at once. The
// north-star fleet serves millions of tenants; per-tenant label series
// must not scale with that, so slots live in an LRU of fixed capacity and
// an evicted tenant's history is forgotten (the eviction itself is
// counted). 256 tenants × 2 histograms × ~16 buckets keeps a /metrics
// scrape in the tens of kilobytes.
const tenantCap = 256

// TenantObs hands out per-tenant SLO slots keyed on the wire frame's Src
// field. Slots hold standalone (registry-less) metrics so tenant ids never
// leak into registry metric names — on the Prometheus endpoint they appear
// as a bounded set of label values instead. A nil *TenantObs hands out nil
// slots; every method on a nil slot is a no-op.
type TenantObs struct {
	mu        sync.Mutex
	ll        *list.List // front = most recently used; values are *TenantSlot
	slots     map[int]*list.Element
	evictions *Counter
	known     *Gauge
}

// TenantSLO returns the per-tenant SLO view, created on first use. Nil
// receiver → nil view.
func (o *Observer) TenantSLO() *TenantObs {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.tenantSLO()
}

// tenantSLO returns the per-tenant SLO view, created on first use. The
// caller holds o.mu.
func (o *Observer) tenantSLO() *TenantObs {
	if o.tenants == nil {
		o.tenants = &TenantObs{
			ll:        list.New(),
			slots:     make(map[int]*list.Element),
			evictions: o.Metrics.Counter("serve.tenant_evictions_total"),
			known:     o.Metrics.Gauge("serve.tenant_slots"),
		}
	}
	return o.tenants
}

// TenantSlot carries one tenant's SLO metrics. The handles inside are the
// same atomic Counter/Histogram types as registry metrics, so updates
// after the Slot lookup are lock-free.
type TenantSlot struct {
	Tenant      int
	requests    *Counter
	responses   *Counter
	rejects     *Counter
	queueWaitUS *Histogram
	solveUS     *Histogram
}

// Slot returns tenant's slot, creating it (and possibly evicting the
// least-recently-used tenant) on first use. The lookup takes the view's
// mutex — call it once per request, not per phase. Nil receiver → nil
// slot.
func (t *TenantObs) Slot(tenant int) *TenantSlot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.slots[tenant]; ok {
		t.ll.MoveToFront(el)
		return el.Value.(*TenantSlot)
	}
	if t.ll.Len() >= tenantCap {
		oldest := t.ll.Back()
		t.ll.Remove(oldest)
		delete(t.slots, oldest.Value.(*TenantSlot).Tenant)
		t.evictions.Inc()
	}
	s := &TenantSlot{
		Tenant:      tenant,
		requests:    &Counter{},
		responses:   &Counter{},
		rejects:     &Counter{},
		queueWaitUS: NewHistogram(DurationBuckets),
		solveUS:     NewHistogram(DurationBuckets),
	}
	t.slots[tenant] = t.ll.PushFront(s)
	t.known.Set(int64(t.ll.Len()))
	return s
}

// Request counts one request from the tenant.
func (s *TenantSlot) Request() {
	if s == nil {
		return
	}
	s.requests.Inc()
}

// Respond counts one answered request and records where its latency went.
func (s *TenantSlot) Respond(wait, solve time.Duration) {
	if s == nil {
		return
	}
	s.responses.Inc()
	s.queueWaitUS.Observe(wait.Microseconds())
	s.solveUS.Observe(solve.Microseconds())
}

// Reject counts one refused request.
func (s *TenantSlot) Reject() {
	if s == nil {
		return
	}
	s.rejects.Inc()
}

// TenantSnapshot is the frozen SLO state of one tenant.
type TenantSnapshot struct {
	Tenant      int               `json:"tenant"`
	Requests    int64             `json:"requests"`
	Responses   int64             `json:"responses"`
	Rejects     int64             `json:"rejects"`
	QueueWaitUS HistogramSnapshot `json:"queue_wait_us"`
	SolveUS     HistogramSnapshot `json:"solve_us"`
}

// Snapshot freezes every live tenant slot, sorted by tenant id for
// deterministic exposition. Nil receiver → nil slice.
func (t *TenantObs) Snapshot() []TenantSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TenantSnapshot, 0, len(t.slots))
	for _, el := range t.slots {
		s := el.Value.(*TenantSlot)
		out = append(out, TenantSnapshot{
			Tenant:    s.Tenant,
			Requests:  s.requests.Value(),
			Responses: s.responses.Value(),
			Rejects:   s.rejects.Value(),
			QueueWaitUS: HistogramSnapshot{
				Count: s.queueWaitUS.Count(), Sum: s.queueWaitUS.Sum(),
				Bounds: s.queueWaitUS.bounds, Buckets: s.queueWaitUS.snapshot(),
			},
			SolveUS: HistogramSnapshot{
				Count: s.solveUS.Count(), Sum: s.solveUS.Sum(),
				Bounds: s.solveUS.bounds, Buckets: s.solveUS.snapshot(),
			},
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
