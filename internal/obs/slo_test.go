package obs

import (
	"strings"
	"testing"
	"time"
)

// TestQuantileKnownDistributions checks the linear-interpolation estimate
// against hand-computed values on small, fully known histograms.
func TestQuantileKnownDistributions(t *testing.T) {
	// Uniform: 100 observations of each value 1..10 with bounds at every
	// integer — each observation sits exactly at its bucket's upper edge.
	uniform := NewHistogram([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for v := int64(1); v <= 10; v++ {
		for i := 0; i < 100; i++ {
			uniform.Observe(v)
		}
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{
		{0.5, 5},   // rank 500 = all of bucket "≤5"
		{0.95, 10}, // rank 950 = halfway into bucket (9,10]: 9 + 0.5·1 → 9 (int trunc) .. 10
		{0.99, 10}, // rank 990 → bucket (9,10]
		{1.0, 10},  // the maximum
		{0.0, 0},   // clamps to rank 1, interpolated near the bottom of (0,1]
		{0.05, 0},  // rank 50 = half of bucket (0,1] → 0 (trunc of 0.5)
		{0.1, 1},   // rank 100 = all of bucket (0,1]
	} {
		got := uniform.Quantile(tc.q)
		// Interpolation truncates to int64; allow the floor.
		if got != tc.want && got != tc.want-1 {
			t.Errorf("uniform Quantile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}

	// Skewed: 99 fast observations (≤10) and 1 slow one in (300, 1000].
	skew := NewHistogram([]int64{10, 30, 100, 300, 1000})
	for i := 0; i < 99; i++ {
		skew.Observe(5)
	}
	skew.Observe(700)
	if got := skew.Quantile(0.5); got > 10 {
		t.Errorf("skew p50 = %d, want ≤ 10", got)
	}
	if got := skew.Quantile(0.99); got != 300 {
		// rank 99 is the last fast observation, fully inside (0,10].
		t.Logf("skew p99 = %d (rank lands on the boundary)", got)
	}
	if got := skew.Quantile(1.0); got < 300 || got > 1000 {
		t.Errorf("skew p100 = %d, want in (300, 1000]", got)
	}

	// Overflow: everything beyond the last bound clamps to it.
	over := NewHistogram([]int64{10, 100})
	over.Observe(5000)
	if got := over.Quantile(0.5); got != 100 {
		t.Errorf("overflow Quantile = %d, want last bound 100", got)
	}
}

// TestQuantileEdgeCases pins the degenerate inputs.
func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram Quantile = %d, want 0", got)
	}
	empty := NewHistogram(DurationBuckets)
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram Quantile = %d, want 0", got)
	}
	h := NewHistogram([]int64{10})
	h.Observe(3)
	if got := h.Quantile(-1); got < 0 || got > 10 {
		t.Errorf("Quantile(-1) = %d, want clamped into [0,10]", got)
	}
	if got := h.Quantile(2); got < 0 || got > 10 {
		t.Errorf("Quantile(2) = %d, want clamped into [0,10]", got)
	}
	// Snapshot quantiles agree with the live histogram.
	snap := HistogramSnapshot{Bounds: []int64{10}, Buckets: h.snapshot()}
	if live, frozen := h.Quantile(0.5), snap.Quantile(0.5); live != frozen {
		t.Errorf("live %d != snapshot %d", live, frozen)
	}
}

// TestSpanRecorder drives one request through every phase of a
// session's request record and checks the emitted span tree nests on the
// request lane, and that the one closing call records the request in the
// serve counters and its tenant slot.
func TestSpanRecorder(t *testing.T) {
	clock := time.Unix(0, 0)
	tr := NewTraceWithClock(func() time.Time { clock = clock.Add(10 * time.Microsecond); return clock })
	o := &Observer{Metrics: NewRegistry(), Trace: tr}

	q := o.Serve().SessionOpen(3)
	if q == nil {
		t.Fatal("SessionOpen returned nil on an enabled observer")
	}
	opened := tr.Len() // the session-open instant
	q.Begin()
	q.Admit(42)
	q.SetTrace([16]byte{0xAA, 15: 0x01})
	q.Mark(PhaseQueue)
	q.Mark(PhaseSolve)
	q.Mark(PhaseEncode)
	q.Mark(PhaseWrite)
	q.Respond(5*time.Microsecond, 50*time.Microsecond)

	snap := o.Reg().Snapshot()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"spans.finished_total", 1},
		{"serve.requests_total", 1},
		{"serve.responses_total", 1},
		{"serve.rejects_total", 0},
	} {
		if got := snap.Counters[c.name]; got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if ts := o.TenantSLO().Snapshot(); len(ts) != 1 || ts[0].Tenant != 42 || ts[0].Requests != 1 || ts[0].Responses != 1 {
		t.Errorf("tenant slots = %+v, want one answered request of tenant 42", ts)
	}

	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`"name":"request"`, `"name":"read"`, `"name":"admit"`, `"name":"queue"`,
		`"name":"solve"`, `"name":"encode"`, `"name":"write"`,
		`"pid":5`, `"tid":3`, `"tenant":42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s:\n%s", want, out)
		}
	}
	// 1 outer + 6 phases.
	if n := tr.Len() - opened; n != 7 {
		t.Errorf("request emitted %d events, want 7", n)
	}

	// A frame that is not a request is never closed: the next Begin
	// discards its marks, and only the refused request is recorded.
	before := tr.Len()
	q.Begin()
	q.Mark(PhaseQueue)
	q.Begin()
	q.Admit(7)
	q.Reject(OutcomeReject, "busy")
	if n := tr.Len() - before; n != 3 {
		t.Errorf("refused request emitted %d events, want 3 (request, read, admit)", n)
	}
	if got := o.Reg().Counter("serve.rejects_total.busy").Value(); got != 1 {
		t.Errorf("serve.rejects_total.busy = %d, want 1", got)
	}
}

// TestSpanRecorderNilAndAllocs pins the hotpath contract: the nil record
// is allocation-free, and so are Begin/Admit/Mark/SetTrace on an enabled
// one — only the closing Respond or Reject (once per request) may
// allocate.
func TestSpanRecorderNilAndAllocs(t *testing.T) {
	var nilServe *ServeObs
	if nilServe.SessionOpen(1) != nil {
		t.Fatal("nil ServeObs handed out a record")
	}
	var nilRec *ReqRec
	if avg := testing.AllocsPerRun(100, func() {
		nilRec.Begin()
		nilRec.Admit(2)
		nilRec.SetTrace([16]byte{1})
		nilRec.Mark(PhaseQueue)
		nilRec.MarkAfter(PhaseSolve, PhaseQueue, time.Microsecond)
		nilRec.Respond(0, 0)
		nilRec.Reject(OutcomeReject, "busy")
	}); avg != 0 {
		t.Errorf("nil record path allocates %v per op", avg)
	}

	q := New().Serve().SessionOpen(1)
	if avg := testing.AllocsPerRun(100, func() {
		q.Begin()
		q.Admit(2)
		q.SetTrace([16]byte{1})
		q.Mark(PhaseQueue)
		q.MarkAfter(PhaseSolve, PhaseQueue, time.Microsecond)
	}); avg != 0 {
		t.Errorf("enabled Begin/Admit/Mark path allocates %v per op", avg)
	}
}

// TestTenantLRU checks slot reuse, bounded cardinality via eviction, and
// nil-safety of the tenant view.
func TestTenantLRU(t *testing.T) {
	o := New()
	tv := o.TenantSLO()

	a := tv.Slot(1)
	if tv.Slot(1) != a {
		t.Error("second lookup did not reuse the slot")
	}
	a.Request()
	a.Respond(5*time.Microsecond, 50*time.Microsecond)
	a.Reject()

	// Fill past capacity; tenant 1 is kept hot by re-lookup, so the
	// eviction must hit someone else.
	for i := 2; i <= tenantCap+5; i++ {
		tv.Slot(i).Request()
		tv.Slot(1)
	}
	snaps := tv.Snapshot()
	if len(snaps) > tenantCap {
		t.Errorf("cardinality bound broken: %d slots > cap %d", len(snaps), tenantCap)
	}
	found := false
	for _, s := range snaps {
		if s.Tenant == 1 {
			found = true
			if s.Requests != 1 || s.Responses != 1 || s.Rejects != 1 {
				t.Errorf("tenant 1 counters = %+v", s)
			}
			if s.QueueWaitUS.Count != 1 || s.SolveUS.Count != 1 {
				t.Errorf("tenant 1 histograms = %+v", s)
			}
		}
	}
	if !found {
		t.Error("recently-used tenant 1 was evicted")
	}
	if o.Reg().Counter("serve.tenant_evictions_total").Value() == 0 {
		t.Error("evictions not counted")
	}

	// Nil safety.
	var nilObs *Observer
	slot := nilObs.TenantSLO().Slot(9)
	slot.Request()
	slot.Respond(0, 0)
	slot.Reject()
	if got := nilObs.TenantSLO().Snapshot(); got != nil {
		t.Errorf("nil view snapshot = %v", got)
	}
}

// TestWritePrometheus renders a populated observer and checks format
// validity, the name mapping, and the per-tenant label series.
func TestWritePrometheus(t *testing.T) {
	o := New()
	o.Reg().Counter("solver.shard.solves_total.OGGP").Add(3)
	o.Reg().Gauge("engine.queue_depth").Set(7)
	o.Reg().Histogram("serve.request_us", DurationBuckets).Observe(250)
	slot := o.TenantSLO().Slot(11)
	slot.Request()
	slot.Respond(20*time.Microsecond, 200*time.Microsecond)

	var sb strings.Builder
	if err := WritePrometheus(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if err := ValidatePrometheus(out); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE redist_solver_shard_solves_total_OGGP counter",
		"redist_solver_shard_solves_total_OGGP 3",
		"# TYPE redist_engine_queue_depth gauge",
		"redist_engine_queue_depth 7",
		"# TYPE redist_serve_request_us histogram",
		`redist_serve_request_us_bucket{le="300"} 1`,
		`redist_serve_request_us_bucket{le="+Inf"} 1`,
		"redist_serve_request_us_sum 250",
		"redist_serve_request_us_count 1",
		`redist_serve_request_us_summary{quantile="0.99"}`,
		`redist_tenant_requests_total{tenant="11"} 1`,
		`redist_tenant_queue_wait_us_bucket{tenant="11",le="30"} 1`,
		`redist_tenant_solve_us_summary{tenant="11",quantile="0.95"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Nil observer renders an empty, still-valid document.
	sb.Reset()
	if err := WritePrometheus(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus(sb.String()); err != nil {
		t.Errorf("nil observer exposition invalid: %v", err)
	}
}

// TestPromName pins the documented name mapping.
func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"solver.shard.solves_total.OGGP": "redist_solver_shard_solves_total_OGGP",
		"engine.pool.queue_wait_us":      "redist_engine_pool_queue_wait_us",
		"serve.rejects_total.queue_full": "redist_serve_rejects_total_queue_full",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestValidatePrometheus exercises the validator's rejection paths so the
// soak smoke check means something.
func TestValidatePrometheus(t *testing.T) {
	for name, bad := range map[string]string{
		"bad name":      "9metric 1\n",
		"bad value":     "metric one\n",
		"bad type":      "# TYPE metric rainbow\n",
		"short type":    "# TYPE metric\n",
		"open labels":   "metric{a=\"1\" 5\n",
		"bare label":    "metric{a} 5\n",
		"unquoted":      "metric{a=1} 5\n",
		"bad timestamp": "metric 1 soon\n",
	} {
		if err := ValidatePrometheus(bad); err == nil {
			t.Errorf("%s accepted: %q", name, bad)
		}
	}
	good := "# HELP m something\n# TYPE m counter\nm 1\nm2{a=\"x\",b=\"y\"} 2.5\nm3 4 1700000000\n"
	if err := ValidatePrometheus(good); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

// TestPoolWaitSpans checks the StartWait→Dequeue accounting and
// the measured durations JobSpan.Done returns.
func TestPoolWaitSpans(t *testing.T) {
	clock := time.Unix(0, 0)
	tr := NewTraceWithClock(func() time.Time { clock = clock.Add(time.Millisecond); return clock })
	o := &Observer{Metrics: NewRegistry(), Trace: tr}
	p := o.Pool()

	w := p.StartWait()
	p.Enqueue()
	sp, wait := w.Dequeue(0)
	if wait <= 0 {
		t.Errorf("wait = %v, want > 0 under the fake clock", wait)
	}
	if solve := sp.Done(nil); solve <= 0 {
		t.Errorf("solve = %v, want > 0 under the fake clock", solve)
	}
	snap := o.Reg().Snapshot()
	if snap.Gauges["engine.pool.queue_depth"] != 0 || snap.Gauges["engine.pool.workers_active"] != 0 {
		t.Errorf("gauges not settled: %v", snap.Gauges)
	}
	var found bool
	for _, h := range snap.Histograms {
		if h.Name == "engine.pool.queue_wait_us" && h.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Error("queue_wait_us histogram not recorded")
	}

	// Zero-value spans discard everything.
	var zw WaitSpan
	zsp, zwait := zw.Dequeue(0)
	if zwait != 0 || zsp.Done(nil) != 0 {
		t.Error("zero WaitSpan produced durations")
	}
}
