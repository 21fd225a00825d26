package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Observer bundles the two recording surfaces — a metrics registry and an
// event trace — and hands out nil-safe per-subsystem views. A nil
// *Observer (the default everywhere) disables all instrumentation: every
// view constructor returns nil and every method on a nil view is a no-op.
//
// Timing happens inside the views, never at the instrumented call site,
// so packages under the determinism lint (internal/engine above all) stay
// free of time.Now while still reporting real latencies.
type Observer struct {
	Metrics *Registry
	Trace   *Trace

	mu      sync.Mutex
	solvers map[string]*solverMetrics
	deltas  map[string]*deltaMetrics
	cache   *CacheObs
	engine  *EngineObs
	cluster *ClusterObs
	pool    *PoolObs
	serve   *ServeObs
	tenants *TenantObs
	solveID atomic.Int64
}

// New returns an Observer with a fresh registry and a bounded trace.
func New() *Observer {
	return &Observer{Metrics: NewRegistry(), Trace: NewTrace()}
}

// Reg returns the metrics registry, nil for a nil observer — safe to
// chain straight into Counter/Gauge/Histogram lookups at optional call
// sites.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// ---------------------------------------------------------------------------
// Solver view: per-solve trace span + per-peel events + per-algorithm
// metrics. See DESIGN.md "Observability" for the metric catalogue.

// solverMetrics are the per-algorithm solver metrics, resolved once and
// cached so a batch of 100k solves does one map read per solve, not seven
// registry lookups.
type solverMetrics struct {
	solves    *Counter
	peels     *Counter
	steps     *Counter
	matched   *Counter
	reused    *Counter
	matchSize *Histogram
	solveUS   *Histogram

	// Component-sharding metrics (kpbs Options.Shard): how many solves
	// took the sharded path, the component-count distribution, how
	// dominant the largest component is, and how much the cross-component
	// packer compressed the concatenated step lists.
	shardSolves *Counter
	components  *Histogram
	largestPct  *Gauge
	packEffPct  *Gauge
}

func (o *Observer) solverMetrics(alg string) *solverMetrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	if m, ok := o.solvers[alg]; ok {
		return m
	}
	if o.solvers == nil {
		o.solvers = make(map[string]*solverMetrics)
	}
	m := &solverMetrics{
		solves:    o.Metrics.Counter("solver.solves_total." + alg),
		peels:     o.Metrics.Counter("solver.peels_total." + alg),
		steps:     o.Metrics.Counter("solver.steps_total." + alg),
		matched:   o.Metrics.Counter("solver.matched_pairs_total." + alg),
		reused:    o.Metrics.Counter("solver.warm_reused_pairs_total." + alg),
		matchSize: o.Metrics.Histogram("solver.peel_matching_size."+alg, SizeBuckets),
		solveUS:   o.Metrics.Histogram("solver.solve_us."+alg, DurationBuckets),

		shardSolves: o.Metrics.Counter("solver.shard.solves_total." + alg),
		components:  o.Metrics.Histogram("solver.shard.components."+alg, SizeBuckets),
		largestPct:  o.Metrics.Gauge("solver.shard.largest_component_pct." + alg),
		packEffPct:  o.Metrics.Gauge("solver.shard.pack_efficiency_pct." + alg),
	}
	o.solvers[alg] = m
	return m
}

// SolverObs observes one solve: Solver opens it (and its trace span),
// Peel records each peeling iteration, Done closes it. All methods are
// no-ops on a nil receiver, and none of them may influence the solve —
// the byte-identical-with-tracing guarantee rests on that.
type SolverObs struct {
	m    *solverMetrics
	tr   *Trace
	span Span
	tid  int
	// component marks a child view handed out by Component: its Done
	// closes the component span without recounting the enclosing solve.
	component bool
}

// Solver opens the observation of one solve with the given algorithm
// name. Nil receiver → nil view. Each solve gets a fresh trace lane (tid)
// so concurrent batch solves render as parallel rows.
func (o *Observer) Solver(alg string) *SolverObs {
	if o == nil {
		return nil
	}
	id := int(o.solveID.Add(1))
	s := &SolverObs{m: o.solverMetrics(alg), tr: o.Trace, tid: id}
	s.span = o.Trace.StartSpan("solver", "solve "+alg, PIDSolver, id)
	return s
}

// Peel records one peeling iteration: the step index, the size of the
// perfect matching, how many matched pairs survived from the previous
// iteration (the warm-start reuse), the bottleneck (minimum matched)
// weight peeled, and how many residual edges remain active afterwards.
// Fixed arity keeps the hot-path call site free of variadic slice
// allocation; the enabled path may allocate (it records an event), the
// nil path never does.
func (s *SolverObs) Peel(step, matched, reused int, minWeight int64, residualEdges int) {
	if s == nil {
		return
	}
	s.m.peels.Inc()
	s.m.matched.Add(int64(matched))
	s.m.reused.Add(int64(reused))
	s.m.matchSize.Observe(int64(matched))
	s.tr.Instant("solver", "peel", PIDSolver, s.tid, []Arg{
		{"step", int64(step)},
		{"matched", int64(matched)},
		{"reused", int64(reused)},
		{"min_weight", minWeight},
		{"residual_edges", int64(residualEdges)},
	})
}

// Done closes the solve observation with its outcome. On a component
// child view (see Component) it only closes the component span: the
// enclosing solve is counted once, by the parent's Done.
func (s *SolverObs) Done(steps int, cost int64) {
	if s == nil {
		return
	}
	if s.component {
		s.span.End([]Arg{{"steps", int64(steps)}, {"cost", cost}})
		return
	}
	s.m.solves.Inc()
	s.m.steps.Add(int64(steps))
	s.m.solveUS.Observe(s.span.Elapsed().Microseconds())
	s.span.End([]Arg{{"steps", int64(steps)}, {"cost", cost}})
}

// Sharded records that the solve took the component-sharded path, with
// the component count and the largest component's share of the edges.
func (s *SolverObs) Sharded(components, largestEdges, totalEdges int) {
	if s == nil {
		return
	}
	s.m.shardSolves.Inc()
	s.m.components.Observe(int64(components))
	if totalEdges > 0 {
		s.m.largestPct.Set(int64(largestEdges) * 100 / int64(totalEdges))
	}
	s.tr.Instant("solver", "shard", PIDSolver, s.tid, []Arg{
		{"components", int64(components)},
		{"largest_edges", int64(largestEdges)},
		{"total_edges", int64(totalEdges)},
	})
}

// Packed records the cross-component packing outcome: the pack-efficiency
// gauge is the percentage of concatenated steps the packer eliminated.
func (s *SolverObs) Packed(concatSteps, packedSteps int) {
	if s == nil {
		return
	}
	if concatSteps > 0 {
		s.m.packEffPct.Set(int64(concatSteps-packedSteps) * 100 / int64(concatSteps))
	}
	s.tr.Instant("solver", "pack", PIDSolver, s.tid, []Arg{
		{"steps_concat", int64(concatSteps)},
		{"steps_packed", int64(packedSteps)},
	})
}

// Component opens the observation of one component's peel inside a
// sharded solve. The child shares the parent's metrics and trace lane —
// per-peel events from concurrent component workers interleave safely
// (the trace is mutex-protected, the counters atomic) — and its Done
// closes only the component span. Nil receiver → nil child.
func (s *SolverObs) Component(id, nodes, edges int) *SolverObs {
	if s == nil {
		return nil
	}
	c := &SolverObs{m: s.m, tr: s.tr, tid: s.tid, component: true}
	c.span = s.tr.StartSpan("solver", "component "+strconv.Itoa(id), PIDSolver, s.tid)
	// Stamp the component's shape on the span via an instant event so the
	// trace shows size next to timing.
	s.tr.Instant("solver", "component shape", PIDSolver, s.tid, []Arg{
		{"component", int64(id)},
		{"nodes", int64(nodes)},
		{"edges", int64(edges)},
	})
	return c
}

// ---------------------------------------------------------------------------
// Engine view: batch-level gauges (queue depth, active workers,
// utilization) and per-instance latency.

// EngineObs is the batch engine's metrics bundle, cached per observer.
type EngineObs struct {
	tr                              *Trace
	batches, instances, errs        *Counter
	busyUS                          *Counter
	queueDepth, active, utilization *Gauge
	latencyUS                       *Histogram
}

// Engine returns the engine view, resolving its metrics on first use.
// Nil receiver → nil view.
func (o *Observer) Engine() *EngineObs {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.engine == nil {
		o.engine = &EngineObs{
			tr:          o.Trace,
			batches:     o.Metrics.Counter("engine.batches_total"),
			instances:   o.Metrics.Counter("engine.instances_total"),
			errs:        o.Metrics.Counter("engine.errors_total"),
			busyUS:      o.Metrics.Counter("engine.busy_us_total"),
			queueDepth:  o.Metrics.Gauge("engine.queue_depth"),
			active:      o.Metrics.Gauge("engine.workers_active"),
			utilization: o.Metrics.Gauge("engine.worker_utilization_pct"),
			latencyUS:   o.Metrics.Histogram("engine.instance_latency_us", DurationBuckets),
		}
	}
	return o.engine
}

// BatchObs observes one SolveBatch call: queue depth counts down as
// workers claim instances, Done settles the utilization gauge
// (busy-time ÷ wall-time·workers, in percent).
type BatchObs struct {
	e       *EngineObs
	span    Span
	workers int64
	busyUS  atomic.Int64
	pending atomic.Int64
}

// Batch opens the observation of a batch of n instances solved by the
// given number of workers. Nil receiver → nil view.
func (e *EngineObs) Batch(n, workers int) *BatchObs {
	if e == nil {
		return nil
	}
	e.batches.Inc()
	e.queueDepth.Add(int64(n))
	b := &BatchObs{e: e, workers: int64(workers)}
	b.pending.Store(int64(n))
	b.span = e.tr.StartSpan("engine", "batch", PIDEngine, 0)
	return b
}

// InstanceSpan times one instance solve on one worker. The zero value
// (what a nil batch hands out) discards everything.
type InstanceSpan struct {
	b     *BatchObs
	span  Span
	index int
}

// Instance opens the span for instance index claimed by the given worker.
func (b *BatchObs) Instance(worker, index int) InstanceSpan {
	if b == nil {
		return InstanceSpan{}
	}
	b.pending.Add(-1)
	b.e.queueDepth.Add(-1)
	b.e.active.Add(1)
	return InstanceSpan{b: b, span: b.e.tr.StartSpan("engine", "instance "+strconv.Itoa(index), PIDEngine, worker+1), index: index}
}

// Done closes the instance span with its outcome.
func (sp InstanceSpan) Done(err error) {
	if sp.b == nil {
		return
	}
	e := sp.b.e
	e.active.Add(-1)
	e.instances.Inc()
	var failed int64
	if err != nil {
		e.errs.Inc()
		failed = 1
	}
	us := sp.span.Elapsed().Microseconds()
	sp.b.busyUS.Add(us)
	e.busyUS.Add(us)
	e.latencyUS.Observe(us)
	sp.span.End([]Arg{{"index", int64(sp.index)}, {"err", failed}})
}

// Skip accounts for an instance that was never solved (batch cancelled
// before a worker reached it).
func (b *BatchObs) Skip() {
	if b == nil {
		return
	}
	b.pending.Add(-1)
	b.e.queueDepth.Add(-1)
	b.e.instances.Inc()
	b.e.errs.Inc()
}

// Done closes the batch observation and settles the utilization gauge.
func (b *BatchObs) Done() {
	if b == nil {
		return
	}
	// Instances neither solved nor skipped (a panicking caller) must not
	// leave the queue-depth gauge stuck.
	if left := b.pending.Swap(0); left > 0 {
		b.e.queueDepth.Add(-left)
	}
	busy := b.busyUS.Load()
	if wallUS := b.span.Elapsed().Microseconds(); wallUS > 0 && b.workers > 0 {
		b.e.utilization.Set(100 * busy / (wallUS * b.workers))
	}
	b.span.End([]Arg{{"busy_us", busy}, {"workers", b.workers}})
}

// ---------------------------------------------------------------------------
// Cluster view: per-step wall-clock against the schedule's predicted
// β + W(Mi), plus per-transfer timeline events.

// ClusterObs is the execution runtime's metrics bundle, cached per
// observer. The cluster package reads the wall clock itself (it is a
// measurement harness, exempt from the determinism lint) and reports
// measured intervals here.
type ClusterObs struct {
	tr                        *Trace
	steps, transfers, bytes   *Counter
	actualUS, predictedUS     *Counter
	protoErrs                 *Counter
	stepRatioPct              *Histogram
	lastRatioPct, lastStepDur *Gauge
}

// Cluster returns the cluster view, resolving its metrics on first use.
// Nil receiver → nil view.
func (o *Observer) Cluster() *ClusterObs {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.cluster == nil {
		o.cluster = &ClusterObs{
			tr:           o.Trace,
			steps:        o.Metrics.Counter("cluster.steps_total"),
			transfers:    o.Metrics.Counter("cluster.transfers_total"),
			bytes:        o.Metrics.Counter("cluster.bytes_total"),
			actualUS:     o.Metrics.Counter("cluster.step_actual_us_total"),
			predictedUS:  o.Metrics.Counter("cluster.step_predicted_us_total"),
			protoErrs:    o.Metrics.Counter("cluster.protocol_errors_total"),
			stepRatioPct: o.Metrics.Histogram("cluster.step_ratio_pct", RatioBuckets),
			lastRatioPct: o.Metrics.Gauge("cluster.step_ratio_pct_last"),
			lastStepDur:  o.Metrics.Gauge("cluster.step_actual_us_last"),
		}
	}
	return o.cluster
}

// Step records one executed schedule step: its measured wall-clock, the
// schedule's prediction β + W(Mi) at the configured rates, and the live
// evaluation ratio actual/predicted (percent) in both a histogram and a
// last-value gauge. A zero prediction (unshaped cluster) records the
// timing but skips the ratio.
func (c *ClusterObs) Step(index int, start time.Time, wall, predicted time.Duration, transfers int) {
	if c == nil {
		return
	}
	c.steps.Inc()
	c.actualUS.Add(wall.Microseconds())
	c.predictedUS.Add(predicted.Microseconds())
	c.lastStepDur.Set(wall.Microseconds())
	var ratio int64 = -1
	if predicted > 0 {
		ratio = int64(float64(wall) / float64(predicted) * 100)
		c.stepRatioPct.Observe(ratio)
		c.lastRatioPct.Set(ratio)
	}
	c.tr.Complete("cluster", "step "+strconv.Itoa(index), PIDCluster, 0, start, wall, []Arg{
		{"transfers", int64(transfers)},
		{"predicted_us", predicted.Microseconds()},
		{"ratio_pct", ratio},
	})
}

// ProtocolError counts a framing violation observed on a receiver
// connection — a malformed, truncated or hostile frame — so peer
// misbehavior shows up in metric snapshots instead of vanishing as a
// silent connection teardown.
func (c *ClusterObs) ProtocolError(recvID int) {
	if c == nil {
		return
	}
	c.protoErrs.Inc()
	c.tr.Instant("cluster", "protocol error", PIDCluster, 0, []Arg{{"recv", int64(recvID)}})
}

// Transfer records one point-to-point transfer as a timeline event on the
// sender's lane.
func (c *ClusterObs) Transfer(src, dst int, bytes int64, start time.Time, dur time.Duration) {
	if c == nil {
		return
	}
	c.transfers.Inc()
	c.bytes.Add(bytes)
	c.tr.Complete("cluster", "xfer "+strconv.Itoa(src)+"->"+strconv.Itoa(dst), PIDCluster, src+1, start, dur, []Arg{
		{"src", int64(src)},
		{"dst", int64(dst)},
		{"bytes", bytes},
	})
}

// ---------------------------------------------------------------------------
// Pool view: the long-lived solver pool (engine.Pool) — queue depth,
// worker occupancy and per-job latency for a stream of jobs (the service's
// solves and delta repairs) rather than one batch.

// PoolObs is the solver pool's metrics bundle, cached per observer.
type PoolObs struct {
	tr                         *Trace
	submitted, completed, errs *Counter
	queueDepth, active         *Gauge
	jobUS, waitUS              *Histogram
}

// Pool returns the solver-pool view, resolving its metrics on first use.
// Nil receiver → nil view.
func (o *Observer) Pool() *PoolObs {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pool == nil {
		o.pool = &PoolObs{
			tr:         o.Trace,
			submitted:  o.Metrics.Counter("engine.pool.submitted_total"),
			completed:  o.Metrics.Counter("engine.pool.completed_total"),
			errs:       o.Metrics.Counter("engine.pool.errors_total"),
			queueDepth: o.Metrics.Gauge("engine.pool.queue_depth"),
			active:     o.Metrics.Gauge("engine.pool.workers_active"),
			jobUS:      o.Metrics.Histogram("engine.pool.job_us", DurationBuckets),
			waitUS:     o.Metrics.Histogram("engine.pool.queue_wait_us", DurationBuckets),
		}
	}
	return o.pool
}

// StartWait opens the queue-wait clock for a job about to be submitted.
// The caller stores the WaitSpan in the job *before* handing it to the
// queue (a worker may claim it immediately) and calls Enqueue only once
// the hand-off succeeded, so a full queue never counts a phantom job.
func (p *PoolObs) StartWait() WaitSpan {
	if p == nil {
		return WaitSpan{}
	}
	return WaitSpan{p: p, span: p.tr.StartSpan("engine", "pool wait", PIDEngine, 0)}
}

// Enqueue accounts for a job entering the pool's queue.
func (p *PoolObs) Enqueue() {
	if p == nil {
		return
	}
	p.submitted.Inc()
	p.queueDepth.Add(1)
}

// WaitSpan times one job's stay in the pool queue, from StartWait to the
// moment a worker claims it (Dequeue). The zero value discards everything.
type WaitSpan struct {
	p    *PoolObs
	span Span
}

// Dequeue closes the wait — a worker claimed the job — and opens the job's
// execution span. Returns the measured queue wait so the caller can thread
// it into the job's Result without reading a clock itself.
func (w WaitSpan) Dequeue(worker int) (JobSpan, time.Duration) {
	if w.p == nil {
		return JobSpan{}, 0
	}
	wait := w.span.Elapsed()
	w.p.waitUS.Observe(wait.Microseconds())
	w.p.queueDepth.Add(-1)
	w.p.active.Add(1)
	return JobSpan{p: w.p, span: w.p.tr.StartSpan("engine", "pool job", PIDEngine, worker+1)}, wait
}

// JobSpan times one pool job on one worker. The zero value (what a nil
// pool view hands out) discards everything.
type JobSpan struct {
	p    *PoolObs
	span Span
}

// Done closes the job span with its outcome and returns the measured run
// time (0 when unobserved).
func (sp JobSpan) Done(err error) time.Duration {
	if sp.p == nil {
		return 0
	}
	sp.p.active.Add(-1)
	sp.p.completed.Inc()
	var failed int64
	if err != nil {
		sp.p.errs.Inc()
		failed = 1
	}
	solve := sp.span.Elapsed()
	sp.p.jobUS.Observe(solve.Microseconds())
	sp.span.End([]Arg{{"err", failed}})
	return solve
}

// ---------------------------------------------------------------------------
// Serve view: the scheduling daemon — session lifecycle and protocol
// errors from misbehaving clients. Each session's ReqRec (spanrec.go)
// records its requests: outcome counts, latency, tenant SLO slot and
// span tree.

// ServeObs is the scheduling service's metrics bundle, cached per
// observer. Reject counters are per-code ("serve.rejects_total.<code>"),
// resolved from the registry on the cold reject path.
type ServeObs struct {
	tr                            *Trace
	now                           func() time.Time
	reg                           *Registry
	tenants                       *TenantObs
	sessions, requests, responses *Counter
	rejects, protoErrs, readErrs  *Counter
	spansFinished                 *Counter
	sessionsActive, tenantsActive *Gauge
	requestUS                     *Histogram
}

// Serve returns the service view, resolving its metrics on first use.
// Nil receiver → nil view.
func (o *Observer) Serve() *ServeObs {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.serve == nil {
		// Request spans share the trace's clock, so they line up with every
		// other lane in the trace.
		now := time.Now
		if o.Trace != nil && o.Trace.now != nil {
			now = o.Trace.now
		}
		o.serve = &ServeObs{
			tr:             o.Trace,
			now:            now,
			reg:            o.Metrics,
			tenants:        o.tenantSLO(),
			sessions:       o.Metrics.Counter("serve.sessions_total"),
			requests:       o.Metrics.Counter("serve.requests_total"),
			responses:      o.Metrics.Counter("serve.responses_total"),
			rejects:        o.Metrics.Counter("serve.rejects_total"),
			protoErrs:      o.Metrics.Counter("serve.protocol_errors_total"),
			readErrs:       o.Metrics.Counter("serve.read_errors_total"),
			spansFinished:  o.Metrics.Counter("spans.finished_total"),
			sessionsActive: o.Metrics.Gauge("serve.sessions_active"),
			tenantsActive:  o.Metrics.Gauge("serve.tenants_known"),
			requestUS:      o.Metrics.Histogram("serve.request_us", DurationBuckets),
		}
	}
	return o.serve
}

// SessionOpen accounts for an accepted client connection and returns the
// record its requests are kept in. Nil receiver → nil record.
func (s *ServeObs) SessionOpen(id int) *ReqRec {
	if s == nil {
		return nil
	}
	s.sessions.Inc()
	s.sessionsActive.Add(1)
	s.tr.Instant("serve", "session open", PIDServe, id, nil)
	return &ReqRec{s: s, session: int32(id)}
}

// SessionClose accounts for a finished client connection.
func (s *ServeObs) SessionClose(id int) {
	if s == nil {
		return
	}
	s.sessionsActive.Add(-1)
	s.tr.Instant("serve", "session close", PIDServe, id, nil)
}

// Tenants records how many distinct tenants the service has seen.
func (s *ServeObs) Tenants(n int) {
	if s == nil {
		return
	}
	s.tenantsActive.Set(int64(n))
}

// ProtocolError counts a framing or codec violation from a client.
func (s *ServeObs) ProtocolError() {
	if s == nil {
		return
	}
	s.protoErrs.Inc()
}

// ReadError counts a non-protocol read failure (disconnect mid-frame).
func (s *ServeObs) ReadError() {
	if s == nil {
		return
	}
	s.readErrs.Inc()
}
