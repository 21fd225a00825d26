package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"redistgo/internal/obs"
)

// Pool is the streaming counterpart of SolveBatch: a long-lived solver
// pool fed one instance at a time by many concurrent producers. It is the
// request-queue/solver-pool layer the scheduling service (internal/serve)
// stands on — SolveBatch owns a batch from start to finish, while a Pool
// outlives any individual request stream.
//
// Guarantees, mirroring the batch engine where they apply:
//
//   - Determinism: a job's Result is exactly what kpbs.Solve would return
//     for its Instance, independent of pool sizing or scheduling order.
//   - Error isolation: a bad or panicking instance yields an error Result
//     for its submitter and never affects other jobs or workers.
//   - Bounded concurrency and memory: at most Workers goroutines solve
//     simultaneously and at most QueueDepth jobs wait; beyond that,
//     TrySubmit refuses instead of buffering without bound — the
//     backpressure signal admission control needs.
//   - Delivery: every successfully submitted job receives exactly one
//     Result, even when the pool closes while the job is queued (it is
//     then ErrPoolClosed) — so Close drains rather than strands.
type Pool struct {
	queue chan poolJob
	quit  chan struct{}
	wg    sync.WaitGroup

	obs    *obs.PoolObs
	defObs *obs.Observer

	mu     sync.RWMutex
	closed bool
}

// PoolOptions configure NewPool.
type PoolOptions struct {
	// Workers bounds the number of concurrent solver goroutines;
	// values ≤ 0 select runtime.GOMAXPROCS(0) via the same rule as
	// SolveBatch.
	Workers int
	// QueueDepth bounds how many submitted jobs may wait for a worker;
	// values ≤ 0 select 2×Workers. When the queue is full, TrySubmit
	// returns ErrQueueFull — the caller decides whether to shed or block.
	QueueDepth int
	// Obs attaches the observability layer (queue depth, worker occupancy,
	// per-job latency under "engine.pool.*"); it is also handed to each
	// job's solver options unless the instance carries its own observer.
	// nil disables all instrumentation.
	Obs *obs.Observer
}

// ErrPoolClosed reports a submission to (or a job stranded in) a pool
// that has been closed.
var ErrPoolClosed = errors.New("engine: pool closed")

// ErrQueueFull reports that the pool's request queue is at capacity.
var ErrQueueFull = errors.New("engine: pool queue full")

// poolJob is one queued solve: the instance, the submitter's context
// (checked again when a worker picks the job up), the buffered result
// channel the outcome is delivered on, and the queue-wait span opened at
// submission (before the channel send — a worker may claim the job the
// instant it lands in the buffer).
type poolJob struct {
	inst   Instance
	ctx    context.Context
	result chan Result
	wait   obs.WaitSpan
}

// NewPool starts the workers and returns the running pool. Release with
// Close.
func NewPool(opts PoolOptions) *Pool {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 2 * workers
	}
	p := &Pool{
		queue:  make(chan poolJob, depth),
		quit:   make(chan struct{}),
		obs:    opts.Obs.Pool(),
		defObs: opts.Obs,
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// worker services the queue until the pool closes, then drains whatever
// is still queued before exiting so no accepted job is stranded.
func (p *Pool) worker(w int) {
	defer p.wg.Done()
	//redistlint:allow ctxpoll the quit channel is the pool's cancellation signal; each job's own context is checked in run
	for {
		select {
		case job := <-p.queue:
			p.run(w, job)
		case <-p.quit:
			//redistlint:allow ctxpoll bounded drain: exits on the first empty poll of the queue
			for {
				select {
				case job := <-p.queue:
					p.run(w, job)
				default:
					return
				}
			}
		}
	}
}

// run solves one job and delivers its result. The result channel is
// buffered, so delivery never blocks a worker on a departed submitter.
func (p *Pool) run(w int, job poolJob) {
	if err := job.ctx.Err(); err != nil {
		job.wait.Abandon()
		job.result <- Result{Err: err}
		return
	}
	sp, wait := job.wait.Dequeue(w)
	res := solveOne(job.inst, p.defObs)
	res.Wait = wait
	res.Solve = sp.Done(res.Err)
	job.result <- res
}

// TrySubmit enqueues the instance without blocking. It returns the
// channel the Result will be delivered on, ErrQueueFull when the queue is
// at capacity, or ErrPoolClosed after Close. A successful TrySubmit
// guarantees exactly one Result on the channel.
func (p *Pool) TrySubmit(ctx context.Context, inst Instance) (<-chan Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	job := poolJob{inst: inst, ctx: ctx, result: make(chan Result, 1), wait: p.obs.StartWait()}
	// The read lock excludes the closed-flag flip, so a job admitted here
	// is either processed by a draining worker or failed by Close's final
	// sweep — never silently dropped.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	select {
	case p.queue <- job:
		p.obs.Enqueue()
		return job.result, nil
	default:
		return nil, ErrQueueFull
	}
}

// Submit enqueues the instance, blocking while the queue is full, and
// waits for its Result. The context bounds both waits; cancellation while
// solving returns the context error without interrupting the worker (the
// solver is CPU-bound and finite, exactly as in SolveBatch).
//
// The blocking enqueue holds the admission read-lock, so Close cannot
// flip the closed flag mid-send: the workers are still draining (quit
// closes under the write lock this sender excludes), which guarantees the
// send completes and the job is processed.
func (p *Pool) Submit(ctx context.Context, inst Instance) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	job := poolJob{inst: inst, ctx: ctx, result: make(chan Result, 1), wait: p.obs.StartWait()}
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return Result{Err: ErrPoolClosed}
	}
	select {
	case p.queue <- job:
		p.obs.Enqueue()
		p.mu.RUnlock()
	case <-ctx.Done():
		p.mu.RUnlock()
		return Result{Err: ctx.Err()}
	}
	select {
	case res := <-job.result:
		return res
	case <-ctx.Done():
		return Result{Err: ctx.Err()}
	}
}

// Close stops admission, then waits for the workers to finish every
// queued and in-flight job — a drain, not an abort. Jobs admitted before
// Close all happen-before the closed-flag flip (admission runs under the
// lock), so every one of them is in the buffer when quit closes and the
// draining workers deliver its Result. Safe to call twice;
// Submit/TrySubmit after Close fail with ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.quit)
	p.mu.Unlock()
	p.wg.Wait()
}
