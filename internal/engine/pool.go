package engine

import (
	"errors"
	"runtime"
	"sync"

	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
)

// Job is one unit of pool work: a full solve (Instance is a Job) or the
// scheduling service's delta repair of a retained solve. Run executes on a
// pool worker under the same panic guard SolveBatch gives each instance.
type Job interface {
	Run() (*kpbs.Schedule, error)
}

// Pool is the streaming counterpart of SolveBatch: a long-lived solver
// pool fed one job at a time by many concurrent producers. It is the
// request-queue/solver-pool layer the scheduling service (internal/serve)
// stands on — SolveBatch owns a batch from start to finish, while a Pool
// outlives any individual request stream.
//
// Guarantees, mirroring the batch engine where they apply:
//
//   - Determinism: a job's Result is exactly what its Run returns,
//     independent of pool sizing or scheduling order.
//   - Error isolation: a failing or panicking job yields an error Result
//     for its submitter and never affects other jobs or workers.
//   - Bounded concurrency and memory: at most Workers goroutines run jobs
//     simultaneously and at most QueueDepth jobs wait; beyond that,
//     TrySubmit refuses instead of buffering without bound — the
//     backpressure signal admission control needs.
//   - Delivery: every successfully submitted job receives exactly one
//     Result, even when the pool closes while the job is queued — Close
//     drains rather than strands.
type Pool struct {
	queue chan poolJob
	quit  chan struct{}
	wg    sync.WaitGroup
	obs   *obs.PoolObs

	mu     sync.RWMutex
	closed bool
}

// PoolOptions configure NewPool.
type PoolOptions struct {
	// Workers bounds the number of concurrent worker goroutines;
	// values ≤ 0 select runtime.GOMAXPROCS(0) via the same rule as
	// SolveBatch.
	Workers int
	// QueueDepth bounds how many submitted jobs may wait for a worker;
	// values ≤ 0 select 2×Workers. When the queue is full, TrySubmit
	// returns ErrQueueFull — the caller decides whether to shed or retry.
	QueueDepth int
	// Obs attaches the pool's instruments (queue depth, worker occupancy,
	// per-job queue wait and run time under "engine.pool.*"). A job that
	// solves carries its own solver observer. nil disables them.
	Obs *obs.Observer
}

// ErrPoolClosed reports a submission to a pool that has been closed.
var ErrPoolClosed = errors.New("engine: pool closed")

// ErrQueueFull reports that the pool's request queue is at capacity.
var ErrQueueFull = errors.New("engine: pool queue full")

// poolJob is one queued job: the work, the submitter's channel the
// outcome is delivered on, and the queue-wait span opened at submission
// (before the channel send — a worker may claim the job the instant it
// lands in the buffer).
type poolJob struct {
	job    Job
	result chan<- Result
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
		queue: make(chan poolJob, depth),
		quit:  make(chan struct{}),
		obs:   opts.Obs.Pool(),
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
	//redistlint:allow ctxpoll the quit channel is the pool's cancellation signal; an admitted job always runs
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

// run executes one job and delivers its result. The submitter's channel
// is buffered, so delivery never blocks a worker.
func (p *Pool) run(w int, job poolJob) {
	sp, wait := job.wait.Dequeue(w)
	res := runGuarded(job.job)
	res.Wait = wait
	res.Solve = sp.Done(res.Err)
	job.result <- res
}

// TrySubmit enqueues the job without blocking. Its Result is delivered on
// result, which must have a free buffer slot: a caller with one job in
// flight at a time (a serve session) reuses one channel of capacity 1, so
// queuing allocates nothing. It returns ErrQueueFull when the queue is at
// capacity, or ErrPoolClosed after Close. A nil error guarantees exactly
// one Result on result.
func (p *Pool) TrySubmit(job Job, result chan<- Result) error {
	qj := poolJob{job: job, result: result, wait: p.obs.StartWait()}
	// The read lock excludes the closed-flag flip, so a job admitted here
	// is in the buffer before quit closes and a draining worker runs it.
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.queue <- qj:
		p.obs.Enqueue()
		return nil
	default:
		return ErrQueueFull
	}
}

// Close stops admission, then waits for the workers to finish every
// queued and in-flight job — a drain, not an abort. Jobs admitted before
// Close all happen-before the closed-flag flip (admission runs under the
// lock), so every one of them is in the buffer when quit closes and the
// draining workers deliver its Result. Safe to call twice; TrySubmit
// after Close fails with ErrPoolClosed.
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
