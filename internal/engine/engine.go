// Package engine provides a concurrent batch-solving front end to the
// K-PBS schedulers. Production deployments (and the figure harnesses)
// invoke the solver as a hot batched kernel — thousands of independent
// instances per communication round — so the engine fans a batch out over
// a bounded worker pool instead of looping serially.
//
// Guarantees:
//
//   - Determinism: Result[i] is exactly what kpbs.Solve would return for
//     Instances[i] — byte-identical schedules regardless of worker count
//     or scheduling order. Workers share no mutable state; each instance
//     is solved independently.
//   - Error isolation: one bad instance (invalid parameters, nil graph,
//     even a panicking solver) yields an error in its own Result slot and
//     never affects the rest of the batch.
//   - Bounded concurrency: at most Options.Workers goroutines (default
//     GOMAXPROCS) solve simultaneously.
//   - Cancellation: when Options.Ctx is cancelled, instances not yet
//     started complete immediately with the context's error; instances
//     already solving run to completion (the solver is CPU-bound and
//     finite).
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
)

// Instance is one K-PBS problem: schedule the communications of G under
// at most K simultaneous transfers with per-step setup delay Beta, using
// the algorithm and post-passes selected by Opts.
type Instance struct {
	G    *bipartite.Graph
	K    int
	Beta int64
	Opts kpbs.Options
}

// Run solves the instance with kpbs.Solve, making an Instance a pool Job.
func (inst Instance) Run() (*kpbs.Schedule, error) {
	return kpbs.Solve(inst.G, inst.K, inst.Beta, inst.Opts)
}

// Result is the outcome for the instance at the same index of the batch:
// exactly one of Schedule and Err is non-nil.
//
// Wait and Solve are the job's measured pool-queue wait and run time.
// They are populated only by an observed Pool (PoolOptions.Obs non-nil) —
// the durations come from the observer's spans, keeping the engine itself
// clock-free under the determinism lint — and are always zero for
// SolveBatch results and unobserved pools.
type Result struct {
	Schedule *kpbs.Schedule
	Err      error
	Wait     time.Duration
	Solve    time.Duration
}

// Options configure SolveBatch.
type Options struct {
	// Workers bounds the number of concurrent solver goroutines;
	// values ≤ 0 select runtime.GOMAXPROCS(0).
	Workers int
	// Ctx cancels the remainder of the batch; nil means Background.
	Ctx context.Context
	// Obs attaches the observability layer: batch/instance counters, queue
	// depth and worker-utilization gauges, per-instance latency, and trace
	// spans per instance solve. It is also handed down to each instance's
	// solver options unless the instance carries its own observer. nil (the
	// default) disables all instrumentation. Observation is strictly
	// passive: results stay byte-identical to SolveSerial (this package
	// never reads the clock itself — timing lives inside the obs views — so
	// the determinism lint keeps holding).
	Obs *obs.Observer
}

// SolveBatch solves every instance and returns one Result per instance,
// in input order. See the package comment for the determinism, isolation,
// bounding and cancellation guarantees.
func SolveBatch(instances []Instance, opts Options) []Result {
	results := make([]Result, len(instances))
	if len(instances) == 0 {
		return results
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(instances) {
		workers = len(instances)
	}

	// All observation goes through the nil-safe views: with opts.Obs nil,
	// bo is nil and every call below is a no-op.
	bo := opts.Obs.Engine().Batch(len(instances), workers)

	// Work-stealing over an atomic cursor: cheap, order-preserving in the
	// results slice, and naturally balanced when instance sizes vary.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(instances) {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = Result{Err: err}
					bo.Skip()
					continue
				}
				sp := bo.Instance(w, i)
				results[i] = solveOne(instances[i], opts.Obs)
				sp.Done(results[i].Err)
			}
		}()
	}
	wg.Wait()
	bo.Done()
	return results
}

// solveOne solves a single instance. defObs is the batch-level observer,
// handed to the solver unless the instance brings its own. Each instance
// solves in its own Opts.Shard mode; a sharded solve fans its components
// out internally while the instance occupies one worker.
func solveOne(inst Instance, defObs *obs.Observer) Result {
	if inst.Opts.Obs == nil {
		inst.Opts.Obs = defObs
	}
	return runGuarded(inst)
}

// runGuarded runs one job, converting a panic into an error Result so a
// malformed matrix can never take down a batch or a pool worker.
func runGuarded(j Job) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: fmt.Errorf("engine: solver panicked: %v", r)}
		}
	}()
	s, err := j.Run()
	if err != nil {
		return Result{Err: err}
	}
	return Result{Schedule: s}
}

// SolveSerial solves the batch with a plain loop on the calling
// goroutine. It is the reference implementation SolveBatch must match
// byte-for-byte; benchmarks and differential tests compare against it.
func SolveSerial(instances []Instance) []Result {
	results := make([]Result, len(instances))
	for i, inst := range instances {
		results[i] = solveOne(inst, nil)
	}
	return results
}
