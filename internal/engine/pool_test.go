package engine

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
)

// submit queues one job on p and waits for its Result.
func submit(t *testing.T, p *Pool, j Job) Result {
	t.Helper()
	ch := make(chan Result, 1)
	if err := p.TrySubmit(j, ch); err != nil {
		t.Fatal(err)
	}
	return <-ch
}

// TestPoolMatchesSerial: results delivered by the pool are exactly what
// the serial loop computes, for any pool shape — the same determinism
// contract SolveBatch carries.
func TestPoolMatchesSerial(t *testing.T) {
	insts := randomBatch(40, 13)
	want := SolveSerial(insts)
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(PoolOptions{Workers: workers, QueueDepth: len(insts)})
		var wg sync.WaitGroup
		got := make([]Result, len(insts))
		for i, inst := range insts {
			wg.Add(1)
			go func(i int, inst Instance) {
				defer wg.Done()
				ch := make(chan Result, 1)
				if err := p.TrySubmit(inst, ch); err != nil {
					got[i] = Result{Err: err}
					return
				}
				got[i] = <-ch
			}(i, inst)
		}
		wg.Wait()
		p.Close()
		for i := range want {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d instance %d: err %v, want %v", workers, i, got[i].Err, want[i].Err)
			}
			if got[i].Err == nil && !reflect.DeepEqual(got[i].Schedule, want[i].Schedule) {
				t.Fatalf("workers=%d instance %d: schedule differs from serial", workers, i)
			}
		}
	}
}

// TestPoolCloseDrains: every job admitted before Close gets a real
// result — Close is a drain, not an abort.
func TestPoolCloseDrains(t *testing.T) {
	insts := randomBatch(16, 17)
	p := NewPool(PoolOptions{Workers: 2, QueueDepth: len(insts)})
	chans := make([]chan Result, 0, len(insts))
	for _, inst := range insts {
		ch := make(chan Result, 1)
		if err := p.TrySubmit(inst, ch); err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	p.Close()
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("job %d admitted before Close got %v, want a solved schedule", i, res.Err)
		}
	}
	if err := p.TrySubmit(insts[0], make(chan Result, 1)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("TrySubmit after Close: %v, want ErrPoolClosed", err)
	}
}

// blockJob holds its worker until release is closed.
type blockJob struct {
	started chan struct{}
	release chan struct{}
}

func (j blockJob) Run() (*kpbs.Schedule, error) {
	close(j.started)
	<-j.release
	return &kpbs.Schedule{}, nil
}

// TestPoolQueueFull: with the single worker held by a job, exactly
// QueueDepth jobs wait and the next TrySubmit sheds instead of buffering
// without bound; every waiting job still runs once the worker frees.
func TestPoolQueueFull(t *testing.T) {
	insts := randomBatch(3, 19)
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 2})
	defer p.Close()
	hold := blockJob{started: make(chan struct{}), release: make(chan struct{})}
	held := make(chan Result, 1)
	if err := p.TrySubmit(hold, held); err != nil {
		t.Fatal(err)
	}
	<-hold.started
	waiting := make(chan Result, 2)
	for _, inst := range insts[:2] {
		if err := p.TrySubmit(inst, waiting); err != nil {
			t.Fatalf("submission within the queue depth: %v", err)
		}
	}
	if err := p.TrySubmit(insts[2], make(chan Result, 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission past the queue depth: %v, want ErrQueueFull", err)
	}
	close(hold.release)
	if res := <-held; res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := 0; i < 2; i++ {
		if res := <-waiting; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

// panicJob fails by panicking, as a solver bug on a malformed instance
// would.
type panicJob struct{}

func (panicJob) Run() (*kpbs.Schedule, error) { panic("malformed instance") }

// TestPoolJobPanic: a panicking job yields an error Result and leaves its
// worker serving the next job.
func TestPoolJobPanic(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	res := submit(t, p, panicJob{})
	if res.Schedule != nil || res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("panicking job = (%v, %v), want a panic error", res.Schedule, res.Err)
	}
	if res := submit(t, p, randomBatch(1, 31)[0]); res.Err != nil {
		t.Fatalf("job after a panic: %v", res.Err)
	}
}

// fixedJob answers with one preallocated schedule.
type fixedJob struct{ s *kpbs.Schedule }

func (j *fixedJob) Run() (*kpbs.Schedule, error) { return j.s, nil }

// TestPoolSubmitAllocs: a caller that reuses its job and its result
// channel, as a serve session does, queues and collects a job without
// allocating.
func TestPoolSubmitAllocs(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	defer p.Close()
	job := &fixedJob{s: &kpbs.Schedule{}}
	ch := make(chan Result, 1)
	if avg := testing.AllocsPerRun(100, func() {
		if err := p.TrySubmit(job, ch); err != nil {
			t.Fatal(err)
		}
		<-ch
	}); avg != 0 {
		t.Errorf("submitting and collecting a job allocates %v per job, want 0", avg)
	}
}

// TestPoolObserved: the pool view accounts for every job exactly once.
func TestPoolObserved(t *testing.T) {
	insts := randomBatch(12, 29)
	o := obs.New()
	p := NewPool(PoolOptions{Workers: 3, Obs: o})
	for _, inst := range insts {
		if res := submit(t, p, inst); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	p.Close()
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["engine.pool.submitted_total"]; got != int64(len(insts)) {
		t.Errorf("submitted_total = %d, want %d", got, len(insts))
	}
	if got := snap.Counters["engine.pool.completed_total"]; got != int64(len(insts)) {
		t.Errorf("completed_total = %d, want %d", got, len(insts))
	}
	if got := snap.Gauges["engine.pool.queue_depth"]; got != 0 {
		t.Errorf("queue_depth = %d after drain, want 0", got)
	}
}
