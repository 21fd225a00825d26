package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestConcurrentUpdates hammers one counter, gauge and histogram from
// many goroutines; under `go test -race` this proves the update paths are
// race-clean, and the totals prove no update is lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{10, 100, 1000})
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 2000))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	var bucketSum int64
	for _, n := range h.snapshot() {
		bucketSum += n
	}
	if bucketSum != workers*per {
		t.Errorf("histogram buckets sum to %d, want %d", bucketSum, workers*per)
	}
}

// TestConcurrentRegistryLookups races handle resolution against updates
// and snapshots; idempotence means every goroutine must get the same
// handle.
func TestConcurrentRegistryLookups(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("shared").Set(int64(i))
				r.Histogram("shared", SizeBuckets).Observe(int64(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*1000 {
		t.Errorf("shared counter = %d, want %d", got, 8*1000)
	}
}

// TestNilSafety walks every nil-receiver path: nil registry, nil handles,
// nil observer views. None may panic, and reads return zeros.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", SizeBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Add(3)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(9)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}

	var o *Observer
	if o.Reg() != nil {
		t.Error("nil observer must expose a nil registry")
	}
	so := o.Solver("GGP")
	so.Peel(0, 4, 2, 1, 10)
	so.Done(3, 100)
	eo := o.Engine()
	bo := eo.Batch(5, 2)
	sp := bo.Instance(0, 0)
	sp.Done(nil)
	bo.Skip()
	bo.Done()
	co := o.Cluster()
	co.Step(0, time.Time{}, 0, 0, 1)
	co.Transfer(0, 1, 64, time.Time{}, 0)

	var tr *Trace
	tr.Instant("c", "n", 1, 1, nil)
	tr.Complete("c", "n", 1, 1, time.Time{}, 0, nil)
	tr.StartSpan("c", "n", 1, 1).End(nil)
	tr.SetLimit(1)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("nil trace must read as empty")
	}
}

// TestHistogramBucketing pins the bucket-selection arithmetic: values land
// in the first bucket whose bound is >= v, overflow in the last.
func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]int64{10, 100})
	for _, v := range []int64{0, 10, 11, 100, 101, 1 << 40} {
		h.Observe(v)
	}
	want := []int64{2, 2, 2} // {0,10}, {11,100}, {101, 2^40}
	got := h.snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Sum() != 0+10+11+100+101+1<<40 {
		t.Errorf("sum = %d", h.Sum())
	}
}

// TestUpdatePathsDoNotAllocate is the satellite's AllocsPerRun guard: the
// disabled (nil-handle) path and the enabled counter/gauge/histogram
// update path must both be allocation-free, or threading observability
// through the solver would break its zero-alloc steady state.
func TestUpdatePathsDoNotAllocate(t *testing.T) {
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	if avg := testing.AllocsPerRun(100, func() {
		nc.Add(1)
		ng.Set(2)
		nh.Observe(3)
	}); avg != 0 {
		t.Errorf("nil no-op path allocates %.1f/run, want 0", avg)
	}

	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBuckets)
	if avg := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
	}); avg != 0 {
		t.Errorf("enabled update path allocates %.1f/run, want 0", avg)
	}
}

// TestSnapshotDeterministic asserts two snapshots of the same state are
// equal, histograms sorted by name, which the /metrics endpoint and the
// golden tests rely on.
func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"z", "a", "m"} {
		r.Counter("counter." + name).Add(1)
		r.Gauge("gauge." + name).Set(2)
		r.Histogram("hist."+name, SizeBuckets).Observe(3)
	}
	a, b := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%+v\nvs\n%+v", a, b)
	}
	var names []string
	for _, h := range a.Histograms {
		names = append(names, h.Name)
	}
	if want := []string{"hist.a", "hist.m", "hist.z"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("histograms %v, want %v", names, want)
	}
}
