package tokenbucket

import (
	"math"
	"sync"
	"testing"
	"time"

	"redistgo/internal/obs"
)

// fakeClock provides a deterministic clock whose Sleep advances time.
type fakeClock struct {
	mu  sync.Mutex
	t   time.Time
	nap time.Duration // total slept
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(0, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.t = c.t.Add(d)
		c.nap += d
	}
}

func TestNewRejectsBadParameters(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := New(-5, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := New(1, 0); err == nil {
		t.Fatal("zero burst accepted")
	}
}

// TestNewRejectsNonFinite: a NaN or infinite rate or burst is refused. A
// NaN passes both "≤ 0" checks, and the limiter it built admitted every
// request.
func TestNewRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name        string
		rate, burst float64
	}{
		{"nan rate", nan, 1},
		{"nan burst", 1, nan},
		{"nan both", nan, nan},
		{"inf rate", inf, 1},
		{"inf burst", 1, inf},
		{"inf both", inf, inf},
		{"-inf rate", math.Inf(-1), 1},
		{"-inf burst", 1, math.Inf(-1)},
	} {
		if _, err := New(tc.rate, tc.burst); err == nil {
			t.Errorf("%s: New(%g, %g) accepted", tc.name, tc.rate, tc.burst)
		}
	}
}

func TestNilLimiterIsUnlimited(t *testing.T) {
	var l *Limiter
	if !l.Allow(1 << 30) {
		t.Fatal("nil limiter refused")
	}
	l.Wait(1 << 30) // must not block or panic
	if l.Rate() != 0 {
		t.Fatal("nil limiter rate should be 0")
	}
}

func TestAllowConsumesBurst(t *testing.T) {
	clk := newFakeClock()
	l, err := NewWithClock(1000, 100, clk.now, clk.sleep)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Allow(60) {
		t.Fatal("first 60 bytes refused with full bucket")
	}
	if !l.Allow(40) {
		t.Fatal("remaining 40 bytes refused")
	}
	if l.Allow(1) {
		t.Fatal("empty bucket allowed a byte")
	}
	// After 50 ms at 1000 B/s, 50 tokens refill.
	clk.sleep(50 * time.Millisecond)
	if !l.Allow(50) {
		t.Fatal("refilled tokens refused")
	}
	if l.Allow(1) {
		t.Fatal("bucket should be empty again")
	}
}

func TestAllowNeverExceedsBurst(t *testing.T) {
	clk := newFakeClock()
	l, err := NewWithClock(1e6, 100, clk.now, clk.sleep)
	if err != nil {
		t.Fatal(err)
	}
	clk.sleep(10 * time.Second) // refill far beyond burst
	if l.Allow(101) {
		t.Fatal("allowed more than burst")
	}
	if !l.Allow(100) {
		t.Fatal("full burst refused")
	}
}

func TestWaitPacesToRate(t *testing.T) {
	clk := newFakeClock()
	// 1000 B/s, burst 100 B, bucket starts full.
	l, err := NewWithClock(1000, 100, clk.now, clk.sleep)
	if err != nil {
		t.Fatal(err)
	}
	// 1100 bytes = 100 burst + 1000 refilled over exactly 1 s.
	l.Wait(1100)
	if got := clk.nap; got != time.Second {
		t.Fatalf("slept %v, want exactly 1s", got)
	}
}

func TestWaitLargerThanBurstSplits(t *testing.T) {
	clk := newFakeClock()
	l, err := NewWithClock(100, 10, clk.now, clk.sleep)
	if err != nil {
		t.Fatal(err)
	}
	l.Wait(55) // 10 burst + 45 refill at 100 B/s = 450 ms
	if got := clk.nap; got != 450*time.Millisecond {
		t.Fatalf("slept %v, want 450ms", got)
	}
}

func TestWaitZeroAndNegative(t *testing.T) {
	clk := newFakeClock()
	l, err := NewWithClock(100, 10, clk.now, clk.sleep)
	if err != nil {
		t.Fatal(err)
	}
	l.Wait(0)
	l.Wait(-5)
	if clk.nap != 0 {
		t.Fatal("zero/negative Wait slept")
	}
}

// TestWaitTinyDeficitDoesNotSpin is the regression test for the 0 ns
// sleep bug: deficit/rate·1s truncates to 0 for tiny deficits at high
// rates, and a zero sleep never advances an injected clock, so the old
// code degenerated into a hot spin (here: an unbounded call count; in
// production: a busy loop hammering the mutex). The clamp must turn this
// into exactly one bounded sleep.
func TestWaitTinyDeficitDoesNotSpin(t *testing.T) {
	clk := newFakeClock()
	var calls int
	var min time.Duration
	sleep := func(d time.Duration) {
		calls++
		if calls == 1 || d < min {
			min = d
		}
		if calls > 1000 {
			t.Fatalf("Wait is spinning: %d sleep calls, shortest %v", calls, min)
		}
		clk.sleep(d)
	}
	l, err := NewWithClock(1e12, 1000, clk.now, sleep)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Allow(1000) {
		t.Fatal("could not drain full bucket")
	}
	l.Wait(1) // deficit of 1 byte at 1 TB/s: raw sleep truncates to 0 ns
	if calls != 1 {
		t.Fatalf("Wait slept %d times, want exactly 1", calls)
	}
	if min <= 0 {
		t.Fatalf("Wait slept %v, want a positive clamped duration", min)
	}
}

// TestWaitSleepsAreClamped checks every sleep a multi-chunk Wait issues
// is at least the anti-spin minimum.
func TestWaitSleepsAreClamped(t *testing.T) {
	clk := newFakeClock()
	var calls int
	sleep := func(d time.Duration) {
		calls++
		if d < minSleep {
			t.Fatalf("sleep %d lasted %v, below the %v clamp", calls, d, minSleep)
		}
		clk.sleep(d)
	}
	l, err := NewWithClock(1e9, 10, clk.now, sleep)
	if err != nil {
		t.Fatal(err)
	}
	l.Wait(10_005) // many burst-sized chunks at a rate that out-runs them
	if calls == 0 {
		t.Fatal("Wait never slept; test exercised nothing")
	}
}

func TestRate(t *testing.T) {
	l, err := New(12345, 10)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rate() != 12345 {
		t.Fatalf("Rate = %g", l.Rate())
	}
}

func TestConcurrentWaitTotalThroughput(t *testing.T) {
	// Real-clock smoke test: 4 goroutines pushing 25 KB each through a
	// 1 MB/s limiter with 10 KB burst must take roughly
	// (100KB - 10KB burst)/1MB/s ≈ 90 ms.
	l, err := New(1e6, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent := 0; sent < 25000; sent += 1000 {
				l.Wait(1000)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond {
		t.Fatalf("finished in %v; limiter not limiting", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("took %v; limiter far too slow", elapsed)
	}
}

// TestWaitReportsSleptTime: the cumulative sleep accounting matches the
// injected clock exactly, and an attached registry counter mirrors it in
// microseconds.
func TestWaitReportsSleptTime(t *testing.T) {
	clk := newFakeClock()
	l, err := NewWithClock(1000, 100, clk.now, clk.sleep)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctr := reg.Counter("shaped_sleep_us")
	l.SetSleepCounter(ctr)

	l.Wait(100) // burst covers it: no sleep
	if got := l.SleptTotal(); got != 0 {
		t.Fatalf("SleptTotal after burst-covered wait = %v, want 0", got)
	}
	l.Wait(500) // deficit of 500 bytes at 1000 B/s: 500 ms of sleeping
	if got, napped := l.SleptTotal(), clk.nap; got != napped {
		t.Fatalf("SleptTotal = %v, clock slept %v", got, napped)
	}
	if got := l.SleptTotal(); got < 400*time.Millisecond {
		t.Fatalf("SleptTotal = %v, want >= 400ms", got)
	}
	if got, want := ctr.Value(), l.SleptTotal().Microseconds(); got != want {
		t.Fatalf("counter = %d µs, want %d", got, want)
	}

	// Detaching stops the mirror but not the local accounting.
	l.SetSleepCounter(nil)
	before := ctr.Value()
	l.Wait(200)
	if ctr.Value() != before {
		t.Fatal("detached counter still advancing")
	}
	if l.SleptTotal() != clk.nap {
		t.Fatal("local accounting diverged from clock after detach")
	}
}

// TestNilLimiterSleepAccessors pins the nil-safe accessors.
func TestNilLimiterSleepAccessors(t *testing.T) {
	var l *Limiter
	if l.SleptTotal() != 0 {
		t.Fatal("nil SleptTotal != 0")
	}
	l.SetSleepCounter(nil) // must not panic
}
