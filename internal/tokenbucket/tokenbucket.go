// Package tokenbucket implements a byte-rate limiter equivalent to the
// software token bucket filter of the rshaper Linux kernel module the
// paper used to shape NIC bandwidth to 100/k Mbit/s (§5.2). The cluster
// runtime attaches one bucket per NIC and one to the backbone.
package tokenbucket

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"redistgo/internal/obs"
)

// minSleep is the shortest pause Wait ever takes. The deficit-derived
// duration deficit/rate·1s truncates toward zero nanoseconds for tiny
// deficits or very high rates; sleeping 0 ns turns the wait loop into a
// hot spin on the mutex, starving the goroutines it is pacing. One
// refill's worth of clamping error is absorbed by the bucket (tokens
// accumulate while oversleeping), so throughput is unaffected.
const minSleep = 100 * time.Microsecond

// Limiter is a thread-safe token bucket: tokens are bytes, refilled at a
// constant rate up to a burst capacity. A nil *Limiter imposes no limit,
// so optional shaping needs no branching at call sites.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // bucket capacity in bytes
	tokens float64
	last   time.Time

	// injectable clock for tests
	now   func() time.Time
	sleep func(time.Duration)

	// sleptNS accumulates the total time Wait has spent sleeping — the
	// shaping cost this bucket has imposed. sleepCtr optionally mirrors it
	// (in microseconds) into an observability registry counter; a swappable
	// pointer so attaching is safe while other goroutines are waiting.
	sleptNS  atomic.Int64
	sleepCtr atomic.Pointer[obs.Counter]
}

// New returns a limiter of rate bytes/s with the given burst capacity in
// bytes. The bucket starts full. Rate and burst must be positive and
// finite: a NaN passes no comparison, so a NaN bucket would admit
// everything.
func New(rate, burst float64) (*Limiter, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("tokenbucket: rate must be positive and finite, got %g", rate)
	}
	if !(burst > 0) || math.IsInf(burst, 1) {
		return nil, fmt.Errorf("tokenbucket: burst must be positive and finite, got %g", burst)
	}
	l := &Limiter{
		rate:   rate,
		burst:  burst,
		tokens: burst,
		now:    time.Now,
		sleep:  time.Sleep,
	}
	l.last = l.now()
	return l, nil
}

// NewWithClock is New with an injected clock, for deterministic tests.
func NewWithClock(rate, burst float64, now func() time.Time, sleep func(time.Duration)) (*Limiter, error) {
	l, err := New(rate, burst)
	if err != nil {
		return nil, err
	}
	l.now = now
	l.sleep = sleep
	l.last = now()
	l.tokens = burst
	return l, nil
}

// SleptTotal returns the cumulative time Wait has spent sleeping on this
// bucket — how much the shaping actually slowed its callers down. Zero
// for a nil limiter.
func (l *Limiter) SleptTotal() time.Duration {
	if l == nil {
		return 0
	}
	return time.Duration(l.sleptNS.Load())
}

// SetSleepCounter attaches a registry counter that Wait increments by
// each sleep's duration in microseconds, so per-bucket shaping cost shows
// up in metric snapshots. A nil limiter or counter is fine (no-op and
// detach respectively); safe to call while waiters are active.
func (l *Limiter) SetSleepCounter(c *obs.Counter) {
	if l == nil {
		return
	}
	l.sleepCtr.Store(c)
}

// Rate returns the configured rate in bytes/s, or 0 for a nil limiter.
func (l *Limiter) Rate() float64 {
	if l == nil {
		return 0
	}
	return l.rate
}

// refill credits tokens for the time elapsed since the last refill.
// Callers must hold l.mu.
func (l *Limiter) refill() {
	now := l.now()
	dt := now.Sub(l.last).Seconds()
	if dt > 0 {
		l.tokens += dt * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		l.last = now
	}
}

// Allow consumes n bytes if available without blocking and reports
// whether it did. n larger than the burst can never succeed.
func (l *Limiter) Allow(n int) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.refill()
	if float64(n) > l.tokens {
		return false
	}
	l.tokens -= float64(n)
	return true
}

// Wait blocks until n bytes of budget are available and consumes them.
// Requests larger than the burst are split internally, so any n ≥ 0 is
// valid. Waiting goroutines are serviced in lock-acquisition order.
func (l *Limiter) Wait(n int) {
	if l == nil || n <= 0 {
		return
	}
	remaining := float64(n)
	for remaining > 0 {
		l.mu.Lock()
		l.refill()
		chunk := remaining
		if chunk > l.burst {
			chunk = l.burst
		}
		if l.tokens >= chunk {
			l.tokens -= chunk
			remaining -= chunk
			l.mu.Unlock()
			continue
		}
		// Sleep for the deficit's refill time, clamped up to minSleep — the
		// sleep may therefore overshoot small deficits rather than pause for
		// exactly deficit/rate (a zero-duration sleep would spin on the
		// mutex). The overshoot credit is retained by the bucket, up to
		// burst, so sustained throughput still converges on the configured
		// rate.
		deficit := chunk - l.tokens
		l.mu.Unlock()
		d := time.Duration(deficit / l.rate * float64(time.Second))
		if d < minSleep {
			d = minSleep
		}
		l.sleep(d)
		l.sleptNS.Add(int64(d))
		l.sleepCtr.Load().Add(d.Microseconds())
	}
}
