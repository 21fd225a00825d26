package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept or when a test moves it, and every
// sleep overshoots by a fixed amount.
type fakeClock struct {
	t, overshoot time.Duration
}

func (c *fakeClock) now() time.Duration    { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += d + c.overshoot }

// TestPacerLatencyAccounting drives an open-loop session on an injected
// clock through a stall: the request due at 10 ms takes 23 ms, so the
// requests due during the stall go out without sleeping and their latency
// counts from their due times, backlog included. A request the generator
// slept for is timed from its send, and the sleep's overshoot is reported
// as generator lateness instead.
func TestPacerLatencyAccounting(t *testing.T) {
	const interval, overshoot = 5 * time.Millisecond, 50 * time.Microsecond
	ms := time.Millisecond
	clk := &fakeClock{overshoot: overshoot}
	p := &pacer{interval: interval}
	type want struct {
		start, latency, late time.Duration
		slept                bool
	}
	wants := []want{
		{0, 1 * ms, 0, false}, // due at once: nothing to sleep
		{5*ms + overshoot, 1 * ms, overshoot, true},
		{10*ms + overshoot, 23 * ms, overshoot, true}, // the stall: done at 33.05 ms
		{15 * ms, 19*ms + overshoot, 0, false},        // sent at 33.05 ms, due at 15 ms
		{20 * ms, 15*ms + overshoot, 0, false},
		{25 * ms, 11*ms + overshoot, 0, false},
		{30 * ms, 7*ms + overshoot, 0, false},
		{35 * ms, 3*ms + overshoot, 0, false}, // done at 38.05 ms: caught up
		{40*ms + overshoot, 1 * ms, overshoot, true},
	}
	for i, w := range wants {
		service := ms
		if i == 2 {
			service = 23 * ms
		}
		start, late, slept := p.wait(clk)
		clk.t += service
		if start != w.start || clk.t-start != w.latency || late != w.late || slept != w.slept {
			t.Errorf("request %d: start %v latency %v late %v slept %v; want start %v latency %v late %v slept %v",
				i, start, clk.t-start, late, slept, w.start, w.latency, w.late, w.slept)
		}
	}
}
