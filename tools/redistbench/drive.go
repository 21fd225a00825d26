package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
	"redistgo/internal/serve"
	"redistgo/internal/wire"
)

// An untraced run measures set-up, starting the server and opening its
// sessions, in two bursts (see runPhase). Each burst sets up at least
// minSetups times, and again while its set-ups took less than setupBudget
// in all, up to maxSetups: a set-up of half a millisecond (mixed-small) is
// measured hundreds of times, one of 0.7 s (powerlaw) minSetups times.
// setup_s is the median over both bursts.
const (
	minSetups   = 6
	maxSetups   = 200
	setupBudget = 125 * time.Millisecond
)

// moreSetups reports whether a burst that has measured the set-ups done so
// far repeats set-up once more.
func moreSetups(done []time.Duration) bool {
	var total time.Duration
	for _, d := range done {
		total += d
	}
	return len(done) < minSetups || (len(done) < maxSetups && total < setupBudget)
}

// warmup is how long a phase's traffic runs untimed before its window
// opens: 2 s, or a quarter of a shorter window.
func warmup(window time.Duration) time.Duration { return min(2*time.Second, window/4) }

// serverConfig is redist-serve's flag defaults: GOMAXPROCS workers, shard
// auto, no solve cache, four delta bases per session.
func serverConfig(o *obs.Observer) serve.Config {
	return serve.Config{Workers: runtime.GOMAXPROCS(0), Shard: kpbs.ShardAuto, MaxBases: 4, Obs: o}
}

// clock is a phase's time source: durations since the phase began. Tests
// inject a fake one.
type clock interface {
	now() time.Duration
	sleep(d time.Duration)
}

type wallClock struct{ epoch time.Time }

func (c wallClock) now() time.Duration    { return time.Since(c.epoch) }
func (c wallClock) sleep(d time.Duration) { time.Sleep(d) }

// pacer hands out one open-loop session's due times, one every interval.
type pacer struct {
	next, interval time.Duration
}

// wait sleeps until the next request is due and returns where the
// request's latency starts. A session behind schedule does not sleep
// (slept is false) and its latency starts at the due time, so the wait a
// stall imposes on later requests counts. Otherwise it starts when the
// generator woke: Go's timers wake an idle process with millisecond
// granularity, and that delay, returned as late, is the generator's, not
// the server's.
func (p *pacer) wait(c clock) (start, late time.Duration, slept bool) {
	due := p.next
	p.next += p.interval
	if now := c.now(); now < due {
		c.sleep(due - now)
		woke := c.now()
		return woke, woke - due, true
	}
	return due, 0, false
}

// sample is one request's outcome; times are durations since the phase
// began.
type sample struct {
	// start is where the request's latency is timed from: the send in a
	// closed loop, the pacer's start (see pacer.wait) in an open loop.
	start, sent, done time.Duration
	// late is how late the generator sent the request: the sleep overshoot
	// in an open loop (hasLate false when the session was behind), the gap
	// since the previous response in a closed loop.
	late     time.Duration
	hasLate  bool
	ok       bool    // the server answered with the expected response
	ratio    float64 // evaluation ratio of the expected schedule
	handling int64   // traced: the server's echoed handling time, µs
}

// session is one client connection and the traffic it cycles through.
type session struct {
	id     int
	cl     *serve.Client
	t      *traffic
	lay    layout
	traced bool
	tr     *tracer // traced phases: records each request's spans
	pid    int     // trace process of this workload's served traffic
	off    time.Duration
	pos    int    // next pool instance, or next position in the chain's cycle
	base   uint64 // delta workload: the chain's latest response id
	seq    uint64
	out    []sample
}

func (s *session) chain() *chain {
	if len(s.t.chains) == 0 {
		return nil
	}
	return s.t.chains[s.id]
}

func (s *session) traceContext() wire.TraceContext {
	var tc wire.TraceContext
	if s.traced {
		s.seq++
		tc.ID[0], tc.ID[1] = 'r', byte(s.id)
		for i := 0; i < 8; i++ {
			tc.ID[8+i] = byte(s.seq >> (56 - 8*i))
		}
	}
	return tc
}

// first sends the session's first request (opening its delta chain) and
// requires a verified answer. Pool sessions start rep instances past their
// share of the pool, so each set-up repetition solves other instances.
func (s *session) first(rep int) error {
	if c := s.chain(); c != nil {
		return s.open(c.states[0])
	}
	s.pos = (s.id*len(s.t.items)/sessions + rep) % len(s.t.items)
	smp, err := s.send(wallClock{time.Now()}, 0)
	if err == nil && !smp.ok {
		err = errors.New("first response did not match the expected schedule")
	}
	return err
}

// open starts the session's delta chain at instance it with a full solve.
func (s *session) open(it *item) error {
	req := it.req
	req.Trace = s.traceContext()
	resp, raw, err := s.cl.SolveFull(req)
	if err != nil {
		return fmt.Errorf("open delta chain: %w", err)
	}
	if !s.lay.match(raw, it.want) {
		return errors.New("delta chain base response did not match the expected schedule")
	}
	s.base = resp.ID
	return nil
}

// send issues the session's next request and verifies the response. Only a
// dead session is an error; refusals and mismatches are outcomes.
func (s *session) send(clk clock, start time.Duration) (sample, error) {
	smp := sample{start: start, sent: clk.now()}
	tc := s.traceContext()
	var (
		want *item
		resp wire.SolveResponse
		raw  []byte
		err  error
	)
	c := s.chain()
	if c != nil {
		want = c.stateAfter(s.pos)
		resp, raw, err = s.cl.SolveDeltaFull(wire.DeltaRequest{Base: s.base, Edits: c.rounds[s.pos], Trace: tc})
		s.pos = (s.pos + 1) % len(c.rounds)
	} else {
		want = s.t.items[s.pos]
		req := want.req
		req.Trace = tc
		resp, raw, err = s.cl.SolveFull(req)
		s.pos = (s.pos + 1) % len(s.t.items)
	}
	smp.done = clk.now()
	var rej *serve.RejectError
	if err != nil && !errors.As(err, &rej) {
		return smp, err
	}
	if err == nil {
		smp.ok = s.lay.match(raw, want.want) && resp.Trace.ID == tc.ID
		smp.ratio = want.ratio
		smp.handling = resp.Trace.TS
	}
	if c != nil {
		if smp.ok {
			s.base = resp.ID
		} else if err := s.open(want); err != nil {
			// A refused or wrong delta leaves the chain's state unknown:
			// restart it from the state it should hold.
			return smp, err
		}
	}
	if s.tr != nil {
		s.record(smp, clk.now(), resp.ID)
	}
	return smp, nil
}

// record stores one served request's spans: the request, the client round
// trip inside it, the server's handling inside that, and the byte check.
// The server reports only its handling time, so that span is centred in the
// round trip, which assumes equal wire time each way.
func (s *session) record(smp sample, verified time.Duration, req uint64) {
	root := s.tr.add("request", -1, req, s.pid, s.id, s.off+smp.sent, s.off+verified)
	rt := s.tr.add("client.round_trip", root, req, s.pid, s.id, s.off+smp.sent, s.off+smp.done)
	h := time.Duration(smp.handling) * time.Microsecond
	if gap := smp.done - smp.sent - h; gap >= 0 {
		s.tr.add("server.handling", rt, req, s.pid, s.id, s.off+smp.sent+gap/2, s.off+smp.sent+gap/2+h)
	}
	s.tr.add("verify", root, req, s.pid, s.id, s.off+smp.done, s.off+verified)
}

// run drives the session until end: closed loop when interval is zero,
// otherwise open loop with one request due every interval.
func (s *session) run(ctx context.Context, clk clock, end, interval time.Duration) error {
	var p *pacer
	if interval > 0 {
		p = &pacer{next: time.Duration(s.id) * interval / sessions, interval: interval}
	}
	prev := clk.now()
	for ctx.Err() == nil {
		var start, late time.Duration
		hasLate := true
		if p != nil {
			if p.next >= end {
				return nil
			}
			start, late, hasLate = p.wait(clk)
		} else {
			if start = clk.now(); start >= end {
				return nil
			}
			late = start - prev
		}
		smp, err := s.send(clk, start)
		if err != nil {
			return err
		}
		smp.late, smp.hasLate = late, hasLate
		s.out = append(s.out, smp)
		prev = smp.done
	}
	return ctx.Err()
}

// phase is one served measurement: set-up, warm-up, then the window.
type phase struct {
	setup     []time.Duration
	samples   []sample // requests sent in the window, every session
	ws, we    time.Duration
	responses int    // verified responses that completed in the window
	mallocs   uint64 // heap allocations in the window
	allocated uint64 // heap bytes allocated in the window
	peakHeap  uint64
	obs       *obs.Observer // traced: the server's instruments, read after the window
	started   time.Time     // when the latest set-up started its server
	served    time.Duration // from the server's start until its last request was answered
}

// setUp starts a server and opens every session, and records how long that
// took.
func (ph *phase) setUp(t *traffic, lay layout, traced bool) (*serve.Server, []*session, error) {
	if traced {
		// The instruments take their clock from the observer's trace. Its
		// per-peel events would reach the trace's cap within seconds, so
		// keep only the first few: events past the cap are built, counted
		// and dropped.
		ph.obs = obs.New()
		ph.obs.Trace.SetLimit(1 << 16)
	}
	// Every repetition starts from a collected heap, so whether a collection
	// of the previous one's garbage lands inside it does not vary from one
	// to the next.
	runtime.GC()
	started := time.Now()
	srv, err := serve.New(serverConfig(ph.obs))
	if err != nil {
		return nil, nil, err
	}
	ss, err := openSessions(srv.Addr(), t, lay, traced, len(ph.setup))
	if err != nil {
		_ = stop(srv, nil) // the open error is the one to report
		return nil, nil, err
	}
	ph.setup = append(ph.setup, time.Since(started))
	ph.started = started
	return srv, ss, nil
}

// setUps repeats set-up, shutting each server down, while moreSetups asks
// for it over the repetitions from the from'th on.
func (ph *phase) setUps(ctx context.Context, t *traffic, lay layout, from int) error {
	for moreSetups(ph.setup[from:]) {
		if err := ctx.Err(); err != nil {
			return err
		}
		srv, ss, err := ph.setUp(t, lay, false)
		if err != nil {
			return err
		}
		if err := stop(srv, ss); err != nil {
			return err
		}
	}
	return nil
}

// runPhase sets up the server and its sessions, keeps them running through
// the warm-up and the window, and shuts them down. With repeat set it also
// measures set-up in two bursts, before the warm-up and after the window:
// the host's speed drifts over tens of seconds, and a burst of repetitions
// a fraction of a second long all caught the same moment.
func runPhase(ctx context.Context, w *workload, t *traffic, traced bool, window time.Duration, repeat bool, tr *tracer, pid int) (*phase, error) {
	lay, err := deriveLayout(traced)
	if err != nil {
		return nil, err
	}
	ph := &phase{ws: warmup(window), we: warmup(window) + window}
	if repeat {
		if err := ph.setUps(ctx, t, lay, 0); err != nil {
			return nil, err
		}
	}
	srv, ss, err := ph.setUp(t, lay, traced)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			_ = stop(srv, ss) // error paths: the run already failed
		}
	}()

	epoch := time.Now()
	clk := wallClock{epoch}
	var interval time.Duration
	if w.open {
		interval = time.Duration(float64(sessions) / w.rate * float64(time.Second))
	}
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		if traced {
			s.tr, s.pid, s.off = tr, pid, epoch.Sub(tr.epoch)
		}
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			errs[i] = s.run(ctx, clk, ph.we, interval)
		}(i, s)
	}
	time.Sleep(time.Until(epoch.Add(ph.ws)))
	m0, b0 := allocCounters()
	peakCtx, peakDone := context.WithCancel(ctx)
	peak := sampleHeapPeak(peakCtx)
	time.Sleep(time.Until(epoch.Add(ph.we)))
	m1, b1 := allocCounters()
	peakDone()
	ph.peakHeap = <-peak
	wg.Wait()
	ph.served = time.Since(ph.started)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	ph.mallocs, ph.allocated = m1-m0, b1-b0
	for _, s := range ss {
		for _, smp := range s.out {
			if smp.ok && smp.done >= ph.ws && smp.done <= ph.we {
				ph.responses++
			}
			if smp.sent >= ph.ws && smp.sent < ph.we {
				ph.samples = append(ph.samples, smp)
			}
		}
	}
	err = stop(srv, ss)
	srv = nil
	if err != nil {
		return nil, err
	}
	if repeat {
		if err := ph.setUps(ctx, t, lay, len(ph.setup)); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// openSessions dials the sessions one after another and waits for each
// one's first verified response. In sequence the set-up time is the sum of
// the first solves and needs one CPU, so a busy loop on the other CPU left it
// unchanged; opened concurrently it is the slower of two solves racing for
// both CPUs, and it moved up to twice as much as throughput when the host
// slowed.
func openSessions(addr string, t *traffic, lay layout, traced bool, rep int) ([]*session, error) {
	var ss []*session
	for i := 0; i < sessions; i++ {
		cl, err := serve.Dial(addr, int32(i+1))
		if err == nil {
			ss = append(ss, &session{id: i, cl: cl, t: t, lay: lay, traced: traced})
			err = ss[i].first(rep)
		}
		if err != nil {
			for _, s := range ss {
				_ = s.cl.Close() // already failing; the dial or first-response error is reported
			}
			return nil, err
		}
	}
	return ss, nil
}

// stop closes the sessions and drains the server.
func stop(srv *serve.Server, ss []*session) error {
	for _, s := range ss {
		_ = s.cl.Close() // the server's drain below reports what matters
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// allocCounters reads the process's cumulative heap allocations (objects,
// tiny ones included, and bytes) from runtime/metrics.
func allocCounters() (objects, bytes uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// sampleHeapPeak reads the heap held by objects, live or not yet swept,
// every 10 ms without stopping the world, and sends the largest reading
// once ctx ends. The heap peaks just before each collection; sampling every
// 100 ms missed most peaks on dense64-ggp, which collects several times a
// second.
func sampleHeapPeak(ctx context.Context) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for ctx.Err() == nil {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-ctx.Done():
			case <-tick.C:
			}
		}
		out <- peak
	}()
	return out
}
