package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"redistgo/internal/bipartite"
	"redistgo/internal/engine"
	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
	"redistgo/internal/trafficgen"
	"redistgo/internal/wire"
)

// waitSessionsDrained waits until the server has torn down every session.
// Teardown is asynchronous with the client's Close, and a session bumps
// its response counter only after writing the response, so tests read
// counters and gauges after this returns, never straight after the last
// reply arrives.
func waitSessionsDrained(t *testing.T, o *obs.Observer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for o.Metrics.Snapshot().Gauges["serve.sessions_active"] != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions_active = %d after all clients closed, want 0",
				o.Metrics.Snapshot().Gauges["serve.sessions_active"])
		}
		time.Sleep(time.Millisecond)
	}
}

// newServer starts a server with the config (Addr forced to an ephemeral
// loopback port) and registers its teardown.
func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

// request builds a solvable instance from a deterministic random matrix.
func request(t *testing.T, rng *rand.Rand, n, k int) wire.SolveRequest {
	t.Helper()
	m := trafficgen.DenseUniform(rng, n, n, 1, 1<<12)
	g, err := bipartite.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	alg := kpbs.GGP
	if rng.Intn(2) == 1 {
		alg = kpbs.OGGP
	}
	return wire.SolveRequest{
		K: k, Beta: 32, Algorithm: alg,
		N1: g.LeftCount(), N2: g.RightCount(), Edges: g.Edges(),
	}
}

// verify solves req locally and checks the server's raw payload is the
// byte-identical encoding of the same schedule.
func verify(t *testing.T, req wire.SolveRequest, raw []byte) {
	t.Helper()
	local, err := kpbs.Solve(req.Graph(), req.K, req.Beta, kpbs.Options{Algorithm: req.Algorithm})
	if err != nil {
		t.Fatalf("local solve: %v", err)
	}
	want, err := wire.EncodeSolveResp(req.ID, local, wire.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("served schedule differs from the local solve")
	}
}

// TestServeEndToEnd is the core acceptance: eight concurrent tenant
// sessions, every response byte-identical to a local solve, all
// accounted in the metrics.
func TestServeEndToEnd(t *testing.T) {
	o := obs.New()
	const clients, perClient = 8, 6
	// Queue sized for the client count so the test exercises clean
	// responses; backpressure rejects are covered separately.
	s := newServer(t, Config{QueueDepth: clients, Obs: o})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			cl, err := Dial(s.Addr(), int32(ci+1))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				req := request(t, rng, 6+rng.Intn(6), 1+rng.Intn(4))
				req.ID = uint64(i + 1)
				_, raw, err := cl.Solve(req)
				if err != nil {
					errs <- err
					return
				}
				verify(t, req, raw)
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitSessionsDrained(t, o)
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["serve.sessions_total"]; got != clients {
		t.Errorf("sessions_total = %d, want %d", got, clients)
	}
	if got := snap.Counters["serve.responses_total"]; got != clients*perClient {
		t.Errorf("responses_total = %d, want %d", got, clients*perClient)
	}
	if got := snap.Counters["serve.rejects_total"]; got != 0 {
		t.Errorf("rejects_total = %d, want 0", got)
	}
}

// TestServeAnswersDenseEnvelope: dense 128×128 GGP and dense 255×255 OGGP
// requests (k = 32, β = 1) have schedules of about 344 KB and 216 KB on the
// wire, so the daemon answers both, byte-identical to a local solve, where
// 16 bytes a communication drew RejectTooLarge. Dense 255×255 GGP, at
// about 1.69 MB, is still refused.
func TestServeAnswersDenseEnvelope(t *testing.T) {
	s := newServer(t, Config{})
	cl, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, tc := range []struct {
		n   int
		alg kpbs.Algorithm
	}{{128, kpbs.GGP}, {255, kpbs.OGGP}} {
		g, err := bipartite.FromMatrix(trafficgen.DenseUniform(rand.New(rand.NewSource(5)), tc.n, tc.n, 1, 20))
		if err != nil {
			t.Fatal(err)
		}
		req := wire.SolveRequest{ID: uint64(i + 1), K: 32, Beta: 1, Algorithm: tc.alg,
			N1: tc.n, N2: tc.n, Edges: g.Edges()}
		_, raw, err := cl.Solve(req)
		if err != nil {
			t.Fatalf("dense %dx%d %s: %v", tc.n, tc.n, tc.alg, err)
		}
		verify(t, req, raw)
	}
}

// TestTraceRoundTrip: a traced request's 16-byte id comes back on the
// response (TS rewritten to the server's handling time), the response
// payload is CodecV2, and the per-request observability — spans, tenant
// SLO slots, the pool's queue-wait and job histograms — fills in behind
// it.
func TestTraceRoundTrip(t *testing.T) {
	o := obs.New()
	s := newServer(t, Config{Obs: o})
	rng := rand.New(rand.NewSource(7))
	cl, err := Dial(s.Addr(), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	req := request(t, rng, 8, 2)
	req.ID = 1
	req.Trace = wire.TraceContext{ID: [16]byte{0x5A, 5: 0xA5, 15: 0x01}}
	resp, raw, err := cl.SolveFull(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace.ID != req.Trace.ID {
		t.Fatalf("response trace id %x, want the request's %x", resp.Trace.ID, req.Trace.ID)
	}
	if resp.Trace.TS < 0 {
		t.Fatalf("server handling time = %d µs, want ≥ 0", resp.Trace.TS)
	}
	if raw[0] != wire.CodecV2 {
		t.Fatalf("traced response payload version %d, want CodecV2", raw[0])
	}
	// Byte-identical check still holds after re-encoding under the echoed
	// trace context.
	local, err := kpbs.Solve(req.Graph(), req.K, req.Beta, kpbs.Options{Algorithm: req.Algorithm})
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.EncodeSolveResp(req.ID, local, resp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("traced response differs from the local solve re-encoded with the echoed context")
	}

	cl.Close()
	waitSessionsDrained(t, o)
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["spans.finished_total"]; got != 1 {
		t.Errorf("spans.finished_total = %d, want 1", got)
	}
	var waitOK, solveOK bool
	for _, h := range snap.Histograms {
		switch h.Name {
		case "engine.pool.queue_wait_us":
			waitOK = h.Count == 1
		case "engine.pool.job_us":
			solveOK = h.Count == 1
		}
	}
	if !waitOK || !solveOK {
		t.Errorf("timing histograms not recorded (wait=%v solve=%v)", waitOK, solveOK)
	}
	tenants := o.TenantSLO().Snapshot()
	if len(tenants) != 1 || tenants[0].Tenant != 42 || tenants[0].Responses != 1 {
		t.Errorf("tenant SLO snapshot = %+v, want one slot for tenant 42", tenants)
	}
}

// TestUntracedStaysV1 pins the differential guarantee: a request without
// a trace context gets a CodecV1 response whose bytes are exactly the
// pre-trace-era encoding, observability on or off.
func TestUntracedStaysV1(t *testing.T) {
	s := newServer(t, Config{})
	rng := rand.New(rand.NewSource(8))
	cl, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	req := request(t, rng, 8, 2)
	req.ID = 1
	reqPayload, err := wire.EncodeSolveReq(req)
	if err != nil {
		t.Fatal(err)
	}
	if reqPayload[0] != wire.CodecV1 {
		t.Fatalf("untraced request payload version %d, want CodecV1", reqPayload[0])
	}
	_, raw, err := cl.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != wire.CodecV1 {
		t.Fatalf("untraced response payload version %d, want CodecV1", raw[0])
	}
	verify(t, req, raw) // verify() encodes with a zero trace context — the V1 bytes
}

// TestTenantQuota: a tenant over its admission budget is refused with
// over-quota, the refusal is accounted per code, and the session stays
// usable — a throttled client does not have to re-dial.
func TestTenantQuota(t *testing.T) {
	o := obs.New()
	// 1e-9 req/s with burst 1: exactly one admission, no meaningful refill.
	s := newServer(t, Config{TenantRate: 1e-9, TenantBurst: 1, Obs: o})
	rng := rand.New(rand.NewSource(3))
	cl, err := Dial(s.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	req := request(t, rng, 6, 2)
	if _, raw, err := cl.Solve(req); err != nil {
		t.Fatalf("first request within budget: %v", err)
	} else {
		req.ID = 1
		verify(t, req, raw)
	}
	var rej *RejectError
	if _, _, err := cl.Solve(request(t, rng, 6, 2)); !errors.As(err, &rej) {
		t.Fatalf("second request: %v, want a reject", err)
	} else if rej.Code != wire.RejectOverQuota {
		t.Fatalf("second request rejected with %s, want %s", rej.Code, wire.RejectOverQuota)
	}
	// Still the same live session: a third try must again be answered
	// (with a reject), not a dead connection.
	if _, _, err := cl.Solve(request(t, rng, 6, 2)); !errors.As(err, &rej) {
		t.Fatalf("third request on the throttled session: %v, want a reject", err)
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["serve.rejects_total.over-quota"]; got != 2 {
		t.Errorf("rejects_total.over-quota = %d, want 2", got)
	}
	if got := snap.Counters["serve.rejects_total"]; got != 2 {
		t.Errorf("rejects_total = %d, want 2", got)
	}
	if got := snap.Gauges["serve.tenants_known"]; got != 1 {
		t.Errorf("tenants_known = %d, want 1", got)
	}
}

// TestGlobalQuota: the service-wide bucket refuses independently of the
// tenant identity.
func TestGlobalQuota(t *testing.T) {
	o := obs.New()
	s := newServer(t, Config{GlobalRate: 1e-9, GlobalBurst: 1, Obs: o})
	rng := rand.New(rand.NewSource(5))
	for i, wantOK := range []bool{true, false} {
		cl, err := Dial(s.Addr(), int32(i+1)) // distinct tenants
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = cl.Solve(request(t, rng, 5, 2))
		_ = cl.Close()
		var rej *RejectError
		switch {
		case wantOK && err != nil:
			t.Fatalf("request %d: %v, want success", i, err)
		case !wantOK && !errors.As(err, &rej):
			t.Fatalf("request %d: %v, want over-quota reject", i, err)
		case !wantOK && rej.Code != wire.RejectOverQuota:
			t.Fatalf("request %d rejected with %s, want %s", i, rej.Code, wire.RejectOverQuota)
		}
	}
	if got := o.Metrics.Snapshot().Counters["serve.rejects_total.over-quota"]; got != 1 {
		t.Errorf("rejects_total.over-quota = %d, want 1", got)
	}
}

// TestMaxNodesReject: an instance above the configured size cap is
// refused as too-large and the session survives to serve a smaller one.
func TestMaxNodesReject(t *testing.T) {
	s := newServer(t, Config{MaxNodes: 6})
	rng := rand.New(rand.NewSource(7))
	cl, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var rej *RejectError
	if _, _, err := cl.Solve(request(t, rng, 10, 2)); !errors.As(err, &rej) {
		t.Fatalf("oversized instance: %v, want reject", err)
	} else if rej.Code != wire.RejectTooLarge {
		t.Fatalf("oversized instance rejected with %s, want %s", rej.Code, wire.RejectTooLarge)
	}
	if _, _, err := cl.Solve(request(t, rng, 5, 2)); err != nil {
		t.Fatalf("in-bounds instance after a too-large reject: %v", err)
	}
}

// TestShutdownDrainsInFlight: requests admitted before Shutdown still
// get their full responses while the server drains — the SIGTERM
// contract redist-serve relies on.
func TestShutdownDrainsInFlight(t *testing.T) {
	o := obs.New()
	s, err := New(Config{Workers: 2, QueueDepth: 8, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	const inFlight = 4
	type outcome struct {
		req wire.SolveRequest
		raw []byte
		err error
	}
	results := make(chan outcome, inFlight)
	for ci := 0; ci < inFlight; ci++ {
		go func(ci int) {
			rng := rand.New(rand.NewSource(int64(40 + ci)))
			cl, err := Dial(s.Addr(), int32(ci+1))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer cl.Close()
			// Large enough that the solves are still running when Shutdown
			// begins below.
			req := request(t, rng, 48, 3)
			req.ID = 1
			_, raw, err := cl.Solve(req)
			results <- outcome{req: req, raw: raw, err: err}
		}(ci)
	}
	// Wait until every request is admitted into the pool, then shut down
	// mid-solve.
	deadline := time.Now().Add(10 * time.Second)
	for o.Metrics.Snapshot().Counters["engine.pool.submitted_total"] < inFlight {
		if time.Now().After(deadline) {
			t.Fatal("requests never reached the pool")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	for i := 0; i < inFlight; i++ {
		res := <-results
		if res.err != nil {
			t.Fatalf("in-flight request dropped by shutdown: %v", res.err)
		}
		verify(t, res.req, res.raw)
	}
	if got := o.Metrics.Snapshot().Counters["serve.responses_total"]; got != inFlight {
		t.Errorf("responses_total = %d, want %d", got, inFlight)
	}
	// The listener is gone: new sessions are refused at dial or die on
	// first use.
	if cl, err := Dial(s.Addr(), 99); err == nil {
		if _, _, err := cl.Solve(request(t, rand.New(rand.NewSource(1)), 4, 1)); err == nil {
			t.Error("request succeeded after shutdown completed")
		}
		_ = cl.Close()
	}
}

// TestMalformedClient: framing garbage and unexpected frame types are
// answered with a bad-request reject, counted, and the session torn
// down — no hang, no silent drop.
func TestMalformedClient(t *testing.T) {
	o := obs.New()
	s := newServer(t, Config{Obs: o})

	expectRejectThenClose := func(t *testing.T, conn net.Conn) {
		t.Helper()
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		f, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("want a reject frame before teardown, got %v", err)
		}
		if f.Type != wire.MsgReject {
			t.Fatalf("want MsgReject, got %s", f.Type)
		}
		rej, err := wire.DecodeReject(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if rej.Code != wire.RejectBadRequest {
			t.Fatalf("reject code %s, want %s", rej.Code, wire.RejectBadRequest)
		}
		if _, err := wire.Read(conn); err == nil {
			t.Fatal("session stayed open after a protocol violation")
		}
	}

	t.Run("invalid type byte", func(t *testing.T) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		raw := make([]byte, 13)
		raw[4] = 0xEE
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		expectRejectThenClose(t, conn)
	})
	t.Run("unexpected frame type", func(t *testing.T) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.Write(conn, wire.Frame{Type: wire.MsgBarrier}); err != nil {
			t.Fatal(err)
		}
		expectRejectThenClose(t, conn)
	})
	t.Run("garbage request payload", func(t *testing.T) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.Write(conn, wire.Frame{Type: wire.MsgSolveReq, Payload: []byte{0xDE, 0xAD}}); err != nil {
			t.Fatal(err)
		}
		expectRejectThenClose(t, conn)
	})
	t.Run("disconnect mid-frame", func(t *testing.T) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte{0, 0}); err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	})

	waitSessionsDrained(t, o)
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["serve.protocol_errors_total"]; got != 3 {
		t.Errorf("protocol_errors_total = %d, want 3", got)
	}
}

// TestSplitAndCoalescedFrames: the session reads frames through a buffer,
// so frame boundaries must not depend on how the bytes arrive. A request
// written one byte at a time is answered, and so are two requests written
// in a single Write.
func TestSplitAndCoalescedFrames(t *testing.T) {
	s := newServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	frame := func(req wire.SolveRequest) []byte {
		t.Helper()
		payload, err := wire.EncodeSolveReq(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := wire.Write(&buf, wire.Frame{Type: wire.MsgSolveReq, Src: 1, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	answer := func(req wire.SolveRequest) {
		t.Helper()
		f, err := wire.Read(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.MsgSolveResp {
			t.Fatalf("want MsgSolveResp, got %s", f.Type)
		}
		verify(t, req, f.Payload)
	}

	split := request(t, rng, 6, 2)
	split.ID = 1
	for _, b := range frame(split) {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	answer(split)

	first, second := request(t, rng, 5, 3), request(t, rng, 7, 2)
	first.ID, second.ID = 2, 3
	if _, err := conn.Write(append(frame(first), frame(second)...)); err != nil {
		t.Fatal(err)
	}
	answer(first)
	answer(second)
}

// TestWriteFailedIsNotBadRequest: a client that hangs up while its
// request is being solved makes the response write fail. The request is
// counted under write-failed — the client sent nothing malformed, so the
// bad-request counter stays at zero.
func TestWriteFailedIsNotBadRequest(t *testing.T) {
	o := obs.New()
	s := newServer(t, Config{Obs: o})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// A dense 64×64 GGP request: its solve takes milliseconds, long enough
	// for the hang-up below to land before the response is written.
	g, err := bipartite.FromMatrix(trafficgen.DenseUniform(rand.New(rand.NewSource(5)), 64, 64, 1, 20))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.EncodeSolveReq(wire.SolveRequest{ID: 1, K: 32, Beta: 1, Algorithm: kpbs.GGP,
		N1: g.LeftCount(), N2: g.RightCount(), Edges: g.Edges()})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.Frame{Type: wire.MsgSolveReq, Src: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for o.Metrics.Snapshot().Counters["serve.requests_total"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the server never started handling the request")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Linger 0 closes with a reset, so the server's write fails at once
	// instead of filling the socket buffers of a peer that is gone.
	if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	waitSessionsDrained(t, o)
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["serve.rejects_total.bad-request"]; got != 0 {
		t.Errorf("rejects_total.bad-request = %d, want 0", got)
	}
	if got := snap.Counters["serve.rejects_total.write-failed"]; got != 1 {
		t.Errorf("rejects_total.write-failed = %d, want 1", got)
	}
}

// TestNoGoroutineLeak: a full serve lifecycle — sessions, solves,
// rejects, shutdown — returns the process to its original goroutine
// count.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		cl, err := Dial(s.Addr(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Solve(request(t, rng, 6, 2)); err != nil {
			t.Fatal(err)
		}
		_ = cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// holdJob occupies a pool worker until release is closed.
type holdJob struct {
	started, release chan struct{}
}

func (j *holdJob) Run() (*kpbs.Schedule, error) {
	close(j.started)
	<-j.release
	return &kpbs.Schedule{}, nil
}

// TestServeBusyQueuesAndRefuses: Workers and QueueDepth bound solves and
// deltas alike. With the one worker held by a test job, a solve and then
// a delta from one session wait in the one queue slot and are answered
// once the worker frees, while the other session's solve and delta are
// refused busy and its session, and chain, stay usable.
func TestServeBusyQueuesAndRefuses(t *testing.T) {
	o := obs.New()
	s := newServer(t, Config{Workers: 1, QueueDepth: 1, Obs: o})
	rng := rand.New(rand.NewSource(81))
	da, db := newDeltaMatrix(rng, 8, 2, kpbs.GGP), newDeltaMatrix(rng, 8, 2, kpbs.OGGP)
	ca, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := Dial(s.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if _, _, err := ca.Solve(da.request(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cb.Solve(db.request(1)); err != nil {
		t.Fatal(err)
	}

	expectBusy := func(what string, err error) {
		t.Helper()
		var rej *RejectError
		if !errors.As(err, &rej) || rej.Code != wire.RejectBusy {
			t.Fatalf("%s with the queue full: %v, want a %s reject", what, err, wire.RejectBusy)
		}
	}
	aBase, bBase := uint64(1), uint64(1)
	for round, queued := range []string{"solve", "delta"} {
		hold := &holdJob{started: make(chan struct{}), release: make(chan struct{})}
		held := make(chan engine.Result, 1)
		if err := s.pool.TrySubmit(hold, held); err != nil {
			t.Fatal(err)
		}
		<-hold.started

		// Session A's request takes the one queue slot and waits there.
		id := uint64(10 + round)
		answered := make(chan []byte, 1)
		failed := make(chan error, 1)
		var solveReq wire.SolveRequest
		var edits []kpbs.Edit
		if queued == "solve" {
			solveReq = da.request(id)
		} else {
			edits = da.edits(rng, 4)
		}
		go func() {
			var raw []byte
			var err error
			if queued == "solve" {
				_, raw, err = ca.Solve(solveReq)
			} else {
				_, raw, err = ca.SolveDelta(wire.DeltaRequest{ID: id, Base: aBase, Edits: edits})
			}
			if err != nil {
				failed <- err
				return
			}
			answered <- raw
		}()
		deadline := time.Now().Add(10 * time.Second)
		for o.Metrics.Snapshot().Gauges["engine.pool.queue_depth"] < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("the queued %s never reached the pool queue", queued)
			}
			time.Sleep(100 * time.Microsecond)
		}

		// The queue is full: session B's solve and delta are refused busy.
		// The refused delta's edits never touch B's mirror.
		_, _, err := cb.Solve(db.request(100 + id))
		expectBusy("solve", err)
		_, _, err = cb.SolveDelta(wire.DeltaRequest{ID: 200 + id, Base: bBase, Edits: []kpbs.Edit{{L: 0, R: 0, W: 1}}})
		expectBusy("delta", err)
		select {
		case <-answered:
			t.Fatalf("the queued %s was answered while the worker was held", queued)
		case err := <-failed:
			t.Fatalf("the queued %s: %v", queued, err)
		default:
		}

		close(hold.release)
		<-held
		select {
		case raw := <-answered:
			if queued == "solve" {
				verify(t, solveReq, raw)
			} else {
				da.verifyDelta(t, id, raw, wire.TraceContext{})
			}
			aBase = id
		case err := <-failed:
			t.Fatalf("the queued %s: %v", queued, err)
		}

		// B's session and chain survived the refusals.
		bEdits := db.edits(rng, 3)
		if _, raw, err := cb.SolveDelta(wire.DeltaRequest{ID: 300 + id, Base: bBase, Edits: bEdits}); err != nil {
			t.Fatalf("delta after the busy refusals: %v", err)
		} else {
			db.verifyDelta(t, 300+id, raw, wire.TraceContext{})
		}
		bBase = 300 + id
	}
	if got := o.Metrics.Snapshot().Counters["serve.rejects_total.busy"]; got != 4 {
		t.Errorf("rejects_total.busy = %d, want 4", got)
	}
}

// TestServeRequestSpans: a traced solve and a traced delta each yield one
// PIDRequest "request" span tree with a queue and a solve phase — the
// delta runs on the pool like the solve — and the session lane of the
// serve process carries no request span.
func TestServeRequestSpans(t *testing.T) {
	o := obs.New()
	s := newServer(t, Config{Obs: o})
	cl, err := Dial(s.Addr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	d := newDeltaMatrix(rand.New(rand.NewSource(91)), 8, 2, kpbs.GGP)
	req := d.request(1)
	req.Trace = wire.TraceContext{ID: [16]byte{0x11, 15: 0x01}}
	if _, _, err := cl.SolveFull(req); err != nil {
		t.Fatal(err)
	}
	dreq := wire.DeltaRequest{ID: 2, Base: 1, Edits: d.edits(rand.New(rand.NewSource(92)), 3),
		Trace: wire.TraceContext{ID: [16]byte{0x22, 15: 0x02}}}
	if _, _, err := cl.SolveDeltaFull(dreq); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	waitSessionsDrained(t, o)

	var buf bytes.Buffer
	if err := o.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// A request span is emitted just before its phases, so the PIDRequest
	// events after one request span and before the next are its tree.
	var trees []map[string]int
	for _, e := range doc.TraceEvents {
		switch {
		case e.PID == obs.PIDServe && e.Name == "request":
			t.Error("the serve process carries a request span")
		case e.PID == obs.PIDRequest && e.Name == "request":
			trees = append(trees, map[string]int{})
		case e.PID == obs.PIDRequest && len(trees) > 0:
			trees[len(trees)-1][e.Name]++
		}
	}
	if len(trees) != 2 {
		t.Fatalf("%d request span trees, want 2 (one solve, one delta)", len(trees))
	}
	for i, tree := range trees {
		if tree["queue"] != 1 || tree["solve"] != 1 {
			t.Errorf("request %d phases %v, want one queue and one solve", i+1, tree)
		}
	}
}
