// Package serve is the long-lived scheduling daemon built on the wire
// protocol v2 extension (DESIGN.md §10): many tenants hold sessions open
// over TCP, stream MsgSolveReq frames at it, and receive MsgSolveResp
// schedules or MsgReject refusals. It is the "millions of users" shape of
// the repo's north star — one resident solver fleet, many request
// streams — standing on three existing layers:
//
//   - internal/wire for framing and the versioned, length-checked solve
//     codecs (a malformed peer yields a typed *wire.ProtocolError and a
//     metric bump, never a spin, panic or over-allocation);
//   - internal/engine.Pool, the request-queue/solver-pool layer split out
//     of the batch engine, for bounded-concurrency solving with
//     backpressure (a full queue becomes RejectBusy);
//   - internal/tokenbucket for admission control: one service-wide bucket
//     plus one per tenant, refilled in requests per second.
//
// The request lifecycle is admit → queue → solve → respond → drain:
// Shutdown stops admission (new requests are refused with
// RejectShuttingDown), waits for every admitted request to be solved and
// its response written, then tears the sessions down. Metrics flow
// through internal/obs under "serve.*" and "engine.pool.*".
package serve

import (
	"bufio"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"redistgo/internal/engine"
	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
	"redistgo/internal/tokenbucket"
	"redistgo/internal/wire"
)

// Config shapes the daemon. The zero value listens on an ephemeral
// loopback port with unlimited admission and GOMAXPROCS solver workers.
type Config struct {
	// Addr is the TCP listen address; empty selects "127.0.0.1:0" (an
	// ephemeral loopback port — explicitly bind a public interface to
	// expose the service).
	Addr string
	// Workers bounds the solver pool; ≤ 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a solver;
	// ≤ 0 selects 2×Workers. A full queue rejects with RejectBusy.
	QueueDepth int
	// MaxSessions bounds concurrent client connections; excess connections
	// are refused with RejectBusy and closed. 0 means unlimited.
	MaxSessions int
	// GlobalRate admits at most this many requests per second service-wide
	// (burst GlobalBurst, default matching one second of rate). 0 disables
	// the service-wide bucket.
	GlobalRate  float64
	GlobalBurst float64
	// TenantRate admits at most this many requests per second per tenant
	// (the Src field of the request frame), burst TenantBurst. 0 disables
	// per-tenant buckets.
	TenantRate  float64
	TenantBurst float64
	// MaxNodes caps each side of a requested instance below the codec's
	// own wire.MaxInstanceNodes; ≤ 0 keeps the codec bound only.
	MaxNodes int
	// Shard is the kpbs sharding mode of every served solve.
	Shard kpbs.ShardMode
	// CacheSize enables the content-addressed solve cache with that many
	// entries: repeated solves of byte-identical instances (across all
	// sessions) are served from the cache, and delta bases are checked out
	// of it instead of being rebuilt. ≤ 0 disables the cache.
	CacheSize int
	// MaxBases bounds how many delta-base chains each session may keep
	// alive at once (a chain advances by addressing the latest response id
	// of its lineage). Inserting beyond the bound evicts the least recently
	// advanced chain; deltas against an evicted base are refused with
	// RejectUnknownBase. ≤ 0 selects 4.
	MaxBases int
	// Obs attaches the observability layer ("serve.*" and "engine.pool.*"
	// metrics, per-session trace lanes, per-request spans and per-tenant
	// SLO views). nil disables instrumentation.
	Obs *obs.Observer
	// Log receives the daemon's structured logs: lifecycle at Info,
	// session open/close and per-request outcomes (trace id, tenant,
	// algorithm, nodes, outcome) at Debug. nil discards everything.
	Log *slog.Logger
}

// Server is a running scheduling daemon. Create with New, stop with
// Shutdown.
type Server struct {
	cfg    Config
	ln     net.Listener
	pool   *engine.Pool
	cache  *kpbs.SolveCache // nil when Config.CacheSize ≤ 0
	so     *obs.ServeObs
	spans  *obs.SpanRecorder
	slo    *obs.TenantObs
	log    *slog.Logger
	global *tokenbucket.Limiter

	// ctx ends the session loops; it is cancelled by Shutdown only after
	// the in-flight requests have drained.
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	tenants   map[int32]*tokenbucket.Limiter
	conns     map[net.Conn]struct{}
	draining  bool
	sessionID int

	acceptWG  sync.WaitGroup
	sessionWG sync.WaitGroup
	reqWG     sync.WaitGroup // admitted requests not yet responded to
	done      chan struct{}  // closed when Shutdown completes
}

// New binds the listener, starts the solver pool and the accept loop, and
// returns the running server.
func New(cfg Config) (*Server, error) {
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	mkBucket := func(rate, burst float64) (*tokenbucket.Limiter, error) {
		if rate <= 0 {
			return nil, nil // nil limiter admits everything
		}
		if burst <= 0 {
			burst = rate
			if burst < 1 {
				burst = 1
			}
		}
		return tokenbucket.New(rate, burst)
	}
	global, err := mkBucket(cfg.GlobalRate, cfg.GlobalBurst)
	if err != nil {
		return nil, fmt.Errorf("serve: global admission bucket: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	logger := cfg.Log
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		pool:    engine.NewPool(engine.PoolOptions{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth, Obs: cfg.Obs}),
		so:      cfg.Obs.Serve(),
		spans:   cfg.Obs.Spans(),
		slo:     cfg.Obs.TenantSLO(),
		log:     logger,
		global:  global,
		ctx:     ctx,
		cancel:  cancel,
		tenants: map[int32]*tokenbucket.Limiter{},
		conns:   map[net.Conn]struct{}{},
		done:    make(chan struct{}),
	}
	if cfg.CacheSize > 0 {
		s.cache = kpbs.NewSolveCache(cfg.CacheSize, cfg.Obs)
	}
	s.log.Info("listening", "addr", s.Addr())
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address, for clients of an ephemeral
// port.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// acceptLoop admits sessions until the listener closes (Shutdown).
func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed during shutdown
		}
		if s.ctx.Err() != nil {
			_ = conn.Close() // racing a completed shutdown
			return
		}
		s.mu.Lock()
		if s.draining || (s.cfg.MaxSessions > 0 && len(s.conns) >= s.cfg.MaxSessions) {
			code := wire.RejectBusy
			reason := "session limit reached"
			if s.draining {
				code = wire.RejectShuttingDown
				reason = "shutting down"
			}
			s.mu.Unlock()
			s.sendReject(conn, 0, code, reason)
			_ = conn.Close() // refused before a session existed
			continue
		}
		s.sessionID++
		id := s.sessionID
		s.conns[conn] = struct{}{}
		s.sessionWG.Add(1)
		s.mu.Unlock()
		go s.session(id, conn)
	}
}

// session services one client connection serially: requests on a session
// are answered in order, and concurrency comes from the number of
// sessions (the solver pool multiplexes them onto Workers goroutines).
// Frames are read through one buffered reader, so a small frame costs one
// read call instead of two; responses are written to the connection.
func (s *Server) session(id int, conn net.Conn) {
	defer s.sessionWG.Done()
	br := bufio.NewReader(conn)
	bases := newBaseRegistry(s.cfg.MaxBases)
	s.so.SessionOpen(id)
	s.log.Debug("session open", "session", id, "remote", conn.RemoteAddr().String())
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close() // session teardown; the read/write error already decided the outcome
		s.so.SessionClose(id)
		s.log.Debug("session close", "session", id)
	}()
	for {
		if s.ctx.Err() != nil {
			return
		}
		// The request record opens before the blocking read so the span's
		// read phase covers the wire wait; frames that turn out not to be
		// solve requests drop the record unemitted.
		rec := s.spans.Begin(id)
		f, err := wire.Read(br)
		if err != nil {
			rec.Drop()
			if wire.IsProtocolError(err) {
				// A malformed frame is diagnosable misbehavior, not a
				// disconnect: count it and tell the peer before hanging up.
				s.so.ProtocolError()
				s.sendReject(conn, 0, wire.RejectBadRequest, err.Error())
			} else if !errors.Is(err, io.EOF) {
				s.so.ReadError()
			}
			return
		}
		switch f.Type {
		case wire.MsgDone:
			rec.Drop()
			return
		case wire.MsgSolveReq:
			if !s.handleSolve(id, conn, f, rec, bases) {
				return
			}
		case wire.MsgDeltaReq:
			if !s.handleDelta(id, conn, f, rec, bases) {
				return
			}
		default:
			rec.Drop()
			s.so.ProtocolError()
			s.sendReject(conn, 0, wire.RejectBadRequest, "unexpected frame "+f.Type.String())
			return
		}
	}
}

// handleSolve runs one request through admit → queue → solve → respond.
// It reports whether the session should continue: codec violations drop
// the connection, while refusals (quota, queue, size, shutdown) keep the
// session alive so a throttled client can retry without re-dialing.
//
// A request carrying a CodecV2 trace context gets it echoed on the
// response with TS replaced by the server's handling time in microseconds
// (read-to-encode), so the client can split its round-trip latency into
// server time and wire time. Untraced (CodecV1) requests get the exact
// pre-trace-era V1 response bytes — the differential test pins that.
func (s *Server) handleSolve(id int, conn net.Conn, f wire.Frame, rec *obs.ReqRec, bases *baseRegistry) bool {
	start := time.Now()
	rec.Mark(obs.PhaseAdmit)
	rec.SetTenant(int(f.Src))
	sp := s.so.Request(id)
	slot := s.slo.Slot(int(f.Src))

	req, err := wire.DecodeSolveReq(f.Payload)
	if err != nil {
		s.so.ProtocolError()
		sp.Reject("bad-request")
		slot.Reject()
		rec.Finish(obs.OutcomeReject)
		s.log.Debug("request", "session", id, "tenant", f.Src, "outcome", "bad-request", "err", err.Error())
		s.sendReject(conn, 0, wire.RejectBadRequest, err.Error())
		return false
	}
	slot.Request()
	rec.SetTrace(req.Trace.ID)
	var traceID string // empty when the client sent no trace context
	if !req.Trace.Zero() {
		traceID = hex.EncodeToString(req.Trace.ID[:])
	}
	logReq := func(outcome string) {
		s.log.Debug("request",
			"session", id, "tenant", f.Src, "trace", traceID,
			"algorithm", req.Algorithm, "n1", req.N1, "n2", req.N2,
			"outcome", outcome)
	}
	reject := func(code string) {
		sp.Reject(code)
		slot.Reject()
		rec.Finish(obs.OutcomeReject)
		logReq(code)
	}

	if s.cfg.MaxNodes > 0 && (req.N1 > s.cfg.MaxNodes || req.N2 > s.cfg.MaxNodes) {
		reject("too-large")
		return s.sendReject(conn, req.ID, wire.RejectTooLarge,
			fmt.Sprintf("instance %dx%d exceeds the configured limit %d per side", req.N1, req.N2, s.cfg.MaxNodes))
	}

	// Admission: the draining check and the in-flight accounting share the
	// mutex with Shutdown, so every admitted request is visible to the
	// drain before sessions are torn down.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		reject("shutting-down")
		return s.sendReject(conn, req.ID, wire.RejectShuttingDown, "service is draining")
	}
	s.reqWG.Add(1)
	s.mu.Unlock()
	defer s.reqWG.Done()

	if !s.global.Allow(1) {
		reject("over-quota")
		return s.sendReject(conn, req.ID, wire.RejectOverQuota, "service admission budget exhausted")
	}
	if !s.tenantLimiter(f.Src).Allow(1) {
		reject("over-quota")
		return s.sendReject(conn, req.ID, wire.RejectOverQuota,
			fmt.Sprintf("tenant %d admission budget exhausted", f.Src))
	}

	opts := kpbs.Options{Algorithm: req.Algorithm, Shard: s.cfg.Shard, Obs: s.cfg.Obs}
	inst := engine.Instance{G: req.Graph(), K: req.K, Beta: req.Beta, Opts: opts, Cache: s.cache}
	rec.Mark(obs.PhaseQueue)
	// The job context is Background on purpose: once admitted, a request
	// is solved even while the server drains — that is the drain.
	ch, err := s.pool.TrySubmit(context.Background(), inst)
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		reject("busy")
		return s.sendReject(conn, req.ID, wire.RejectBusy, "solve queue full")
	case err != nil:
		reject("shutting-down")
		return s.sendReject(conn, req.ID, wire.RejectShuttingDown, err.Error())
	}
	res := <-ch // every admitted job delivers exactly one result
	// The queue→solve boundary happened on the pool worker's goroutine;
	// place it from the measured wait rather than re-reading the clock.
	rec.MarkAfter(obs.PhaseSolve, obs.PhaseQueue, res.Wait)
	if res.Err != nil {
		sp.Reject("solve-failed")
		slot.Reject()
		rec.Finish(obs.OutcomeError)
		logReq("solve-failed")
		return s.sendReject(conn, req.ID, wire.RejectSolveFailed, res.Err.Error())
	}
	rec.Mark(obs.PhaseEncode)
	tc := req.Trace
	if !tc.Zero() {
		tc.TS = time.Since(start).Microseconds()
	}
	payload, err := wire.EncodeSolveResp(req.ID, res.Schedule, tc)
	if err != nil {
		reject("too-large")
		return s.sendReject(conn, req.ID, wire.RejectTooLarge, err.Error())
	}
	rec.Mark(obs.PhaseWrite)
	if err := wire.Write(conn, wire.Frame{Type: wire.MsgSolveResp, Dst: f.Src, Payload: payload}); err != nil {
		sp.Reject("write-failed")
		slot.Reject()
		rec.Finish(obs.OutcomeError)
		logReq("write-failed")
		return false
	}
	sp.Respond()
	s.so.Timings(res.Wait, res.Solve)
	slot.Respond(res.Wait, res.Solve)
	rec.Finish(obs.OutcomeOK)
	logReq("ok")
	// The response id becomes addressable as a delta base under the options
	// it was solved with, so a later base materialization — cache checkout
	// or cold build — reproduces this exact solve.
	bases.register(req.ID, inst.G, req.K, req.Beta, opts)
	return true
}

// tenantLimiter returns (creating on first use) the tenant's admission
// bucket; nil — admitting everything — when per-tenant quotas are off.
func (s *Server) tenantLimiter(tenant int32) *tokenbucket.Limiter {
	if s.cfg.TenantRate <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.tenants[tenant]
	if !ok {
		burst := s.cfg.TenantBurst
		if burst <= 0 {
			burst = s.cfg.TenantRate
			if burst < 1 {
				burst = 1
			}
		}
		// Config validated the rate is positive via New's mkBucket contract;
		// a construction error here would be a programming error, so fall
		// back to admitting rather than crashing the session.
		if nl, err := tokenbucket.New(s.cfg.TenantRate, burst); err == nil {
			l = nl
		}
		s.tenants[tenant] = l
		s.so.Tenants(len(s.tenants))
	}
	return l
}

// sendReject best-effort writes a MsgReject frame; it reports whether the
// connection is still usable.
func (s *Server) sendReject(conn net.Conn, id uint64, code wire.RejectCode, reason string) bool {
	p, err := wire.EncodeReject(wire.Reject{ID: id, Code: code, Reason: reason})
	if err != nil {
		return false
	}
	return wire.Write(conn, wire.Frame{Type: wire.MsgReject, Payload: p}) == nil
}

// Shutdown gracefully stops the server: it stops accepting sessions,
// refuses new requests with RejectShuttingDown, waits (bounded by ctx)
// for every admitted request to be solved and answered, then closes the
// remaining sessions and the solver pool. It returns ctx's error when the
// drain deadline expires first — sessions are torn down regardless.
// Subsequent calls wait for the first to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		select {
		case <-s.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.draining = true
	s.mu.Unlock()
	s.log.Info("draining")

	_ = s.ln.Close() // stops the accept loop; its error has no consumer
	s.acceptWG.Wait()

	drained := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	// End the session loops and unpark any session blocked in wire.Read.
	s.cancel()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close() // teardown; sessions report their own outcomes
	}
	s.mu.Unlock()
	s.sessionWG.Wait()
	s.pool.Close()
	close(s.done)
	s.log.Info("shutdown complete")
	return err
}
