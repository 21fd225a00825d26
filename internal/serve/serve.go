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
//     of the batch engine: every solve and every delta repair runs on its
//     bounded workers, with backpressure (a full queue becomes RejectBusy);
//   - internal/tokenbucket for admission control: one service-wide bucket
//     plus one per tenant, refilled in requests per second.
//
// Solves and deltas share one request path — decode → admit → queue →
// answer → record — and only the decode step and the pool job differ
// between the two kinds. Shutdown drains: it stops admission (new
// requests are refused with RejectShuttingDown), waits for every admitted
// request to be answered, then tears the sessions down. Metrics flow
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
	// Workers bounds the solver pool, which runs every solve and every
	// delta repair; ≤ 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted requests, solves and deltas
	// alike, may wait for a worker; ≤ 0 selects 2×Workers. A full queue
	// rejects with RejectBusy.
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
	// session open/close and per-request outcomes (kind, trace id, tenant,
	// instance size or base, outcome) at Debug. nil discards everything.
	Log *slog.Logger
}

// Server is a running scheduling daemon. Create with New, stop with
// Shutdown.
type Server struct {
	cfg    Config
	ln     net.Listener
	pool   *engine.Pool
	so     *obs.ServeObs
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
	global, err := admissionBucket(cfg.GlobalRate, cfg.GlobalBurst)
	if err != nil {
		return nil, fmt.Errorf("serve: global admission bucket: %w", err)
	}
	// Tenant buckets are built lazily, on a tenant's first request, so the
	// tenant rate and burst are checked here: a pair that tokenbucket
	// refuses fails New instead of reaching a session.
	if _, err := admissionBucket(cfg.TenantRate, cfg.TenantBurst); err != nil {
		return nil, fmt.Errorf("serve: tenant admission bucket: %w", err)
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
		log:     logger,
		global:  global,
		ctx:     ctx,
		cancel:  cancel,
		tenants: map[int32]*tokenbucket.Limiter{},
		conns:   map[net.Conn]struct{}{},
		done:    make(chan struct{}),
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

// session is one client connection. A session answers its requests
// serially, so it keeps one request record, one job of each kind and one
// result channel, and reuses them: queuing a request allocates nothing.
type session struct {
	id    int
	conn  net.Conn
	rec   *obs.ReqRec
	bases *baseRegistry
	solve engine.Instance
	delta deltaJob
	done  chan engine.Result
}

// session services one client connection serially: requests on a session
// are answered in order, and concurrency comes from the number of
// sessions (the solver pool multiplexes them onto Workers goroutines).
// Frames are read through one buffered reader, so a small frame costs one
// read call instead of two; responses are written to the connection.
func (s *Server) session(id int, conn net.Conn) {
	defer s.sessionWG.Done()
	br := bufio.NewReader(conn)
	ss := &session{
		id:    id,
		conn:  conn,
		rec:   s.so.SessionOpen(id),
		bases: newBaseRegistry(s.cfg.MaxBases),
		done:  make(chan engine.Result, 1),
	}
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
		// read phase covers the wire wait; a frame that turns out not to be
		// a request is never recorded.
		ss.rec.Begin()
		f, err := wire.Read(br)
		if err != nil {
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
			return
		case wire.MsgSolveReq, wire.MsgDeltaReq:
			if !s.handle(ss, f) {
				return
			}
		default:
			s.so.ProtocolError()
			s.sendReject(conn, 0, wire.RejectBadRequest, "unexpected frame "+f.Type.String())
			return
		}
	}
}

// decoded is one decoded request: what the shared path needs to admit,
// queue, answer and record it.
type decoded struct {
	kind   string // "solve" or "delta", the debug log message
	tenant int32
	id     uint64
	trace  wire.TraceContext
	job    engine.Job // the session's solve or delta job, loaded by decode
	chain  *baseChain // the chain a delta extends; nil for a solve
	// refuse, when non-zero, refuses the request at decode, before
	// admission: an instance over MaxNodes, an unknown base, or an edit
	// outside the base's matrix.
	refuse wire.RejectCode
	reason string
	attrs  [3]slog.Attr // the kind's fields of the debug log line
}

// handle runs one solve or delta request through decode → admit → queue
// → answer → record. Only the decode step and the pool job differ between
// the two kinds. It reports whether the session should continue: codec
// violations drop the connection, while refusals (size, unknown base,
// quota, queue, shutdown) keep the session alive so a throttled client
// can retry without re-dialing.
//
// A request carrying a CodecV2 trace context gets it echoed on the
// response with TS replaced by the server's handling time in microseconds
// (read-to-encode), so the client can split its round-trip latency into
// server time and wire time. Untraced (CodecV1) requests get the exact
// pre-trace-era V1 response bytes — the differential test pins that.
func (s *Server) handle(ss *session, f wire.Frame) bool {
	start := time.Now()
	ss.rec.Admit(int(f.Src))
	// The pool is done with the job once the request is answered; drop its
	// references so an idle session keeps no instance or evicted chain
	// alive.
	defer ss.releaseJobs()

	var r decoded
	var err error
	if f.Type == wire.MsgSolveReq {
		err = s.decodeSolve(ss, &r, f)
	} else {
		err = s.decodeDelta(ss, &r, f)
	}
	if err != nil {
		s.so.ProtocolError()
		s.refuse(ss, &r, wire.RejectBadRequest, err.Error())
		return false
	}
	ss.rec.SetTrace(r.trace.ID)
	if r.refuse != 0 {
		return s.refuse(ss, &r, r.refuse, r.reason)
	}

	// Admission: the draining check and the in-flight accounting share the
	// mutex with Shutdown, so every admitted request is visible to the
	// drain before sessions are torn down.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return s.refuse(ss, &r, wire.RejectShuttingDown, "service is draining")
	}
	s.reqWG.Add(1)
	s.mu.Unlock()
	defer s.reqWG.Done()

	if !s.global.Allow(1) {
		return s.refuse(ss, &r, wire.RejectOverQuota, "service admission budget exhausted")
	}
	if !s.tenantLimiter(f.Src).Allow(1) {
		return s.refuse(ss, &r, wire.RejectOverQuota, fmt.Sprintf("tenant %d admission budget exhausted", f.Src))
	}

	ss.rec.Mark(obs.PhaseQueue)
	// Once admitted, a request runs even while the server drains — that
	// is the drain.
	switch err := s.pool.TrySubmit(r.job, ss.done); {
	case errors.Is(err, engine.ErrQueueFull):
		return s.refuse(ss, &r, wire.RejectBusy, "solve queue full")
	case err != nil:
		return s.refuse(ss, &r, wire.RejectShuttingDown, err.Error())
	}
	res := <-ss.done // every admitted job delivers exactly one result
	// The queue→solve boundary happened on the pool worker's goroutine;
	// place it from the measured wait rather than re-reading the clock.
	ss.rec.MarkAfter(obs.PhaseSolve, obs.PhaseQueue, res.Wait)
	if res.Err != nil {
		// A delta that failed after patching poisons its chain's Result;
		// drop the chain so the client's fallback solve starts a fresh
		// lineage.
		ss.bases.remove(r.chain)
		return s.refuse(ss, &r, wire.RejectSolveFailed, res.Err.Error())
	}
	ss.rec.Mark(obs.PhaseEncode)
	tc := r.trace
	if !tc.Zero() {
		tc.TS = time.Since(start).Microseconds()
	}
	payload, err := wire.EncodeSolveResp(r.id, res.Schedule, tc)
	if err != nil {
		// A delta's chain already reflects the edited instance but is still
		// keyed by the old base id. Drop it, so a later delta against that
		// id cannot silently run on top of these refused edits.
		ss.bases.remove(r.chain)
		return s.refuse(ss, &r, wire.RejectTooLarge, err.Error())
	}
	ss.rec.Mark(obs.PhaseWrite)
	if err := wire.Write(ss.conn, wire.Frame{Type: wire.MsgSolveResp, Dst: f.Src, Payload: payload}); err != nil {
		ss.rec.Reject(obs.OutcomeError, "write-failed")
		s.logRequest(ss, &r, "write-failed", err.Error())
		return false
	}
	ss.rec.Respond(res.Wait, res.Solve)
	s.logRequest(ss, &r, "ok", "")
	if r.chain != nil {
		ss.bases.advance(r.chain, r.id)
	} else {
		// The response id becomes addressable as a delta base under the
		// options it was solved with, so the chain's first delta rebuilds
		// this exact solve.
		ss.bases.register(r.id, ss.solve.G, ss.solve.K, ss.solve.Beta, ss.solve.Opts)
	}
	return true
}

// refuse answers the request with a MsgReject under code, records the
// outcome (a solve failure as an error, every other code as a refusal),
// and reports whether the connection is still usable.
func (s *Server) refuse(ss *session, r *decoded, code wire.RejectCode, reason string) bool {
	outcome := int64(obs.OutcomeReject)
	if code == wire.RejectSolveFailed {
		outcome = obs.OutcomeError
	}
	ss.rec.Reject(outcome, code.String())
	s.logRequest(ss, r, code.String(), reason)
	return s.sendReject(ss.conn, r.id, code, reason)
}

// logRequest writes the request's debug log line; it costs nothing while
// debug logging is off.
func (s *Server) logRequest(ss *session, r *decoded, outcome, reason string) {
	if !s.log.Enabled(context.Background(), slog.LevelDebug) {
		return
	}
	var trace string // empty when the client sent no trace context
	if !r.trace.Zero() {
		trace = hex.EncodeToString(r.trace.ID[:])
	}
	s.log.Debug(r.kind, "session", ss.id, "tenant", r.tenant, "trace", trace, "id", r.id,
		r.attrs[0], r.attrs[1], r.attrs[2], "outcome", outcome, "reason", reason)
}

// releaseJobs clears the session's jobs after a request.
func (ss *session) releaseJobs() {
	ss.solve, ss.delta = engine.Instance{}, deltaJob{}
}

// decodeSolve decodes a MsgSolveReq into r and loads the session's solve
// job with it. An instance over Config.MaxNodes is refused at decode.
func (s *Server) decodeSolve(ss *session, r *decoded, f wire.Frame) error {
	r.kind, r.tenant = "solve", f.Src
	req, err := wire.DecodeSolveReq(f.Payload)
	if err != nil {
		return err
	}
	r.id, r.trace = req.ID, req.Trace
	r.attrs = [3]slog.Attr{slog.String("algorithm", req.Algorithm.String()), slog.Int("n1", req.N1), slog.Int("n2", req.N2)}
	if s.cfg.MaxNodes > 0 && (req.N1 > s.cfg.MaxNodes || req.N2 > s.cfg.MaxNodes) {
		r.refuse = wire.RejectTooLarge
		r.reason = fmt.Sprintf("instance %dx%d exceeds the configured limit %d per side", req.N1, req.N2, s.cfg.MaxNodes)
		return nil
	}
	ss.solve = engine.Instance{
		G:    req.Graph(),
		K:    req.K,
		Beta: req.Beta,
		Opts: kpbs.Options{Algorithm: req.Algorithm, Shard: s.cfg.Shard, Obs: s.cfg.Obs},
	}
	r.job = &ss.solve
	return nil
}

// admissionBucket builds an admission bucket of rate requests per second;
// a burst ≤ 0 selects one second of rate, at least 1. A rate ≤ 0 disables
// the bucket: the nil limiter admits everything.
func admissionBucket(rate, burst float64) (*tokenbucket.Limiter, error) {
	if rate <= 0 {
		return nil, nil
	}
	if burst <= 0 {
		burst = max(rate, 1)
	}
	return tokenbucket.New(rate, burst)
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
		// New built a bucket from the same rate and burst, so this one
		// cannot fail.
		l, _ = admissionBucket(s.cfg.TenantRate, s.cfg.TenantBurst)
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
