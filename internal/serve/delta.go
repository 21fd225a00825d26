package serve

import (
	"encoding/hex"
	"fmt"
	"net"
	"time"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
	"redistgo/internal/wire"
)

// Delta serving (DESIGN.md §13): a client that already holds a schedule
// for an instance streams MsgDeltaReq frames — the response id of the
// base schedule plus a cell-edit list — instead of re-submitting the
// whole instance. The reply is an ordinary MsgSolveResp, byte-identical
// to a cold solve of the edited instance (kpbs.SolveDelta's contract), so
// clients and the soak harness verify delta responses exactly like solve
// responses.
//
// Every solve response registers its id as an addressable base. A chain
// advances by always naming the latest response id of its lineage: a
// delta against base B answered with response id D re-keys the chain to
// D, and B is no longer addressable (the instance it named no longer
// matches the retained state). The registry is bounded per session;
// deltas against unknown, superseded, or evicted ids are refused with
// RejectUnknownBase, telling the client to fall back to a full solve.
//
// Bases are materialized lazily: registration stores only the request's
// graph and parameters, and the first delta of a chain builds the warm
// kpbs.Result — checked out of the solve cache when it holds one
// (Checkout transfers the retained Result without re-solving), cold-built
// otherwise. Sessions are serial, so delta solving runs on the session
// goroutine: the hot paths are far cheaper than a queued cold solve, and
// admission control still applies per request.

// defaultMaxBases bounds a session's base registry when Config.MaxBases
// is unset.
const defaultMaxBases = 4

// baseChain is one addressable delta lineage: the instance parameters of
// its latest response and, once a delta has been served, the warm Result.
type baseChain struct {
	id   uint64 // latest response id of the lineage
	g    *bipartite.Graph
	k    int
	beta int64
	opts kpbs.Options
	res  *kpbs.Result // nil until the first delta materializes the base
}

// baseRegistry is a session's bounded set of addressable bases in
// least-recently-advanced order (front = next to evict).
type baseRegistry struct {
	max    int
	chains []*baseChain
}

func newBaseRegistry(max int) *baseRegistry {
	if max <= 0 {
		max = defaultMaxBases
	}
	return &baseRegistry{max: max}
}

// register makes a solve response addressable as a fresh chain, evicting
// the least recently advanced chain past the bound.
func (b *baseRegistry) register(id uint64, g *bipartite.Graph, k int, beta int64, opts kpbs.Options) {
	if c := b.lookup(id); c != nil {
		// A client reusing a request id re-points it at the new solve.
		b.remove(c)
	}
	b.chains = append(b.chains, &baseChain{id: id, g: g, k: k, beta: beta, opts: opts})
	if len(b.chains) > b.max {
		// Clear the evicted slot so its warm Result is not kept reachable
		// through the slice's backing array until the next reallocation.
		b.chains[0] = nil
		b.chains = b.chains[1:]
	}
}

// lookup finds the chain whose latest response id is id.
func (b *baseRegistry) lookup(id uint64) *baseChain {
	for _, c := range b.chains {
		if c.id == id {
			return c
		}
	}
	return nil
}

// advance re-keys a chain to the id of the delta response that just
// extended it and marks it most recently used.
func (b *baseRegistry) advance(c *baseChain, newID uint64) {
	if dup := b.lookup(newID); dup != nil && dup != c {
		b.remove(dup)
	}
	c.id = newID
	b.remove(c)
	b.chains = append(b.chains, c)
}

// remove drops a chain from the registry.
func (b *baseRegistry) remove(c *baseChain) {
	for i, x := range b.chains {
		if x == c {
			copy(b.chains[i:], b.chains[i+1:])
			b.chains[len(b.chains)-1] = nil
			b.chains = b.chains[:len(b.chains)-1]
			return
		}
	}
}

// materialize builds the chain's warm Result on first use: checked out of
// the solve cache when it retains this exact instance, cold-built
// otherwise.
func (c *baseChain) materialize(cache *kpbs.SolveCache) error {
	if c.res != nil {
		return nil
	}
	var err error
	if cache != nil {
		c.res, _, err = cache.Checkout(c.g, c.k, c.beta, c.opts)
	} else {
		c.res, err = kpbs.NewResult(c.g, c.k, c.beta, c.opts)
	}
	return err
}

// solveDeltaSafe runs the delta repair with the same panic isolation the
// engine pool gives cold solves (engine.solveOne): deltas run on the
// session goroutine, so a panic in the patch/replay hot paths must fail
// the one request — via the solve-failed path, which drops the chain —
// instead of crashing the daemon.
func solveDeltaSafe(res *kpbs.Result, edits []kpbs.Edit) (sched *kpbs.Schedule, err error) {
	defer func() {
		if r := recover(); r != nil {
			sched, err = nil, fmt.Errorf("delta solver panicked: %v", r)
		}
	}()
	return res.SolveDelta(edits)
}

// handleDelta runs one delta request through admit → repair → respond.
// Like handleSolve it reports whether the session should continue: codec
// violations drop the connection, refusals (unknown base, quota, bad
// edits) keep it alive. Trace contexts behave exactly as on solves.
func (s *Server) handleDelta(id int, conn net.Conn, f wire.Frame, rec *obs.ReqRec, bases *baseRegistry) bool {
	start := time.Now()
	rec.Mark(obs.PhaseAdmit)
	rec.SetTenant(int(f.Src))
	sp := s.so.Request(id)
	slot := s.slo.Slot(int(f.Src))

	req, err := wire.DecodeDeltaReq(f.Payload)
	if err != nil {
		s.so.ProtocolError()
		sp.Reject("bad-request")
		slot.Reject()
		rec.Finish(obs.OutcomeReject)
		s.log.Debug("delta", "session", id, "tenant", f.Src, "outcome", "bad-request", "err", err.Error())
		s.sendReject(conn, 0, wire.RejectBadRequest, err.Error())
		return false
	}
	slot.Request()
	rec.SetTrace(req.Trace.ID)
	var traceID string
	if !req.Trace.Zero() {
		traceID = hex.EncodeToString(req.Trace.ID[:])
	}
	logReq := func(outcome string) {
		s.log.Debug("delta",
			"session", id, "tenant", f.Src, "trace", traceID,
			"base", req.Base, "edits", len(req.Edits),
			"outcome", outcome)
	}
	reject := func(code string) {
		sp.Reject(code)
		slot.Reject()
		rec.Finish(obs.OutcomeReject)
		logReq(code)
	}

	// Admission mirrors handleSolve: the draining check and in-flight
	// accounting share the mutex with Shutdown.
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

	chain := bases.lookup(req.Base)
	if chain == nil {
		reject("unknown-base")
		return s.sendReject(conn, req.ID, wire.RejectUnknownBase,
			fmt.Sprintf("base schedule %d is not retained (never issued, superseded, or evicted); re-submit a full solve", req.Base))
	}
	// The codec checked edits against the protocol-wide node bound; check
	// them against the actual base instance before touching it, so a bad
	// edit list cannot poison the chain.
	for i, e := range req.Edits {
		if e.L >= chain.g.LeftCount() || e.R >= chain.g.RightCount() {
			reject("bad-request")
			return s.sendReject(conn, req.ID, wire.RejectBadRequest,
				fmt.Sprintf("edit %d cell (%d,%d) outside the base's %dx%d matrix",
					i, e.L, e.R, chain.g.LeftCount(), chain.g.RightCount()))
		}
	}

	rec.Mark(obs.PhaseSolve)
	if err := chain.materialize(s.cache); err != nil {
		bases.remove(chain)
		reject("solve-failed")
		return s.sendReject(conn, req.ID, wire.RejectSolveFailed, err.Error())
	}
	sched, err := solveDeltaSafe(chain.res, req.Edits)
	if err != nil {
		// A post-validation failure poisons the Result; drop the chain so
		// the client's fallback cold solve starts a fresh lineage.
		bases.remove(chain)
		reject("solve-failed")
		return s.sendReject(conn, req.ID, wire.RejectSolveFailed, err.Error())
	}

	rec.Mark(obs.PhaseEncode)
	tc := req.Trace
	if !tc.Zero() {
		tc.TS = time.Since(start).Microseconds()
	}
	payload, err := wire.EncodeSolveResp(req.ID, sched, tc)
	if err != nil {
		// The solve succeeded, so chain.res already reflects the edited
		// instance — but the chain is still keyed by the old base id. Drop
		// it (like the solve-failed path) so a later delta against that id
		// cannot silently run on top of these rejected edits; the client's
		// fallback cold solve starts a fresh lineage.
		bases.remove(chain)
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
	bases.advance(chain, req.ID)
	sp.Respond()
	s.so.Timings(0, time.Since(start))
	slot.Respond(0, time.Since(start))
	rec.Finish(obs.OutcomeOK)
	logReq("ok")
	return true
}
