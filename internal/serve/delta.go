package serve

import (
	"fmt"
	"log/slog"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
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
// kpbs.Result with kpbs.NewResult. A delta takes the same request path as
// a solve (Server.handle): its base lookup and edit check are its decode
// step, and the materialization and repair are its pool job, so Workers
// and QueueDepth bound deltas as they bound solves.

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

// materialize builds the chain's warm Result on its first delta.
func (c *baseChain) materialize() error {
	if c.res != nil {
		return nil
	}
	var err error
	c.res, err = kpbs.NewResult(c.g, c.k, c.beta, c.opts)
	return err
}

// deltaJob repairs a chain's retained solve under one edit list on a pool
// worker. The session waits for the result, so the chain is never touched
// by two goroutines at once.
type deltaJob struct {
	chain *baseChain
	edits []kpbs.Edit
}

// Run implements engine.Job.
func (j *deltaJob) Run() (*kpbs.Schedule, error) {
	if err := j.chain.materialize(); err != nil {
		return nil, err
	}
	return j.chain.res.SolveDelta(j.edits)
}

// decodeDelta decodes a MsgDeltaReq into r and loads the session's delta
// job with it. A base this session does not retain, or an edit outside the
// base's matrix, is refused at decode, so a bad edit list never reaches
// the chain. The codec already checked edits against the protocol-wide
// node bound.
func (s *Server) decodeDelta(ss *session, r *decoded, f wire.Frame) error {
	r.kind, r.tenant = "delta", f.Src
	req, err := wire.DecodeDeltaReq(f.Payload)
	if err != nil {
		return err
	}
	r.id, r.trace = req.ID, req.Trace
	r.attrs = [3]slog.Attr{slog.Uint64("base", req.Base), slog.Int("edits", len(req.Edits))}
	chain := ss.bases.lookup(req.Base)
	if chain == nil {
		r.refuse = wire.RejectUnknownBase
		r.reason = fmt.Sprintf("base schedule %d is not retained (never issued, superseded, or evicted); re-submit a full solve", req.Base)
		return nil
	}
	for i, e := range req.Edits {
		if e.L >= chain.g.LeftCount() || e.R >= chain.g.RightCount() {
			r.refuse = wire.RejectBadRequest
			r.reason = fmt.Sprintf("edit %d cell (%d,%d) outside the base's %dx%d matrix",
				i, e.L, e.R, chain.g.LeftCount(), chain.g.RightCount())
			return nil
		}
	}
	ss.delta = deltaJob{chain: chain, edits: req.Edits}
	r.job, r.chain = &ss.delta, chain
	return nil
}
