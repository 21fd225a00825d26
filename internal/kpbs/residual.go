package kpbs

import (
	"fmt"

	"redistgo/internal/matching"
	"redistgo/internal/obs"
)

// peeler is the incremental peeling engine behind GGP, OGGP and MinSteps.
//
// The cold-start loop (retained as peelReference) materialized a fresh
// bipartite.Graph and ran a matching from scratch at every iteration, even
// though a peel only zeroes the minimum-weight matched edges and leaves the
// rest of the perfect matching intact. The peeler instead keeps one mutable
// residual view of the augmented graph for the whole solve:
//
//   - Residual state: the static endpoints of in.edges are extracted once
//     into parallel arrays; w holds the live weights and is the only thing
//     a peel mutates. Edges that reach zero are deactivated in O(1) inside
//     the matcher's adjacency — asGraph is never called again.
//   - Warm-started matchings: for GGP, matching.Incremental keeps the
//     surviving matched pairs across peels and repairs only the exposed
//     nodes (one breadth-first search per exposed node). For OGGP and
//     MinSteps, matching.BottleneckInc maintains the decreasing-weight
//     insertion order across peels (O(m) merge instead of a sort) and
//     adopts the surviving pairs instead of re-growing from empty.
//   - Zero-alloc hot path: all output (steps, the communication arena) and
//     all matcher scratch are allocated once and reused; after a warm-up
//     run on the same instance, reset+run performs no allocations (guarded
//     by testing.AllocsPerRun in alloc_test.go).
//
// Correctness of the warm start: subtracting the peel amount w from every
// edge of a perfect matching of an R-weight-regular graph leaves an
// (R−w)-weight-regular graph, so the surviving matching (the matched pairs
// whose edges stayed positive) is a matching of a graph that still admits a
// perfect matching; augmenting paths from the exposed nodes therefore
// always complete it (see DESIGN.md).
type peeler struct {
	in   *instance
	kind matcherKind

	// so observes the loop (per-peel events and counters); nil disables.
	// The hot path only ever nil-checks it — resolution of metric handles
	// happened when the view was built, outside this engine, so the
	// //redistlint:hotpath contract (no map lookups, no allocation when
	// disabled) is untouched.
	so     *obs.SolverObs
	active int // live (non-deactivated) residual edges, virtual included

	el, er []int   // static endpoints of in.edges
	w0     []int64 // pristine normalized weights, for reset
	w      []int64 // live residual weights

	inc *matching.Incremental   // matchAny engine
	bot *matching.BottleneckInc // matchBottleneck engine

	// Output arenas, reused across runs. Each emitted step's comms live in
	// one contiguous chunk of the comms arena; offs records the chunk
	// starts, and run resolves the final sub-slices once the arena has
	// stopped growing.
	steps []normStep
	comms []int32
	offs  []int
}

// newPeeler builds the engine for an augmented instance, with the matcher
// kernels selected by eng (scalar or bitset; auto resolves by density —
// both arms produce byte-identical schedules). The instance's edge list
// must not change afterwards (weights are copied out; the peel never
// mutates in.edges).
func newPeeler(in *instance, kind matcherKind, eng matching.Engine) *peeler {
	m := len(in.edges)
	p := &peeler{
		in:     in,
		kind:   kind,
		active: m,
		el:     make([]int, m),
		er:     make([]int, m),
		w0:     make([]int64, m),
		w:      make([]int64, m),
	}
	for i, e := range in.edges {
		p.el[i] = e.l
		p.er[i] = e.r
		p.w0[i] = e.w
	}
	copy(p.w, p.w0)
	if kind == matchBottleneck {
		p.bot = matching.NewBottleneckIncEngine(in.nL, in.nR, p.el, p.er, p.w, eng)
	} else {
		p.inc = matching.NewIncrementalEngine(in.nL, in.nR, p.el, p.er, eng)
	}
	return p
}

// reset restores the pristine weights and matcher state so the same
// instance can be peeled again, reusing every buffer.
func (p *peeler) reset() {
	copy(p.w, p.w0)
	p.active = len(p.w)
	p.steps = p.steps[:0]
	p.comms = p.comms[:0]
	p.offs = p.offs[:0]
	if p.bot != nil {
		p.bot.Reset()
	} else {
		p.inc.Reset()
	}
}

// matchedEdge returns the edge currently matched at left node l, or -1.
func (p *peeler) matchedEdge(l int) int {
	if p.bot != nil {
		return p.bot.MatchedEdge(l)
	}
	return p.inc.MatchedEdge(l)
}

// deactivate drops a zero-weight edge from the residual graph.
func (p *peeler) deactivate(e int) {
	p.active--
	if p.bot != nil {
		p.bot.Deactivate(e)
	} else {
		p.inc.Deactivate(e)
	}
}

// matchedPairs returns the current matching size. Read before a rematch it
// is the number of pairs surviving from the previous peel — the
// warm-start reuse the observability layer reports.
func (p *peeler) matchedPairs() int {
	if p.bot != nil {
		return p.bot.Size()
	}
	return p.inc.Size()
}

// rematch establishes a perfect matching of the residual graph, warm-
// started from the previous iteration's survivors. It reports failure only
// if the residual graph is not weight-regular (a broken augmentation).
func (p *peeler) rematch() bool {
	if p.bot != nil {
		return p.bot.Rematch(p.in.nL)
	}
	return p.inc.Augment() == p.in.nL
}

// run executes the WRGP loop (paper §4.1, Figure 3) incrementally:
// repeatedly repair the perfect matching, cut it at its minimum weight w,
// emit a step of duration w, subtract w from every matched edge and
// deactivate the ones that reach zero. The returned steps alias the
// peeler's arenas and are valid until the next reset.
//
//redistlint:hotpath
func (p *peeler) run() ([]normStep, error) {
	remaining := p.in.regular
	nL := p.in.nL
	// Each iteration removes at least one edge (the minimum-weight matched
	// edge reaches zero), so the loop bound also caps malfunctions.
	maxIter := len(p.in.edges) + 1
	for iter := 0; remaining > 0; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("kpbs: peeling did not terminate after %d iterations", maxIter)
		}
		// Warm-start reuse: matched pairs surviving from the previous peel,
		// read before rematch repairs the matching. Only computed when
		// observed — the guard keeps the disabled path branch-cheap.
		reused := 0
		if p.so != nil {
			reused = p.matchedPairs()
		}
		if !p.rematch() {
			return nil, fmt.Errorf("kpbs: no perfect matching in weight-regular graph (R=%d, remaining=%d); augmentation is broken", p.in.regular, remaining)
		}
		// Minimum weight over the matched edges.
		var w int64
		for l := 0; l < nL; l++ {
			we := p.w[p.matchedEdge(l)]
			if l == 0 || we < w {
				w = we
			}
		}
		if w <= 0 {
			return nil, fmt.Errorf("kpbs: matching with non-positive minimum weight %d", w)
		}
		start := len(p.comms)
		for l := 0; l < nL; l++ {
			e := p.matchedEdge(l)
			p.w[e] -= w
			if orig := p.in.edges[e].orig; orig >= 0 {
				//redistlint:allow hotpath arena append; capacity is retained across runs and TestPeelSteadyStateAllocs asserts zero steady-state allocations
				p.comms = append(p.comms, int32(orig))
			}
			if p.w[e] == 0 {
				p.deactivate(e)
			}
		}
		if p.so != nil {
			// Purely observational: records the peel index, perfect-matching
			// size, warm-start survivors, bottleneck weight and how many
			// residual edges stay active. Peel is fixed-arity, so the call
			// itself allocates nothing; event recording inside obs may.
			p.so.Peel(iter, nL, reused, w, p.active)
		}
		// Steps whose matching contains only virtual edges transfer
		// nothing and are dropped from the output (the paper's "extract R
		// from the solution" phase); the peel still advances the graph.
		if len(p.comms) > start {
			//redistlint:allow hotpath arena append; capacity is retained across runs and TestPeelSteadyStateAllocs asserts zero steady-state allocations
			p.offs = append(p.offs, start)
			//redistlint:allow hotpath arena append; capacity is retained across runs and TestPeelSteadyStateAllocs asserts zero steady-state allocations
			p.steps = append(p.steps, normStep{peel: w})
		}
		remaining -= w
	}
	// All real edges must be fully consumed.
	for i, e := range p.in.edges {
		if p.w[i] != 0 {
			return nil, fmt.Errorf("kpbs: edge (%d,%d) has residual weight %d after peeling", e.l, e.r, p.w[i])
		}
	}
	// Resolve the arena chunks now that the arena has stopped growing.
	for i := range p.steps {
		end := len(p.comms)
		if i+1 < len(p.steps) {
			end = p.offs[i+1]
		}
		p.steps[i].comms = p.comms[p.offs[i]:end:end]
	}
	return p.steps, nil
}
