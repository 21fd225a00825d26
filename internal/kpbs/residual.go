package kpbs

import (
	"fmt"
	"slices"

	"redistgo/internal/matching"
	"redistgo/internal/obs"
)

// peeler is the incremental peeling engine behind GGP, OGGP and MinSteps.
//
// A cold-start loop would materialize a fresh bipartite.Graph and run a
// matching from scratch at every iteration, even though a peel only zeroes
// the minimum-weight matched edges and leaves the rest of the perfect
// matching intact. The peeler instead keeps one mutable residual view of
// the augmented graph for the whole solve:
//
//   - Residual state: the static endpoints of in.edges are extracted once
//     into parallel arrays; w holds the live weights and is the only thing
//     a peel mutates. Edges that reach zero are deactivated in O(1) inside
//     the matcher's adjacency; no graph is rebuilt.
//   - Warm-started matchings: one matching.BottleneckInc keeps the
//     matching across peels and repairs only the exposed nodes. For GGP it
//     runs in ModeAny, with every live edge admitted and one breadth-first
//     search per exposed node. For OGGP and MinSteps it runs in
//     ModeBottleneck and also keeps its bottleneck threshold and the graph
//     above it: it repairs only the pairs a peel pushed below the
//     threshold, and lowers the threshold only while no perfect matching
//     exists.
//   - The matcher owns the peel: Bottleneck returns the peel amount and
//     Peel emits the real comms, subtracts and deactivates in one pass
//     over the matching.
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
	in *instance

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

	m matching.BottleneckInc // the incremental matcher, in the solve's mode

	// Output arenas, reused across runs. Each emitted step's comms live in
	// one contiguous chunk of the comms arena; offs records the chunk
	// starts, and run resolves the final sub-slices once the arena has
	// stopped growing.
	steps []normStep
	comms []int32
	offs  []int
}

// init builds the engine for an augmented instance into p, with the
// matcher kernels selected by eng (scalar or bitset; auto resolves by
// density — both arms produce byte-identical schedules). The instance's
// edge list must not change afterwards (weights are copied out; the peel
// never mutates in.edges).
//
// The arrays, output arenas and matcher storage of p's last run are reused
// when they are large enough; a zero peeler allocates them, which is the
// cold solve's path. Either way p peels exactly as a fresh peeler would:
// init rewrites every array it keeps and Init clears the matcher.
func (p *peeler) init(in *instance, kind matcherKind, eng matching.Engine) {
	m := len(in.edges)
	p.in = in
	p.so = nil
	p.active = m
	p.el = ensureInts(p.el, m)
	p.er = ensureInts(p.er, m)
	p.w0 = ensureInt64s(p.w0, m)
	p.w = ensureInt64s(p.w, m)
	// Every real edge is emitted at least once, so the comm arena needs at
	// least nReal slots, and a step emits at most k comms, so there are at
	// least ⌈nReal/k⌉ steps.
	p.comms = reserve(p.comms, in.nReal)
	minSteps := (in.nReal + in.k - 1) / in.k
	p.steps = reserve(p.steps, minSteps)
	p.offs = reserve(p.offs, minSteps)
	for i, e := range in.edges {
		p.el[i] = e.l
		p.er[i] = e.r
		p.w0[i] = e.w
	}
	copy(p.w, p.w0)
	p.m.Init(in.nL, in.nR, p.el, p.er, p.w, in.nReal, eng, kind)
}

// reserve returns buf emptied, with room for at least n elements,
// reallocating only when it is too small.
func reserve[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// reset restores the pristine weights and matcher state so the same
// instance can be peeled again, reusing every buffer. The matcher carries
// state from one peel to the next — in ModeBottleneck its threshold,
// re-entry heap and sort cursor as well as the matching — and reset must
// clear all of it. TestPeelerRerunIsReproducible checks that a rerun
// reproduces the first run's steps; FuzzBottleneckIncPeel checks
// BottleneckInc.Reset against a freshly built matcher.
func (p *peeler) reset() {
	copy(p.w, p.w0)
	p.active = len(p.w)
	p.steps = p.steps[:0]
	p.comms = p.comms[:0]
	p.offs = p.offs[:0]
	p.m.Reset()
}

// peel subtracts w from every matched edge, appends the real ones to the
// comms arena and deactivates those that reach zero.
//
//redistlint:hotpath
func (p *peeler) peel(w int64) {
	// A peel emits at most k comms: the augmented graph's perfect matchings
	// hold at most k real edges. When fewer than k slots are free the arena
	// doubles here, before the matcher appends, so a cold solve grows it
	// geometrically from its nReal start instead of by append's 1.25× for
	// large slices.
	if cap(p.comms)-len(p.comms) < p.in.k {
		//redistlint:allow hotpath geometric arena growth: the arena starts at nReal and doubles, so a cold solve grows it at most log2(comms/nReal)+1 times; reset keeps the capacity and TestPeelSteadyStateAllocs asserts zero steady-state allocations
		p.comms = slices.Grow(p.comms, cap(p.comms)+p.in.k)
	}
	var died int
	p.comms, died = p.m.Peel(p.comms, w)
	p.active -= died
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
	// Each iteration removes at least one edge (the minimum-weight matched
	// edge reaches zero), so the loop bound also caps malfunctions.
	maxIter := len(p.in.edges) + 1
	for iter := 0; remaining > 0; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("kpbs: peeling did not terminate after %d iterations", maxIter)
		}
		// Warm-start reuse: matched pairs surviving from the previous peel,
		// read before Rematch repairs the matching. In ModeBottleneck that
		// excludes the pairs Peel dropped below the threshold. Only read
		// when observed — the guard keeps the disabled path branch-cheap.
		reused := 0
		if p.so != nil {
			reused = p.m.Size()
		}
		// A perfect matching of the residual graph, warm-started from the
		// previous iteration's survivors; it fails only if the residual
		// graph is not weight-regular (a broken augmentation).
		if !p.m.Rematch(p.in.nL) {
			return nil, fmt.Errorf("kpbs: no perfect matching in weight-regular graph (R=%d, remaining=%d); augmentation is broken", p.in.regular, remaining)
		}
		w := p.m.Bottleneck()
		if w <= 0 {
			return nil, fmt.Errorf("kpbs: matching with non-positive minimum weight %d", w)
		}
		start := len(p.comms)
		p.peel(w)
		if p.so != nil {
			// Purely observational: records the peel index, perfect-matching
			// size, warm-start survivors, bottleneck weight and how many
			// residual edges stay active. Peel is fixed-arity, so the call
			// itself allocates nothing; event recording inside obs may.
			p.so.Peel(iter, p.in.nL, reused, w, p.active)
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
