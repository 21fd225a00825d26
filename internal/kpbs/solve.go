package kpbs

import (
	"fmt"
	"sort"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
	"redistgo/internal/obs"
	"redistgo/internal/safemath"
)

// Algorithm selects the scheduling algorithm.
type Algorithm int

const (
	// GGP is the Generic Graph Peeling 2-approximation (paper §4.2).
	GGP Algorithm = iota
	// OGGP is the Optimized Generic Graph Peeling 2-approximation
	// (paper §4.3): GGP with a bottleneck matching at each peel.
	OGGP
	// MinSteps schedules without preemption in the provably minimum
	// number of steps max(Δ(G), ⌈m/k⌉): GGP on unit weights. An extension
	// of the paper; the right choice when β dominates the weights.
	MinSteps
	// Greedy is a list-scheduling baseline without preemption: repeatedly
	// build a step from the heaviest remaining compatible edges.
	Greedy
)

// String returns the algorithm's conventional name.
func (a Algorithm) String() string {
	switch a {
	case GGP:
		return "GGP"
	case OGGP:
		return "OGGP"
	case MinSteps:
		return "MinSteps"
	case Greedy:
		return "Greedy"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ShardMode selects the component-sharding behavior of Solve (see
// components.go and DESIGN.md §9).
type ShardMode int

const (
	// ShardOff — the zero value, and the default — solves the instance as
	// one monolith, reproducing the paper's algorithms verbatim.
	ShardOff ShardMode = iota
	// ShardAuto shards when the graph has two or more connected
	// components and otherwise falls back to the monolithic path; the
	// detection pass is a single O(m α(m)) union-find sweep.
	ShardAuto
	// shardAlways runs the sharded pipeline even on connected graphs, where
	// it produces the monolithic schedule byte for byte. Tests use it to
	// drive the sharded path on any instance.
	shardAlways
)

// String returns the mode's flag spelling.
func (m ShardMode) String() string {
	switch m {
	case ShardOff:
		return "off"
	case ShardAuto:
		return "auto"
	case shardAlways:
		return "always"
	}
	return fmt.Sprintf("ShardMode(%d)", int(m))
}

// ParseShardMode parses the -shard flag spelling used by the cmds.
func ParseShardMode(s string) (ShardMode, error) {
	switch s {
	case "off":
		return ShardOff, nil
	case "auto":
		return ShardAuto, nil
	}
	return 0, fmt.Errorf("kpbs: unknown shard mode %q (want auto or off)", s)
}

// Options configure Solve beyond the instance parameters.
type Options struct {
	// Algorithm to run; GGP by default.
	Algorithm Algorithm
	// Pack merges node-disjoint steps that fit within k together after
	// solving, saving β plus the shorter duration per merge (see
	// Schedule.Pack). Off by default so results reproduce the paper's
	// algorithms verbatim.
	Pack bool
	// Shard splits the instance into connected components, peels them in
	// parallel and packs the per-component steps back into shared global
	// steps (components.go). ShardOff — the zero value — keeps the
	// monolithic paper-verbatim path; ShardAuto shards only multi-component
	// graphs. Sharded output is deterministic (byte-identical for any
	// worker count) and never costlier than concatenating the component
	// schedules, but carries no monolith-relative guarantee beyond the
	// per-component approximation bounds — see DESIGN.md §9.
	Shard ShardMode
	// Obs attaches the observability layer: per-solve metrics and per-peel
	// trace events (step index, matching size, bottleneck weight, residual
	// edges, warm-start reuse) are recorded through it. nil — the default —
	// disables all instrumentation; the peeling hot path then takes only
	// nil-checks and stays allocation-free at steady state. Observation is
	// strictly passive: the schedule is byte-identical with Obs set or nil
	// (TestSolveObsDeterminism and FuzzSolve assert this).
	Obs *obs.Observer
	// engine pins the matching kernels of the peeling algorithms. The zero
	// value, matching.EngineAuto, resolves by each instance's density;
	// tests pin the scalar or the bitset arm, whose schedules are
	// byte-identical (DESIGN.md §11). Greedy ignores it.
	engine matching.Engine
}

// Solve computes a feasible K-PBS schedule for the instance (g, k, beta)
// using the selected algorithm. The returned schedule transfers exactly
// the weights of g (amounts are in the same units as the edge weights)
// and satisfies the 1-port and k constraints.
func Solve(g *bipartite.Graph, k int, beta int64, opts Options) (*Schedule, error) {
	switch opts.Algorithm {
	case GGP, OGGP, MinSteps, Greedy:
	default:
		return nil, fmt.Errorf("kpbs: unknown algorithm %v", opts.Algorithm)
	}
	// A nil opts.Obs yields a nil view whose methods all no-op; the solve
	// itself never branches on whether it is being observed.
	so := opts.Obs.Solver(opts.Algorithm.String())
	s, used, err := solveSharded(g, k, beta, opts, so)
	if !used {
		// ShardOff, or ShardAuto on a single-component graph: the
		// monolithic path.
		s, err = solveMonolith(g, k, beta, opts, so)
	}
	if err != nil {
		return nil, err
	}
	if opts.Pack {
		s.Pack(k)
	}
	so.Done(len(s.Steps), s.Cost())
	return s, nil
}

// solveMonolith runs the selected algorithm on g as one instance. The
// sharded path runs it on each component.
func solveMonolith(g *bipartite.Graph, k int, beta int64, opts Options, so *obs.SolverObs) (*Schedule, error) {
	switch opts.Algorithm {
	case GGP:
		return solvePeeling(g, k, beta, matchAny, false, opts.engine, so)
	case OGGP:
		return solvePeeling(g, k, beta, matchBottleneck, false, opts.engine, so)
	case MinSteps:
		return solvePeeling(g, k, beta, matchBottleneck, true, opts.engine, so)
	}
	return solveGreedy(g, k, beta)
}

// solvePeeling is the common GGP/OGGP/MinSteps pipeline: normalize,
// augment to weight-regular, peel, then convert the normalized steps back
// to a schedule in original units.
func solvePeeling(g *bipartite.Graph, k int, beta int64, kind matcherKind, unitWeights bool, eng matching.Engine, so *obs.SolverObs) (*Schedule, error) {
	in, err := buildInstance(g, k, beta, unitWeights)
	if err != nil {
		return nil, err
	}
	if in == nil {
		return &Schedule{Beta: beta}, nil
	}
	steps, err := in.peel(kind, eng, so)
	if err != nil {
		return nil, err
	}
	return coldSchedule(g, steps, beta, unitWeights), nil
}

// denormArena holds what denormalize writes: the remaining raw weight per
// edge, one Comm arena shared by every step, and the steps themselves. A
// Result retains one across deltas; a cold solve starts from an empty one
// (coldSchedule), so each buffer is allocated once, at the size the peel
// output gives.
type denormArena struct {
	rem   []int64
	comms []Comm
	steps []Step
}

// coldSchedule denormalizes a cold solve's peel output into fresh arenas.
func coldSchedule(g *bipartite.Graph, steps []normStep, beta int64, unitWeights bool) *Schedule {
	var a denormArena
	s := a.denormalize(g, steps, beta, unitWeights)
	return &s
}

// denormalize converts normalized peeled steps back into original time
// units. For β > 0 each edge was allotted ⌈w/β⌉ normalized units; the real
// transfer per step is min(remaining, peel·β), so the final chunk shrinks
// to exactly exhaust the edge and the real cost is never above the
// normalized cost. In unit-weight mode (MinSteps) each edge appears in
// exactly one step and carries its full weight. Steps left without a
// communication are dropped. The schedule aliases the arena, whose buffers
// grow only when the peel output outgrows them.
//
//redistlint:hotpath
func (a *denormArena) denormalize(g *bipartite.Graph, steps []normStep, beta int64, unitWeights bool) Schedule {
	n := g.EdgeCount()
	a.rem = ensureInt64s(a.rem, n)
	for i := 0; i < n; i++ {
		a.rem[i] = g.Edge(i).Weight
	}
	total := 0
	for _, ns := range steps {
		total += len(ns.comms)
	}
	a.comms = ensureComms(a.comms, total)
	a.steps = ensureSteps(a.steps, len(steps))
	nc, nst := 0, 0
	for _, ns := range steps {
		alloc := ns.peel
		if beta > 0 {
			// Saturating: peel·β can exceed MaxInt64 when a weight near the
			// int64 boundary was rounded up by normalization; the
			// min(remaining) clamp below then restores the exact amount,
			// whereas an unchecked product would go negative and emit a
			// corrupt (or dropped) communication.
			alloc = safemath.Mul(alloc, beta)
		}
		start := nc
		for _, orig := range ns.comms {
			amount := a.rem[orig]
			if !unitWeights && alloc < amount {
				amount = alloc
			}
			if amount <= 0 {
				continue
			}
			a.rem[orig] -= amount
			e := g.Edge(int(orig))
			a.comms[nc] = Comm{L: e.L, R: e.R, Amount: amount}
			nc++
		}
		if nc > start {
			st := &a.steps[nst]
			*st = Step{Comms: a.comms[start:nc:nc]}
			st.recomputeDuration()
			nst++
		}
	}
	s := Schedule{Beta: beta}
	if nst > 0 {
		s.Steps = a.steps[:nst]
	}
	return s
}

// SolveWRGP runs the plain WRGP peeler (paper §4.1) on a weight-regular
// balanced graph: k is unbounded (every step is a perfect matching) and β
// is not considered. bottleneck selects OGGP's matching rule.
func SolveWRGP(g *bipartite.Graph, bottleneck bool) (*Schedule, error) {
	kind := matchAny
	if bottleneck {
		kind = matchBottleneck
	}
	if g.EdgeCount() == 0 {
		if g.LeftCount() != g.RightCount() {
			return nil, fmt.Errorf("kpbs: WRGP requires a balanced graph, got %dx%d", g.LeftCount(), g.RightCount())
		}
		return &Schedule{}, nil
	}
	steps, err := wrgpGraph(g, kind)
	if err != nil {
		return nil, err
	}
	return coldSchedule(g, steps, 0, false), nil
}

// solveGreedy is a non-preemptive list-scheduling baseline: edges sorted
// by decreasing weight; each step greedily packs up to k compatible edges
// in that order. It respects the instance constraints but has no
// approximation guarantee; it exists to quantify what the peeling buys.
func solveGreedy(g *bipartite.Graph, k int, beta int64) (*Schedule, error) {
	if err := validateInstance(g, k, beta); err != nil {
		return nil, err
	}
	order := make([]int, g.EdgeCount())
	weights := make([]int64, g.EdgeCount())
	for i := range order {
		order[i] = i
		weights[i] = g.Edge(i).Weight
	}
	sort.Sort(idxByWeightDesc{idx: order, w: weights})
	out := &Schedule{Beta: beta}
	usedL := make([]bool, g.LeftCount())
	usedR := make([]bool, g.RightCount())
	// Edges scheduled in a step are compacted out of the scan list, so each
	// pass only walks the edges still pending — the previous version
	// rescanned the full sorted list (finished edges included) every step,
	// going quadratic in the step count on dense instances.
	for len(order) > 0 {
		for i := range usedL {
			usedL[i] = false
		}
		for i := range usedR {
			usedR[i] = false
		}
		var st Step
		pending := order[:0]
		for _, ei := range order {
			e := g.Edge(ei)
			if len(st.Comms) == k || usedL[e.L] || usedR[e.R] {
				pending = append(pending, ei)
				continue
			}
			usedL[e.L] = true
			usedR[e.R] = true
			st.Comms = append(st.Comms, Comm{L: e.L, R: e.R, Amount: e.Weight})
		}
		order = pending
		st.recomputeDuration()
		out.Steps = append(out.Steps, st)
	}
	return out, nil
}

// idxByWeightDesc sorts an index slice by decreasing weight, index
// ascending on ties. A typed sorter rather than a sort.Slice closure:
// the solver's setup paths stay closure-free, matching the hotpath lint
// discipline of the arenas they feed.
type idxByWeightDesc struct {
	idx []int
	w   []int64
}

func (s idxByWeightDesc) Len() int      { return len(s.idx) }
func (s idxByWeightDesc) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s idxByWeightDesc) Less(a, b int) bool {
	ia, ib := s.idx[a], s.idx[b]
	if s.w[ia] != s.w[ib] {
		return s.w[ia] > s.w[ib]
	}
	return ia < ib
}
