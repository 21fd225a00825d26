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
	// worker count) and keeps the paper's bounds: a packed schedule that
	// costs more than 2·LowerBound (GGP, OGGP) or takes more than EtaS
	// steps (MinSteps) is replaced by the monolithic solve — see DESIGN.md
	// §9.
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
//
// Every solve runs one chain of phases (DESIGN.md §2): validateInstance
// checks the whole graph once; then, for the whole graph or for each of
// its components, a numbering numbers the nodes of the edge set and
// solveSet schedules it; finally finish runs the Pack post-pass and closes
// the observation. Result runs the same chain (delta.go).
func Solve(g *bipartite.Graph, k int, beta int64, opts Options) (*Schedule, error) {
	if err := validateInstance(g, k, beta, opts.Algorithm, nil); err != nil {
		return nil, err
	}
	// A nil opts.Obs yields a nil view whose methods all no-op; the solve
	// itself never branches on whether it is being observed.
	so := opts.Obs.Solver(opts.Algorithm.String())
	var s *Schedule
	var err error
	if sh := shardFor(g, opts.Shard, nil); sh != nil {
		s, err = solveSharded(g, sh, k, beta, opts, so)
	} else {
		s, err = solveWhole(g, k, beta, opts, so)
	}
	if err != nil {
		return nil, err
	}
	finish(s, k, opts.Pack, so)
	return s, nil
}

// solveWhole schedules all of g at once with fresh buffers: the monolithic
// path of Solve, and the fallback of a sharded solve whose pack breaks the
// paper's bound (solveSharded).
func solveWhole(g *bipartite.Graph, k int, beta int64, opts Options, so *obs.SolverObs) (*Schedule, error) {
	set, nb := edgeSet{g: g}, newNumbering(g)
	nb.number(set)
	_, s, err := solveSet(set, nb, k, beta, opts, new(setScratch), new(denormArena), so)
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// solveSet schedules the edge set s, whose nodes nb has numbered, with the
// selected algorithm. Greedy schedules it directly. GGP, OGGP and MinSteps
// normalize and augment it (instance.build) and build the matcher and peel
// (peeler.init, peeler.run) in the buffers of sc, then denormalize the
// normalized steps into the arena out, in the node ids of s's graph. GGP
// peels any perfect matching (§4.2), OGGP and MinSteps the bottleneck one
// (§4.3), and MinSteps peels unit weights. Solve's monolithic path, every
// component worker and Result all run it. It also returns the normalized
// steps, which Result keeps for its reuse path; they alias the peeler's
// arenas, and Greedy and an empty set have none. out is an argument of its
// own, not part of sc, so that while the schedule is being allocated a cold
// solve's sc (the instance, the matcher) is already garbage.
func solveSet(s edgeSet, nb *numbering, k int, beta int64, opts Options, sc *setScratch, out *denormArena, so *obs.SolverObs) ([]normStep, Schedule, error) {
	if opts.Algorithm == Greedy {
		return nil, solveGreedy(s, nb, k, beta), nil
	}
	kind := matchBottleneck
	if opts.Algorithm == GGP {
		kind = matchAny
	}
	unit := opts.Algorithm == MinSteps
	var steps []normStep
	if sc.in.build(s, nb, k, beta, unit) {
		p := &sc.p
		p.init(&sc.in, kind, opts.engine)
		p.so = so
		var err error
		if steps, err = p.run(); err != nil {
			return nil, Schedule{}, err
		}
	}
	return steps, out.denormalize(s, steps, beta, unit), nil
}

// setScratch holds the buffers solveSet peels in for one edge set: the
// working instance and the peeler with its matcher. Solve and each
// component worker solve from a zero one, so each buffer is allocated
// once, at the size the set needs. A Result keeps one for its whole graph
// and rebuilds into it, so a rebuild of a same-shaped instance allocates
// none of them.
type setScratch struct {
	in instance
	p  peeler
}

// finish is the tail of every solve: the optional Pack post-pass, then the
// observation of the finished schedule. Solve and Result run it on the
// whole schedule, each component worker (without Pack) on its part.
func finish(s *Schedule, k int, pack bool, so *obs.SolverObs) {
	if pack {
		s.Pack(k)
	}
	so.Done(len(s.Steps), s.Cost())
}

// denormArena holds what denormalize writes: the remaining raw weight per
// edge, one Comm arena shared by every step, and the steps themselves. A
// Result retains one across deltas; a cold solve starts from an empty one,
// so each buffer is allocated once, at the size the peel output gives.
type denormArena struct {
	rem   []int64
	comms []Comm
	steps []Step
}

// denormalize converts the normalized steps peeled from the edge set s
// back into original time units, in the node ids of s's graph. For β > 0
// each edge was allotted ⌈w/β⌉ normalized units; the real transfer per
// step is min(remaining, peel·β), so the final chunk shrinks to exactly
// exhaust the edge and the real cost is never above the normalized cost.
// In unit-weight mode (MinSteps) each edge appears in exactly one step and
// carries its full weight. Steps left without a communication are dropped.
// The schedule aliases the arena, whose buffers grow only when the peel
// output outgrows them.
//
//redistlint:hotpath
func (a *denormArena) denormalize(s edgeSet, steps []normStep, beta int64, unitWeights bool) Schedule {
	n := s.len()
	a.rem = ensureInt64s(a.rem, n)
	for i := 0; i < n; i++ {
		a.rem[i] = s.edge(i).Weight
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
			e := s.edge(int(orig))
			a.comms[nc] = Comm{L: int32(e.L), R: int32(e.R), Amount: amount}
			nc++
		}
		if nc > start {
			st := &a.steps[nst]
			*st = Step{Comms: a.comms[start:nc:nc]}
			st.recomputeDuration()
			nst++
		}
	}
	out := Schedule{Beta: beta}
	if nst > 0 {
		out.Steps = a.steps[:nst]
	}
	return out
}

// SolveWRGP runs the plain WRGP peeler (paper §4.1) on a weight-regular
// balanced graph: k is unbounded (every step is a perfect matching) and β
// is not considered. bottleneck selects OGGP's matching rule.
func SolveWRGP(g *bipartite.Graph, bottleneck bool) (*Schedule, error) {
	if err := checkSides(g); err != nil {
		return nil, err
	}
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
	var a denormArena
	s := a.denormalize(edgeSet{g: g}, steps, 0, false)
	return &s, nil
}

// solveGreedy is a non-preemptive list-scheduling baseline on the edge set
// s: edges sorted by decreasing weight; each step greedily packs up to k
// compatible edges in that order. It respects the instance constraints but
// has no approximation guarantee; it exists to quantify what the peeling
// buys. nb has numbered s's nodes, so the per-step port marks cover only
// the nodes s touches.
func solveGreedy(s edgeSet, nb *numbering, k int, beta int64) Schedule {
	order := make([]int, s.len())
	weights := make([]int64, s.len())
	for i := range order {
		order[i] = i
		weights[i] = s.edge(i).Weight
	}
	sort.Sort(idxByWeightDesc{idx: order, w: weights})
	out := Schedule{Beta: beta}
	usedL := make([]bool, nb.nL)
	usedR := make([]bool, nb.nR)
	// Edges scheduled in a step are compacted out of the scan list, so each
	// pass only walks the edges still pending — the previous version
	// rescanned the full sorted list (finished edges included) every step,
	// going quadratic in the step count on dense instances.
	for len(order) > 0 {
		clear(usedL)
		clear(usedR)
		var st Step
		pending := order[:0]
		for _, ei := range order {
			e := s.edge(ei)
			l, r := nb.l[e.L].id, nb.r[e.R].id
			if len(st.Comms) == k || usedL[l] || usedR[r] {
				pending = append(pending, ei)
				continue
			}
			usedL[l], usedR[r] = true, true
			st.Comms = append(st.Comms, Comm{L: int32(e.L), R: int32(e.R), Amount: e.Weight})
		}
		order = pending
		st.recomputeDuration()
		out.Steps = append(out.Steps, st)
	}
	return out
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
