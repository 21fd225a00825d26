package kpbs

import (
	"sort"

	"redistgo/internal/safemath"
)

// Pack is a post-processing extension (not part of the paper's
// algorithms). The steps of a schedule are independent — each transfers
// fixed amounts between fixed pairs — so two steps can be fused into one
// whenever the union of their communications is still a matching of at
// most k pairs. Nodes may be shared between the two steps only through
// *identical* pairs, whose amounts simply add (this is what heals the
// fragmentation the peeling introduces on sparse graphs: the chunks of a
// preempted message fuse back together).
//
// Fusing steps of durations a and b yields one step of duration at most
// a + b, so each fusion saves at least β and never increases the cost.
//
// Pack greedily fuses first-fit-decreasing by duration and returns the
// number of fusions performed. The result remains a feasible schedule
// for the same instance; Options.Pack applies it inside Solve and
// BenchmarkAblationPack quantifies the effect.
func (s *Schedule) Pack(k int) int {
	if len(s.Steps) < 2 || k <= 0 {
		return 0
	}
	order := make([]int, len(s.Steps))
	for i := range order {
		order[i] = i
	}
	sort.Stable(stepIdxByDurDesc{idx: order, steps: s.Steps})

	groups := make([]*stepGroup, len(order))
	for i, idx := range order {
		groups[i] = newStepGroup(s.Steps[idx])
	}

	fusions := 0
	for i := range groups {
		if groups[i] == nil {
			continue
		}
		for j := i + 1; j < len(groups); j++ {
			if groups[j] == nil {
				continue
			}
			if groups[i].fuse(groups[j], k) {
				groups[j] = nil
				fusions++
			}
		}
	}
	if fusions == 0 {
		return 0
	}
	out := make([]Step, 0, len(groups)-fusions)
	for _, g := range groups {
		if g == nil {
			continue
		}
		out = append(out, g.step())
	}
	s.Steps = out
	return fusions
}

// stepIdxByDurDesc sorts step indices by duration descending
// (first-fit-decreasing). A typed sorter, not a sort.Slice closure,
// keeping the solver's post-pass allocation-light and closure-free like
// the rest of the setup paths.
type stepIdxByDurDesc struct {
	idx   []int
	steps []Step
}

func (s stepIdxByDurDesc) Len() int      { return len(s.idx) }
func (s stepIdxByDurDesc) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s stepIdxByDurDesc) Less(a, b int) bool {
	return s.steps[s.idx[a]].Duration > s.steps[s.idx[b]].Duration
}

// pairsByLR orders (left, right) node pairs lexicographically for
// deterministic communication order inside a packed step.
type pairsByLR [][2]int32

func (p pairsByLR) Len() int      { return len(p) }
func (p pairsByLR) Swap(a, b int) { p[a], p[b] = p[b], p[a] }
func (p pairsByLR) Less(a, b int) bool {
	if p[a][0] != p[b][0] {
		return p[a][0] < p[b][0]
	}
	return p[a][1] < p[b][1]
}

// stepGroup is a step under construction during packing: a matching
// keyed by node with per-pair amounts.
type stepGroup struct {
	partnerOfLeft  map[int32]int32 // left node -> right node
	partnerOfRight map[int32]int32 // right node -> left node
	amount         map[[2]int32]int64
}

func newStepGroup(st Step) *stepGroup {
	g := &stepGroup{
		partnerOfLeft:  make(map[int32]int32, len(st.Comms)),
		partnerOfRight: make(map[int32]int32, len(st.Comms)),
		amount:         make(map[[2]int32]int64, len(st.Comms)),
	}
	for _, c := range st.Comms {
		g.partnerOfLeft[c.L] = c.R
		g.partnerOfRight[c.R] = c.L
		g.amount[[2]int32{c.L, c.R}] = safemath.Add(g.amount[[2]int32{c.L, c.R}], c.Amount)
	}
	return g
}

// compatible reports whether other can fuse into g under the k limit:
// every shared node must be shared through the identical pair.
func (g *stepGroup) compatible(other *stepGroup, k int) bool {
	extra := 0
	//redistlint:allow determinism pure predicate: every iteration only reads and accumulates a count, so the verdict is independent of visit order
	for l, r := range other.partnerOfLeft {
		if pr, ok := g.partnerOfLeft[l]; ok {
			if pr != r {
				return false
			}
			continue // identical pair: fuses, no new slot
		}
		if _, ok := g.partnerOfRight[r]; ok {
			return false // r already busy with a different sender
		}
		extra++
	}
	return len(g.amount)+extra <= k
}

// fuse merges other into g if compatible, reporting whether it did.
func (g *stepGroup) fuse(other *stepGroup, k int) bool {
	if !g.compatible(other, k) {
		return false
	}
	//redistlint:allow determinism commutative merge: each key is written once from a disjoint source entry, so the final maps are order-independent
	for pair, amt := range other.amount {
		g.partnerOfLeft[pair[0]] = pair[1]
		g.partnerOfRight[pair[1]] = pair[0]
		g.amount[pair] = safemath.Add(g.amount[pair], amt)
	}
	return true
}

// step materializes the group as a Step with deterministic comm order.
func (g *stepGroup) step() Step {
	pairs := make([][2]int32, 0, len(g.amount))
	for p := range g.amount {
		pairs = append(pairs, p)
	}
	sort.Sort(pairsByLR(pairs))
	var st Step
	for _, p := range pairs {
		st.Comms = append(st.Comms, Comm{L: p[0], R: p[1], Amount: g.amount[p]})
	}
	st.recomputeDuration()
	return st
}
