package kpbs

import (
	"fmt"
	"sort"

	"redistgo/internal/bipartite"
	"redistgo/internal/safemath"
)

// workEdge is an edge of the augmented working graph.
type workEdge struct {
	l, r int
	w    int64
}

// instance is a fully prepared K-PBS working instance: weights normalized
// by β, nodes numbered by numbering (isolated ones get no number), and the
// graph augmented into a balanced weight-regular graph whose perfect
// matchings contain at most k real edges (paper §4.2.2, Proposition 1).
//
// The first nReal working edges are the edge set's edges, in set order, so
// working edge i < nReal is the set's edge i; the virtual edges the
// augmentation adds (filler edges between two fresh nodes, top-up edges
// joining a fresh node to an existing one) follow them.
type instance struct {
	edges   []workEdge
	nReal   int   // real edges: edges[:nReal], in set order
	nL, nR  int   // augmented node counts; nL == nR
	realL   int   // work left nodes < realL are the set's numbered left nodes
	realR   int   // work right nodes < realR are the set's numbered right nodes
	k       int   // effective k (clamped to active node counts)
	regular int64 // common node weight R of the augmented graph

	// Augmentation scratch, kept with the edge buffer so that a rebuild
	// into a used instance allocates nothing: the per-node weight sums and
	// topUp's deficit order.
	lw, rw []int64
	order  idxByWeightAsc
}

// edgeSet is the part of a graph one solve schedules: the edges of g at the
// ascending indices idx, or every edge of g when idx is nil. Solve's
// monolithic path and Result schedule the whole graph; each component
// worker schedules its component's edges straight from the parent graph, so
// every schedule comes out in the parent's node ids.
type edgeSet struct {
	g   *bipartite.Graph
	idx []int
}

// len returns the number of edges in the set.
func (s edgeSet) len() int {
	if s.idx == nil {
		return s.g.EdgeCount()
	}
	return len(s.idx)
}

// edge returns the set's i-th edge.
func (s edgeSet) edge(i int) bipartite.Edge {
	if s.idx == nil {
		return s.g.Edge(i)
	}
	return s.g.Edge(s.idx[i])
}

// numbering gives the nodes an edge set touches dense ids in order of first
// appearance over its edges. Isolated nodes get none: they cannot
// communicate, and keeping them would force useless virtual top-up edges.
// It is the one node numbering of every solve (the monolith, each component,
// Greedy and Result), so a connected graph numbers the same whether it is
// solved whole or as one component. The maps are epoch-stamped and never
// cleared: one numbering serves any number of edge sets of its graph with no
// allocation (TestShardScratchSteadyStateAllocs).
type numbering struct {
	l, r   []numSlot // node of g -> id, valid when stamped with epoch
	epoch  int
	nL, nR int // ids handed out on each side by the last number call
}

// numSlot is one node's id and the epoch that stamped it.
type numSlot struct{ id, stamp int }

func newNumbering(g *bipartite.Graph) *numbering {
	return &numbering{l: make([]numSlot, g.LeftCount()), r: make([]numSlot, g.RightCount())}
}

// number numbers the nodes of the edge set s, which must be drawn from the
// graph the numbering was made for.
//
//redistlint:hotpath
func (nb *numbering) number(s edgeSet) {
	nb.epoch++
	nb.nL, nb.nR = 0, 0
	for i, m := 0, s.len(); i < m; i++ {
		e := s.edge(i)
		if sl := &nb.l[e.L]; sl.stamp != nb.epoch {
			*sl = numSlot{id: nb.nL, stamp: nb.epoch}
			nb.nL++
		}
		if sr := &nb.r[e.R]; sr.stamp != nb.epoch {
			*sr = numSlot{id: nb.nR, stamp: nb.epoch}
			nb.nR++
		}
	}
}

// normalizeWeight returns ⌈w/β⌉ for β > 0, or w unchanged for β = 0
// (the paper's rule: never split a communication shorter than β; with no
// setup delay there is nothing to amortize and no normalization is done).
func normalizeWeight(w, beta int64) int64 {
	if beta <= 0 {
		return w
	}
	return ceilDiv(w, beta)
}

// build normalizes and augments the edge set s, whose nodes nb has
// numbered, into in. With unitWeights set, every edge gets weight 1
// instead of its normalized weight — this turns GGP into an optimal
// step-count scheduler (the MinSteps extension). It reports false, and
// builds nothing, for an empty set. It does not validate: the caller
// validated the whole graph, and a component's weight sums and effective k
// are bounded by the whole graph's, so that one check covers every edge
// set drawn from it.
//
// The edge buffer and the augmentation scratch of in's last build are
// reused when they are large enough; a zero instance allocates them, which
// is the cold solve's path. The instance built is the same either way.
func (in *instance) build(s edgeSet, nb *numbering, k int, beta int64, unitWeights bool) bool {
	m := s.len()
	if m == 0 {
		return false
	}
	*in = instance{
		edges: in.edges, lw: in.lw, rw: in.rw, order: in.order,
		nReal: m, nL: nb.nL, nR: nb.nR, realL: nb.nL, realR: nb.nR, k: k,
	}

	// A matching cannot contain more edges than active nodes on either
	// side, so larger k values are equivalent (paper §2.4).
	if in.realL < in.k {
		in.k = in.realL
	}
	if in.realR < in.k {
		in.k = in.realR
	}

	// One buffer for the whole working edge list: the real edges, then at
	// most k fillers and, per side, at most one top-up edge per node plus
	// one per fresh node (see topUp), which with nL, nR ≤ real + k bounds
	// the augmentation by 2·(realL + realR) + 5k edges.
	if bound := m + 2*(in.realL+in.realR) + 5*in.k; cap(in.edges) < bound {
		in.edges = make([]workEdge, m, bound)
	} else {
		in.edges = in.edges[:m]
	}
	for i := range in.edges {
		e := s.edge(i)
		w := int64(1)
		if !unitWeights {
			w = normalizeWeight(e.Weight, beta)
		}
		in.edges[i] = workEdge{l: nb.l[e.L].id, r: nb.r[e.R].id, w: w}
	}

	in.augment()
	return true
}

// nodeWeights returns the current per-node weight sums, in the instance's
// scratch: valid until the next call.
func (in *instance) nodeWeights() (lw, rw []int64) {
	in.lw = ensureInt64s(in.lw, in.nL)
	in.rw = ensureInt64s(in.rw, in.nR)
	lw, rw = in.lw, in.rw
	clear(lw)
	clear(rw)
	for _, e := range in.edges {
		lw[e.l] = safemath.Add(lw[e.l], e.w)
		rw[e.r] = safemath.Add(rw[e.r], e.w)
	}
	return lw, rw
}

func (in *instance) totalWeight() int64 {
	var p int64
	for _, e := range in.edges {
		p = safemath.Add(p, e.w)
	}
	return p
}

func (in *instance) maxNodeWeight() int64 {
	lw, rw := in.nodeWeights()
	var max int64
	for _, w := range lw {
		if w > max {
			max = w
		}
	}
	for _, w := range rw {
		if w > max {
			max = w
		}
	}
	return max
}

// augment implements paper §4.2.2: first the filler phase ("case 2") that
// adjusts the total weight so that R = P/k ≥ W(G) and k | P, then the
// regularization phase ("case 1") that tops every node up to exactly R by
// connecting fresh nodes to deficient existing ones.
func (in *instance) augment() {
	p := in.totalWeight()
	w := in.maxNodeWeight()
	k64 := int64(in.k)

	// Filler phase. Fillers join a fresh left node to a fresh right node
	// (the only place virtual-virtual edges are allowed). Each filler
	// weighs at most W(G), so W of the graph is unchanged.
	var deficit int64
	if wk := safemath.Mul(w, k64); wk > p {
		// Raise the total so that P' / k = W(G). validateInstance proved
		// W(G)·k representable, so wk is exact here, not saturated.
		deficit = wk - p
	} else if p%k64 != 0 {
		// Pad the total to the next multiple of k.
		deficit = k64 - p%k64
	}
	for deficit > 0 {
		fw := w
		if deficit < fw {
			fw = deficit
		}
		l := in.nL
		r := in.nR
		in.nL++
		in.nR++
		in.edges = append(in.edges, workEdge{l: l, r: r, w: fw})
		deficit -= fw
	}
	p = in.totalWeight()
	in.regular = p / k64

	// Regularization phase. Every existing node has weight ≤ R; its
	// deficit is packed greedily into fresh opposite-side nodes of
	// capacity exactly R. The left side needs (nL - k) fresh right nodes,
	// the right side (nR - k) fresh left nodes; both counts are exact
	// because the total deficit is R·(count − k)·... (see DESIGN.md §2).
	lw, rw := in.nodeWeights()
	in.topUp(lw, true)
	in.topUp(rw, false)
}

// topUp adds fresh nodes on the opposite side and connects them to the
// nodes whose weights are given, raising every weight to R. For left=true
// the weights are left-node weights and the fresh nodes are right nodes.
//
// Deficits are packed largest-first: fragmentation splits a node's
// deficit across several fresh nodes, and every extra fragment is a
// small virtual edge that later forces a small peel (an extra step), so
// packing big deficits first minimizes both the number and the spread of
// fragments. The paper leaves this packing unspecified.
func (in *instance) topUp(weights []int64, left bool) {
	r := in.regular
	in.order.idx = ensureInts(in.order.idx, len(weights))
	in.order.w = weights
	for i := range in.order.idx {
		in.order.idx[i] = i
	}
	sort.Sort(&in.order) // largest deficit first
	var freshCap int64   // remaining capacity of the currently open fresh node
	fresh := -1
	for _, node := range in.order.idx {
		need := r - weights[node]
		for need > 0 {
			if freshCap == 0 {
				if left {
					fresh = in.nR
					in.nR++
				} else {
					fresh = in.nL
					in.nL++
				}
				freshCap = r
			}
			amt := need
			if amt > freshCap {
				amt = freshCap
			}
			if left {
				in.edges = append(in.edges, workEdge{l: node, r: fresh, w: amt})
			} else {
				in.edges = append(in.edges, workEdge{l: fresh, r: node, w: amt})
			}
			freshCap -= amt
			need -= amt
		}
	}
	if freshCap != 0 {
		// The deficits always sum to a multiple of R; a leftover means the
		// augmentation math is broken.
		panic(fmt.Sprintf("kpbs: top-up leftover capacity %d (R=%d, left=%v)", freshCap, r, left))
	}
}

// idxByWeightAsc sorts an index slice by increasing weight, index
// ascending on ties (the typed counterpart of idxByWeightDesc; see the
// closure-free rationale there).
type idxByWeightAsc struct {
	idx []int
	w   []int64
}

func (s idxByWeightAsc) Len() int      { return len(s.idx) }
func (s idxByWeightAsc) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s idxByWeightAsc) Less(a, b int) bool {
	ia, ib := s.idx[a], s.idx[b]
	if s.w[ia] != s.w[ib] {
		return s.w[ia] < s.w[ib]
	}
	return ia < ib
}

// checkRegular verifies the augmented graph is balanced and R-weight-
// regular. Used by tests and defensive checks.
func (in *instance) checkRegular() error {
	if in.nL != in.nR {
		return fmt.Errorf("kpbs: augmented graph unbalanced: %d x %d", in.nL, in.nR)
	}
	lw, rw := in.nodeWeights()
	for i, w := range lw {
		if w != in.regular {
			return fmt.Errorf("kpbs: left node %d weight %d != R=%d", i, w, in.regular)
		}
	}
	for i, w := range rw {
		if w != in.regular {
			return fmt.Errorf("kpbs: right node %d weight %d != R=%d", i, w, in.regular)
		}
	}
	return nil
}
