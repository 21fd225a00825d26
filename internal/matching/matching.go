// Package matching provides bipartite matching algorithms for the K-PBS
// schedulers. The peeler runs on the incremental matcher BottleneckInc
// (bottleneck_inc.go); the cold matchers below solve one graph from
// scratch and are the oracles its tests compare against:
//
//   - Maximum: Hopcroft–Karp maximum-cardinality matching, O(m√n) — the
//     "any matching algorithm" slot of GGP (paper §4.1 cites [22]).
//   - Perfect: a perfect matching of a balanced graph, or a report that
//     none exists.
//   - BottleneckPerfect / BottleneckMaximum: a (perfect / maximum)
//     matching whose minimum edge weight is as large as possible — the
//     paper's Figure-6 procedure of OGGP: insert edges in decreasing
//     weight order and grow the matching with augmenting paths until it
//     reaches the target cardinality.
//
// All functions operate on *bipartite.Graph and return matchings as sets
// of edge indices, so parallel edges are handled correctly.
package matching

import (
	"sort"

	"redistgo/internal/bipartite"
)

// Matching is a set of edges of a bipartite graph such that no two edges
// share an endpoint.
type Matching struct {
	// EdgeOfLeft[l] is the index (into the graph's edge list) of the edge
	// matching left node l, or -1 if l is unmatched.
	EdgeOfLeft []int
	// Size is the number of matched pairs.
	Size int
}

// Edges returns the matched edge indices in increasing left-node order.
func (m Matching) Edges() []int {
	out := make([]int, 0, m.Size)
	for _, e := range m.EdgeOfLeft {
		if e >= 0 {
			out = append(out, e)
		}
	}
	return out
}

// MinWeight returns the smallest weight among matched edges of g, or 0 if
// the matching is empty.
func (m Matching) MinWeight(g *bipartite.Graph) int64 {
	var min int64
	first := true
	for _, e := range m.EdgeOfLeft {
		if e < 0 {
			continue
		}
		w := g.Edge(e).Weight
		if first || w < min {
			min = w
			first = false
		}
	}
	if first {
		return 0
	}
	return min
}

// IsPerfect reports whether the matching covers every node of g (which
// requires a balanced graph).
func (m Matching) IsPerfect(g *bipartite.Graph) bool {
	return g.LeftCount() == g.RightCount() && m.Size == g.LeftCount()
}

const inf = int(^uint(0) >> 1)

// hk is the Hopcroft–Karp working state over the graph's full edge set.
type hk struct {
	nLeft, nRight int
	// adj[l] lists (right node, edge index) pairs.
	adjR []int // flattened right endpoints
	adjE []int // flattened edge indices
	off  []int // adj offsets per left node, len nLeft+1

	matchL []int // edge index matched to left node, -1 if free
	matchR []int // edge index matched to right node, -1 if free
	distL  []int
	queue  []int
	size   int
}

func newHK(g *bipartite.Graph) *hk {
	h := &hk{nLeft: g.LeftCount(), nRight: g.RightCount()}
	h.off = make([]int, h.nLeft+1)
	for i := 0; i < g.EdgeCount(); i++ {
		h.off[g.Edge(i).L+1]++
	}
	for i := 0; i < h.nLeft; i++ {
		h.off[i+1] += h.off[i]
	}
	total := g.EdgeCount()
	h.adjR = make([]int, total)
	h.adjE = make([]int, total)
	fill := make([]int, h.nLeft)
	copy(fill, h.off[:h.nLeft])
	for i := 0; i < g.EdgeCount(); i++ {
		e := g.Edge(i)
		h.adjR[fill[e.L]] = e.R
		h.adjE[fill[e.L]] = i
		fill[e.L]++
	}
	h.matchL = make([]int, h.nLeft)
	h.matchR = make([]int, h.nRight)
	for i := range h.matchL {
		h.matchL[i] = -1
	}
	for i := range h.matchR {
		h.matchR[i] = -1
	}
	h.distL = make([]int, h.nLeft)
	return h
}

// bfs layers free left nodes; returns true if an augmenting path exists.
func (h *hk) bfs(g *bipartite.Graph) bool {
	h.queue = h.queue[:0]
	for l := 0; l < h.nLeft; l++ {
		if h.matchL[l] < 0 {
			h.distL[l] = 0
			h.queue = append(h.queue, l)
		} else {
			h.distL[l] = inf
		}
	}
	found := false
	for qi := 0; qi < len(h.queue); qi++ {
		l := h.queue[qi]
		for i := h.off[l]; i < h.off[l+1]; i++ {
			r := h.adjR[i]
			me := h.matchR[r]
			if me < 0 {
				found = true
				continue
			}
			nl := g.Edge(me).L
			if h.distL[nl] == inf {
				h.distL[nl] = h.distL[l] + 1
				h.queue = append(h.queue, nl)
			}
		}
	}
	return found
}

// dfs searches a shortest augmenting path from left node l.
func (h *hk) dfs(g *bipartite.Graph, l int) bool {
	for i := h.off[l]; i < h.off[l+1]; i++ {
		r := h.adjR[i]
		edge := h.adjE[i]
		me := h.matchR[r]
		if me < 0 {
			h.matchL[l] = edge
			h.matchR[r] = edge
			return true
		}
		nl := g.Edge(me).L
		if h.distL[nl] == h.distL[l]+1 && h.dfs(g, nl) {
			h.matchL[l] = edge
			h.matchR[r] = edge
			return true
		}
	}
	h.distL[l] = inf
	return false
}

func (h *hk) run(g *bipartite.Graph) {
	for h.bfs(g) {
		for l := 0; l < h.nLeft; l++ {
			if h.matchL[l] < 0 && h.dfs(g, l) {
				h.size++
			}
		}
	}
}

func (h *hk) matching() Matching {
	return Matching{EdgeOfLeft: append([]int(nil), h.matchL...), Size: h.size}
}

// Maximum returns a maximum-cardinality matching of g (Hopcroft–Karp).
func Maximum(g *bipartite.Graph) Matching {
	h := newHK(g)
	h.run(g)
	return h.matching()
}

// Perfect returns a perfect matching of g if one exists. A perfect
// matching pairs every node on both sides, so g must be balanced.
func Perfect(g *bipartite.Graph) (Matching, bool) {
	if g.LeftCount() != g.RightCount() {
		return Matching{}, false
	}
	m := Maximum(g)
	if m.Size != g.LeftCount() {
		return Matching{}, false
	}
	return m, true
}

// bottleneckSearch is the working state of one run of the Figure-6
// bottleneck procedure: Kuhn's augmenting-path search over the edges
// inserted so far. adj is CSR with full-degree offsets in base; the
// inserted edges of left node l occupy adj[base[l] : base[l]+fill[l]] in
// insertion (weight) order.
type bottleneckSearch struct {
	g          *bipartite.Graph
	base, fill []int
	adj        []int
	matchL     []int
	matchR     []int
	visitedR   []int
	stamp      int
	size       int
}

// augment searches an augmenting path from left node l over the inserted
// edges (Kuhn DFS with visit stamps).
func (s *bottleneckSearch) augment(l int) bool {
	end := s.base[l] + s.fill[l]
	for i := s.base[l]; i < end; i++ {
		edge := s.adj[i]
		r := s.g.Edge(edge).R
		if s.visitedR[r] == s.stamp {
			continue
		}
		s.visitedR[r] = s.stamp
		me := s.matchR[r]
		if me < 0 || s.augment(s.g.Edge(me).L) {
			s.matchL[l] = edge
			s.matchR[r] = edge
			return true
		}
	}
	return false
}

// tryGrow attempts one augmentation from any free left node; returns true
// if the matching grew.
func (s *bottleneckSearch) tryGrow() bool {
	for l := range s.matchL {
		if s.matchL[l] >= 0 || s.fill[l] == 0 {
			continue
		}
		s.stamp++
		if s.augment(l) {
			s.size++
			return true
		}
	}
	return false
}

// bottleneck implements the paper's Figure-6 procedure generalized to a
// target cardinality: edges are inserted in decreasing weight order; after
// each insertion we try to grow the matching; we stop as soon as the
// matching reaches target. The resulting matching maximizes the minimum
// edge weight among all matchings of that cardinality.
func bottleneck(g *bipartite.Graph, target int) (Matching, bool) {
	nL, nR, m := g.LeftCount(), g.RightCount(), g.EdgeCount()
	if target == 0 {
		out := make([]int, nL)
		for i := range out {
			out[i] = -1
		}
		return Matching{EdgeOfLeft: out}, true
	}
	order := make([]int, m)
	weights := make([]int64, m)
	for i := range order {
		order[i] = i
		weights[i] = g.Edge(i).Weight
	}
	// Index tiebreak for equal weights: without it the permutation of a
	// weight class is at the mercy of the sort implementation, and the
	// chosen matching with it.
	sort.Sort(edgeIdxByWeightDesc{idx: order, w: weights})
	s := &bottleneckSearch{
		g:        g,
		base:     make([]int, nL+1),
		fill:     make([]int, nL),
		adj:      make([]int, m),
		matchL:   make([]int, nL),
		matchR:   make([]int, nR),
		visitedR: make([]int, nR),
	}
	for i := 0; i < m; i++ {
		s.base[g.Edge(i).L+1]++
	}
	for i := 0; i < nL; i++ {
		s.base[i+1] += s.base[i]
	}
	for i := range s.matchL {
		s.matchL[i] = -1
	}
	for i := range s.matchR {
		s.matchR[i] = -1
	}
	i := 0
	for i < m {
		// Insert the whole group of equal-weight edges before augmenting:
		// augmentation order within a weight class cannot change the
		// bottleneck value, and batching keeps the loop simple.
		w := weights[order[i]]
		for i < m && weights[order[i]] == w {
			e := order[i]
			l := g.Edge(e).L
			s.adj[s.base[l]+s.fill[l]] = e
			s.fill[l]++
			i++
		}
		for s.size < target && s.tryGrow() {
		}
		if s.size == target {
			return Matching{EdgeOfLeft: s.matchL, Size: s.size}, true
		}
	}
	return Matching{}, false
}

// BottleneckPerfect returns a perfect matching of g maximizing the minimum
// edge weight, or ok=false if g has no perfect matching.
func BottleneckPerfect(g *bipartite.Graph) (Matching, bool) {
	if g.LeftCount() != g.RightCount() {
		return Matching{}, false
	}
	return bottleneck(g, g.LeftCount())
}

// BottleneckMaximum returns a maximum-cardinality matching of g whose
// minimum edge weight is maximum among all maximum matchings.
func BottleneckMaximum(g *bipartite.Graph) Matching {
	max := Maximum(g)
	m, ok := bottleneck(g, max.Size)
	if !ok {
		// Unreachable: the full edge set admits a matching of size max.Size.
		return max
	}
	return m
}

// Validate checks that m is a well-formed matching of g: edge indices in
// range, consistency of EdgeOfLeft, and no shared right endpoints. The
// seen-rights set is a bitset row (bipartite.RowWords), not a map — the
// fuzz targets call Validate in their innermost loops.
func Validate(g *bipartite.Graph, m Matching) bool {
	if len(m.EdgeOfLeft) != g.LeftCount() {
		return false
	}
	seenR := make([]uint64, g.RowWords())
	count := 0
	for l, e := range m.EdgeOfLeft {
		if e < 0 {
			continue
		}
		if e >= g.EdgeCount() {
			return false
		}
		edge := g.Edge(e)
		if edge.L != l {
			return false
		}
		bit := uint64(1) << uint(edge.R&63)
		if seenR[edge.R>>6]&bit != 0 {
			return false
		}
		seenR[edge.R>>6] |= bit
		count++
	}
	return count == m.Size
}
