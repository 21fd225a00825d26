// Package bipartite implements the weighted bipartite multigraph substrate
// used by the K-PBS schedulers.
//
// A Graph has nLeft left-side nodes (the sending cluster) and nRight
// right-side nodes (the receiving cluster). Edges carry strictly positive
// integer weights representing communication durations in abstract time
// units (paper notation: f(e) = c_ij = m_ij / t). Parallel edges between
// the same node pair are permitted; the scheduling layer treats them as
// distinct messages.
//
// The package mirrors the paper's §2.3 notation:
//
//	m = |E|            Graph.EdgeCount
//	n = |V1| + |V2|    Graph.NodeCount
//	Δ(G)               Graph.MaxDegree
//	P(G) = Σ f(e)      Graph.TotalWeight
//	w(s)               Graph.LeftWeight / Graph.RightWeight
//	W(G) = max w(s)    Graph.MaxNodeWeight
package bipartite

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Side distinguishes the two node classes of a bipartite graph.
type Side int

const (
	// Left is the sending cluster (paper: V1 / C1).
	Left Side = iota
	// Right is the receiving cluster (paper: V2 / C2).
	Right
)

// String returns "left" or "right".
func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// Edge is a weighted edge between left node L and right node R.
type Edge struct {
	L, R   int
	Weight int64
}

// Graph is a weighted bipartite multigraph. The zero value is an empty
// graph with no nodes; use New to size the vertex sets.
type Graph struct {
	nLeft, nRight int
	edges         []Edge
}

// New returns an empty graph with nLeft left nodes and nRight right nodes.
// Negative sizes are clamped to zero.
func New(nLeft, nRight int) *Graph {
	if nLeft < 0 {
		nLeft = 0
	}
	if nRight < 0 {
		nRight = 0
	}
	return &Graph{nLeft: nLeft, nRight: nRight}
}

// FromMatrix builds a graph from a traffic/communication matrix: entry
// m[i][j] > 0 becomes an edge (i, j, m[i][j]). Rows may have differing
// lengths; the number of right nodes is the longest row. Negative entries
// are rejected.
func FromMatrix(m [][]int64) (*Graph, error) {
	nRight := 0
	for _, row := range m {
		if len(row) > nRight {
			nRight = len(row)
		}
	}
	g := New(len(m), nRight)
	for i, row := range m {
		for j, w := range row {
			if w < 0 {
				return nil, fmt.Errorf("bipartite: negative weight %d at (%d,%d)", w, i, j)
			}
			if w > 0 {
				g.edges = append(g.edges, Edge{L: i, R: j, Weight: w})
			}
		}
	}
	return g, nil
}

// FromEdges returns a graph with nLeft left and nRight right nodes whose
// edge list is edges itself, not a copy: the graph takes ownership of the
// slice, and the caller must not modify it afterwards. It checks every edge
// as AddEdge does and panics on the first out-of-range endpoint or
// non-positive weight. Negative sizes are clamped to zero, as in New.
func FromEdges(nLeft, nRight int, edges []Edge) *Graph {
	g := New(nLeft, nRight)
	for _, e := range edges {
		g.checkEdge(e.L, e.R, e.Weight)
	}
	g.edges = edges
	return g
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{nLeft: g.nLeft, nRight: g.nRight}
	c.edges = append([]Edge(nil), g.edges...)
	return c
}

// Grow reserves room for n more edges, so that the next n AddEdge calls
// append without reallocating. A builder that knows its edge count calls
// it once instead of letting AddEdge grow the edge list step by step.
func (g *Graph) Grow(n int) { g.edges = slices.Grow(g.edges, n) }

// AddEdge appends an edge of the given weight. It panics if the endpoints
// are out of range or the weight is not positive; graph construction errors
// are programming errors at this layer (FromMatrix validates user input).
func (g *Graph) AddEdge(l, r int, weight int64) {
	g.checkEdge(l, r, weight)
	g.edges = append(g.edges, Edge{L: l, R: r, Weight: weight})
}

// checkEdge panics unless (l, r) lies in g's node ranges and weight is
// positive.
func (g *Graph) checkEdge(l, r int, weight int64) {
	if l < 0 || l >= g.nLeft {
		panic(fmt.Sprintf("bipartite: left node %d out of range [0,%d)", l, g.nLeft))
	}
	if r < 0 || r >= g.nRight {
		panic(fmt.Sprintf("bipartite: right node %d out of range [0,%d)", r, g.nRight))
	}
	if weight <= 0 {
		panic(fmt.Sprintf("bipartite: non-positive weight %d", weight))
	}
}

// LeftCount returns |V1|.
func (g *Graph) LeftCount() int { return g.nLeft }

// RightCount returns |V2|.
func (g *Graph) RightCount() int { return g.nRight }

// NodeCount returns n = |V1| + |V2|.
func (g *Graph) NodeCount() int { return g.nLeft + g.nRight }

// EdgeCount returns m = |E|.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge { return append([]Edge(nil), g.edges...) }

// SetWeight overwrites the weight of edge i. The new weight must be
// positive: a graph holds no zero-weight edges.
func (g *Graph) SetWeight(i int, w int64) {
	if w <= 0 {
		panic(fmt.Sprintf("bipartite: non-positive weight %d", w))
	}
	g.edges[i].Weight = w
}

// TotalWeight returns P(G) = Σ_e f(e).
func (g *Graph) TotalWeight() int64 {
	var p int64
	for _, e := range g.edges {
		p += e.Weight
	}
	return p
}

// LeftWeights returns w(s) for every left node.
func (g *Graph) LeftWeights() []int64 {
	w := make([]int64, g.nLeft)
	for _, e := range g.edges {
		w[e.L] += e.Weight
	}
	return w
}

// RightWeights returns w(s) for every right node.
func (g *Graph) RightWeights() []int64 {
	w := make([]int64, g.nRight)
	for _, e := range g.edges {
		w[e.R] += e.Weight
	}
	return w
}

// MaxNodeWeight returns W(G) = max_s w(s) over all nodes of both sides.
// It is 0 for an edgeless graph.
func (g *Graph) MaxNodeWeight() int64 {
	var max int64
	for _, w := range g.LeftWeights() {
		if w > max {
			max = w
		}
	}
	for _, w := range g.RightWeights() {
		if w > max {
			max = w
		}
	}
	return max
}

// LeftDegrees returns Δ(s) for every left node.
func (g *Graph) LeftDegrees() []int {
	d := make([]int, g.nLeft)
	for _, e := range g.edges {
		d[e.L]++
	}
	return d
}

// RightDegrees returns Δ(s) for every right node.
func (g *Graph) RightDegrees() []int {
	d := make([]int, g.nRight)
	for _, e := range g.edges {
		d[e.R]++
	}
	return d
}

// MaxDegree returns Δ(G), the maximum node degree over both sides.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, d := range g.LeftDegrees() {
		if d > max {
			max = d
		}
	}
	for _, d := range g.RightDegrees() {
		if d > max {
			max = d
		}
	}
	return max
}

// ActiveLeft returns the number of left nodes with at least one edge.
func (g *Graph) ActiveLeft() int {
	n := 0
	for _, d := range g.LeftDegrees() {
		if d > 0 {
			n++
		}
	}
	return n
}

// ActiveRight returns the number of right nodes with at least one edge.
func (g *Graph) ActiveRight() int {
	n := 0
	for _, d := range g.RightDegrees() {
		if d > 0 {
			n++
		}
	}
	return n
}

// RegularWeight returns (r, true) if the graph is weight-regular with
// common node weight r, and (0, false) otherwise. An edgeless graph with
// equal side sizes is 0-regular.
func (g *Graph) RegularWeight() (int64, bool) {
	lw := g.LeftWeights()
	rw := g.RightWeights()
	var r int64 = -1
	for _, w := range lw {
		if r == -1 {
			r = w
		} else if w != r {
			return 0, false
		}
	}
	for _, w := range rw {
		if r == -1 {
			r = w
		} else if w != r {
			return 0, false
		}
	}
	if r == -1 {
		r = 0
	}
	return r, true
}

// RowWords returns the number of uint64 words a bitset over the right
// vertex set occupies — the per-left-node row stride of AdjacencyRows and
// of the bitset matching kernels built on it.
func (g *Graph) RowWords() int { return (g.nRight + 63) / 64 }

// AdjacencyRows fills dst with one bitset row per left node: bit r of row
// l (word l·RowWords()+r/64) is set iff some edge joins l and r. Parallel
// edges collapse onto one bit. dst must have length nLeft·RowWords() and
// is zeroed first; pass nil to allocate. The filled slice is returned.
func (g *Graph) AdjacencyRows(dst []uint64) []uint64 {
	words := g.RowWords()
	n := g.nLeft * words
	if dst == nil {
		dst = make([]uint64, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("bipartite: AdjacencyRows dst length %d, want %d", len(dst), n))
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, e := range g.edges {
		dst[e.L*words+e.R/64] |= 1 << uint(e.R%64)
	}
	return dst
}

// MinWeight returns the smallest edge weight, or 0 for an edgeless graph.
func (g *Graph) MinWeight() int64 {
	if len(g.edges) == 0 {
		return 0
	}
	min := g.edges[0].Weight
	for _, e := range g.edges[1:] {
		if e.Weight < min {
			min = e.Weight
		}
	}
	return min
}

// MaxWeight returns the largest edge weight, or 0 for an edgeless graph.
func (g *Graph) MaxWeight() int64 {
	var max int64
	for _, e := range g.edges {
		if e.Weight > max {
			max = e.Weight
		}
	}
	return max
}

// ToMatrix renders the graph as an nLeft×nRight matrix, summing parallel
// edges.
func (g *Graph) ToMatrix() [][]int64 {
	m := make([][]int64, g.nLeft)
	backing := make([]int64, g.nLeft*g.nRight)
	for i := range m {
		m[i] = backing[i*g.nRight : (i+1)*g.nRight]
	}
	for _, e := range g.edges {
		m[e.L][e.R] += e.Weight
	}
	return m
}

// Equal reports whether g and h have the same node counts and the same
// multiset of edges (order-insensitive).
func (g *Graph) Equal(h *Graph) bool {
	if g.nLeft != h.nLeft || g.nRight != h.nRight || len(g.edges) != len(h.edges) {
		return false
	}
	a := append([]Edge(nil), g.edges...)
	b := append([]Edge(nil), h.edges...)
	less := func(s []Edge) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].L != s[j].L {
				return s[i].L < s[j].L
			}
			if s[i].R != s[j].R {
				return s[i].R < s[j].R
			}
			return s[i].Weight < s[j].Weight
		}
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders a compact description, e.g. "bipartite(3x4, 5 edges)".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bipartite(%dx%d, %d edges)", g.nLeft, g.nRight, len(g.edges))
	return b.String()
}

// Validate checks structural invariants: endpoints in range and weights
// strictly positive. It returns nil for a well-formed graph.
func (g *Graph) Validate() error {
	for i, e := range g.edges {
		if e.L < 0 || e.L >= g.nLeft {
			return fmt.Errorf("bipartite: edge %d left endpoint %d out of range [0,%d)", i, e.L, g.nLeft)
		}
		if e.R < 0 || e.R >= g.nRight {
			return fmt.Errorf("bipartite: edge %d right endpoint %d out of range [0,%d)", i, e.R, g.nRight)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("bipartite: edge %d has non-positive weight %d", i, e.Weight)
		}
	}
	return nil
}
