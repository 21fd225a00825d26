package kpbs

import (
	"fmt"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
)

// normStep is a peeled step in normalized units. peel is the amount
// subtracted from every matched edge (virtual ones included); comms lists
// the original-edge indices of the real ones, each allotted peel
// normalized time units.
type normStep struct {
	comms []int32
	peel  int64
}

// matcherKind selects the perfect-matching strategy used by the peeler:
// it is the mode of the one incremental matcher.
type matcherKind = matching.Mode

const (
	// matchAny uses any perfect matching — GGP (§4.2).
	matchAny = matching.ModeAny
	// matchBottleneck maximizes the minimum matched weight — OGGP (§4.3),
	// the paper's Figure-6 procedure.
	matchBottleneck = matching.ModeBottleneck
)

// wrgpGraph runs plain WRGP on an already weight-regular balanced graph
// without any augmentation or normalization (paper §4.1: k unbounded,
// β ignored). Exposed through SolveWRGP for completeness and tests.
func wrgpGraph(g *bipartite.Graph, kind matcherKind) ([]normStep, error) {
	r, ok := g.RegularWeight()
	if !ok {
		return nil, fmt.Errorf("kpbs: WRGP requires a weight-regular graph")
	}
	if g.LeftCount() != g.RightCount() {
		return nil, fmt.Errorf("kpbs: WRGP requires a balanced graph, got %dx%d", g.LeftCount(), g.RightCount())
	}
	in := &instance{
		edges:   make([]workEdge, g.EdgeCount()),
		nReal:   g.EdgeCount(),
		nL:      g.LeftCount(),
		nR:      g.RightCount(),
		realL:   g.LeftCount(),
		realR:   g.RightCount(),
		k:       g.LeftCount(),
		regular: r,
	}
	for i := range in.edges {
		e := g.Edge(i)
		in.edges[i] = workEdge{l: e.L, r: e.R, w: e.Weight}
	}
	var p peeler
	p.init(in, kind, matching.EngineAuto)
	return p.run()
}
