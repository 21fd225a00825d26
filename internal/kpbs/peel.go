package kpbs

import (
	"fmt"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
	"redistgo/internal/obs"
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

// peel runs the WRGP loop (paper §4.1, Figure 3) on the augmented
// weight-regular instance through the incremental engine (see residual.go):
// the perfect matching is repaired across iterations instead of recomputed,
// and the residual graph is mutated in place instead of rematerialized. eng
// selects the matching kernels (scalar or bitset; auto resolves by
// density). so — nil to disable — receives one event per peeling
// iteration; it observes the loop and never steers it.
func (in *instance) peel(kind matcherKind, eng matching.Engine, so *obs.SolverObs) ([]normStep, error) {
	p := newPeeler(in, kind, eng)
	p.so = so
	return p.run()
}

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
		nReal:   g.EdgeCount(),
		nL:      g.LeftCount(),
		nR:      g.RightCount(),
		realL:   g.LeftCount(),
		realR:   g.RightCount(),
		k:       g.LeftCount(),
		regular: r,
	}
	in.mapL = make([]int, in.realL)
	in.mapR = make([]int, in.realR)
	for i := range in.mapL {
		in.mapL[i] = i
	}
	for i := range in.mapR {
		in.mapR[i] = i
	}
	in.edges = make([]workEdge, g.EdgeCount())
	for i := range in.edges {
		e := g.Edge(i)
		in.edges[i] = workEdge{l: e.L, r: e.R, w: e.Weight}
	}
	return in.peel(kind, matching.EngineAuto, nil)
}
