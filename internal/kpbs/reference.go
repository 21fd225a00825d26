package kpbs

import (
	"fmt"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
)

// This file retains the pre-incremental, cold-start peeling loop verbatim.
// It is not on any production path: it exists as the differential oracle
// for FuzzPeelDifferential and as the "old" side of the bench-compare
// harness (Makefile bench-compare), so the incremental engine in
// residual.go can be checked and measured against the original algorithm
// forever, not just against a one-off snapshot.
//
// Unlike the incremental peeler, peelReference consumes the instance: it
// materializes the residual graph with asGraph and mutates in.edges weights
// as it peels. Callers must build a fresh instance per run.

// peelReference is the original WRGP loop: a brand-new bipartite.Graph and
// a from-scratch matching (Hopcroft–Karp or the Figure-6 bottleneck
// procedure) at every iteration.
func (in *instance) peelReference(kind matcherKind) ([]normStep, error) {
	var steps []normStep
	// One bottleneck scratch for the whole run: each iteration still sorts
	// and grows from scratch (that is the point of the oracle), but the
	// probe's adjacency/match/visit buffers are reused instead of
	// re-allocated per peel. Traversal order is unchanged.
	var bs matching.BottleneckScratch
	remaining := in.regular
	maxIter := len(in.edges) + 1
	for iter := 0; remaining > 0; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("kpbs: peeling did not terminate after %d iterations", maxIter)
		}
		g, idx := in.asGraph()
		var m matching.Matching
		var ok bool
		switch kind {
		case matchBottleneck:
			m, ok = bs.Perfect(g)
		default:
			m, ok = matching.Perfect(g)
		}
		if !ok {
			return nil, fmt.Errorf("kpbs: no perfect matching in weight-regular graph (R=%d, remaining=%d); augmentation is broken", in.regular, remaining)
		}
		w := m.MinWeight(g)
		if w <= 0 {
			return nil, fmt.Errorf("kpbs: matching with non-positive minimum weight %d", w)
		}
		step := normStep{peel: w}
		for _, ge := range m.Edges() {
			we := idx[ge]
			in.edges[we].w -= w
			if we < in.nReal {
				step.comms = append(step.comms, int32(we))
			}
		}
		if len(step.comms) > 0 {
			steps = append(steps, step)
		}
		remaining -= w
	}
	for _, e := range in.edges {
		if e.w != 0 {
			return nil, fmt.Errorf("kpbs: edge (%d,%d) has residual weight %d after peeling", e.l, e.r, e.w)
		}
	}
	return steps, nil
}

// solvePeelingReference mirrors solvePeeling on top of peelReference. It is
// the end-to-end "pre-incremental Solve" used by the differential fuzz
// target and the bench-compare baseline.
func solvePeelingReference(g *bipartite.Graph, k int, beta int64, kind matcherKind, unitWeights bool) (*Schedule, error) {
	in, err := buildInstance(g, k, beta, unitWeights)
	if err != nil {
		return nil, err
	}
	if in == nil {
		return &Schedule{Beta: beta}, nil
	}
	steps, err := in.peelReference(kind)
	if err != nil {
		return nil, err
	}
	return coldSchedule(g, steps, beta, unitWeights), nil
}

// solveReference dispatches an Algorithm to the reference pipeline,
// mirroring Solve for the peeling algorithms.
func solveReference(g *bipartite.Graph, k int, beta int64, alg Algorithm) (*Schedule, error) {
	switch alg {
	case GGP:
		return solvePeelingReference(g, k, beta, matchAny, false)
	case OGGP:
		return solvePeelingReference(g, k, beta, matchBottleneck, false)
	case MinSteps:
		return solvePeelingReference(g, k, beta, matchBottleneck, true)
	}
	return nil, fmt.Errorf("kpbs: no reference pipeline for algorithm %v", alg)
}
