package kpbs

import (
	"fmt"
	"math"

	"redistgo/internal/bipartite"
	"redistgo/internal/safemath"
)

// checkSides refuses a graph with more than math.MaxInt32 nodes on either
// side, because a Comm holds its endpoints as int32 (DESIGN.md, "Normalized
// steps are edge indices"). Every entry point runs it before it sizes
// anything by the node counts, so a graph that only declares a huge side
// fails with an error instead of exhausting memory.
func checkSides(g *bipartite.Graph) error {
	if g.LeftCount() > math.MaxInt32 || g.RightCount() > math.MaxInt32 {
		return fmt.Errorf("kpbs: graph sides %dx%d exceed %d nodes", g.LeftCount(), g.RightCount(), math.MaxInt32)
	}
	return nil
}

// validateInstance is the single validation path shared by every
// algorithm (GGP, OGGP, MinSteps, Greedy): all of them accept and reject
// exactly the same (g, k, β) triples, so callers can switch algorithms
// without changing their error handling. It checks the algorithm, the
// parameters, the graph invariants, and that the instance's aggregate
// quantities fit in int64 once normalized — oversized instances are
// rejected up front instead of overflowing deep inside the augmentation,
// and a side above math.MaxInt32 nodes before the node sums are sized.
// Each solve runs it once, on the whole graph (Solve and Result.recompute).
// sums is scratch for the per-node weight sums: a Result passes a buffer
// of g's node count that it keeps, Solve passes nil and one is allocated.
func validateInstance(g *bipartite.Graph, k int, beta int64, alg Algorithm, sums []int64) error {
	switch alg {
	case GGP, OGGP, MinSteps, Greedy:
	default:
		return fmt.Errorf("kpbs: unknown algorithm %v", alg)
	}
	if k <= 0 {
		return fmt.Errorf("kpbs: k must be positive, got %d", k)
	}
	if beta < 0 {
		return fmt.Errorf("kpbs: beta must be non-negative, got %d", beta)
	}
	if g == nil {
		return fmt.Errorf("kpbs: nil graph")
	}
	if err := checkSides(g); err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return err
	}
	// The augmentation needs W(G)·k and the total normalized weight to be
	// representable (filler phase computes both); reject instances where
	// they are not rather than wrap around.
	var total int64
	var maxNode int64
	sums = ensureInt64s(sums, g.NodeCount())
	clear(sums)
	lw, rw := sums[:g.LeftCount()], sums[g.LeftCount():]
	activeL, activeR := 0, 0
	for i := 0; i < g.EdgeCount(); i++ {
		e := g.Edge(i)
		w := normalizeWeight(e.Weight, beta)
		var ok bool
		if total, ok = safemath.AddChecked(total, w); !ok {
			return fmt.Errorf("kpbs: total normalized weight overflows int64")
		}
		if lw[e.L] == 0 {
			activeL++
		}
		if rw[e.R] == 0 {
			activeR++
		}
		lw[e.L] = safemath.Add(lw[e.L], w)
		rw[e.R] = safemath.Add(rw[e.R], w)
	}
	for _, w := range lw {
		if w > maxNode {
			maxNode = w
		}
	}
	for _, w := range rw {
		if w > maxNode {
			maxNode = w
		}
	}
	// The augmentation clamps k to the active node counts (larger values
	// are equivalent, paper §2.4), so the overflow gate uses the same
	// effective k.
	kEff := int64(k)
	if int64(activeL) < kEff {
		kEff = int64(activeL)
	}
	if int64(activeR) < kEff {
		kEff = int64(activeR)
	}
	if _, ok := safemath.MulChecked(maxNode, kEff); !ok {
		return fmt.Errorf("kpbs: W(G)·k overflows int64 (W=%d, k=%d)", maxNode, kEff)
	}
	return nil
}
