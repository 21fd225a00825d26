package kpbs

import (
	"math"
	"testing"

	"redistgo/internal/bipartite"
)

// Regression tests for int64-boundary overflows in the arithmetic core:
// ceil-div near MaxInt64, β·ηs in the lower bound, peel·β in
// denormalize, and β·steps in the schedule cost. Before the switch to
// safemath these all wrapped negative.

func TestEtaDNoCeilDivOverflow(t *testing.T) {
	// A single edge of weight MaxInt64: the old (a+b-1)/b ceil-div wrapped
	// for any k ≥ 2.
	g := bipartite.New(1, 1)
	g.AddEdge(0, 0, math.MaxInt64)
	for _, k := range []int{1, 2, 3, 40} {
		if got := EtaD(g, k); got != math.MaxInt64 {
			// W(G) = MaxInt64 dominates ⌈P/k⌉ for every k.
			t.Fatalf("EtaD(k=%d) = %d, want MaxInt64", k, got)
		}
	}
}

func TestEtaDSaturatesTotalWeight(t *testing.T) {
	// Two edges whose sum exceeds MaxInt64: P(G) must saturate, not wrap.
	g := bipartite.New(2, 2)
	g.AddEdge(0, 0, math.MaxInt64/2+10)
	g.AddEdge(1, 1, math.MaxInt64/2+10)
	if got := EtaD(g, 1); got != math.MaxInt64 {
		t.Fatalf("EtaD = %d, want saturated MaxInt64", got)
	}
	if got := EtaD(g, 2); got < 0 {
		t.Fatalf("EtaD(k=2) wrapped negative: %d", got)
	}
}

func TestLowerBoundHugeBetaSaturates(t *testing.T) {
	g := bipartite.New(2, 2)
	g.AddEdge(0, 0, 5)
	g.AddEdge(1, 1, 7)
	for _, beta := range []int64{math.MaxInt64, math.MaxInt64 / 2, math.MaxInt64 - 1} {
		lb := LowerBound(g, 2, beta)
		if lb <= 0 {
			t.Fatalf("LowerBound(beta=%d) = %d, want positive (saturated)", beta, lb)
		}
	}
	if got := LowerBound(g, 2, math.MaxInt64); got != math.MaxInt64 {
		t.Fatalf("LowerBound(beta=MaxInt64) = %d, want MaxInt64", got)
	}
}

// TestSolveHugeBetaAllAlgorithms: with β near the int64 boundary the old
// denormalize computed alloc·β unchecked, producing negative amounts that
// Validate rejects (or silently dropped communications). Every algorithm
// must still emit a feasible schedule with positive saturated cost.
func TestSolveHugeBetaAllAlgorithms(t *testing.T) {
	g := mustGraph(t, [][]int64{
		{8, 3, 0},
		{0, 5, 2},
	})
	beta := int64(math.MaxInt64 / 2)
	for _, alg := range []Algorithm{GGP, OGGP, MinSteps, Greedy} {
		s, err := Solve(g, 2, beta, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := s.Validate(g, 2); err != nil {
			t.Fatalf("%v: infeasible schedule under huge beta: %v", alg, err)
		}
		if c := s.Cost(); c <= 0 {
			t.Fatalf("%v: cost %d, want positive saturated cost", alg, c)
		}
		if lb := LowerBound(g, 2, beta); s.Cost() < lb {
			t.Fatalf("%v: cost %d < lower bound %d", alg, s.Cost(), lb)
		}
	}
}

// TestSolveMaxWeightEdge: a single communication of weight MaxInt64 is a
// legal instance and must round-trip through augmentation and peeling.
func TestSolveMaxWeightEdge(t *testing.T) {
	g := bipartite.New(1, 1)
	g.AddEdge(0, 0, math.MaxInt64)
	for _, alg := range []Algorithm{GGP, OGGP, MinSteps, Greedy} {
		s, err := Solve(g, 3, 0, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := s.Validate(g, 3); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if s.TotalDuration() != math.MaxInt64 {
			t.Fatalf("%v: total duration %d, want MaxInt64", alg, s.TotalDuration())
		}
	}
}

// TestOversizedInstanceRejectedIdentically: instances whose normalized
// total weight cannot be represented are rejected by the shared
// validation path — with the same error for all four algorithms, so
// callers can switch algorithms without changing error handling.
func TestOversizedInstanceRejectedIdentically(t *testing.T) {
	g := bipartite.New(2, 2)
	g.AddEdge(0, 0, math.MaxInt64/2+10)
	g.AddEdge(1, 1, math.MaxInt64/2+10)
	var firstErr string
	for i, alg := range []Algorithm{GGP, OGGP, MinSteps, Greedy} {
		_, err := Solve(g, 2, 0, Options{Algorithm: alg})
		if err == nil {
			t.Fatalf("%v: oversized instance accepted", alg)
		}
		if i == 0 {
			firstErr = err.Error()
		} else if err.Error() != firstErr {
			t.Fatalf("%v: error %q differs from %q", alg, err.Error(), firstErr)
		}
	}
}

// TestInvalidParamsRejectedIdentically: every algorithm rejects bad k and
// β with identical errors through the shared validation path.
func TestInvalidParamsRejectedIdentically(t *testing.T) {
	g := mustGraph(t, [][]int64{{4, 2}, {1, 3}})
	cases := []struct {
		name string
		k    int
		beta int64
	}{
		{"zero-k", 0, 1},
		{"negative-k", -4, 1},
		{"negative-beta", 2, -1},
	}
	for _, c := range cases {
		var firstErr string
		for i, alg := range []Algorithm{GGP, OGGP, MinSteps, Greedy} {
			_, err := Solve(g, c.k, c.beta, Options{Algorithm: alg})
			if err == nil {
				t.Fatalf("%s: %v accepted k=%d beta=%d", c.name, alg, c.k, c.beta)
			}
			if i == 0 {
				firstErr = err.Error()
			} else if err.Error() != firstErr {
				t.Fatalf("%s: %v error %q differs from %q", c.name, alg, err.Error(), firstErr)
			}
		}
	}
}

// TestRefusesHugeSides: a Comm holds its endpoints as int32, so every
// entry point refuses a graph with more than math.MaxInt32 nodes on either
// side, and does so before it sizes anything by the node counts: without
// the check, a graph that only declares such a side (one edge, 2^40 left
// nodes) dies in validateInstance's node sums with a fatal out-of-memory
// error, which no recover can catch.
func TestRefusesHugeSides(t *testing.T) {
	for _, sides := range [][2]int{{1 << 40, 2}, {2, math.MaxInt32 + 1}, {math.MaxInt32 + 1, math.MaxInt32 + 1}} {
		g := bipartite.New(sides[0], sides[1])
		g.AddEdge(0, 0, 5)
		for _, alg := range []Algorithm{GGP, OGGP, MinSteps, Greedy} {
			for _, shard := range []ShardMode{ShardOff, ShardAuto} {
				if _, err := Solve(g, 1, 1, Options{Algorithm: alg, Shard: shard}); err == nil {
					t.Errorf("Solve %dx%d %v shard %v: no error", sides[0], sides[1], alg, shard)
				}
			}
		}
		if _, err := NewResult(g, 1, 1, Options{}); err == nil {
			t.Errorf("NewResult %dx%d: no error", sides[0], sides[1])
		}
		for _, bottleneck := range []bool{false, true} {
			if _, err := SolveWRGP(g, bottleneck); err == nil {
				t.Errorf("SolveWRGP %dx%d bottleneck=%v: no error", sides[0], sides[1], bottleneck)
			}
		}
	}
	// The balanced edgeless graph WRGP answers with an empty schedule is
	// refused too once a side is too large.
	if _, err := SolveWRGP(bipartite.New(math.MaxInt32+1, math.MaxInt32+1), false); err == nil {
		t.Error("SolveWRGP on an edgeless graph with oversized sides: no error")
	}
}
