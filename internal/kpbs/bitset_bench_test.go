package kpbs

import (
	"math/rand"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
	"redistgo/internal/trafficgen"
)

// solvePeelingOldArm replicates solvePeeling with the matching core pinned
// to its pre-bitset behavior: scalar kernels, forced-edge fast path off.
// This is the benchmark baseline the >= 2x acceptance gate compares
// against (BENCH_PR2's engine); it is not reachable through Options.
func solvePeelingOldArm(g *bipartite.Graph, k int, beta int64, kind matcherKind) (*Schedule, error) {
	in, err := buildInstance(g, k, beta, false)
	if err != nil {
		return nil, err
	}
	if in == nil {
		return &Schedule{Beta: beta}, nil
	}
	p := newPeeler(in, kind, matching.EngineScalar)
	if p.inc != nil {
		p.inc.SetForcedPath(false)
	}
	steps, err := p.run()
	if err != nil {
		return nil, err
	}
	return coldSchedule(g, steps, beta, false), nil
}

func chainGraph(b *testing.B, seed int64, n int) *bipartite.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := bipartite.FromMatrix(trafficgen.Chain(rng, n, 1, 50))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func starGraph(b *testing.B, seed int64, hubs, leaves int) *bipartite.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := bipartite.FromMatrix(trafficgen.StarForest(rng, hubs, leaves, 1, 50))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkBitsetSolve measures the bitset matching core against the
// pre-bitset scalar engine across the PR's acceptance workloads:
//
//   - DenseGGP64 is the gated workload (benchcompare -min-speedup 2): the
//     64x64 dense instance of BENCH_PR2, where word-parallel frontier
//     sweeps replace per-edge adjacency scans.
//
//   - DenseOGGP64 and PowerLawOGGP are controls (>= 0.95): the bottleneck
//     matcher gains less from bitsets (insertion dominates), and the
//     power-law instance is too sparse for the bitset arm — auto must
//     resolve scalar and cost nothing.
//
//   - SparseChainGGP and SparseStarGGP are the degree-1 workloads: auto
//     resolves scalar (sparse), and the forced-edge pass replaces BFS
//     phases outright. Controls at >= 0.95; the forced pass usually wins
//     well above that but is not separately gated.
//
//     make bench-bitset     # full comparison, writes BENCH_PR7.json
func BenchmarkBitsetSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dense := denseGraph(rng, 64, 20)
	workloads := []struct {
		name string
		g    *bipartite.Graph
		k    int
		beta int64
		kind matcherKind
	}{
		{"DenseGGP64", dense, 32, 1, matchAny},
		{"DenseOGGP64", dense, 32, 1, matchBottleneck},
		{"PowerLawOGGP", powerLawGraph(b, 1, 256, 2000), 32, 1, matchBottleneck},
		{"SparseChainGGP", chainGraph(b, 2, 256), 16, 1, matchAny},
		{"SparseStarGGP", starGraph(b, 3, 16, 16), 16, 1, matchAny},
	}
	for _, w := range workloads {
		run := func(old bool) func(b *testing.B) {
			return func(b *testing.B) {
				solve := func() (*Schedule, error) {
					if old {
						return solvePeelingOldArm(w.g, w.k, w.beta, w.kind)
					}
					return solvePeeling(w.g, w.k, w.beta, w.kind, false, matching.EngineAuto, nil)
				}
				// One untimed solve absorbs process-cold effects (binary
				// page-in, heap growth) that would otherwise inflate the
				// first sample on a cold container.
				if _, err := solve(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := solve()
					if err != nil {
						b.Fatal(err)
					}
					if len(s.Steps) == 0 {
						b.Fatal("empty schedule")
					}
				}
			}
		}
		b.Run(w.name+"/old", run(true))
		b.Run(w.name+"/new", run(false))
	}
}

// TestForcedDiagonalSingleStep pins the forced-edge fast path end to end:
// a diagonal equal-weight matrix is a permutation instance, so the peeler
// must emit exactly one step and the matching core must never run a
// Hopcroft–Karp BFS phase — the forced cascade alone matches everything —
// on either engine arm.
func TestForcedDiagonalSingleStep(t *testing.T) {
	const n = 24
	g := bipartite.New(n, n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i, 7)
	}
	for _, eng := range []MatcherEngine{EngineScalar, EngineBitset} {
		s, err := Solve(g, n, 0, Options{Algorithm: GGP, Engine: eng})
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if len(s.Steps) != 1 {
			t.Fatalf("%v: %d steps, want 1:\n%s", eng, len(s.Steps), s)
		}
		if err := s.Validate(g, n); err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
	}
	in, err := buildInstance(g, n, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []matching.Engine{matching.EngineScalar, matching.EngineBitset} {
		p := newPeeler(in, matchAny, eng)
		if _, err := p.run(); err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		if runs := p.inc.BFSRuns(); runs != 0 {
			t.Fatalf("%v: %d BFS phases, want 0 (forced pass must match the diagonal)", eng, runs)
		}
	}
}
