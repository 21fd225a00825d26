package kpbs

import (
	"math/rand"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
	"redistgo/internal/trafficgen"
)

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

// BenchmarkBitsetSolve measures a cold solve of the matching-core
// workloads that the solver profiles cite, with the kernel arm that
// matching.EngineAuto picks:
//
//   - DenseGGP64: the 64x64 dense GGP instance, on the bitset arm.
//   - DenseOGGP64 and DenseMinSteps64: the bottleneck matcher on the same
//     dense instance, on the bitset arm. MinSteps peels unit weights, so
//     every matched real edge dies at each peel and every peel re-matches
//     almost all nodes: the case where the word-parallel search matters.
//   - PowerLawOGGP: the bottleneck matcher on a power-law instance too
//     sparse for the bitset arm (scalar arm), solved whole.
//   - ShardedPowerLawOGGP: the served OGGP path. 32 power-law 256x256
//     instances (2,000 flows, seeds 1–32) go through Solve under
//     ShardAuto, one per op in turn, so each op also splits the instance
//     into components and packs their steps.
//   - SparseChainGGP and SparseStarGGP: degree-1 heavy GGP workloads on the
//     scalar arm.
//
// make check runs every row once (-benchtime=1x) as a smoke.
func BenchmarkBitsetSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dense := denseGraph(rng, 64, 20)
	solveWith := func(k int, alg Algorithm) func(*bipartite.Graph) (*Schedule, error) {
		return func(g *bipartite.Graph) (*Schedule, error) {
			return Solve(g, k, 1, Options{Algorithm: alg})
		}
	}
	served := make([]*bipartite.Graph, 32)
	for i := range served {
		served[i] = powerLawGraph(b, int64(i+1), 256, 2000)
	}
	workloads := []struct {
		name   string
		graphs []*bipartite.Graph // solved in turn, one per op
		solve  func(*bipartite.Graph) (*Schedule, error)
	}{
		{"DenseGGP64", []*bipartite.Graph{dense}, solveWith(32, GGP)},
		{"DenseOGGP64", []*bipartite.Graph{dense}, solveWith(32, OGGP)},
		{"DenseMinSteps64", []*bipartite.Graph{dense}, solveWith(32, MinSteps)},
		{"PowerLawOGGP", []*bipartite.Graph{powerLawGraph(b, 1, 256, 2000)}, solveWith(32, OGGP)},
		{"ShardedPowerLawOGGP", served, func(g *bipartite.Graph) (*Schedule, error) {
			return Solve(g, 32, 1, Options{Algorithm: OGGP, Shard: ShardAuto})
		}},
		{"SparseChainGGP", []*bipartite.Graph{chainGraph(b, 2, 256)}, solveWith(16, GGP)},
		{"SparseStarGGP", []*bipartite.Graph{starGraph(b, 3, 16, 16)}, solveWith(16, GGP)},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			// One untimed solve of every graph absorbs process-cold effects
			// (binary page-in, heap growth) that would otherwise inflate the
			// first sample on a cold container.
			for _, g := range w.graphs {
				if _, err := w.solve(g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := w.solve(w.graphs[i%len(w.graphs)])
				if err != nil {
					b.Fatal(err)
				}
				if len(s.Steps) == 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// TestForcedDiagonalSingleStep checks end to end that a diagonal
// equal-weight matrix, whose only perfect matching is forced, is scheduled
// in exactly one step on either engine arm.
func TestForcedDiagonalSingleStep(t *testing.T) {
	const n = 24
	g := bipartite.New(n, n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, i, 7)
	}
	for _, eng := range []matching.Engine{matching.EngineScalar, matching.EngineBitset} {
		s, err := Solve(g, n, 0, Options{Algorithm: GGP, engine: eng})
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
}
