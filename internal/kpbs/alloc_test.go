package kpbs

import (
	"math/rand"
	"runtime"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
)

// denseGraph builds an n×n instance with every pair connected, weights
// U[1,maxW] — the dense workload the acceptance criteria benchmark.
func denseGraph(rng *rand.Rand, n int, maxW int64) *bipartite.Graph {
	g := bipartite.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.AddEdge(i, j, 1+rng.Int63n(maxW))
		}
	}
	return g
}

// peelAllocsZero warms a peeler up on an instance (sizing its arenas and
// matcher scratch), then asserts reset+run performs zero allocations.
func peelAllocsZero(t *testing.T, g *bipartite.Graph, kind matcherKind, eng matching.Engine) *peeler {
	t.Helper()
	p := new(peeler)
	p.init(wholeInstance(g, 8, 1, false), kind, eng)
	warm, err := p.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) == 0 {
		t.Fatal("warm-up run produced no steps")
	}
	var runErr error
	var steps int
	avg := testing.AllocsPerRun(20, func() {
		p.reset()
		s, err := p.run()
		if err != nil {
			runErr = err
		}
		steps = len(s)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if steps != len(warm) {
		t.Fatalf("steady-state run produced %d steps, warm-up %d", steps, len(warm))
	}
	if avg != 0 {
		t.Fatalf("peel loop allocates at steady state: %.1f allocs/run, want 0", avg)
	}
	return p
}

// TestPeelSteadyStateAllocs is the benchmark-guard from the issue: once a
// peeler has warmed up, reset+run must perform zero allocations for both
// the GGP and the OGGP/MinSteps matchers. Pinned to the scalar kernels;
// TestBitsetSteadyStateAllocs covers the bitset arm.
func TestPeelSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := denseGraph(rng, 16, 20)
	for _, tc := range []struct {
		name string
		kind matcherKind
	}{
		{"GGP", matchAny},
		{"OGGP", matchBottleneck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peelAllocsZero(t, g, tc.kind, matching.EngineScalar)
		})
	}
}

// TestBitsetSteadyStateAllocs extends the zero-alloc contract to the
// bitset kernels: word-parallel searches and cell-chain maintenance under
// Deactivate must run off preallocated storage once warmed up.
func TestBitsetSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := denseGraph(rng, 16, 20)
	for _, tc := range []struct {
		name string
		kind matcherKind
	}{
		{"GGP", matchAny},
		{"OGGP", matchBottleneck},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := peelAllocsZero(t, g, tc.kind, matching.EngineBitset)
			if !p.m.UsesBitset() {
				t.Fatal("peeler did not resolve to the bitset kernels")
			}
		})
	}
}

// allocRuns is how many solves the allocation bounds below average over.
// testing.AllocsPerRun counts every allocation in the process and divides
// by the run count with integer division, so with few runs a handful of
// stray allocations elsewhere in the process moves the count; at 30 the
// logged counts repeat run after run.
const allocRuns = 30

// TestColdSolveAllocs bounds what one cold solve allocates. The steady-
// state tests above cover warm reruns only; a cold solve allocates its
// instance, matcher, peel output and schedule afresh, but each a fixed
// number of times, never once per step. A dense 64×64 GGP instance at
// k = 32 and β = 1 peels 1,288 steps in 36–37 allocations under ShardOff
// and 39 under ShardAuto, whose split counts one component and solves it
// whole without grouping its edges (40–41 and 43 under -race). Each bound
// sits under 10% above its count in the running build
// (alloc_bounds_test.go, alloc_bounds_race_test.go), so a solve that
// doubles its allocations fails.
func TestColdSolveAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := denseGraph(rng, 64, 20)
	for _, tc := range []struct {
		shard ShardMode
		bound float64
	}{{ShardOff, coldAllocBoundOff}, {ShardAuto, coldAllocBoundAuto}} {
		t.Run(tc.shard.String(), func(t *testing.T) {
			var solveErr error
			avg := testing.AllocsPerRun(allocRuns, func() {
				if _, err := Solve(g, 32, 1, Options{Algorithm: GGP, Shard: tc.shard}); err != nil {
					solveErr = err
				}
			})
			if solveErr != nil {
				t.Fatal(solveErr)
			}
			t.Logf("%.0f allocs per cold solve", avg)
			if avg > tc.bound {
				t.Fatalf("cold dense 64x64 GGP solve makes %.0f allocations, want at most %.0f", avg, tc.bound)
			}
		})
	}
}

// bytesPerRun returns the average number of bytes f allocates per call
// over runs calls, after one warm-up call. Like testing.AllocsPerRun it
// pins GOMAXPROCS to 1 while it counts and reads runtime.MemStats, which
// count every allocation in the process.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestColdSolveBytes bounds the bytes one cold solve allocates, which the
// allocation counts above do not see: a Comm grown back from 16 to 24
// bytes keeps every count and fails here. The instance is
// TestColdSolveAllocs' dense 64×64 GGP one (k = 32, β = 1: 1,288 steps,
// about 41,000 communications); each bound sits under 10% above the bytes
// the running build logs (alloc_bounds_test.go,
// alloc_bounds_race_test.go).
func TestColdSolveBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := denseGraph(rng, 64, 20)
	for _, tc := range []struct {
		shard ShardMode
		bound float64
	}{{ShardOff, coldBytesBoundOff}, {ShardAuto, coldBytesBoundAuto}} {
		t.Run(tc.shard.String(), func(t *testing.T) {
			var solveErr error
			avg := bytesPerRun(allocRuns, func() {
				if _, err := Solve(g, 32, 1, Options{Algorithm: GGP, Shard: tc.shard}); err != nil {
					solveErr = err
				}
			})
			if solveErr != nil {
				t.Fatal(solveErr)
			}
			t.Logf("%.0f bytes per cold solve", avg)
			if avg > tc.bound {
				t.Fatalf("cold dense 64x64 GGP solve allocates %.0f bytes, want at most %.0f", avg, tc.bound)
			}
		})
	}
}

// TestShardedSolveAllocs bounds what one cold sharded solve allocates. A
// power-law 256×256 OGGP instance (2,000 flows, k = 32, β = 1, the served
// power-law shape) splits into one giant component and 7 small ones; each
// component costs a fixed number of allocations, and the cross-component
// pack a fixed number for the whole schedule, never one per packed step.
// testing.AllocsPerRun pins GOMAXPROCS to 1 while it counts, and
// solveComponents sizes its pool by GOMAXPROCS, so the test pins 8
// workers through forceShardWorkers, the most the 8 components can use:
// each worker numbers nodes in a numbering of its own. The solve makes
// 193, 196, 202 and 214 allocations with 1, 2, 4 and 8 workers (216 under
// -race with 8). The bound sits under 10% above the running build's
// 8-worker count.
func TestShardedSolveAllocs(t *testing.T) {
	g := powerLawGraph(t, 1, 256, 2000)
	defer func(w int) { forceShardWorkers = w }(forceShardWorkers)
	forceShardWorkers = 8
	var solveErr error
	avg := testing.AllocsPerRun(allocRuns, func() {
		if _, err := Solve(g, 32, 1, Options{Algorithm: OGGP, Shard: ShardAuto}); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	t.Logf("%.0f allocs per sharded solve with %d workers", avg, forceShardWorkers)
	if avg > shardedAllocBound {
		t.Fatalf("sharded power-law 256x256 OGGP solve makes %.0f allocations, want at most %d", avg, shardedAllocBound)
	}
}

// TestPeelerRerunIsReproducible checks that reusing a peeler through reset
// yields byte-identical step sequences — the property the zero-alloc reuse
// path must not trade away. The matchers carry state across peels (the
// bottleneck matcher its threshold, re-entry heap and sort cursor), and
// reset must clear it: a sort cursor left at its end, for one, fails here.
func TestPeelerRerunIsReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := denseGraph(rng, 12, 9)
	for _, kind := range []matcherKind{matchAny, matchBottleneck} {
		p := new(peeler)
		p.init(wholeInstance(g, 6, 2, false), kind, matching.EngineAuto)
		first, err := p.run()
		if err != nil {
			t.Fatal(err)
		}
		// Deep-copy: the second run overwrites the arenas.
		var flatA []int32
		var peelsA []int64
		for _, st := range first {
			peelsA = append(peelsA, st.peel)
			flatA = append(flatA, st.comms...)
		}
		p.reset()
		second, err := p.run()
		if err != nil {
			t.Fatal(err)
		}
		if len(second) != len(peelsA) {
			t.Fatalf("kind %v: rerun produced %d steps, want %d", kind, len(second), len(peelsA))
		}
		i := 0
		for si, st := range second {
			if st.peel != peelsA[si] {
				t.Fatalf("kind %v: step %d peel %d, want %d", kind, si, st.peel, peelsA[si])
			}
			for _, c := range st.comms {
				if flatA[i] != c {
					t.Fatalf("kind %v: comm %d = edge %d, want %d", kind, i, c, flatA[i])
				}
				i++
			}
		}
		if i != len(flatA) {
			t.Fatalf("kind %v: rerun produced %d comms, want %d", kind, i, len(flatA))
		}
	}
}
