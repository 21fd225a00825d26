package redistgo_test

import (
	"math/rand"
	"testing"

	"redistgo"
	"redistgo/internal/experiments"
)

// The Benchmark* functions regenerate each figure of the paper's
// evaluation at reduced Monte-Carlo sample sizes (the paper used 100000
// runs per point; a benchmark iteration here uses a small sample so
// `go test -bench=.` completes in seconds). For publication-size samples
// use `go run ./cmd/redist-experiments -fig N -runs 100000`.

// BenchmarkFigure7 regenerates the paper's Figure 7: evaluation ratio vs
// k with small weights (U[1,20], β=1).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := redistgo.Figure7Config(10, int64(i+1))
		cfg.Ks = []int{4, 16, 40}
		points, err := redistgo.RatioVsK(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRatioShape(b, points, 2.3)
	}
}

// BenchmarkFigure8 regenerates Figure 8: ratio vs k with large weights
// (U[1,10000]) — communications far longer than β, ratios ≈ 1.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := redistgo.Figure8Config(10, int64(i+1))
		cfg.Ks = []int{4, 16, 40}
		points, err := redistgo.RatioVsK(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRatioShape(b, points, 1.05)
	}
}

// BenchmarkFigure9 regenerates Figure 9: ratio vs β with small weights
// and random k.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := redistgo.Figure9Config(10, int64(i+1))
		cfg.Betas = []int64{1, 64, 1024, 65536}
		points, err := redistgo.RatioVsBeta(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRatioShape(b, points, 2.3)
	}
}

// BenchmarkFigure10 regenerates Figure 10: brute-force TCP vs GGP/OGGP on
// the k=3 testbed as message sizes grow.
func BenchmarkFigure10(b *testing.B) {
	benchmarkNetworkFigure(b, 3)
}

// BenchmarkFigure11 regenerates Figure 11: the same comparison at k=7.
func BenchmarkFigure11(b *testing.B) {
	benchmarkNetworkFigure(b, 7)
}

func benchmarkNetworkFigure(b *testing.B, k int) {
	for i := 0; i < b.N; i++ {
		cfg := redistgo.FigureNetworkConfig(k, 3, int64(i+1))
		cfg.NsMB = []float64{20, 60, 100}
		points, err := redistgo.NetworkExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.GGPTime >= p.BruteAvg || p.OGGPTime >= p.BruteAvg {
				b.Fatalf("n=%g MB: scheduled (%.2f/%.2f s) not faster than brute force (%.2f s)",
					p.NMB, p.GGPTime, p.OGGPTime, p.BruteAvg)
			}
		}
		if i == 0 {
			last := points[len(points)-1]
			best := last.GGPTime
			if last.OGGPTime < best {
				best = last.OGGPTime
			}
			b.ReportMetric(100*(last.BruteAvg-best)/last.BruteAvg, "%gain")
		}
	}
}

func reportRatioShape(b *testing.B, points []redistgo.RatioPoint, maxAllowed float64) {
	b.Helper()
	var worst float64
	for _, p := range points {
		if p.GGPMax > worst {
			worst = p.GGPMax
		}
		if p.OGGPMax > worst {
			worst = p.OGGPMax
		}
		if p.GGPMax > maxAllowed || p.OGGPMax > maxAllowed {
			b.Fatalf("x=%g: ratios exceed %g: %+v", p.X, maxAllowed, p)
		}
	}
	b.ReportMetric(worst, "worst-ratio")
}

// --- Algorithm microbenchmarks (scaling of the contribution itself) ---

func benchmarkSolve(b *testing.B, alg redistgo.Algorithm, nodes, edges int) {
	rng := rand.New(rand.NewSource(1))
	g := redistgo.RandomGraph(rng, nodes, nodes, edges, 1, 20)
	k := nodes / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := redistgo.Solve(g, k, 1, redistgo.Options{Algorithm: alg}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGGPSmall(b *testing.B)  { benchmarkSolve(b, redistgo.GGP, 20, 100) }
func BenchmarkGGPMedium(b *testing.B) { benchmarkSolve(b, redistgo.GGP, 40, 400) }
func BenchmarkGGPLarge(b *testing.B)  { benchmarkSolve(b, redistgo.GGP, 80, 1600) }

func BenchmarkOGGPSmall(b *testing.B)  { benchmarkSolve(b, redistgo.OGGP, 20, 100) }
func BenchmarkOGGPMedium(b *testing.B) { benchmarkSolve(b, redistgo.OGGP, 40, 400) }
func BenchmarkOGGPLarge(b *testing.B)  { benchmarkSolve(b, redistgo.OGGP, 80, 1600) }

func BenchmarkMinSteps(b *testing.B) { benchmarkSolve(b, redistgo.MinSteps, 40, 400) }
func BenchmarkGreedy(b *testing.B)   { benchmarkSolve(b, redistgo.Greedy, 40, 400) }

// BenchmarkSolve is the headline end-to-end benchmark of the incremental
// peeling engine: a fully dense 64x64 instance (4096 edges, every
// sender/receiver pair active), the worst case for the per-iteration
// rebuild cost the engine eliminates.
func BenchmarkSolve(b *testing.B) {
	b.Run("GGP64x64dense", func(b *testing.B) { benchmarkSolve(b, redistgo.GGP, 64, 64*64) })
	b.Run("OGGP64x64dense", func(b *testing.B) { benchmarkSolve(b, redistgo.OGGP, 64, 64*64) })
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationPack measures the step-packing post-pass (an
// extension, off by default): fragments of preempted messages fuse back
// together and node-disjoint steps merge, saving β per fusion.
func BenchmarkAblationPack(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	// Sparse instances are where peeling fragments the most.
	g := redistgo.RandomGraph(rng, 30, 30, 40, 1, 20)
	var saved, base int64
	for i := 0; i < b.N; i++ {
		plain, err := redistgo.Solve(g, 10, 2, redistgo.Options{Algorithm: redistgo.OGGP})
		if err != nil {
			b.Fatal(err)
		}
		packed, err := redistgo.Solve(g, 10, 2, redistgo.Options{Algorithm: redistgo.OGGP, Pack: true})
		if err != nil {
			b.Fatal(err)
		}
		base = plain.Cost()
		saved = plain.Cost() - packed.Cost()
	}
	if base > 0 {
		b.ReportMetric(100*float64(saved)/float64(base), "%cost-saved")
	}
}

// BenchmarkAblationLargeBeta compares GGP against the MinSteps extension
// when β dwarfs the weights — the regime MinSteps is designed for.
func BenchmarkAblationLargeBeta(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := redistgo.RandomGraph(rng, 30, 30, 200, 1, 20)
	const beta = 1000
	var ggpCost, minCost int64
	for i := 0; i < b.N; i++ {
		gg, err := redistgo.Solve(g, 8, beta, redistgo.Options{Algorithm: redistgo.GGP})
		if err != nil {
			b.Fatal(err)
		}
		ms, err := redistgo.Solve(g, 8, beta, redistgo.Options{Algorithm: redistgo.MinSteps})
		if err != nil {
			b.Fatal(err)
		}
		ggpCost, minCost = gg.Cost(), ms.Cost()
	}
	if ggpCost > 0 {
		b.ReportMetric(float64(minCost)/float64(ggpCost), "minsteps/ggp-cost")
	}
}

// BenchmarkAblationAsyncExecution compares barrier-synchronized
// execution against the weakened-barrier dependency DAG (§2.1's teased
// post-processing) on the paper's testbed workload.
func BenchmarkAblationAsyncExecution(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	k := 3
	platform := redistgo.PaperTestbed(k)
	matrix := redistgo.DenseUniformMatrix(rng, 10, 10, int64(1*redistgo.MB), int64(8*redistgo.MB))
	g, err := redistgo.FromMatrix(matrix)
	if err != nil {
		b.Fatal(err)
	}
	const betaSec = 0.002
	sched, err := redistgo.Solve(g, k, int64(betaSec*platform.Speed()/8), redistgo.Options{Algorithm: redistgo.OGGP})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := redistgo.NewSimulator(redistgo.SimConfig{Platform: platform})
	if err != nil {
		b.Fatal(err)
	}
	var syncT, asyncT float64
	for i := 0; i < b.N; i++ {
		syncRes, err := sim.RunSteps(redistgo.FlowSteps(sched), betaSec)
		if err != nil {
			b.Fatal(err)
		}
		asyncRes, err := sim.RunAsync(redistgo.AsyncComms(sched.AsyncPlan()), k, betaSec)
		if err != nil {
			b.Fatal(err)
		}
		syncT, asyncT = syncRes.Time, asyncRes.Time
	}
	if syncT > 0 {
		b.ReportMetric(100*(syncT-asyncT)/syncT, "%time-saved-by-async")
	}
}

// BenchmarkExtensionAggregation regenerates the gateway-aggregation
// sweep (paper §6 future work 1): gain vs β crossover.
func BenchmarkExtensionAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultAggregationConfig(10, int64(i+1))
		cfg.Betas = []int64{0, 64}
		points, err := experiments.AggregationSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*points[len(points)-1].Improvement, "%gain-at-large-beta")
		}
	}
}

// BenchmarkNetsimBruteForce measures the fluid engine on the paper's
// 10x10 all-pairs workload.
func BenchmarkNetsimBruteForce(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	matrix := redistgo.DenseUniformMatrix(rng, 10, 10, int64(10*redistgo.MB), int64(50*redistgo.MB))
	flows := redistgo.MatrixFlows(matrix)
	sim, err := redistgo.NewSimulator(redistgo.DefaultSimConfig(redistgo.PaperTestbed(3), 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.BruteForce(flows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockCyclicPattern measures the periodic block-cyclic pattern
// computation on a large array.
func BenchmarkBlockCyclicPattern(b *testing.B) {
	from := redistgo.BlockCyclicSpec{Procs: 16, Block: 64}
	to := redistgo.BlockCyclicSpec{Procs: 24, Block: 96}
	for i := 0; i < b.N; i++ {
		if _, err := redistgo.BlockCyclicMatrix(1<<30, 8, from, to); err != nil {
			b.Fatal(err)
		}
	}
}
