package redistgo_test

import (
	"math/rand"
	"testing"
	"time"

	"redistgo"
)

// TestEndToEndScheduleAndSimulate walks the full public pipeline: traffic
// matrix -> graph -> schedule -> fluid simulation, on the paper's
// testbed platform.
func TestEndToEndScheduleAndSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := 3
	matrix := redistgo.DenseUniformMatrix(rng, 10, 10, int64(1*redistgo.MB), int64(5*redistgo.MB))
	g, err := redistgo.FromMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	platform := redistgo.PaperTestbed(k)
	if platform.K() != k {
		t.Fatalf("platform K = %d, want %d", platform.K(), k)
	}

	sched, err := redistgo.Solve(g, k, 0, redistgo.Options{Algorithm: redistgo.OGGP})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, k); err != nil {
		t.Fatal(err)
	}

	sim, err := redistgo.NewSimulator(redistgo.SimConfig{Platform: platform})
	if err != nil {
		t.Fatal(err)
	}
	scheduled, err := sim.RunSteps(redistgo.FlowSteps(sched), 0.002)
	if err != nil {
		t.Fatal(err)
	}

	tcpSim, err := redistgo.NewSimulator(redistgo.DefaultSimConfig(platform, 1))
	if err != nil {
		t.Fatal(err)
	}
	brute, err := tcpSim.BruteForce(redistgo.MatrixFlows(matrix))
	if err != nil {
		t.Fatal(err)
	}
	if scheduled.Time >= brute.Time {
		t.Fatalf("scheduled %.3fs not faster than brute force %.3fs", scheduled.Time, brute.Time)
	}
}

// TestEndToEndRealTCP executes a small schedule on the loopback-TCP
// runtime with shaped NICs, brute force vs scheduled.
func TestEndToEndRealTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := 2
	nodes := 3
	matrix := redistgo.DenseUniformMatrix(rng, nodes, nodes, 20<<10, 60<<10)
	g, err := redistgo.FromMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := redistgo.Solve(g, k, 0, redistgo.Options{Algorithm: redistgo.OGGP, Pack: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, k); err != nil {
		t.Fatal(err)
	}

	// NICs shaped to rate/k so k transfers fill the backbone.
	rate := 4e6 // backbone bytes/s
	c, err := redistgo.NewCluster(redistgo.ClusterConfig{
		N1: nodes, N2: nodes,
		SendRate: rate / float64(k), RecvRate: rate / float64(k), BackboneRate: rate,
		ChunkSize:    8 << 10,
		BarrierDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bruteTime, err := c.RunBruteForce(redistgo.MatrixTransfers(matrix))
	if err != nil {
		t.Fatal(err)
	}
	schedTime, perStep, err := c.RunSchedule(redistgo.TransferSteps(sched))
	if err != nil {
		t.Fatal(err)
	}
	if len(perStep) != sched.NumSteps() {
		t.Fatalf("perStep = %d, want %d", len(perStep), sched.NumSteps())
	}
	if bruteTime <= 0 || schedTime <= 0 {
		t.Fatal("non-positive measured times")
	}
	// On loopback with perfect token buckets both approaches saturate the
	// backbone; the scheduled run must at least stay in the same ballpark
	// (the paper's win comes from real TCP congestion, modeled in netsim).
	if schedTime > 3*bruteTime {
		t.Fatalf("scheduled %v wildly slower than brute force %v", schedTime, bruteTime)
	}
}

// TestBlockCyclicLocalRedistribution covers the paper's §2.4 local case:
// k = min(n1, n2), block-cyclic pattern.
func TestBlockCyclicLocalRedistribution(t *testing.T) {
	from := redistgo.BlockCyclicSpec{Procs: 4, Block: 3}
	to := redistgo.BlockCyclicSpec{Procs: 6, Block: 5}
	matrix, err := redistgo.BlockCyclicMatrix(10000, 8, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if redistgo.MatrixTotal(matrix) != 80000 {
		t.Fatalf("total = %d, want 80000", redistgo.MatrixTotal(matrix))
	}
	g, err := redistgo.FromMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	k := 4 // min(n1, n2): backbone not a bottleneck
	sched, err := redistgo.Solve(g, k, 100, redistgo.Options{Algorithm: redistgo.OGGP})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(g, k); err != nil {
		t.Fatal(err)
	}
	lb := redistgo.LowerBound(g, k, 100)
	if sched.Cost() > 2*lb+200 {
		t.Fatalf("cost %d above 2·LB+2β = %d", sched.Cost(), 2*lb+200)
	}
}

func TestPublicLowerBoundComponents(t *testing.T) {
	g := redistgo.NewGraph(2, 2)
	g.AddEdge(0, 0, 6)
	g.AddEdge(1, 1, 4)
	if redistgo.EtaD(g, 1) != 10 {
		t.Fatalf("EtaD = %d", redistgo.EtaD(g, 1))
	}
	if redistgo.EtaS(g, 1) != 2 {
		t.Fatalf("EtaS = %d", redistgo.EtaS(g, 1))
	}
	if redistgo.LowerBound(g, 1, 3) != 16 {
		t.Fatalf("LB = %d", redistgo.LowerBound(g, 1, 3))
	}
}

func TestPublicWRGP(t *testing.T) {
	g := redistgo.NewGraph(2, 2)
	g.AddEdge(0, 0, 2)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 0, 3)
	g.AddEdge(1, 1, 2)
	sched, err := redistgo.SolveWRGP(g, true)
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalDuration() != 5 {
		t.Fatalf("WRGP duration = %d, want 5", sched.TotalDuration())
	}
}

func TestPublicGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := redistgo.RandomGraph(rng, 4, 4, 8, 1, 9); g.EdgeCount() != 8 {
		t.Fatalf("RandomGraph edges = %d", g.EdgeCount())
	}
	if g := redistgo.PaperRandomGraph(rng, 10, 30, 1, 9); g.EdgeCount() < 1 {
		t.Fatal("PaperRandomGraph produced no edges")
	}
	m := redistgo.SparseUniformMatrix(rng, 5, 5, 0.5, 1, 9)
	if len(m) != 5 {
		t.Fatal("SparseUniformMatrix shape wrong")
	}
	s := redistgo.SkewedMatrix(rng, 5, 5, 0.2, 10, 1, 9)
	if redistgo.MatrixTotal(s) <= 0 {
		t.Fatal("SkewedMatrix empty")
	}
}

func TestExperimentFacades(t *testing.T) {
	pts, err := redistgo.RatioVsK(redistgo.RatioConfig{
		Runs: 3, MaxNodes: 10, MaxEdges: 30, MinW: 1, MaxW: 20, Beta: 1,
		Ks: []int{2}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].GGPAvg < 1 {
		t.Fatalf("RatioVsK points: %+v", pts)
	}

	bcfg := redistgo.Figure9Config(2, 1)
	bcfg.Betas = []int64{64}
	bpts, err := redistgo.RatioVsBeta(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bpts) != 1 {
		t.Fatalf("RatioVsBeta points: %+v", bpts)
	}

	ncfg := redistgo.FigureNetworkConfig(3, 2, 1)
	ncfg.NsMB = []float64{15}
	npts, err := redistgo.NetworkExperiment(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(npts) != 1 || npts[0].GGPTime <= 0 {
		t.Fatalf("NetworkExperiment points: %+v", npts)
	}

	// Config constructors match the paper's parameters.
	if c := redistgo.Figure7Config(10, 1); c.MaxW != 20 || c.MaxNodes != 40 || c.MaxEdges != 400 {
		t.Fatalf("Figure7Config = %+v", c)
	}
	if c := redistgo.Figure8Config(10, 1); c.MaxW != 10000 {
		t.Fatalf("Figure8Config = %+v", c)
	}
}
