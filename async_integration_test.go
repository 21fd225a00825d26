package redistgo_test

import (
	"math"
	"math/rand"
	"testing"

	"redistgo"
)

// TestAsyncExecutionBeatsBarriers runs one OGGP schedule (k = 3, seed 1,
// the paper's testbed on the ideal network) both ways: the dependency DAG
// (weakened barriers) must finish within 0.01% of the barrier execution,
// hold at most k comms at once, and keep 1-port (comms sharing a node
// never transfer at the same time). It checks that one instance only; on
// others the DAG is slower (TestAsyncAgainstBarrierCounts).
func TestAsyncExecutionBeatsBarriers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := 3
	platform := redistgo.PaperTestbed(k)
	matrix := redistgo.DenseUniformMatrix(rng, 10, 10,
		int64(1*redistgo.MB), int64(8*redistgo.MB))
	g, err := redistgo.FromMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	const betaSec = 0.002
	betaUnits := int64(betaSec * platform.Speed() / 8)
	sched, err := redistgo.Solve(g, k, betaUnits, redistgo.Options{Algorithm: redistgo.OGGP})
	if err != nil {
		t.Fatal(err)
	}

	sim, err := redistgo.NewSimulator(redistgo.SimConfig{Platform: platform})
	if err != nil {
		t.Fatal(err)
	}
	sync, err := sim.RunSteps(redistgo.FlowSteps(sched), betaSec)
	if err != nil {
		t.Fatal(err)
	}

	plan := sched.AsyncPlan()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	async, err := sim.RunAsync(redistgo.AsyncComms(plan), k, betaSec)
	if err != nil {
		t.Fatal(err)
	}

	if async.Time > sync.Time*1.0001 {
		t.Fatalf("async %.3fs slower than synchronous %.3fs", async.Time, sync.Time)
	}
	if async.MaxConcurrency > k {
		t.Fatalf("async concurrency %d exceeded k=%d", async.MaxConcurrency, k)
	}

	// 1-port: communications sharing a node must not overlap in time.
	for i := range plan.Comms {
		for j := i + 1; j < len(plan.Comms); j++ {
			a, b := plan.Comms[i], plan.Comms[j]
			if a.L != b.L && a.R != b.R {
				continue
			}
			// Transfer intervals (setup excluded — sockets can be set up
			// while the previous transfer drains in a real system, and
			// the executor serializes transfers, which is what 1-port
			// needs).
			if async.End[i] <= async.Start[j]+betaSec+1e-9 || async.End[j] <= async.Start[i]+betaSec+1e-9 {
				continue
			}
			t.Fatalf("comms %d and %d share a node and overlap: [%g,%g] vs [%g,%g]",
				i, j, async.Start[i], async.End[i], async.Start[j], async.End[j])
		}
	}
}

// TestAsyncAgainstBarrierCounts pins how often the weakened-barrier DAG
// is slower or faster than the barrier execution of the same schedule:
// the paper's testbed for k on the ideal network, DenseUniform 10×10
// matrices of 1–8 MB drawn with seeds 1–100, β = 2 ms. The DAG is not
// never-slower: RunAsync hands each free slot to the first ready comm in
// step order (a greedy list schedule), and on GGP and OGGP schedules it
// often finishes later than the barrier execution. It is faster on every
// MinSteps schedule, whose unsplit messages leave steps imbalanced.
// worst and best are the extreme gains (barrier − DAG) / barrier in %,
// within ±0.05 points. DESIGN.md §2 and EXPERIMENTS.md quote these
// numbers.
func TestAsyncAgainstBarrierCounts(t *testing.T) {
	const betaSec = 0.002
	cases := []struct {
		k              int
		alg            redistgo.Algorithm
		slower, faster int
		worst, best    float64
	}{
		{3, redistgo.GGP, 77, 23, -2.87, 0.06},
		{3, redistgo.OGGP, 19, 81, -4.02, 0.10},
		{3, redistgo.MinSteps, 0, 100, 19.11, 31.84},
		{7, redistgo.GGP, 39, 61, -4.32, 0.01},
		{7, redistgo.OGGP, 100, 0, -14.69, -0.01},
		{7, redistgo.MinSteps, 0, 100, 5.65, 24.61},
	}
	for _, c := range cases {
		platform := redistgo.PaperTestbed(c.k)
		sim, err := redistgo.NewSimulator(redistgo.SimConfig{Platform: platform})
		if err != nil {
			t.Fatal(err)
		}
		betaUnits := int64(betaSec * platform.Speed() / 8)
		slower, faster := 0, 0
		worst, best := math.Inf(1), math.Inf(-1)
		for seed := int64(1); seed <= 100; seed++ {
			rng := rand.New(rand.NewSource(seed))
			matrix := redistgo.DenseUniformMatrix(rng, 10, 10,
				int64(1*redistgo.MB), int64(8*redistgo.MB))
			g, err := redistgo.FromMatrix(matrix)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := redistgo.Solve(g, c.k, betaUnits, redistgo.Options{Algorithm: c.alg})
			if err != nil {
				t.Fatal(err)
			}
			sync, err := sim.RunSteps(redistgo.FlowSteps(sched), betaSec)
			if err != nil {
				t.Fatal(err)
			}
			async, err := sim.RunAsync(redistgo.AsyncComms(sched.AsyncPlan()), c.k, betaSec)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case async.Time > sync.Time:
				slower++
			case async.Time < sync.Time:
				faster++
			}
			gain := 100 * (sync.Time - async.Time) / sync.Time
			worst, best = math.Min(worst, gain), math.Max(best, gain)
		}
		t.Logf("k=%d %v: slower on %d, faster on %d of 100; gain %.2f%% to %.2f%%", c.k, c.alg, slower, faster, worst, best)
		if slower != c.slower || faster != c.faster {
			t.Errorf("k=%d %v: slower on %d, faster on %d; want %d and %d", c.k, c.alg, slower, faster, c.slower, c.faster)
		}
		if math.Abs(worst-c.worst) > 0.05 || math.Abs(best-c.best) > 0.05 {
			t.Errorf("k=%d %v: gain %.2f%% to %.2f%%, want %.2f%% to %.2f%% ± 0.05", c.k, c.alg, worst, best, c.worst, c.best)
		}
	}
}

// TestAsyncExecutionOverRealSockets runs a weakened-barrier plan through
// the loopback-TCP runtime: all bytes must arrive and be acknowledged.
func TestAsyncExecutionOverRealSockets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	matrix := redistgo.DenseUniformMatrix(rng, 3, 3, 16<<10, 48<<10)
	g, err := redistgo.FromMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	k := 2
	sched, err := redistgo.Solve(g, k, 0, redistgo.Options{Algorithm: redistgo.OGGP})
	if err != nil {
		t.Fatal(err)
	}
	plan := sched.AsyncPlan()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := redistgo.NewCluster(redistgo.ClusterConfig{N1: 3, N2: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d, err := c.RunAsync(redistgo.AsyncTransfers(plan), k)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("non-positive duration")
	}
}

// TestAsyncStrictWinOnImbalancedSteps hand-builds a schedule in which
// each step's straggler is a different node: barriers make the fast node
// idle behind the other's straggler, the dependency DAG does not.
func TestAsyncStrictWinOnImbalancedSteps(t *testing.T) {
	platform := redistgo.Platform{
		N1: 2, N2: 4,
		T1: 10 * redistgo.Mbit, T2: 10 * redistgo.Mbit,
		Backbone: 1 * redistgo.Gbit,
	}
	long := int64(8 * redistgo.MB)  // 6.4 s at 1.25 MB/s
	short := int64(1 * redistgo.MB) // 0.8 s
	g := redistgo.NewGraph(2, 4)
	g.AddEdge(0, 0, long)
	g.AddEdge(1, 1, short)
	g.AddEdge(1, 2, long)
	g.AddEdge(0, 3, short)
	sched := &redistgo.Schedule{Steps: []redistgo.Step{
		{Comms: []redistgo.Comm{{L: 0, R: 0, Amount: long}, {L: 1, R: 1, Amount: short}}, Duration: long},
		{Comms: []redistgo.Comm{{L: 1, R: 2, Amount: long}, {L: 0, R: 3, Amount: short}}, Duration: long},
	}}
	if err := sched.Validate(g, 2); err != nil {
		t.Fatal(err)
	}
	sim, err := redistgo.NewSimulator(redistgo.SimConfig{Platform: platform})
	if err != nil {
		t.Fatal(err)
	}
	sync, err := sim.RunSteps(redistgo.FlowSteps(sched), 0)
	if err != nil {
		t.Fatal(err)
	}
	async, err := sim.RunAsync(redistgo.AsyncComms(sched.AsyncPlan()), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous: 6.4 + 6.4 = 12.8 s. Asynchronous: node 1's long
	// message starts at 0.8 s and finishes at 7.2 s.
	if async.Time >= sync.Time-1 {
		t.Fatalf("async %.3fs did not clearly beat synchronous %.3fs", async.Time, sync.Time)
	}
}
