package kpbs

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
)

func mustGraph(t testing.TB, m [][]int64) *bipartite.Graph {
	t.Helper()
	g, err := bipartite.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomInstance(rng *rand.Rand, maxNodes, maxEdges int, maxWeight int64) *bipartite.Graph {
	nl := 1 + rng.Intn(maxNodes)
	nr := 1 + rng.Intn(maxNodes)
	g := bipartite.New(nl, nr)
	for i := 0; i < 1+rng.Intn(maxEdges); i++ {
		g.AddEdge(rng.Intn(nl), rng.Intn(nr), 1+rng.Int63n(maxWeight))
	}
	return g
}

var allAlgorithms = []Algorithm{GGP, OGGP, MinSteps, Greedy}

func TestSolveSimpleAllAlgorithms(t *testing.T) {
	g := mustGraph(t, [][]int64{
		{5, 0, 2},
		{0, 3, 0},
		{4, 0, 8},
	})
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			s, err := Solve(g, 2, 1, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(g, 2); err != nil {
				t.Fatal(err)
			}
			if s.Cost() < LowerBound(g, 2, 1) {
				t.Fatalf("cost %d below lower bound %d", s.Cost(), LowerBound(g, 2, 1))
			}
		})
	}
}

func TestSolveEmptyGraph(t *testing.T) {
	g := bipartite.New(3, 3)
	for _, alg := range allAlgorithms {
		s, err := Solve(g, 2, 1, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if s.NumSteps() != 0 || s.Cost() != 0 {
			t.Fatalf("%v: empty instance got %d steps, cost %d", alg, s.NumSteps(), s.Cost())
		}
	}
}

func TestSolveRejectsBadParameters(t *testing.T) {
	g := mustGraph(t, [][]int64{{1}})
	for _, alg := range allAlgorithms {
		if _, err := Solve(g, 0, 1, Options{Algorithm: alg}); err == nil {
			t.Fatalf("%v: k=0 accepted", alg)
		}
		if _, err := Solve(g, -1, 1, Options{Algorithm: alg}); err == nil {
			t.Fatalf("%v: k=-1 accepted", alg)
		}
		if _, err := Solve(g, 1, -1, Options{Algorithm: alg}); err == nil {
			t.Fatalf("%v: beta=-1 accepted", alg)
		}
	}
	if _, err := Solve(g, 1, 1, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSolveKOneSerializes(t *testing.T) {
	g := mustGraph(t, [][]int64{
		{3, 4},
		{5, 6},
	})
	s, err := Solve(g, 1, 2, Options{Algorithm: GGP})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, 1); err != nil {
		t.Fatal(err)
	}
	for i, st := range s.Steps {
		if len(st.Comms) != 1 {
			t.Fatalf("step %d has %d comms with k=1", i, len(st.Comms))
		}
	}
	if s.TotalDuration() < g.TotalWeight() {
		t.Fatalf("k=1 total duration %d < P(G)=%d", s.TotalDuration(), g.TotalWeight())
	}
}

func TestSolveKLargerThanNodes(t *testing.T) {
	// k beyond min(n1,n2) is equivalent to k = min(n1,n2) (paper §2.4).
	g := mustGraph(t, [][]int64{
		{3, 4},
		{5, 6},
	})
	big, err := Solve(g, 100, 1, Options{Algorithm: OGGP})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := Solve(g, 2, 1, Options{Algorithm: OGGP})
	if err != nil {
		t.Fatal(err)
	}
	if big.Cost() != eq.Cost() {
		t.Fatalf("k=100 cost %d != k=2 cost %d", big.Cost(), eq.Cost())
	}
}

func TestPreemptionSplitsLongEdge(t *testing.T) {
	// In the style of paper Figure 2: one long communication is decomposed
	// across steps so that the bandwidth never idles. With k=2 and the
	// heavy (0,0) edge of weight 8, GGP splits it.
	g := bipartite.New(2, 2)
	g.AddEdge(0, 0, 8)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 0, 4)
	g.AddEdge(1, 1, 5)
	s, err := Solve(g, 2, 1, Options{Algorithm: GGP})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, 2); err != nil {
		t.Fatal(err)
	}
	appearances := 0
	for _, st := range s.Steps {
		for _, c := range st.Comms {
			if c.L == 0 && c.R == 0 {
				appearances++
			}
		}
	}
	if appearances < 2 {
		t.Fatalf("heavy edge appeared in %d steps, expected preemption (>=2)", appearances)
	}
	// Transmission time must match the structural optimum exactly:
	// W(G) = 12 = w(L0) and P/k = 10, so Σ durations = 12.
	if s.TotalDuration() != 12 {
		t.Fatalf("total duration %d, want 12 = max(W, ceil(P/k))", s.TotalDuration())
	}
}

func TestAugmentationProducesRegularGraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomInstance(rng, 8, 30, 25)
		k := 1 + rng.Intn(10)
		beta := rng.Int63n(5)
		in := wholeInstance(g, k, beta, false)
		if in == nil {
			return false
		}
		if err := in.checkRegular(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// The augmentation stays within the edge bound instance.build
		// allocates for up front.
		if bound := g.EdgeCount() + 2*(in.realL+in.realR) + 5*in.k; len(in.edges) > bound {
			t.Logf("seed %d: %d working edges > bound %d", seed, len(in.edges), bound)
			return false
		}
		// R must be max(W', padded P'/k).
		if in.regular < in.maxNodeWeight() {
			return false
		}
		return in.totalWeight() == in.regular*int64(in.nL)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentationPropositionOne(t *testing.T) {
	// Every perfect matching of the augmented graph must contain at most k
	// real edges — exactly k when the graph was padded to multiple-of-k
	// total weight (paper Proposition 1).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomInstance(rng, 6, 20, 15)
		k := 1 + rng.Intn(8)
		in := wholeInstance(g, k, 1, false)
		if in == nil {
			return false
		}
		var p peeler
		p.init(in, matchAny, matching.EngineAuto)
		steps, err := p.run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, st := range steps {
			if len(st.comms) > in.k {
				t.Logf("seed %d: step with %d real comms > k=%d", seed, len(st.comms), in.k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// wholeInstance numbers the nodes of every edge of g and builds the
// working instance of them.
func wholeInstance(g *bipartite.Graph, k int, beta int64, unit bool) *instance {
	set, nb := edgeSet{g: g}, newNumbering(g)
	nb.number(set)
	in := new(instance)
	if !in.build(set, nb, k, beta, unit) {
		return nil
	}
	return in
}

// TestInstanceRealEdgesFirst pins the layout the peel relies on to tell
// real edges from virtual ones: the first nReal working edges are the
// graph's edges in graph order, so working edge i < nReal has the
// endpoints of g.Edge(i), numbered in order of first appearance over the
// edges, and its normalized weight; every edge after them is virtual,
// touching at least one fresh node. A virtual edge placed before a real
// one, reordered real edges, or another node numbering fails it. The
// corpus must reach both augmentation phases: case-2 fillers (two fresh
// nodes) and case-1 top-ups (one fresh node).
func TestInstanceRealEdgesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fillers, topUps := 0, 0
	for trial := 0; trial < 300; trial++ {
		g := randomInstance(rng, 8, 24, 40)
		k := 1 + rng.Intn(6)
		beta := rng.Int63n(5)
		unit := trial%4 == 0
		in := wholeInstance(g, k, beta, unit)
		// The first-appearance numbering, computed independently.
		idL, idR := map[int]int{}, map[int]int{}
		for i := 0; i < g.EdgeCount(); i++ {
			e := g.Edge(i)
			if _, ok := idL[e.L]; !ok {
				idL[e.L] = len(idL)
			}
			if _, ok := idR[e.R]; !ok {
				idR[e.R] = len(idR)
			}
		}
		if in.realL != len(idL) || in.realR != len(idR) {
			t.Fatalf("trial %d: %dx%d real nodes, graph touches %dx%d", trial, in.realL, in.realR, len(idL), len(idR))
		}
		if in.nReal != g.EdgeCount() {
			t.Fatalf("trial %d: nReal %d, graph has %d edges", trial, in.nReal, g.EdgeCount())
		}
		for i, we := range in.edges {
			if i >= in.nReal {
				switch {
				case we.l >= in.realL && we.r >= in.realR:
					fillers++
				case we.l >= in.realL || we.r >= in.realR:
					topUps++
				default:
					t.Fatalf("trial %d: virtual edge %d joins two real nodes (%d, %d)", trial, i, we.l, we.r)
				}
				continue
			}
			e := g.Edge(i)
			want := normalizeWeight(e.Weight, beta)
			if unit {
				want = 1
			}
			if we.l != idL[e.L] || we.r != idR[e.R] || we.w != want {
				t.Fatalf("trial %d: working edge %d is (%d, %d) weight %d, want graph edge (%d, %d) weight %d", trial, i, we.l, we.r, we.w, e.L, e.R, want)
			}
		}
	}
	if fillers == 0 || topUps == 0 {
		t.Fatalf("corpus reached %d filler and %d top-up edges, want both", fillers, topUps)
	}
}

func TestQuickSolveValidAndApproximation(t *testing.T) {
	// Feasibility plus the 2-approximation guarantee (Theorem 1), with the
	// small additive padding slack derived in DESIGN.md: cost ≤ 2·LB + 2β.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomInstance(rng, 8, 30, 25)
		k := 1 + rng.Intn(10)
		beta := rng.Int63n(6)
		for _, alg := range []Algorithm{GGP, OGGP} {
			s, err := Solve(g, k, beta, Options{Algorithm: alg})
			if err != nil {
				t.Logf("seed %d %v: %v", seed, alg, err)
				return false
			}
			if err := s.Validate(g, k); err != nil {
				t.Logf("seed %d %v: %v", seed, alg, err)
				return false
			}
			lb := LowerBound(g, k, beta)
			if s.Cost() < lb {
				t.Logf("seed %d %v: cost %d < LB %d", seed, alg, s.Cost(), lb)
				return false
			}
			if s.Cost() > 2*lb+2*beta {
				t.Logf("seed %d %v: cost %d > 2*LB+2β = %d", seed, alg, s.Cost(), 2*lb+2*beta)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGreedyAndMinStepsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomInstance(rng, 8, 30, 25)
		k := 1 + rng.Intn(10)
		beta := rng.Int63n(6)
		for _, alg := range []Algorithm{MinSteps, Greedy} {
			s, err := Solve(g, k, beta, Options{Algorithm: alg})
			if err != nil {
				return false
			}
			if err := s.Validate(g, k); err != nil {
				t.Logf("seed %d %v: %v", seed, alg, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestMinStepsIsStepOptimal(t *testing.T) {
	// MinSteps must achieve exactly ηs(G,k) = max(Δ, ⌈m/k⌉) steps, the
	// proven minimum for any feasible schedule.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomInstance(rng, 8, 30, 25)
		k := 1 + rng.Intn(10)
		s, err := Solve(g, k, 1, Options{Algorithm: MinSteps})
		if err != nil {
			return false
		}
		if err := s.Validate(g, k); err != nil {
			return false
		}
		kEff := k
		if a := g.ActiveLeft(); a < kEff {
			kEff = a
		}
		if a := g.ActiveRight(); a < kEff {
			kEff = a
		}
		want := EtaS(g, kEff)
		if int64(s.NumSteps()) != want {
			t.Logf("seed %d: %d steps, want %d", seed, s.NumSteps(), want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTransmissionTimeIsStructurallyOptimal(t *testing.T) {
	// With β = 0 there is no normalization and GGP's total transmission
	// time equals R = max(W(G), padded ⌈P/k⌉) — within one padding unit of
	// the ηd lower bound.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomInstance(rng, 8, 30, 25)
		k := 1 + rng.Intn(10)
		s, err := Solve(g, k, 0, Options{Algorithm: GGP})
		if err != nil {
			return false
		}
		kEff := k
		if a := g.ActiveLeft(); a < kEff {
			kEff = a
		}
		if a := g.ActiveRight(); a < kEff {
			kEff = a
		}
		etaD := EtaD(g, kEff)
		return s.TotalDuration() <= etaD && s.TotalDuration() >= g.MaxNodeWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOGGPNotWorseOnAverage(t *testing.T) {
	// Per-instance OGGP can in principle lose to GGP, but across a fixed
	// random sample its total cost must not be worse (paper §5.1).
	rng := rand.New(rand.NewSource(42))
	var ggpSum, oggpSum int64
	for i := 0; i < 60; i++ {
		g := randomInstance(rng, 10, 60, 20)
		k := 1 + rng.Intn(10)
		a, err := Solve(g, k, 1, Options{Algorithm: GGP})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(g, k, 1, Options{Algorithm: OGGP})
		if err != nil {
			t.Fatal(err)
		}
		ggpSum += a.Cost()
		oggpSum += b.Cost()
	}
	if oggpSum > ggpSum {
		t.Fatalf("OGGP total cost %d > GGP total cost %d over fixed sample", oggpSum, ggpSum)
	}
}

func TestSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomInstance(rng, 10, 50, 20)
	for _, alg := range allAlgorithms {
		a, err := Solve(g, 3, 2, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(g, 3, 2, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%v: nondeterministic schedules:\n%s\nvs\n%s", alg, a, b)
		}
	}
}

// TestOGGPDeterministicWithEqualWeights is the regression test for the
// bottleneck sort tiebreak: with many equal-weight edges the decreasing-
// weight insertion order is decided entirely by the index tiebreak, so the
// same instance must yield the identical schedule on every solve.
func TestOGGPDeterministicWithEqualWeights(t *testing.T) {
	g := bipartite.New(6, 6)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		g.AddEdge(rng.Intn(6), rng.Intn(6), 5) // all weights tie
	}
	first, err := Solve(g, 3, 1, Options{Algorithm: OGGP})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Solve(g, 3, 1, Options{Algorithm: OGGP})
		if err != nil {
			t.Fatal(err)
		}
		if first.String() != again.String() {
			t.Fatalf("run %d: OGGP schedule changed on identical instance:\n%s\nvs\n%s", i, first, again)
		}
	}
}

// TestGreedyStepsAreMaximal locks the semantics of the compacted greedy
// scan: every step packs edges in decreasing weight order until k is
// reached or no pending edge is compatible, so a pending edge may only be
// deferred when the step is full or one of its endpoints is busy.
func TestGreedyStepsAreMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		g := randomInstance(rng, 8, 40, 20)
		k := 1 + rng.Intn(6)
		s, err := Solve(g, k, 1, Options{Algorithm: Greedy})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(g, k); err != nil {
			t.Fatal(err)
		}
		// Replay: edges scheduled in step j must have been blocked in every
		// earlier step.
		type key struct{ l, r int32 }
		for j, later := range s.Steps {
			for _, c := range later.Comms {
				for i := 0; i < j; i++ {
					st := &s.Steps[i]
					if len(st.Comms) == k {
						continue
					}
					usedL, usedR := false, false
					for _, pc := range st.Comms {
						if pc.L == c.L {
							usedL = true
						}
						if pc.R == c.R {
							usedR = true
						}
					}
					if !usedL && !usedR {
						t.Fatalf("trial %d: step %d left room for %v scheduled in step %d", trial, i, key{c.L, c.R}, j)
					}
				}
			}
		}
	}
}

func TestSolveWithIsolatedNodes(t *testing.T) {
	g := bipartite.New(10, 10)
	g.AddEdge(2, 7, 5)
	g.AddEdge(9, 0, 3)
	s, err := Solve(g, 4, 1, Options{Algorithm: OGGP})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, 4); err != nil {
		t.Fatal(err)
	}
	lb := LowerBound(g, 4, 1)
	if s.Cost() > 2*lb+2 {
		t.Fatalf("cost %d > 2*LB+2β = %d", s.Cost(), 2*lb+2)
	}
}

func TestSolveParallelEdges(t *testing.T) {
	g := bipartite.New(2, 2)
	g.AddEdge(0, 0, 4)
	g.AddEdge(0, 0, 6) // parallel message, must go in different steps
	g.AddEdge(1, 1, 5)
	for _, alg := range allAlgorithms {
		s, err := Solve(g, 2, 1, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := s.Validate(g, 2); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

func TestNormalizationRoundsUp(t *testing.T) {
	if normalizeWeight(5, 2) != 3 {
		t.Fatalf("ceil(5/2) = %d, want 3", normalizeWeight(5, 2))
	}
	if normalizeWeight(4, 2) != 2 {
		t.Fatalf("ceil(4/2) = %d, want 2", normalizeWeight(4, 2))
	}
	if normalizeWeight(1, 5) != 1 {
		t.Fatalf("ceil(1/5) = %d, want 1", normalizeWeight(1, 5))
	}
	if normalizeWeight(7, 0) != 7 {
		t.Fatalf("beta=0 should not normalize, got %d", normalizeWeight(7, 0))
	}
}

func TestLargeBetaNeverSplitsShortComms(t *testing.T) {
	// All weights below β: normalization maps every edge to one unit, so
	// no communication is ever preempted.
	g := mustGraph(t, [][]int64{
		{3, 4},
		{5, 6},
	})
	s, err := Solve(g, 2, 100, Options{Algorithm: GGP})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, 2); err != nil {
		t.Fatal(err)
	}
	count := map[[2]int32]int{}
	for _, st := range s.Steps {
		for _, c := range st.Comms {
			count[[2]int32{c.L, c.R}]++
		}
	}
	pairs := make([][2]int32, 0, len(count))
	for p := range count {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, p := range pairs {
		if count[p] != 1 {
			t.Fatalf("pair %v split into %d chunks despite weight < beta", p, count[p])
		}
	}
}
