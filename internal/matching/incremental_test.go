package matching

import (
	"math/rand"
	"testing"

	"redistgo/internal/bipartite"
)

// edgeArrays extracts the parallel endpoint/weight arrays the incremental
// matchers consume from a bipartite.Graph.
func edgeArrays(g *bipartite.Graph) (el, er []int, w []int64) {
	m := g.EdgeCount()
	el = make([]int, m)
	er = make([]int, m)
	w = make([]int64, m)
	for i := 0; i < m; i++ {
		e := g.Edge(i)
		el[i], er[i], w[i] = e.L, e.R, e.Weight
	}
	return el, er, w
}

func randomRegularish(rng *rand.Rand, n, extra int, maxW int64) *bipartite.Graph {
	g := bipartite.New(n, n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, perm[i], 1+rng.Int63n(maxW))
	}
	for i := 0; i < extra; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Int63n(maxW))
	}
	return g
}

func TestIncrementalMatchesMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		g := bipartite.New(n, n)
		for i := 0; i < rng.Intn(4*n+1); i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Int63n(9))
		}
		el, er, w := edgeArrays(g)
		inc := NewIncremental(n, n, el, er, w, len(el))
		got := inc.Augment()
		want := Maximum(g).Size
		if got != want {
			t.Fatalf("trial %d: incremental size %d, Hopcroft–Karp size %d", trial, got, want)
		}
		if m := inc.Matching(); !Validate(g, m) {
			t.Fatalf("trial %d: invalid matching %+v", trial, m)
		}
	}
}

// TestIncrementalRepair deactivates matched edges one at a time and checks
// the repaired matching stays maximum and valid — the exact access pattern
// of the GGP peeling loop.
func TestIncrementalRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		g := randomRegularish(rng, n, 3*n, 9)
		el, er, w := edgeArrays(g)
		inc := NewIncremental(n, n, el, er, w, len(el))
		inc.Augment()
		dead := make(map[int]bool)
		for round := 0; round < g.EdgeCount(); round++ {
			// Kill one currently-matched edge, then repair.
			victim := -1
			for l := 0; l < n; l++ {
				if e := inc.MatchedEdge(l); e >= 0 {
					victim = e
					break
				}
			}
			if victim < 0 {
				break
			}
			inc.Deactivate(victim)
			dead[victim] = true
			inc.Augment()
			m := inc.Matching()
			if !Validate(g, m) {
				t.Fatalf("trial %d round %d: invalid matching after repair", trial, round)
			}
			for _, e := range m.Edges() {
				if dead[e] {
					t.Fatalf("trial %d round %d: dead edge %d in matching", trial, round, e)
				}
			}
			// Compare against a cold maximum matching of the residual graph.
			res := bipartite.New(n, n)
			for i := 0; i < g.EdgeCount(); i++ {
				if !dead[i] {
					res.AddEdge(el[i], er[i], 1)
				}
			}
			if want := Maximum(res).Size; m.Size != want {
				t.Fatalf("trial %d round %d: repaired size %d, cold size %d", trial, round, m.Size, want)
			}
		}
	}
}

func TestIncrementalResetRestoresFullGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomRegularish(rng, 8, 20, 9)
	el, er, w := edgeArrays(g)
	inc := NewIncremental(8, 8, el, er, w, len(el))
	first := inc.Augment()
	for e := 0; e < g.EdgeCount(); e += 3 {
		inc.Deactivate(e)
	}
	inc.Augment()
	inc.Reset()
	if got := inc.Augment(); got != first {
		t.Fatalf("size after reset %d, want %d", got, first)
	}
	if m := inc.Matching(); !Validate(g, m) {
		t.Fatalf("invalid matching after reset: %+v", m)
	}
}

// --- breadth-first repair ---------------------------------------------------

// forEachIncArm runs body on a fresh Incremental over the edge list, all
// edges real and of weight 1, for each kernel arm.
func forEachIncArm(t *testing.T, nL, nR int, el, er []int, body func(t *testing.T, inc *Incremental)) {
	t.Helper()
	for _, eng := range []Engine{EngineScalar, EngineBitset} {
		t.Run(eng.String(), func(t *testing.T) {
			w := make([]int64, len(el))
			for i := range w {
				w[i] = 1
			}
			inc := NewIncrementalEngine(nL, nR, el, er, w, len(el), eng)
			if inc.UsesBitset() != (eng == EngineBitset) {
				t.Fatalf("engine %v not pinned", eng)
			}
			body(t, inc)
		})
	}
}

// setMatching installs a warm matching on a fresh matcher, the state a
// search test starts from: edgeOfLeft[l] is the edge matched at left node
// l, or -1 when l is exposed. The matched nodes leave the exposed-left and
// free-right bitsets.
func setMatching(inc *Incremental, edgeOfLeft ...int) {
	for l, e := range edgeOfLeft {
		if e < 0 {
			continue
		}
		r := inc.edgeR[e]
		inc.matchL[l] = e
		inc.matchR[r] = e
		inc.size++
		inc.exposedL[l>>6] &^= 1 << uint(l&63)
		if inc.useBits {
			inc.freeR[r>>6] &^= 1 << uint(r&63)
		}
	}
}

// TestSearchPermutationVisits: on a permutation graph every search from an
// empty matching stops at the first right node it visits, its root's only
// neighbor, so Augment visits exactly n right nodes.
func TestSearchPermutationVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 17, 64, 65, 100} {
		perm := rng.Perm(n)
		el := make([]int, n)
		er := make([]int, n)
		for i := range el {
			el[i], er[i] = i, perm[i]
		}
		forEachIncArm(t, n, n, el, er, func(t *testing.T, inc *Incremental) {
			if got := inc.Augment(); got != n {
				t.Fatalf("n=%d: matched %d, want %d", n, got, n)
			}
			if got := inc.Visits(); got != n {
				t.Fatalf("n=%d: %d visits, want %d", n, got, n)
			}
		})
	}
}

// TestSearchFlipsShortestPath: from the warm matching L1–R0, L2–R1, L3–R2
// the exposed L0 has a 3-edge augmenting path L0–R1–L2–R3 and a 5-edge one
// L0–R0–L1–R2–L3–R3. A depth-first scan in canonical order enters R0 first
// and takes the 5-edge path; the breadth-first search finds R3 from L2 in
// its second layer and flips the 3-edge path, leaving L1 and L3 alone.
func TestSearchFlipsShortestPath(t *testing.T) {
	//         0  1  2  3  4  5  6  7
	el := []int{0, 0, 1, 1, 2, 2, 3, 3}
	er := []int{0, 1, 0, 2, 1, 3, 2, 3}
	forEachIncArm(t, 4, 4, el, er, func(t *testing.T, inc *Incremental) {
		setMatching(inc, -1, 2, 4, 6)
		if got := inc.Augment(); got != 4 {
			t.Fatalf("matched %d, want 4", got)
		}
		wantMatched(t, inc, []int{1, 2, 5, 6})
		// R0 and R1 from L0, R2 from L1, then R3 from L2.
		if got := inc.Visits(); got != 4 {
			t.Fatalf("%d visits, want 4", got)
		}
	})
}

// TestSearchLowestActiveParallelEdge: the cell L1–R1 holds the parallel
// edges 2, 3 and 4. With edge 2 deactivated, the search from L0 reaches R1
// through L1 over edge 3, the lowest one still active; once edge 3 is
// deactivated too, the search from the exposed L1 takes edge 4.
func TestSearchLowestActiveParallelEdge(t *testing.T) {
	el := []int{0, 1, 1, 1, 1}
	er := []int{0, 0, 1, 1, 1}
	forEachIncArm(t, 2, 2, el, er, func(t *testing.T, inc *Incremental) {
		setMatching(inc, -1, 1)
		inc.Deactivate(2)
		if got := inc.Augment(); got != 2 {
			t.Fatalf("matched %d, want 2", got)
		}
		wantMatched(t, inc, []int{0, 3})
		inc.Deactivate(3)
		if got := inc.Augment(); got != 2 {
			t.Fatalf("re-matched %d, want 2", got)
		}
		wantMatched(t, inc, []int{0, 4})
	})
}

// TestSearchFailedRootStaysExposed: L0, L1 and L2 all reach R0 and only L2
// reaches R1, so no perfect matching exists. L0 takes R0, the search from
// L1 fails, and L2 takes R1; the size equals the cold Maximum's, and L1
// stays exposed through a second Augment.
func TestSearchFailedRootStaysExposed(t *testing.T) {
	el := []int{0, 1, 2, 2}
	er := []int{0, 0, 0, 1}
	g := bipartite.New(3, 2)
	for i := range el {
		g.AddEdge(el[i], er[i], 1)
	}
	want := Maximum(g).Size
	forEachIncArm(t, 3, 2, el, er, func(t *testing.T, inc *Incremental) {
		for pass := 0; pass < 2; pass++ {
			if got := inc.Augment(); got != want {
				t.Fatalf("pass %d: matched %d, cold Maximum %d", pass, got, want)
			}
			wantMatched(t, inc, []int{0, -1, 3})
		}
	})
}

// bottleneckValue returns the minimum matched weight of m in g.
func bottleneckValue(g *bipartite.Graph, m Matching) int64 {
	return m.MinWeight(g)
}

// TestBottleneckIncOptimalUnderPeeling drives BottleneckInc through a full
// peeling simulation and cross-checks every round against the cold-start
// BottleneckPerfect: both must agree on the optimal bottleneck value (the
// matchings themselves may differ).
func TestBottleneckIncOptimalUnderPeeling(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(8)
		g := randomRegularish(rng, n, 2*n, 12)
		el, er, w := edgeArrays(g)
		live := append([]int64(nil), w...)
		b := NewBottleneckInc(n, n, el, er, live, len(el))
		for round := 0; ; round++ {
			if round > g.EdgeCount()+1 {
				t.Fatalf("trial %d: peeling simulation did not terminate", trial)
			}
			// Cold oracle on the residual graph.
			res := bipartite.New(n, n)
			for i := range live {
				if live[i] > 0 {
					res.AddEdge(el[i], er[i], live[i])
				}
			}
			coldM, coldOK := BottleneckPerfect(res)
			ok := b.Rematch(n)
			if ok != coldOK {
				t.Fatalf("trial %d round %d: incremental ok=%v, cold ok=%v", trial, round, ok, coldOK)
			}
			if !ok {
				break
			}
			// Collect the incremental matching and its bottleneck value.
			var minW int64 = -1
			for l := 0; l < n; l++ {
				e := b.MatchedEdge(l)
				if e < 0 {
					t.Fatalf("trial %d round %d: left node %d unmatched", trial, round, l)
				}
				if minW < 0 || live[e] < minW {
					minW = live[e]
				}
			}
			coldVal := bottleneckValue(res, coldM)
			if minW != coldVal || b.Bottleneck() != coldVal {
				t.Fatalf("trial %d round %d: incremental bottleneck %d (Bottleneck() %d), cold bottleneck %d", trial, round, minW, b.Bottleneck(), coldVal)
			}
			// Peel: subtract the uniform minimum from matched edges.
			b.Peel(nil, minW)
		}
	}
}

func TestBottleneckIncDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomRegularish(rng, 6, 12, 3) // small weight range forces ties
	el, er, w := edgeArrays(g)
	run := func() []int {
		live := append([]int64(nil), w...)
		b := NewBottleneckInc(6, 6, el, er, live, len(el))
		var trace []int
		for b.Rematch(6) {
			for l := 0; l < 6; l++ {
				trace = append(trace, b.MatchedEdge(l))
			}
			b.Peel(nil, b.Bottleneck())
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
