package matching

import (
	"math/rand"
	"testing"

	"redistgo/internal/bipartite"
)

// edgeArrays extracts the parallel endpoint/weight arrays the incremental
// matcher consumes from a bipartite.Graph.
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
		b := NewBottleneckInc(n, n, el, er, live, len(el), EngineAuto, ModeBottleneck)
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
		b := NewBottleneckInc(6, 6, el, er, live, len(el), EngineAuto, ModeBottleneck)
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

// TestBottleneckIncDeepAugmentingPath is the regression test for the
// iterative augment: a 50k-node chain whose insertion order forces one
// augmenting path through every node. The recursive DFS this replaced
// recursed to depth n here — fine while goroutine stacks could still
// grow, fatal on the larger sparse instances component sharding unlocks —
// so the test pins both that the deep path is found at all and that the
// matching it produces is the bottleneck-optimal one.
//
// Construction: weight-2 edges (i, i+1) for i < n-1 are inserted first
// and greedily match left i to right i+1, leaving left n-1 and right 0
// exposed. The weight-1 diagonal (i, i) then admits a perfect matching
// only through the full alternating chain
// (n-1,n-1), (n-2,n-2), ..., (0,0) — an augmenting path of length n.
func TestBottleneckIncDeepAugmentingPath(t *testing.T) {
	const n = 50_000
	var el, er []int
	var w []int64
	for i := 0; i < n-1; i++ {
		el = append(el, i)
		er = append(er, i+1)
		w = append(w, 2)
	}
	for i := 0; i < n; i++ {
		el = append(el, i)
		er = append(er, i)
		w = append(w, 1)
	}
	b := NewBottleneckInc(n, n, el, er, w, len(el), EngineAuto, ModeBottleneck)
	if !b.Rematch(n) {
		t.Fatalf("perfect matching of size %d not found", n)
	}
	if b.Size() != n {
		t.Fatalf("matching size %d, want %d", b.Size(), n)
	}
	// The only perfect matching is the diagonal: every left node must hold
	// its weight-1 edge, so the bottleneck (minimum matched weight) is 1.
	var min int64 = 1 << 62
	for l := 0; l < n; l++ {
		e := b.MatchedEdge(l)
		if e < 0 {
			t.Fatalf("left %d unmatched in a perfect matching", l)
		}
		if el[e] != l {
			t.Fatalf("edge %d at left %d has endpoint %d", e, l, el[e])
		}
		if er[e] != l {
			t.Fatalf("left %d matched to right %d, want diagonal", l, er[e])
		}
		if w[e] < min {
			min = w[e]
		}
	}
	if min != 1 {
		t.Fatalf("bottleneck weight %d, want 1", min)
	}
}

// TestBottleneckIncIterativeMatchesRecursiveOrder locks the augment
// traversal order: on a small graph where several augmenting paths exist,
// the matching must equal the one the recursive implementation chose.
// Adjacency slots are now kept in canonical (right, edge-index) order —
// which coincides with insertion order here — and the first free right
// endpoint wins.
func TestBottleneckIncIterativeMatchesRecursiveOrder(t *testing.T) {
	// Left 0 and 1 both connect to rights 0 and 1; left 2 only to right 0.
	// Equal weights put all edges in one insertion group; the documented
	// deterministic outcome below came from the recursive version and must
	// never drift.
	el := []int{0, 0, 1, 1, 2}
	er := []int{0, 1, 0, 1, 0}
	w := []int64{5, 5, 5, 5, 5}
	b := NewBottleneckInc(3, 2, el, er, w, len(el), EngineAuto, ModeBottleneck)
	if b.Rematch(3) {
		t.Fatal("matching of size 3 in a 3x2 graph")
	}
	// The target may not shrink between Rematch calls, so start over.
	b.Reset()
	if !b.Rematch(2) {
		t.Fatal("no matching of size 2")
	}
	// From the empty matching, growth alone decides: left 0 takes right 0
	// via edge 0, left 1 augments to right 1... the recursive
	// implementation settled on edges {1, 2}: left 0 -> right 1, left 1 ->
	// right 0, left 2 free.
	if g0, g1 := b.MatchedEdge(0), b.MatchedEdge(1); g0 != 1 || g1 != 2 {
		t.Fatalf("matched edges (%d, %d), want (1, 2)", g0, g1)
	}
	if b.MatchedEdge(2) != -1 {
		t.Fatalf("left 2 matched to edge %d, want free", b.MatchedEdge(2))
	}
}

// --- dead-region transitions --------------------------------------------
//
// Each test below drives one transition of the dead region (see the
// BottleneckInc doc comment) on both kernel arms. The matchings are
// derived by hand from the insertion order (weight desc, index asc), the
// single ascending root pass after each weight group, and the canonical
// candidate order (right ascending). Because skipped searches never change
// the result, the transitions are otherwise invisible, so the tests also
// count stamps: one per Rematch, one per successful augmentation and one
// per region reset.

// forEachArm runs body on a fresh matcher in the given mode over a private
// copy of the weights for each kernel arm.
func forEachArm(t *testing.T, mode Mode, nL, nR int, el, er []int, w []int64, body func(t *testing.T, b *BottleneckInc)) {
	t.Helper()
	for _, eng := range []Engine{EngineScalar, EngineBitset} {
		t.Run(eng.String(), func(t *testing.T) {
			live := append([]int64(nil), w...)
			b := NewBottleneckInc(nL, nR, el, er, live, len(el), eng, mode)
			if b.UsesBitset() != (eng == EngineBitset) {
				t.Fatalf("engine %v not pinned", eng)
			}
			body(t, b)
		})
	}
}

// rematchStamps runs Rematch and reports how many stamps it consumed.
func rematchStamps(b *BottleneckInc, target int) (bool, int) {
	before := b.stamp
	ok := b.Rematch(target)
	return ok, b.stamp - before
}

// wantMatched checks the matched edge of every left node.
func wantMatched(t *testing.T, b *BottleneckInc, want []int) {
	t.Helper()
	for l, e := range want {
		if got := b.MatchedEdge(l); got != e {
			t.Fatalf("left %d matched to edge %d, want %d (want matching %v)", l, got, e, want)
		}
	}
}

// TestDeadRegionResetAfterAugment: a successful search marks nodes that
// are not dead, so the region must be emptied before the next root.
//
// One weight group: e0 (0,0), e1 (0,1), e2 (1,0). Root 0 takes right 0
// via e0 and marks it. Root 1 reaches right 0 only if that mark is gone:
// then it descends to left 0, which moves to right 1, so left 1 takes e2.
// Without the reset root 1 would find nothing and the target 2 fail.
func TestDeadRegionResetAfterAugment(t *testing.T) {
	el := []int{0, 0, 1}
	er := []int{0, 1, 0}
	w := []int64{5, 5, 5}
	forEachArm(t, ModeBottleneck, 2, 2, el, er, w, func(t *testing.T, b *BottleneckInc) {
		ok, stamps := rematchStamps(b, 2)
		if !ok {
			t.Fatal("perfect matching not found")
		}
		wantMatched(t, b, []int{1, 2})
		if stamps != 3 { // Rematch + two augmentations
			t.Fatalf("%d stamps, want 3", stamps)
		}
	})
}

// TestDeadRegionRevivedByFreeRight: a dead root gains, in a later weight
// group, an edge to a free right node; the region resets and the root is
// searched again.
//
// Group 5: e0 (0,1), e1 (0,2), e2 (1,0), e3 (2,0). Root 0 takes right 1
// (e0), root 1 takes right 0 (e2), and root 2 fails through right 0 and
// left 1: the region is {right 0; left 1, left 2}, while right 2 stays
// free. Group 3: e4 (2,2) joins dead left 2 to free right 2, which resets
// the region, and root 2 then takes right 2.
func TestDeadRegionRevivedByFreeRight(t *testing.T) {
	el := []int{0, 0, 1, 2, 2}
	er := []int{1, 2, 0, 0, 2}
	w := []int64{5, 5, 5, 5, 3}
	forEachArm(t, ModeBottleneck, 3, 3, el, er, w, func(t *testing.T, b *BottleneckInc) {
		ok, stamps := rematchStamps(b, 3)
		if !ok {
			t.Fatal("perfect matching not found: the dead root was never revived")
		}
		wantMatched(t, b, []int{0, 2, 4})
		if stamps != 5 { // Rematch + three augmentations + one reset
			t.Fatalf("%d stamps, want 5", stamps)
		}
	})
}

// TestDeadRegionExtendsToMatchedRight: a dead left node gains an edge to a
// matched right node outside the region whose partner reaches no free
// right node; the region grows instead of resetting.
//
// Group 5: e0 (0,2), e1 (0,3), e2 (1,1), e3 (2,0), e4 (3,0). Roots 0, 1
// and 2 take rights 2, 1 and 0; root 3 fails through right 0 and left 2
// (right 3, free, hangs off left 0 only). Group 3: e5 (3,1) joins dead
// left 3 to right 1, matched to left 1, whose only edge leads back to
// right 1: the region becomes {rights 0, 1; lefts 1, 2, 3} and root 3 is
// skipped. Lefts 1, 2 and 3 share rights 0 and 1, so no perfect matching
// exists.
func TestDeadRegionExtendsToMatchedRight(t *testing.T) {
	el := []int{0, 0, 1, 2, 3, 3}
	er := []int{2, 3, 1, 0, 0, 1}
	w := []int64{5, 5, 5, 5, 5, 3}
	forEachArm(t, ModeBottleneck, 4, 4, el, er, w, func(t *testing.T, b *BottleneckInc) {
		ok, stamps := rematchStamps(b, 4)
		if ok {
			t.Fatal("perfect matching reported where none exists")
		}
		wantMatched(t, b, []int{0, 2, 3, -1})
		if stamps != 4 { // Rematch + three augmentations, no reset
			t.Fatalf("%d stamps, want 4", stamps)
		}
		for _, r := range []int{0, 1} {
			if !b.deadRight(r) {
				t.Fatalf("right %d not in the extended region", r)
			}
		}
		for _, l := range []int{1, 2, 3} {
			if !b.deadLeft(l) {
				t.Fatalf("left %d not in the extended region", l)
			}
		}
		if b.deadLeft(0) || b.deadRight(2) || b.deadRight(3) {
			t.Fatal("region spread beyond the nodes the extension reached")
		}
	})
}

// --- threshold persistence -----------------------------------------------
//
// The tests below drive Rematch across a peel: the threshold, the working
// graph and the matching carry over (see the BottleneckInc doc comment).

// TestRematchKeepsPairsAboveThreshold: the pairs still at or above the
// threshold after a peel stay matched without a search; only the exposed
// nodes are repaired, and the threshold falls one group to do it.
//
// e0 (0,0) and e1 (1,1) weigh 10, e2 (2,2) and e3 (2,2) weigh 3 and 2. The
// first Rematch admits groups 10 and 3 and matches e0, e1, e2 at t = 3. The
// peel takes 3: e2 dies, e0 and e1 keep 7 ≥ t. The second Rematch finds no
// edge for left 2 at t = 3, lowers t to 2, admits e3 and runs one search.
func TestRematchKeepsPairsAboveThreshold(t *testing.T) {
	el := []int{0, 1, 2, 2}
	er := []int{0, 1, 2, 2}
	w := []int64{10, 10, 3, 2}
	forEachArm(t, ModeBottleneck, 3, 3, el, er, w, func(t *testing.T, b *BottleneckInc) {
		if !b.Rematch(3) {
			t.Fatal("first Rematch(3) failed")
		}
		wantMatched(t, b, []int{0, 1, 2})
		if b.t != 3 || b.Bottleneck() != 3 {
			t.Fatalf("threshold %d, bottleneck %d after the first Rematch, want 3", b.t, b.Bottleneck())
		}
		if _, died := b.Peel(nil, 3); died != 1 {
			t.Fatalf("peel of 3 killed %d edges, want 1 (e2)", died)
		}
		wantMatched(t, b, []int{0, 1, -1})
		ok, stamps := rematchStamps(b, 3)
		if !ok {
			t.Fatal("second Rematch(3) failed")
		}
		wantMatched(t, b, []int{0, 1, 3})
		if stamps != 2 { // Rematch + one augmentation; e0 and e1 never searched
			t.Fatalf("%d stamps, want 2", stamps)
		}
		if b.t != 2 {
			t.Fatalf("threshold %d, want 2", b.t)
		}
	})
}

// TestRematchReadmitsDroppedEdge: a matched edge the peel pushes below the
// threshold, but not to zero, leaves the working graph for the re-entry
// heap and comes back when the threshold reaches its new weight. Its left
// node is dead by then, and the edge leads to a free right node, so the
// region resets and the root is searched again.
//
// The first Rematch(1) matches the heaviest edge e4 (2,3) alone at t = 7;
// the peel then lowers it from 7 to 2 and drops it onto the heap. Group 5
// — e0 (0,1), e1 (0,2), e2 (1,0), e3 (2,0) — gives roots 0 and 1 rights 1
// and 0, and root 2 fails through right 0 and left 1.
// Group 2 re-admits e4 from the heap: dead left 2 gains an edge to free
// right 3, the region resets, and root 2 takes e4.
func TestRematchReadmitsDroppedEdge(t *testing.T) {
	el := []int{0, 0, 1, 2, 2}
	er := []int{1, 2, 0, 0, 3}
	w := []int64{5, 5, 5, 5, 7}
	forEachArm(t, ModeBottleneck, 3, 4, el, er, w, func(t *testing.T, b *BottleneckInc) {
		if !b.Rematch(1) {
			t.Fatal("first Rematch(1) failed")
		}
		wantMatched(t, b, []int{-1, -1, 4})
		b.Peel(nil, 5)
		if b.nHeap != 1 || b.admitted(4) || b.MatchedEdge(2) != -1 {
			t.Fatalf("after the peel: %d edges on the heap, e4 admitted %v, left 2 matched to %d; want 1, false, -1", b.nHeap, b.admitted(4), b.MatchedEdge(2))
		}
		ok, stamps := rematchStamps(b, 3)
		if !ok {
			t.Fatal("second Rematch(3) failed")
		}
		wantMatched(t, b, []int{0, 2, 4})
		if stamps != 5 { // Rematch + three augmentations + one reset
			t.Fatalf("%d stamps, want 5", stamps)
		}
		if b.t != 2 || b.nHeap != 0 || !b.admitted(4) {
			t.Fatalf("threshold %d, %d edges on the heap, e4 admitted %v; want 2, 0, true", b.t, b.nHeap, b.admitted(4))
		}
	})
}

// --- ModeAny: any maximum matching, breadth-first repair --------------------
//
// The tests below drive the mode GGP peels with: every live edge admitted,
// Rematch(nL) growing a maximum matching with breadth-first searches.

func TestIncrementalMatchesMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		g := bipartite.New(n, n)
		for i := 0; i < rng.Intn(4*n+1); i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Int63n(9))
		}
		el, er, w := edgeArrays(g)
		b := NewBottleneckInc(n, n, el, er, w, len(el), EngineAuto, ModeAny)
		b.Rematch(n)
		if got, want := b.Size(), Maximum(g).Size; got != want {
			t.Fatalf("trial %d: incremental size %d, Hopcroft–Karp size %d", trial, got, want)
		}
		if m := b.Matching(); !Validate(g, m) {
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
		b := NewBottleneckInc(n, n, el, er, w, len(el), EngineAuto, ModeAny)
		b.Rematch(n)
		dead := make(map[int]bool)
		for round := 0; round < g.EdgeCount(); round++ {
			// Kill one currently-matched edge, then repair.
			victim := -1
			for l := 0; l < n; l++ {
				if e := b.MatchedEdge(l); e >= 0 {
					victim = e
					break
				}
			}
			if victim < 0 {
				break
			}
			b.Deactivate(victim)
			dead[victim] = true
			b.Rematch(n)
			m := b.Matching()
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
	b := NewBottleneckInc(8, 8, el, er, w, len(el), EngineAuto, ModeAny)
	b.Rematch(8)
	first := b.Size()
	for e := 0; e < g.EdgeCount(); e += 3 {
		b.Deactivate(e)
	}
	b.Rematch(8)
	b.Reset()
	b.Rematch(8)
	if got := b.Size(); got != first {
		t.Fatalf("size after reset %d, want %d", got, first)
	}
	if m := b.Matching(); !Validate(g, m) {
		t.Fatalf("invalid matching after reset: %+v", m)
	}
}

// unitWeights returns m weights of 1.
func unitWeights(m int) []int64 {
	w := make([]int64, m)
	for i := range w {
		w[i] = 1
	}
	return w
}

// setMatching installs a warm matching on a fresh ModeAny matcher, the
// state a search test starts from: edgeOfLeft[l] is the edge matched at
// left node l, or -1 when l is exposed. The matched nodes leave the roots,
// the free-node counts and the free-right bitset.
func setMatching(b *BottleneckInc, edgeOfLeft ...int) {
	for l, e := range edgeOfLeft {
		if e < 0 {
			continue
		}
		r := b.edgeR[e]
		b.matchL[l] = e
		b.matchR[r] = e
		b.size++
		b.roots[l>>6] &^= 1 << uint(l&63)
		b.freeTouchL--
		b.freeTouchR--
		if b.useBits {
			b.freeR[r>>6] &^= 1 << uint(r&63)
		}
	}
}

// TestSearchPermutationVisits: on a permutation graph every search from an
// empty matching stops at the first right node it visits, its root's only
// neighbor, so Rematch visits exactly n right nodes.
func TestSearchPermutationVisits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 17, 64, 65, 100} {
		perm := rng.Perm(n)
		el := make([]int, n)
		er := make([]int, n)
		for i := range el {
			el[i], er[i] = i, perm[i]
		}
		forEachArm(t, ModeAny, n, n, el, er, unitWeights(n), func(t *testing.T, b *BottleneckInc) {
			if !b.Rematch(n) || b.Size() != n {
				t.Fatalf("n=%d: matched %d, want %d", n, b.Size(), n)
			}
			if got := b.Visits(); got != n {
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
	forEachArm(t, ModeAny, 4, 4, el, er, unitWeights(len(el)), func(t *testing.T, b *BottleneckInc) {
		setMatching(b, -1, 2, 4, 6)
		if !b.Rematch(4) {
			t.Fatalf("matched %d, want 4", b.Size())
		}
		wantMatched(t, b, []int{1, 2, 5, 6})
		// R0 and R1 from L0, R2 from L1, then R3 from L2.
		if got := b.Visits(); got != 4 {
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
	forEachArm(t, ModeAny, 2, 2, el, er, unitWeights(len(el)), func(t *testing.T, b *BottleneckInc) {
		setMatching(b, -1, 1)
		b.Deactivate(2)
		if !b.Rematch(2) {
			t.Fatalf("matched %d, want 2", b.Size())
		}
		wantMatched(t, b, []int{0, 3})
		b.Deactivate(3)
		if !b.Rematch(2) {
			t.Fatalf("re-matched %d, want 2", b.Size())
		}
		wantMatched(t, b, []int{0, 4})
	})
}

// TestSearchFailedRootStaysExposed: L0, L1 and L2 all reach R0 and only L2
// reaches R1, so no perfect matching exists. L0 takes R0, the search from
// L1 fails, and L2 takes R1; the size equals the cold Maximum's, and L1
// stays exposed through a second Rematch.
func TestSearchFailedRootStaysExposed(t *testing.T) {
	el := []int{0, 1, 2, 2}
	er := []int{0, 0, 0, 1}
	g := bipartite.New(3, 2)
	for i := range el {
		g.AddEdge(el[i], er[i], 1)
	}
	want := Maximum(g).Size
	forEachArm(t, ModeAny, 3, 2, el, er, unitWeights(len(el)), func(t *testing.T, b *BottleneckInc) {
		for pass := 0; pass < 2; pass++ {
			if b.Rematch(3) || b.Size() != want {
				t.Fatalf("pass %d: matched %d, cold Maximum %d", pass, b.Size(), want)
			}
			wantMatched(t, b, []int{0, -1, 3})
		}
	})
}
