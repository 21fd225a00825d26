package matching

import "testing"

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
	b := NewBottleneckInc(n, n, el, er, w, len(el))
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
	b := NewBottleneckInc(3, 2, el, er, w, len(el))
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

// forEachArm runs body on a fresh matcher over a private copy of the
// weights for each kernel arm.
func forEachArm(t *testing.T, nL, nR int, el, er []int, w []int64, body func(t *testing.T, b *BottleneckInc)) {
	t.Helper()
	for _, eng := range []Engine{EngineScalar, EngineBitset} {
		t.Run(eng.String(), func(t *testing.T) {
			live := append([]int64(nil), w...)
			b := NewBottleneckIncEngine(nL, nR, el, er, live, len(el), eng)
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

// wantMatched checks the matched edge of every left node of either
// incremental matcher.
func wantMatched(t *testing.T, b interface{ MatchedEdge(l int) int }, want []int) {
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
	forEachArm(t, 2, 2, el, er, w, func(t *testing.T, b *BottleneckInc) {
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
	forEachArm(t, 3, 3, el, er, w, func(t *testing.T, b *BottleneckInc) {
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
	forEachArm(t, 4, 4, el, er, w, func(t *testing.T, b *BottleneckInc) {
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
	forEachArm(t, 3, 3, el, er, w, func(t *testing.T, b *BottleneckInc) {
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
	forEachArm(t, 3, 4, el, er, w, func(t *testing.T, b *BottleneckInc) {
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
