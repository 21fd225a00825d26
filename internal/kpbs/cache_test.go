package kpbs

import (
	"math/rand"
	"sync"
	"testing"

	"redistgo/internal/bipartite"
)

// TestHashInstanceLayoutIndependence is the canonical-hashing regression:
// the content address is a function of the traffic matrix, not of edge
// insertion order. Before the sorted-edge-list fix, permuting AddEdge
// calls produced distinct keys and equal instances missed each other's
// cache entries.
func TestHashInstanceLayoutIndependence(t *testing.T) {
	type cell struct {
		l, r int
		w    int64
	}
	cells := []cell{{0, 1, 5}, {2, 0, 7}, {1, 1, 3}, {0, 0, 9}, {2, 2, 1}}
	opts := Options{Algorithm: GGP}
	build := func(perm []int) *bipartite.Graph {
		g := bipartite.New(3, 3)
		for _, i := range perm {
			g.AddEdge(cells[i].l, cells[i].r, cells[i].w)
		}
		return g
	}
	base := HashInstance(build([]int{0, 1, 2, 3, 4}), 4, 2, opts)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(cells))
		if got := HashInstance(build(perm), 4, 2, opts); got != base {
			t.Fatalf("permutation %v changed the key: %v vs %v", perm, got, base)
		}
	}
	// Any parameter or content difference must change the key.
	canon := []int{0, 1, 2, 3, 4}
	if HashInstance(build(canon), 5, 2, opts) == base {
		t.Fatal("k change kept the key")
	}
	if HashInstance(build(canon), 4, 3, opts) == base {
		t.Fatal("beta change kept the key")
	}
	if HashInstance(build(canon), 4, 2, Options{Algorithm: OGGP}) == base {
		t.Fatal("algorithm change kept the key")
	}
	if HashInstance(build(canon), 4, 2, Options{Algorithm: GGP, Pack: true}) == base {
		t.Fatal("pack change kept the key")
	}
	if HashInstance(build(canon), 4, 2, Options{Algorithm: GGP, Shard: shardAlways}) == base {
		t.Fatal("shard change kept the key")
	}
	// Raw weights differing only within a β bucket still denormalize to
	// different schedules, so they must hash apart.
	g2 := bipartite.New(3, 3)
	for _, c := range cells {
		g2.AddEdge(c.l, c.r, c.w)
	}
	g2.SetWeight(0, 6) // 5 -> 6: same ceil(w/2) bucket as... different raw
	if HashInstance(g2, 4, 2, opts) == base {
		t.Fatal("raw weight change kept the key")
	}
}

// TestHashInstanceCanonicalPath: a canonically ordered graph
// (bipartite.FromMatrix) is hashed by iterating its edges in place — no
// copy, no sort, no allocation — and the key still matches the copy+sort
// fallback a permuted construction of the same matrix takes. Guards the
// serve-path lookup staying allocation-free.
func TestHashInstanceCanonicalPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 16
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			if rng.Intn(3) > 0 {
				m[i][j] = 1 + rng.Int63n(1<<12)
			}
		}
	}
	canon, err := bipartite.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the same matrix with reversed insertion order: guaranteed
	// non-canonical (first two edges descend), so it exercises the sort
	// fallback.
	edges := canon.Edges()
	perm := bipartite.New(n, n)
	for i := len(edges) - 1; i >= 0; i-- {
		perm.AddEdge(edges[i].L, edges[i].R, edges[i].Weight)
	}
	opts := Options{Algorithm: GGP}
	if HashInstance(canon, 3, 16, opts) != HashInstance(perm, 3, 16, opts) {
		t.Fatal("in-place hash of the canonical graph differs from the sort-fallback hash of its permutation")
	}
	if avg := testing.AllocsPerRun(50, func() {
		HashInstance(canon, 3, 16, opts)
	}); avg != 0 {
		t.Errorf("canonical-path HashInstance allocates %v per call, want 0", avg)
	}
}

// TestSolveCacheHitMissEvict exercises the LRU bound and hit accounting.
func TestSolveCacheHitMissEvict(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewSolveCache(2, nil)
	opts := Options{Algorithm: GGP}
	mats := make([][]int64, 3)
	for i := range mats {
		mats[i] = randomDeltaMatrix(rng, 6, 6, 0.7, 20)
	}
	g := func(i int) *bipartite.Graph { return graphFromMatrix(t, mats[i], 6, 6) }

	s0, hit, err := c.GetOrSolve(g(0), 3, 1, opts)
	if err != nil || hit {
		t.Fatalf("first solve: hit=%v err=%v", hit, err)
	}
	s0b, hit, err := c.GetOrSolve(g(0), 3, 1, opts)
	if err != nil || !hit {
		t.Fatalf("second solve: hit=%v err=%v", hit, err)
	}
	if s0b != s0 {
		t.Fatal("hit did not return the cached snapshot")
	}
	want, _ := Solve(g(0), 3, 1, opts)
	if s0.String() != want.String() {
		t.Fatal("cached schedule differs from cold solve")
	}
	// Fill past capacity: 0 becomes LRU and is evicted.
	if _, hit, _ := c.GetOrSolve(g(1), 3, 1, opts); hit {
		t.Fatal("unexpected hit")
	}
	if _, hit, _ := c.GetOrSolve(g(2), 3, 1, opts); hit {
		t.Fatal("unexpected hit")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, hit, _ := c.GetOrSolve(g(0), 3, 1, opts); hit {
		t.Fatal("evicted entry still hit")
	}
	if _, hit, _ := c.GetOrSolve(g(2), 3, 1, opts); !hit {
		t.Fatal("recent entry was evicted")
	}
}

// TestSolveCacheEdgeOrder: a schedule depends on the graph's edge order
// while the cache key does not, so a graph in reversed edge order solves
// uncached, byte-identical to Solve of that graph, and never shares an
// entry with the row-major graph of the same matrix.
func TestSolveCacheEdgeOrder(t *testing.T) {
	mat := randomDeltaMatrix(rand.New(rand.NewSource(5)), 6, 6, 0.8, 40)
	canon := graphFromMatrix(t, mat, 6, 6)
	edges := canon.Edges()
	rev := bipartite.New(6, 6)
	for i := len(edges) - 1; i >= 0; i-- {
		rev.AddEdge(edges[i].L, edges[i].R, edges[i].Weight)
	}
	opts := Options{Algorithm: GGP}
	a, errA := Solve(canon, 3, 1, opts)
	b, errB := Solve(rev, 3, 1, opts)
	if errA != nil || errB != nil || a.String() == b.String() {
		t.Fatalf("the two edge orders must solve to different schedules (errs %v, %v)", errA, errB)
	}
	c := NewSolveCache(2, nil)
	for _, g := range []*bipartite.Graph{canon, rev, rev, canon} {
		got, _, err := c.GetOrSolve(g, 3, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(g, 3, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatal("cached answer differs from Solve of the caller's graph")
		}
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (the row-major graph only)", c.Len())
	}
}

// TestSolveCacheSingleFlight hammers one key from many goroutines; every
// caller must receive the same schedule bytes.
func TestSolveCacheSingleFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mat := randomDeltaMatrix(rng, 12, 12, 0.8, 50)
	c := NewSolveCache(4, nil)
	opts := Options{Algorithm: OGGP}
	want, err := Solve(graphFromMatrix(t, mat, 12, 12), 4, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	out := make([]string, 16)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, _, err := c.GetOrSolve(graphFromMatrix(t, mat, 12, 12), 4, 2, opts)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = s.String()
		}(i)
	}
	wg.Wait()
	for i, s := range out {
		if s != want.String() {
			t.Fatalf("caller %d got a different schedule", i)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestSolveCacheError pins that failing instances are not cached and do
// not poison the key.
func TestSolveCacheError(t *testing.T) {
	mat := []int64{5, 3, 2, 7}
	c := NewSolveCache(4, nil)
	if _, _, err := c.GetOrSolve(graphFromMatrix(t, mat, 2, 2), 0, 1, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
	if _, _, err := c.GetOrSolve(graphFromMatrix(t, mat, 2, 2), 2, 1, Options{}); err != nil {
		t.Fatal(err)
	}
}
