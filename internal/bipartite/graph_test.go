package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewClampsNegativeSizes(t *testing.T) {
	g := New(-3, -1)
	if g.LeftCount() != 0 || g.RightCount() != 0 {
		t.Fatalf("got %dx%d, want 0x0", g.LeftCount(), g.RightCount())
	}
}

func TestFromMatrixBasic(t *testing.T) {
	g, err := FromMatrix([][]int64{
		{0, 5, 0},
		{7, 0, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.LeftCount() != 2 || g.RightCount() != 3 {
		t.Fatalf("size = %dx%d, want 2x3", g.LeftCount(), g.RightCount())
	}
	if g.EdgeCount() != 3 {
		t.Fatalf("edges = %d, want 3", g.EdgeCount())
	}
	if g.TotalWeight() != 14 {
		t.Fatalf("P(G) = %d, want 14", g.TotalWeight())
	}
}

func TestFromMatrixRaggedRows(t *testing.T) {
	g, err := FromMatrix([][]int64{
		{1},
		{0, 0, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.RightCount() != 3 {
		t.Fatalf("right count = %d, want 3", g.RightCount())
	}
	if g.EdgeCount() != 2 {
		t.Fatalf("edges = %d, want 2", g.EdgeCount())
	}
}

func TestFromMatrixRejectsNegative(t *testing.T) {
	if _, err := FromMatrix([][]int64{{-1}}); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name string
		l, r int
		w    int64
	}{
		{"left out of range", 5, 0, 1},
		{"left negative", -1, 0, 1},
		{"right out of range", 0, 9, 1},
		{"right negative", 0, -2, 1},
		{"zero weight", 0, 0, 0},
		{"negative weight", 0, 0, -3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			g := New(2, 2)
			g.AddEdge(tc.l, tc.r, tc.w)
		})
	}
}

// TestFromEdges: FromEdges builds the graph AddEdge would, over the very
// slice it is given (no copy), and refuses every edge AddEdge refuses.
func TestFromEdges(t *testing.T) {
	edges := []Edge{{L: 0, R: 1, Weight: 4}, {L: 1, R: 0, Weight: 2}, {L: 1, R: 1, Weight: 7}}
	want := New(2, 2)
	for _, e := range edges {
		want.AddEdge(e.L, e.R, e.Weight)
	}
	g := FromEdges(2, 2, edges)
	if !g.Equal(want) || g.Edge(0) != edges[0] {
		t.Fatalf("FromEdges built %v, want %v", g.Edges(), want.Edges())
	}
	if &g.edges[0] != &edges[0] {
		t.Fatal("FromEdges copied the edge slice instead of taking it over")
	}
	if e := FromEdges(3, 1, nil); e.EdgeCount() != 0 || e.LeftCount() != 3 || e.RightCount() != 1 {
		t.Fatalf("FromEdges(3, 1, nil) = %v", e)
	}
	for _, bad := range []Edge{{L: 5, R: 0, Weight: 1}, {L: -1, R: 0, Weight: 1}, {L: 0, R: 9, Weight: 1}, {L: 0, R: -2, Weight: 1}, {L: 0, R: 0, Weight: 0}, {L: 0, R: 0, Weight: -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromEdges accepted %+v", bad)
				}
			}()
			FromEdges(2, 2, []Edge{{L: 1, R: 1, Weight: 1}, bad})
		}()
	}
}

func TestNodeWeightsAndDegrees(t *testing.T) {
	g := New(2, 2)
	g.AddEdge(0, 0, 3)
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 1, 5)

	lw := g.LeftWeights()
	if lw[0] != 7 || lw[1] != 5 {
		t.Fatalf("left weights = %v, want [7 5]", lw)
	}
	rw := g.RightWeights()
	if rw[0] != 3 || rw[1] != 9 {
		t.Fatalf("right weights = %v, want [3 9]", rw)
	}
	if g.MaxNodeWeight() != 9 {
		t.Fatalf("W(G) = %d, want 9", g.MaxNodeWeight())
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("Δ(G) = %d, want 2", g.MaxDegree())
	}
	ld := g.LeftDegrees()
	if ld[0] != 2 || ld[1] != 1 {
		t.Fatalf("left degrees = %v, want [2 1]", ld)
	}
	rd := g.RightDegrees()
	if rd[0] != 1 || rd[1] != 2 {
		t.Fatalf("right degrees = %v, want [1 2]", rd)
	}
}

func TestActiveCounts(t *testing.T) {
	g := New(4, 3)
	g.AddEdge(0, 2, 1)
	g.AddEdge(3, 2, 1)
	if g.ActiveLeft() != 2 {
		t.Fatalf("active left = %d, want 2", g.ActiveLeft())
	}
	if g.ActiveRight() != 1 {
		t.Fatalf("active right = %d, want 1", g.ActiveRight())
	}
}

func TestParallelEdges(t *testing.T) {
	g := New(1, 1)
	g.AddEdge(0, 0, 2)
	g.AddEdge(0, 0, 3)
	if g.EdgeCount() != 2 {
		t.Fatalf("edges = %d, want 2 (multigraph)", g.EdgeCount())
	}
	if w := g.LeftWeights()[0]; w != 5 {
		t.Fatalf("w(L0) = %d, want 5", w)
	}
	m := g.ToMatrix()
	if m[0][0] != 5 {
		t.Fatalf("matrix coalesced = %d, want 5", m[0][0])
	}
}

func TestWeightRegular(t *testing.T) {
	g := New(2, 2)
	g.AddEdge(0, 0, 3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 2)
	g.AddEdge(1, 1, 3)
	r, ok := g.RegularWeight()
	if !ok || r != 5 {
		t.Fatalf("RegularWeight = (%d,%v), want (5,true)", r, ok)
	}
	g.AddEdge(0, 0, 1)
	if _, ok := g.RegularWeight(); ok {
		t.Fatal("graph should no longer be regular")
	}
}

func TestRegularWeightEdgeless(t *testing.T) {
	g := New(3, 3)
	r, ok := g.RegularWeight()
	if !ok || r != 0 {
		t.Fatalf("edgeless RegularWeight = (%d,%v), want (0,true)", r, ok)
	}
}

func TestSetWeightPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New(1, 1)
	g.AddEdge(0, 0, 2)
	g.SetWeight(0, 0)
}

func TestCloneIsDeep(t *testing.T) {
	g := New(2, 2)
	g.AddEdge(0, 1, 7)
	c := g.Clone()
	c.SetWeight(0, 5)
	c.AddEdge(1, 0, 3)
	if g.Edge(0).Weight != 7 {
		t.Fatalf("clone mutated original weight: %d", g.Edge(0).Weight)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("clone mutated original edge list: %d edges", g.EdgeCount())
	}
}

func TestMinMaxWeight(t *testing.T) {
	g := New(2, 2)
	if g.MinWeight() != 0 || g.MaxWeight() != 0 {
		t.Fatal("edgeless min/max should be 0")
	}
	g.AddEdge(0, 0, 9)
	g.AddEdge(1, 1, 4)
	if g.MinWeight() != 4 || g.MaxWeight() != 9 {
		t.Fatalf("min/max = %d/%d, want 4/9", g.MinWeight(), g.MaxWeight())
	}
}

func TestEqual(t *testing.T) {
	a := New(2, 2)
	a.AddEdge(0, 0, 1)
	a.AddEdge(1, 1, 2)
	b := New(2, 2)
	b.AddEdge(1, 1, 2)
	b.AddEdge(0, 0, 1)
	if !a.Equal(b) {
		t.Fatal("order-insensitive equality failed")
	}
	b.AddEdge(0, 1, 1)
	if a.Equal(b) {
		t.Fatal("graphs with different edges compared equal")
	}
	c := New(3, 2)
	c.AddEdge(0, 0, 1)
	c.AddEdge(1, 1, 2)
	if a.Equal(c) {
		t.Fatal("graphs with different sizes compared equal")
	}
}

func TestToMatrixRoundTrip(t *testing.T) {
	m := [][]int64{
		{0, 3, 0, 1},
		{2, 0, 0, 0},
		{0, 0, 7, 0},
	}
	g, err := FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	got := g.ToMatrix()
	for i := range m {
		for j := range m[i] {
			if got[i][j] != m[i][j] {
				t.Fatalf("round trip mismatch at (%d,%d): %d != %d", i, j, got[i][j], m[i][j])
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := New(2, 2)
	g.AddEdge(0, 0, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.edges[0].L = 99
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	g.edges[0] = Edge{L: 0, R: 0, Weight: 0}
	if err := g.Validate(); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestString(t *testing.T) {
	g := New(3, 4)
	g.AddEdge(0, 0, 1)
	if s := g.String(); s != "bipartite(3x4, 1 edges)" {
		t.Fatalf("String = %q", s)
	}
	if Left.String() != "left" || Right.String() != "right" {
		t.Fatal("Side.String wrong")
	}
}

// randomGraph builds a random graph for property tests.
func randomGraph(rng *rand.Rand, maxNodes, maxEdges int, maxWeight int64) *Graph {
	nl := 1 + rng.Intn(maxNodes)
	nr := 1 + rng.Intn(maxNodes)
	g := New(nl, nr)
	for i := 0; i < rng.Intn(maxEdges+1); i++ {
		g.AddEdge(rng.Intn(nl), rng.Intn(nr), 1+rng.Int63n(maxWeight))
	}
	return g
}

func TestQuickTotalWeightEqualsSideSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 10, 40, 50)
		var lsum, rsum int64
		for _, w := range g.LeftWeights() {
			lsum += w
		}
		for _, w := range g.RightWeights() {
			rsum += w
		}
		return lsum == g.TotalWeight() && rsum == g.TotalWeight()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDegreeSumsEqualEdgeCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 10, 40, 50)
		ls, rs := 0, 0
		for _, d := range g.LeftDegrees() {
			ls += d
		}
		for _, d := range g.RightDegrees() {
			rs += d
		}
		return ls == g.EdgeCount() && rs == g.EdgeCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMatrixRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 8, 30, 20)
		h, err := FromMatrix(g.ToMatrix())
		if err != nil {
			return false
		}
		// Parallel edges coalesce, so compare matrices, not edge lists.
		a, b := g.ToMatrix(), h.ToMatrix()
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					return false
				}
			}
		}
		return g.TotalWeight() == h.TotalWeight()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 8, 30, 20)
		return g.Equal(g.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowWords(t *testing.T) {
	for _, tc := range []struct{ nR, want int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3},
	} {
		g := New(1, tc.nR)
		if got := g.RowWords(); got != tc.want {
			t.Fatalf("RowWords with %d rights = %d, want %d", tc.nR, got, tc.want)
		}
	}
}

func TestAdjacencyRows(t *testing.T) {
	const nL, nR = 4, 70 // two words per row, partial last word
	g := New(nL, nR)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 69, 1)
	g.AddEdge(0, 69, 2) // parallel edge collapses onto the same bit
	g.AddEdge(2, 63, 1)
	g.AddEdge(2, 64, 1)
	rows := g.AdjacencyRows(nil)
	if len(rows) != nL*g.RowWords() {
		t.Fatalf("rows length %d, want %d", len(rows), nL*g.RowWords())
	}
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			want := false
			for _, e := range g.Edges() {
				if e.L == l && e.R == r {
					want = true
				}
			}
			got := rows[l*g.RowWords()+r/64]&(1<<uint(r%64)) != 0
			if got != want {
				t.Fatalf("bit (%d,%d) = %v, want %v", l, r, got, want)
			}
		}
	}
	// Reuse: a dirty dst of the right length is zeroed and refilled.
	for i := range rows {
		rows[i] = ^uint64(0)
	}
	again := g.AdjacencyRows(rows)
	if &again[0] != &rows[0] {
		t.Fatal("AdjacencyRows reallocated a correctly sized dst")
	}
	if again[1*g.RowWords()] != 0 {
		t.Fatal("dst not zeroed before filling")
	}
	// Wrong length must panic rather than fill out of step.
	defer func() {
		if recover() == nil {
			t.Fatal("AdjacencyRows accepted a wrong-length dst")
		}
	}()
	g.AdjacencyRows(make([]uint64, 1))
}
