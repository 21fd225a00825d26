package redistgo_test

import (
	"bytes"
	"strings"
	"testing"

	"redistgo"
)

// TestPatternFacades exercises the structured-pattern constructors of
// the public API.
func TestPatternFacades(t *testing.T) {
	if m, err := redistgo.PermutationMatrix([]int{1, 0}, 5); err != nil || m[0][1] != 5 {
		t.Fatalf("PermutationMatrix: %v %v", m, err)
	}
	if m, err := redistgo.ShiftMatrix(4, 2, 3); err != nil || m[0][2] != 3 {
		t.Fatalf("ShiftMatrix: %v %v", m, err)
	}
	if m, err := redistgo.TransposeMatrix(4, 7); err != nil || m[1][2] != 7 {
		t.Fatalf("TransposeMatrix: %v %v", m, err)
	}
	if m, err := redistgo.BitReversalMatrix(4, 9); err != nil || m[1][2] != 9 {
		t.Fatalf("BitReversalMatrix: %v %v", m, err)
	}
	if m, err := redistgo.AllToAllMatrix(3, 2, false); err != nil || redistgo.MatrixTotal(m) != 12 {
		t.Fatalf("AllToAllMatrix: %v %v", m, err)
	}
	m2d, err := redistgo.BlockCyclic2DMatrix(100, 100, 8,
		redistgo.Grid2DSpec{ProcRows: 2, ProcCols: 2, BlockRows: 4, BlockCols: 4},
		redistgo.Grid2DSpec{ProcRows: 2, ProcCols: 2, BlockRows: 8, BlockCols: 8})
	if err != nil || redistgo.MatrixTotal(m2d) != 100*100*8 {
		t.Fatalf("BlockCyclic2DMatrix: %v", err)
	}
}

// TestSVGFacade renders a schedule through the public API.
func TestSVGFacade(t *testing.T) {
	g, err := redistgo.FromMatrix([][]int64{{4, 3}, {2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := redistgo.Solve(g, 2, 1, redistgo.Options{Algorithm: redistgo.GGP})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := redistgo.WriteScheduleSVG(&buf, s, 2, redistgo.SVGOptions{Title: "facade"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("no SVG output")
	}
}

// TestSolveAllPublicAlgorithms exercises every exported algorithm
// constant plus the Pack post-pass through the facade.
func TestSolveAllPublicAlgorithms(t *testing.T) {
	g, err := redistgo.FromMatrix([][]int64{
		{6, 0, 2},
		{0, 4, 0},
		{3, 0, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []redistgo.Algorithm{redistgo.GGP, redistgo.OGGP, redistgo.MinSteps, redistgo.Greedy} {
		s, err := redistgo.Solve(g, 2, 1, redistgo.Options{Algorithm: alg, Pack: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if err := s.Validate(g, 2); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

// TestDeltaFacade exercises the retained-solve delta API and the solve
// cache through the public surface: a SolveDelta schedule must be
// byte-identical to a cold Solve of the edited instance, and a cache
// hit must return the bytes of the miss that populated it.
func TestDeltaFacade(t *testing.T) {
	m := [][]int64{
		{40, 0, 12},
		{0, 30, 7},
		{5, 0, 21},
	}
	g, err := redistgo.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	opts := redistgo.Options{Algorithm: redistgo.OGGP}
	res, err := redistgo.NewSolveResult(g, 2, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	edits := []redistgo.EditCell{{L: 2, R: 1, W: 17}, {L: 0, R: 2, W: 0}}
	got, err := redistgo.SolveDelta(res, edits)
	if err != nil {
		t.Fatal(err)
	}
	m[2][1], m[0][2] = 17, 0
	g2, err := redistgo.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := redistgo.Solve(g2, 2, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("delta schedule diverges from cold solve:\n%v\nvs\n%v", got, want)
	}

	cache := redistgo.NewSolveCache(4)
	s1, hit1, err := cache.GetOrSolve(g2, 2, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, hit2, err := cache.GetOrSolve(g2, 2, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Fatalf("hit flags: first %v, second %v", hit1, hit2)
	}
	if s1.String() != s2.String() || s1.String() != want.String() {
		t.Fatal("cache hit diverges from miss")
	}
}

// TestAggregateFacadeDispatch exercises the dispatch plan facade.
func TestAggregateFacadeDispatch(t *testing.T) {
	m := [][]int64{
		{50, 40},
		{0, 0},
	}
	plan, err := redistgo.BuildDispatchPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Evaluate(redistgo.AggregateConfig{K: 2, Beta: 1, LocalSpeedup: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.DirectCost <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
}
