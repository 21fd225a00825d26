package kpbs

import (
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
)

// Golden snapshots lock the exact output of the schedulers on a fixed
// instance: any change to matching order, augmentation packing or
// de-normalization shows up here first. The instance is the quickstart
// example's matrix with k=3, β=1 (in the spirit of paper Figure 2).
//
// Regenerated for the incremental peeling engine: warm-started matchings
// legitimately pick different (equally valid) perfect matchings than the
// cold-start loop, so the step contents shifted while costs, step counts
// and total durations stayed identical (GGP cost 19, OGGP cost 17).
//
// Regenerated again for the canonical-order matching core (bitset PR):
// the GGP matcher began to traverse candidates right-vertex-ascending,
// with a forced-edge pass in front, which happened to pick a better
// sequence of perfect matchings on this instance — GGP dropped from 7
// steps (cost 19) to 5 (cost 17), tying OGGP; OGGP's schedule was
// unaffected. The breadth-first repair that later replaced the pass and
// the Hopcroft–Karp phases reproduces the same bytes. Both engine arms
// (scalar and bitset) must reproduce these bytes exactly:
// TestGoldenEngineArms pins that.

func goldenGraph(t *testing.T) *bipartite.Graph {
	t.Helper()
	return mustGraph(t, [][]int64{
		{8, 3, 0, 0},
		{4, 5, 0, 0},
		{0, 0, 5, 0},
		{0, 0, 2, 4},
	})
}

func TestGoldenGGP(t *testing.T) {
	s, err := Solve(goldenGraph(t), 3, 1, Options{Algorithm: GGP})
	if err != nil {
		t.Fatal(err)
	}
	const want = `schedule: 5 steps, total duration 12, beta 1, cost 17
  step 1 (duration 5): 0->0:5 1->1:5
  step 2 (duration 1): 0->1:1 1->0:1 2->2:1
  step 3 (duration 2): 0->1:2 1->0:2 3->2:2
  step 4 (duration 1): 1->0:1 2->2:1 3->3:1
  step 5 (duration 3): 0->0:3 2->2:3 3->3:3
`
	if got := s.String(); got != want {
		t.Fatalf("golden GGP schedule changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenEngineArms re-solves the golden instance with both kernel
// arms pinned and requires byte-identical output — the strongest cheap
// check of the canonical-order equivalence argument (DESIGN.md §11).
func TestGoldenEngineArms(t *testing.T) {
	for _, alg := range []Algorithm{GGP, OGGP, MinSteps} {
		auto, err := Solve(goldenGraph(t), 3, 1, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := Solve(goldenGraph(t), 3, 1, Options{Algorithm: alg, engine: matching.EngineScalar})
		if err != nil {
			t.Fatal(err)
		}
		bitset, err := Solve(goldenGraph(t), 3, 1, Options{Algorithm: alg, engine: matching.EngineBitset})
		if err != nil {
			t.Fatal(err)
		}
		if scalar.String() != bitset.String() {
			t.Fatalf("%v: scalar and bitset schedules differ:\n--- scalar ---\n%s--- bitset ---\n%s", alg, scalar.String(), bitset.String())
		}
		if auto.String() != scalar.String() {
			t.Fatalf("%v: auto schedule differs from the pinned arms:\n--- auto ---\n%s--- scalar ---\n%s", alg, auto.String(), scalar.String())
		}
	}
}

func TestGoldenOGGP(t *testing.T) {
	s, err := Solve(goldenGraph(t), 3, 1, Options{Algorithm: OGGP})
	if err != nil {
		t.Fatal(err)
	}
	const want = `schedule: 5 steps, total duration 12, beta 1, cost 17
  step 1 (duration 5): 0->0:5 1->1:5
  step 2 (duration 3): 0->0:3 2->2:3 3->3:3
  step 3 (duration 2): 0->1:2 1->0:2 3->2:2
  step 4 (duration 1): 1->0:1 2->2:1 3->3:1
  step 5 (duration 1): 0->1:1 1->0:1 2->2:1
`
	if got := s.String(); got != want {
		t.Fatalf("golden OGGP schedule changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The paper's Figure-2 property: OGGP beats GGP by one β here, and
	// both achieve the structurally optimal transmission time W(G) = 12.
	if s.TotalDuration() != 12 {
		t.Fatalf("duration = %d, want 12", s.TotalDuration())
	}
}
