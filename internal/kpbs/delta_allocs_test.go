package kpbs

import (
	"math/rand"
	"testing"
)

// TestDeltaSteadyStateAllocs pins the steady-state allocation behavior of
// the reuse path: after warm-up, a weight-only edit round whose
// normalized instance is unchanged (the headline regime of `make
// bench-delta`) must run without a single heap allocation. A regression
// here silently turns the delta server into a GC treadmill, so the pin is
// exact, not a threshold.
func TestDeltaSteadyStateAllocs(t *testing.T) {
	const n, k, beta = 32, 8, 8
	rng := rand.New(rand.NewSource(9))
	mat := make([]int64, n*n)
	for i := range mat {
		mat[i] = 32 + rng.Int63n(160)
	}
	g := graphFromMatrix(t, mat, n, n)
	res, err := NewResult(g, k, beta, Options{Algorithm: GGP})
	if err != nil {
		t.Fatal(err)
	}

	// β-absorption jitter: raw weights move but every ceil(w/β) bucket is
	// preserved, so the normalized instance — and the retained peel — is
	// untouched and SolveDelta takes the reuse path.
	jitter := func() []Edit {
		edits := make([]Edit, 0, 64)
		for len(edits) < 64 {
			i := rng.Intn(n * n)
			w := mat[i]
			bucket := (w + beta - 1) / beta
			lo, hi := (bucket-1)*beta+1, bucket*beta
			nw := lo + rng.Int63n(hi-lo+1)
			mat[i] = nw
			edits = append(edits, Edit{L: i / n, R: i % n, W: nw})
		}
		return edits
	}

	// Warm up arenas and pre-draw the measured rounds: AllocsPerRun must
	// observe only SolveDelta, not the edit generator.
	if _, err := res.SolveDelta(jitter()); err != nil {
		t.Fatal(err)
	}
	if res.Stats().Path != DeltaReuse {
		t.Fatalf("jitter warm-up took %v, want DeltaReuse", res.Stats().Path)
	}
	const rounds = 10
	batches := make([][]Edit, rounds)
	for i := range batches {
		batches[i] = jitter()
	}
	var round int
	avg := testing.AllocsPerRun(rounds-1, func() {
		if _, err := res.SolveDelta(batches[round%rounds]); err != nil {
			t.Fatal(err)
		}
		round++
	})
	if avg != 0 {
		t.Errorf("reuse path allocates %.1f objects per round, want 0", avg)
	}
	if res.Stats().Path != DeltaReuse {
		t.Fatalf("measured rounds took %v, want DeltaReuse", res.Stats().Path)
	}
}
