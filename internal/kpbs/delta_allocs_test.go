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

// TestDeltaShardAutoRebuildAllocs pins what a steady-state rebuild of a
// connected ShardAuto base allocates, on the served delta64-stream shape:
// dense 64×64 GGP at k = 32 and β = 1, where every weight edit changes a
// normalized weight. Each round rebuilds into the Result's retained
// pipeline, so a weight-only round allocates nothing, and a structural
// round, which removes or restores cells, allocates only the merged graph:
// its header and its edge list, which Graph.Grow sizes once
// (structuralRebuildAllocs: 2, and 3 under -race, whose instrumented
// slices.Grow allocates its temporary apart from the grown list). Rounds alternate an
// edit batch and its inverse, so every rebuild is of a same-shaped
// instance.
func TestDeltaShardAutoRebuildAllocs(t *testing.T) {
	const n, k, beta = 64, 32, 1
	rng := rand.New(rand.NewSource(3))
	mat := make([]int64, n*n)
	for i := range mat {
		mat[i] = 1 + rng.Int63n(20)
	}
	for _, tc := range []struct {
		name string
		// edit returns the new weight of a cell of weight w.
		edit func(w int64) int64
		want float64
	}{
		{"weights", func(w int64) int64 { return w + 1 }, 0},
		{"structural", func(int64) int64 { return 0 }, structuralRebuildAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := NewResult(graphFromMatrix(t, mat, n, n), k, beta, Options{Algorithm: GGP, Shard: ShardAuto})
			if err != nil {
				t.Fatal(err)
			}
			// Four forward batches of 200 cells, each followed by its inverse.
			var batches [][]Edit
			for b := 0; b < 4; b++ {
				fwd, inv := make([]Edit, 0, 200), make([]Edit, 0, 200)
				for _, i := range rng.Perm(n * n)[:200] {
					fwd = append(fwd, Edit{L: i / n, R: i % n, W: tc.edit(mat[i])})
					inv = append(inv, Edit{L: i / n, R: i % n, W: mat[i]})
				}
				batches = append(batches, fwd, inv)
			}
			// Warm up over one whole cycle, so every buffer has its size.
			for _, edits := range batches {
				if _, err := res.SolveDelta(edits); err != nil {
					t.Fatal(err)
				}
			}
			round := 0
			var solveErr error
			var path DeltaPath
			avg := testing.AllocsPerRun(4*len(batches)-1, func() {
				if _, err := res.SolveDelta(batches[round%len(batches)]); err != nil {
					solveErr = err
				}
				path = res.Stats().Path
				round++
			})
			if solveErr != nil {
				t.Fatal(solveErr)
			}
			if path != DeltaRebuild {
				t.Fatalf("rounds took %v, want %v", path, DeltaRebuild)
			}
			if avg != tc.want {
				t.Fatalf("steady-state %s rebuild allocates %.0f objects per round, want %.0f", tc.name, avg, tc.want)
			}
		})
	}
}
