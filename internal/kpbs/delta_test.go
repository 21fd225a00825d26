package kpbs

import (
	"math/rand"
	"testing"

	"redistgo/internal/bipartite"
)

// graphFromMatrix builds the canonical graph of a flat row-major matrix.
func graphFromMatrix(t testing.TB, mat []int64, nL, nR int) *bipartite.Graph {
	t.Helper()
	g := bipartite.New(nL, nR)
	for i := 0; i < nL; i++ {
		for j := 0; j < nR; j++ {
			if w := mat[i*nR+j]; w != 0 {
				g.AddEdge(i, j, w)
			}
		}
	}
	return g
}

// applyEditsToMatrix mirrors SolveDelta's edit semantics on a flat matrix.
func applyEditsToMatrix(mat []int64, nR int, edits []Edit) {
	for _, e := range edits {
		mat[e.L*nR+e.R] = e.W
	}
}

// randomDeltaMatrix generates a random nL x nR matrix at the given density.
func randomDeltaMatrix(rng *rand.Rand, nL, nR int, density float64, maxW int64) []int64 {
	mat := make([]int64, nL*nR)
	for i := range mat {
		if rng.Float64() < density {
			mat[i] = 1 + rng.Int63n(maxW)
		}
	}
	return mat
}

// randomEdits generates a mixed edit batch (bumps, decays, adds, removes)
// against the current matrix.
func randomEdits(rng *rand.Rand, mat []int64, nL, nR, count int, maxW int64) []Edit {
	edits := make([]Edit, 0, count)
	for len(edits) < count {
		l := rng.Intn(nL)
		r := rng.Intn(nR)
		var w int64
		switch rng.Intn(4) {
		case 0: // set to a fresh random value (add or overwrite)
			w = 1 + rng.Int63n(maxW)
		case 1: // remove
			w = 0
		case 2: // bump
			w = mat[l*nR+r] + 1 + rng.Int63n(4)
		default: // decay toward zero
			w = mat[l*nR+r] / 2
		}
		edits = append(edits, Edit{L: l, R: r, W: w})
	}
	return edits
}

// deltaConfigs are the option sets the differential suites sweep.
func deltaConfigs() []Options {
	return []Options{
		{Algorithm: GGP},
		{Algorithm: GGP, Engine: EngineScalar},
		{Algorithm: GGP, Engine: EngineBitset},
		{Algorithm: OGGP},
		{Algorithm: MinSteps},
		{Algorithm: Greedy},
		{Algorithm: GGP, Shard: ShardOn},
		{Algorithm: GGP, Shard: ShardAuto},
		{Algorithm: OGGP, Shard: ShardAuto},
		{Algorithm: GGP, Coalesce: true, Pack: true},
	}
}

// TestSolveDeltaEquivalentToCold drives random edit streams through
// SolveDelta and checks every round against a cold Solve of the patched
// matrix — the hard byte-identical contract.
func TestSolveDeltaEquivalentToCold(t *testing.T) {
	shapes := []struct {
		nL, nR  int
		density float64
		k       int
		beta    int64
		edits   int
	}{
		{8, 8, 0.8, 3, 1, 4},
		{12, 9, 0.4, 4, 2, 6},
		{16, 16, 0.9, 16, 1, 3},
		{10, 14, 0.2, 5, 0, 8},
		{6, 6, 0.5, 2, 7, 2},
	}
	for ci, opts := range deltaConfigs() {
		for si, sh := range shapes {
			rng := rand.New(rand.NewSource(int64(1000*ci + si)))
			mat := randomDeltaMatrix(rng, sh.nL, sh.nR, sh.density, 30)
			res, err := NewResult(graphFromMatrix(t, mat, sh.nL, sh.nR), sh.k, sh.beta, opts)
			if err != nil {
				t.Fatalf("cfg %d shape %d: NewResult: %v", ci, si, err)
			}
			cold0, err := Solve(graphFromMatrix(t, mat, sh.nL, sh.nR), sh.k, sh.beta, opts)
			if err != nil {
				t.Fatalf("cfg %d shape %d: cold base: %v", ci, si, err)
			}
			if res.Schedule().String() != cold0.String() {
				t.Fatalf("cfg %d shape %d: base schedule differs from cold\ndelta:\n%s\ncold:\n%s",
					ci, si, res.Schedule().String(), cold0.String())
			}
			for round := 0; round < 12; round++ {
				edits := randomEdits(rng, mat, sh.nL, sh.nR, sh.edits, 30)
				applyEditsToMatrix(mat, sh.nR, edits)
				got, err := res.SolveDelta(edits)
				if err != nil {
					t.Fatalf("cfg %d shape %d round %d: SolveDelta: %v", ci, si, round, err)
				}
				want, err := Solve(graphFromMatrix(t, mat, sh.nL, sh.nR), sh.k, sh.beta, opts)
				if err != nil {
					t.Fatalf("cfg %d shape %d round %d: cold: %v", ci, si, round, err)
				}
				if got.String() != want.String() {
					t.Fatalf("cfg %d shape %d round %d (path %v): delta differs from cold\nedits: %v\ndelta:\n%s\ncold:\n%s",
						ci, si, round, res.Stats().Path, edits, got.String(), want.String())
				}
				if err := got.Validate(graphFromMatrix(t, mat, sh.nL, sh.nR), sh.k); err != nil {
					t.Fatalf("cfg %d shape %d round %d: invalid delta schedule: %v", ci, si, round, err)
				}
			}
		}
	}
}

// TestSolveDeltaBalancedSwapRebuilds pins that balanced weight-only edits
// on a doubly-balanced dense instance take the rebuild path for GGP and
// OGGP (β = 1, so every swap changes normalized weights) and still match
// cold solves.
func TestSolveDeltaBalancedSwapRebuilds(t *testing.T) {
	const n, k = 16, 16
	rng := rand.New(rand.NewSource(7))
	mat := balancedMatrix(rng, n, 10, 200)
	for _, alg := range []Algorithm{GGP, OGGP} {
		opts := Options{Algorithm: alg}
		m := append([]int64(nil), mat...)
		res, err := NewResult(graphFromMatrix(t, m, n, n), k, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 20; round++ {
			edits := balancedSwapEdits(rng, m, n, 2)
			applyEditsToMatrix(m, n, edits)
			got, err := res.SolveDelta(edits)
			if err != nil {
				t.Fatalf("%v round %d: %v", alg, round, err)
			}
			path := res.Stats().Path
			if path != DeltaRebuild {
				t.Fatalf("%v round %d: path %v, want %v", alg, round, path, DeltaRebuild)
			}
			want, err := Solve(graphFromMatrix(t, m, n, n), k, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("%v round %d (path %v): delta differs from cold", alg, round, path)
			}
		}
	}
}

// balancedMatrix builds a dense n x n matrix with equal row and column
// sums: start uniform, then shuffle with balanced 2x2 swaps.
func balancedMatrix(rng *rand.Rand, n int, base, swaps int) []int64 {
	mat := make([]int64, n*n)
	for i := range mat {
		mat[i] = int64(base)
	}
	for s := 0; s < swaps; s++ {
		for _, e := range balancedSwapEdits(rng, mat, n, 1) {
			mat[e.L*n+e.R] = e.W
		}
	}
	return mat
}

// balancedSwapEdits emits `count` balanced 2x2 swaps: move δ from cells
// (i,j),(i2,j2) to (i,j2),(i2,j). Row and column sums are preserved and
// all four cells stay positive, so the edit is weight-only and node-sum
// stable.
func balancedSwapEdits(rng *rand.Rand, mat []int64, n, count int) []Edit {
	edits := make([]Edit, 0, 4*count)
	for c := 0; c < count; c++ {
		for tries := 0; tries < 100; tries++ {
			i, i2 := rng.Intn(n), rng.Intn(n)
			j, j2 := rng.Intn(n), rng.Intn(n)
			if i == i2 || j == j2 {
				continue
			}
			if mat[i*n+j] < 2 || mat[i2*n+j2] < 2 {
				continue
			}
			edits = append(edits,
				Edit{L: i, R: j, W: mat[i*n+j] - 1},
				Edit{L: i2, R: j2, W: mat[i2*n+j2] - 1},
				Edit{L: i, R: j2, W: mat[i*n+j2] + 1},
				Edit{L: i2, R: j, W: mat[i2*n+j] + 1},
			)
			// Apply to a scratch view so multi-swap batches compose: the
			// caller applies the returned edits to its matrix afterwards.
			mat[i*n+j]--
			mat[i2*n+j2]--
			mat[i*n+j2]++
			mat[i2*n+j]++
			// Undo: the caller owns application. Re-add below.
			mat[i*n+j]++
			mat[i2*n+j2]++
			mat[i*n+j2]--
			mat[i2*n+j]--
			break
		}
	}
	return edits
}

// TestSolveDeltaValidation pins the edit-validation and poisoning
// contract: bad edits leave the Result usable, bad states poison it.
func TestSolveDeltaValidation(t *testing.T) {
	mat := []int64{5, 3, 0, 7}
	res, err := NewResult(graphFromMatrix(t, mat, 2, 2), 2, 1, Options{Algorithm: GGP})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.SolveDelta([]Edit{{L: 0, R: 0, W: 6}}); err != nil {
		t.Fatal(err)
	}
	if p := res.Stats().Path; p != DeltaRebuild {
		t.Fatalf("weight change at beta 1: path %v, want %v", p, DeltaRebuild)
	}
	if _, err := res.SolveDelta([]Edit{{L: 2, R: 0, W: 1}}); err == nil {
		t.Fatal("out-of-range edit accepted")
	}
	if _, err := res.SolveDelta([]Edit{{L: 0, R: 0, W: -1}}); err == nil {
		t.Fatal("negative weight accepted")
	}
	// Refused calls solve nothing, so Stats still describes the last solve.
	if p := res.Stats().Path; p != DeltaRebuild {
		t.Fatalf("refused edits overwrote Stats: path %v, want %v", p, DeltaRebuild)
	}
	// Validation failures must not poison the base.
	if _, err := res.SolveDelta([]Edit{{L: 0, R: 0, W: 7}}); err != nil {
		t.Fatalf("delta after rejected edits: %v", err)
	}
	if _, err := SolveDelta(nil, nil); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := NewResult(nil, 2, 1, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	// Non-canonical edge order is rejected up front.
	g := bipartite.New(2, 2)
	g.AddEdge(1, 0, 3)
	g.AddEdge(0, 0, 5)
	if _, err := NewResult(g, 2, 1, Options{}); err == nil {
		t.Fatal("non-canonical edge order accepted")
	}
}

// TestSolveDeltaZeroAndNoopEdits pins the reuse fast path: empty and
// no-op edit lists return the retained schedule unchanged.
func TestSolveDeltaZeroAndNoopEdits(t *testing.T) {
	mat := []int64{5, 3, 2, 7}
	res, err := NewResult(graphFromMatrix(t, mat, 2, 2), 2, 1, Options{Algorithm: GGP})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Schedule().String()
	s, err := res.SolveDelta(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != base || res.Stats().Path != DeltaReuse {
		t.Fatalf("empty edits: path %v", res.Stats().Path)
	}
	// A round-trip edit (5 -> 9 -> 5) collapses to a no-op.
	s, err = res.SolveDelta([]Edit{{L: 0, R: 0, W: 9}, {L: 0, R: 0, W: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != base || res.Stats().Path != DeltaReuse {
		t.Fatalf("no-op edits: path %v", res.Stats().Path)
	}
}
