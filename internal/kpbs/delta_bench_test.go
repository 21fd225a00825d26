package kpbs

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkDeltaSolve is the PR 10 acceptance workload set: steady-state
// delta serving against repeated cold solves of the same edited
// instances. Each sub-benchmark runs a cold arm (patch the matrix,
// rebuild the graph, Solve — what a server without delta support does
// per request) and a delta arm (SolveDelta on the retained Result) over
// the identical pre-drawn edit stream; `make bench-delta` pipes the
// output through tools/benchcompare.
//
//   - Dense64Jitter is the headline (gate: >= 5x): dense 64x64, beta=8,
//     ~5% of cells re-weighted per round with every ceil(w/beta) bucket
//     preserved. Real redistribution volumes drift inside their batch
//     buckets far more often than they cross them, and the delta solver
//     serves the whole regime from the retained normalized peel
//     (DeltaReuse: re-denormalization only).
//   - Dense64Swap (control: >= 0.95x): balanced 2x2 swaps of exactly
//     beta units — normalized weights change while node sums hold, so
//     every round takes the rebuild path without a structural edit; the
//     gate proves that classifying a weight-only overlay never costs real
//     time over just re-solving.
//   - StructuralChurn (control: >= 0.95x): cell adds/removes force the
//     rebuild path every round through the structural merge; the gate
//     proves repair dispatch never costs real time over just re-solving.
//   - ColdBase (control: >= 0.95x): a sharded-options base pins the
//     DeltaCold fallback — SolveDelta degenerates to Solve plus edit
//     bookkeeping and must stay within noise of it.
func BenchmarkDeltaSolve(b *testing.B) {
	const (
		n      = 64
		k      = 8
		beta   = 8
		rounds = 32
	)
	type workload struct {
		name string
		opts Options
		base func(rng *rand.Rand) []int64
		// next draws one round of edits against mat, applying them.
		next func(rng *rand.Rand, mat []int64) []Edit
	}
	denseBase := func(rng *rand.Rand) []int64 {
		mat := make([]int64, n*n)
		for i := range mat {
			mat[i] = 32 + rng.Int63n(160)
		}
		return mat
	}
	// jitterEdits re-draws ~5% of the cells inside their beta bucket:
	// raw weights change, ceil(w/beta) never does.
	jitterEdits := func(rng *rand.Rand, mat []int64) []Edit {
		edits := make([]Edit, 0, 200)
		for len(edits) < 200 {
			i := rng.Intn(n * n)
			bucket := (mat[i] + beta - 1) / beta
			lo := (bucket-1)*beta + 1
			w := lo + rng.Int63n(beta)
			mat[i] = w
			edits = append(edits, Edit{L: i / n, R: i % n, W: w})
		}
		return edits
	}
	// churnEdits remove ~100 live cells and add ~100 dead ones per round:
	// every round is structural, forcing the rebuild path.
	churnEdits := func(rng *rand.Rand, mat []int64) []Edit {
		edits := make([]Edit, 0, 200)
		for len(edits) < 200 {
			i := rng.Intn(n * n)
			var w int64
			if mat[i] == 0 {
				w = 32 + rng.Int63n(160)
			}
			mat[i] = w
			edits = append(edits, Edit{L: i / n, R: i % n, W: w})
		}
		return edits
	}
	// swapEdits compose 5 balanced 2x2 swaps of exactly beta units on a
	// beta-aligned matrix: normalized weights change (no reuse) while
	// normalized node sums hold and no cell appears or vanishes.
	swapEdits := func(rng *rand.Rand, mat []int64) []Edit {
		edits := make([]Edit, 0, 20)
		for s := 0; s < 5; s++ {
			for tries := 0; tries < 100; tries++ {
				i, i2 := rng.Intn(n), rng.Intn(n)
				j, j2 := rng.Intn(n), rng.Intn(n)
				if i == i2 || j == j2 || mat[i*n+j] < 2*beta || mat[i2*n+j2] < 2*beta {
					continue
				}
				mat[i*n+j] -= beta
				mat[i2*n+j2] -= beta
				mat[i*n+j2] += beta
				mat[i2*n+j] += beta
				edits = append(edits,
					Edit{L: i, R: j, W: mat[i*n+j]},
					Edit{L: i2, R: j2, W: mat[i2*n+j2]},
					Edit{L: i, R: j2, W: mat[i*n+j2]},
					Edit{L: i2, R: j, W: mat[i2*n+j]},
				)
				break
			}
		}
		return edits
	}
	workloads := []workload{
		{"Dense64Jitter", Options{Algorithm: GGP}, denseBase, jitterEdits},
		{"Dense64Swap", Options{Algorithm: GGP},
			func(rng *rand.Rand) []int64 {
				mat := make([]int64, n*n)
				for i := range mat {
					mat[i] = beta * (4 + rng.Int63n(20))
				}
				return mat
			}, swapEdits},
		{"StructuralChurn", Options{Algorithm: GGP}, denseBase, churnEdits},
		{"ColdBase", Options{Algorithm: GGP, Shard: shardAlways}, denseBase, jitterEdits},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(101))
			base := w.base(rng)
			mirror := append([]int64(nil), base...)
			batches := make([][]Edit, rounds)
			for i := range batches {
				batches[i] = w.next(rng, mirror)
			}
			// Correctness before timing: one full cycle of the stream must
			// be byte-identical between the delta and cold arms.
			check := append([]int64(nil), base...)
			res, err := NewResult(graphFromMatrix(b, check, n, n), k, beta, w.opts)
			if err != nil {
				b.Fatal(err)
			}
			for i, edits := range batches {
				applyEditsToMatrix(check, n, edits)
				got, err := res.SolveDelta(edits)
				if err != nil {
					b.Fatalf("round %d: %v", i, err)
				}
				// Pin each workload to the path it claims to exercise.
				switch p := res.Stats().Path; w.name {
				case "Dense64Jitter":
					if p != DeltaReuse {
						b.Fatalf("round %d: path %v, want reuse", i, p)
					}
				case "Dense64Swap", "StructuralChurn":
					if p != DeltaRebuild {
						b.Fatalf("round %d: path %v, want rebuild", i, p)
					}
				case "ColdBase":
					if p != DeltaCold {
						b.Fatalf("round %d: path %v, want cold", i, p)
					}
				}
				cold, err := Solve(graphFromMatrix(b, check, n, n), k, beta, w.opts)
				if err != nil {
					b.Fatalf("round %d: cold: %v", i, err)
				}
				if got.String() != cold.String() {
					b.Fatalf("round %d: delta diverged from cold", i)
				}
			}

			b.Run("cold", func(b *testing.B) {
				mat := append([]int64(nil), base...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					applyEditsToMatrix(mat, n, batches[i%rounds])
					s, err := Solve(graphFromMatrix(b, mat, n, n), k, beta, w.opts)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = len(s.Steps)
				}
			})
			b.Run("delta", func(b *testing.B) {
				mat := append([]int64(nil), base...)
				res, err := NewResult(graphFromMatrix(b, mat, n, n), k, beta, w.opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := res.SolveDelta(batches[i%rounds])
					if err != nil {
						b.Fatal(err)
					}
					benchSink = len(s.Steps)
				}
			})
		})
	}
}

var benchSink int

func init() {
	// Silence unused-write vet noise without perturbing the benchmarks.
	if benchSink == -1 {
		fmt.Println(benchSink)
	}
}
