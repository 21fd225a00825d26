package kpbs

import (
	"math/rand"
	"testing"
)

// FuzzSolveDelta drives fuzzer-chosen edit streams through a retained
// Result and holds SolveDelta to its whole contract on every round:
//
//   - equivalence — the returned schedule is byte-identical to a cold
//     Solve of the patched matrix, whatever repair path was taken;
//   - validity — it passes Validate against the patched graph, and its
//     cost respects the lower bound;
//   - determinism — an independent Result fed the identical edit stream
//     produces the identical bytes round for round;
//   - rejection — an out-of-range edit is refused without poisoning the
//     base, which must then serve the next valid round.
//
// cfgRaw picks one of deltaConfigs(): scalar, bitset and auto matching
// kernels, the OGGP/MinSteps peelers, Greedy, and the sharded
// configurations, ShardAuto (redist-serve's default) included. Even seeds
// draw 12%-dense matrices, which often split into several components, so
// sharded bases solve through their multi-component path. `make
// fuzz-smoke` runs this target; the seed corpus replays under `go test`.
func FuzzSolveDelta(f *testing.F) {
	f.Add(int64(1), 8, 8, int64(50), 3, int64(4), 0, 3, 5)
	f.Add(int64(2), 1, 1, int64(1), 1, int64(0), 1, 1, 1)
	f.Add(int64(3), 16, 16, int64(200), 6, int64(8), 2, 4, 12)
	f.Add(int64(4), 12, 4, int64(9), 2, int64(1), 3, 2, 8)
	f.Add(int64(5), 17, 17, int64(64), 17, int64(8), 4, 3, 6) // k = n
	f.Add(int64(6), 9, 9, int64(30), 4, int64(2), 5, 4, 3)
	// Sharded bases on 12%-dense instances of 4, 6 and 2 components: GGP
	// ShardOn, GGP ShardAuto, OGGP ShardAuto.
	f.Add(int64(14), 12, 12, int64(50), 4, int64(2), 6, 5, 6)
	f.Add(int64(12), 10, 12, int64(40), 3, int64(4), 7, 5, 8)
	f.Add(int64(10), 12, 10, int64(50), 5, int64(1), 8, 5, 6)

	f.Fuzz(func(t *testing.T, seed int64, nl, nr int, maxW int64, k int, beta int64, cfgRaw, rounds, perRound int) {
		if nl < 1 || nr < 1 || nl > 20 || nr > 20 {
			return
		}
		if maxW < 1 || maxW > 10_000 {
			return
		}
		if k < 1 || k > 64 || beta < 0 || beta > 1_000 {
			return
		}
		if rounds < 1 || rounds > 5 || perRound < 1 || perRound > 16 {
			return
		}
		cfgs := deltaConfigs()
		opts := cfgs[((cfgRaw%len(cfgs))+len(cfgs))%len(cfgs)]

		density := 0.6
		if seed%2 == 0 {
			density = 0.12
		}
		rng := rand.New(rand.NewSource(seed))
		mat := randomDeltaMatrix(rng, nl, nr, density, maxW)
		mat[0] = 1 + rng.Int63n(maxW) // at least one transfer to schedule
		g := graphFromMatrix(t, mat, nl, nr)

		res, err := NewResult(g, k, beta, opts)
		if err != nil {
			t.Fatalf("NewResult rejected a valid instance: %v", err)
		}
		twin, err := NewResult(g, k, beta, opts)
		if err != nil {
			t.Fatalf("twin NewResult: %v", err)
		}
		for round := 0; round < rounds; round++ {
			edits := randomEdits(rng, mat, nl, nr, perRound, maxW)
			applyEditsToMatrix(mat, nr, edits)
			got, err := res.SolveDelta(edits)
			if err != nil {
				t.Fatalf("round %d: SolveDelta: %v", round, err)
			}
			patched := graphFromMatrix(t, mat, nl, nr)
			cold, err := Solve(patched, k, beta, opts)
			if err != nil {
				t.Fatalf("round %d: cold solve: %v", round, err)
			}
			if got.String() != cold.String() {
				t.Fatalf("round %d (%v path %v): delta diverged from cold:\n--- delta ---\n%s--- cold ---\n%s",
					round, opts.Algorithm, res.Stats().Path, got, cold)
			}
			if err := got.Validate(patched, k); err != nil {
				t.Fatalf("round %d: infeasible delta schedule: %v", round, err)
			}
			if lb := LowerBound(patched, k, beta); got.Cost() < lb {
				t.Fatalf("round %d: cost %d < lower bound %d", round, got.Cost(), lb)
			}
			twinSched, err := twin.SolveDelta(edits)
			if err != nil {
				t.Fatalf("round %d: twin SolveDelta: %v", round, err)
			}
			if twinSched.String() != got.String() {
				t.Fatalf("round %d: identical edit streams produced different schedules", round)
			}

			// An out-of-range edit must be refused and must not poison the
			// base: the next loop iteration keeps solving on the same Result.
			if _, err := res.SolveDelta([]Edit{{L: nl, R: 0, W: 1}}); err == nil {
				t.Fatalf("round %d: out-of-range edit accepted", round)
			}
			if _, err := twin.SolveDelta(nil); err != nil {
				t.Fatalf("round %d: empty edit batch after rejection: %v", round, err)
			}
		}
	})
}
