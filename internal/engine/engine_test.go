package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/trafficgen"
)

// randomBatch builds n deterministic random instances cycling through all
// four algorithms.
func randomBatch(n int, seed int64) []Instance {
	rng := rand.New(rand.NewSource(seed))
	algs := []kpbs.Algorithm{kpbs.GGP, kpbs.OGGP, kpbs.MinSteps, kpbs.Greedy}
	insts := make([]Instance, n)
	for i := range insts {
		insts[i] = Instance{
			G:    trafficgen.PaperRandom(rng, 12, 60, 1, 50),
			K:    1 + rng.Intn(8),
			Beta: int64(rng.Intn(4)),
			Opts: kpbs.Options{Algorithm: algs[i%len(algs)]},
		}
	}
	return insts
}

// TestSolveBatchMatchesSerial is the determinism contract: for any worker
// count the batch result must be byte-identical to the serial loop.
func TestSolveBatchMatchesSerial(t *testing.T) {
	insts := randomBatch(64, 7)
	want := SolveSerial(insts)
	for _, workers := range []int{0, 1, 2, 4, 16, 100} {
		got := SolveBatch(insts, Options{Workers: workers})
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("workers=%d instance %d: err %v, want %v", workers, i, got[i].Err, want[i].Err)
			}
			if got[i].Err != nil {
				continue
			}
			if got[i].Schedule.String() != want[i].Schedule.String() {
				t.Fatalf("workers=%d instance %d: schedule differs from serial:\n%s\nvs\n%s",
					workers, i, got[i].Schedule, want[i].Schedule)
			}
			if !reflect.DeepEqual(got[i].Schedule, want[i].Schedule) {
				t.Fatalf("workers=%d instance %d: schedule struct differs from serial", workers, i)
			}
		}
	}
}

// TestSolveBatchSchedulesAreFeasible spot-checks that concurrent solving
// yields feasible schedules (run under -race this also exercises the
// race-cleanliness of the core).
func TestSolveBatchSchedulesAreFeasible(t *testing.T) {
	insts := randomBatch(48, 11)
	for i, r := range SolveBatch(insts, Options{Workers: 8}) {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		if err := r.Schedule.Validate(insts[i].G, insts[i].K); err != nil {
			t.Fatalf("instance %d: infeasible: %v", i, err)
		}
	}
}

// TestSolveBatchErrorIsolation: bad instances error out individually and
// never poison their neighbors.
func TestSolveBatchErrorIsolation(t *testing.T) {
	good := bipartite.New(2, 2)
	good.AddEdge(0, 0, 5)
	good.AddEdge(1, 1, 3)
	insts := []Instance{
		{G: good, K: 2, Beta: 1, Opts: kpbs.Options{Algorithm: kpbs.OGGP}},
		{G: good, K: 0, Beta: 1},  // invalid k
		{G: nil, K: 2, Beta: 1},   // nil graph
		{G: good, K: 2, Beta: -3}, // invalid beta
		{G: good, K: 2, Beta: 1, Opts: kpbs.Options{Algorithm: kpbs.Algorithm(99)}}, // unknown algorithm
		{G: good, K: 2, Beta: 1, Opts: kpbs.Options{Algorithm: kpbs.GGP}},
	}
	res := SolveBatch(insts, Options{Workers: 3})
	for _, i := range []int{1, 2, 3, 4} {
		if res[i].Err == nil {
			t.Fatalf("instance %d: bad instance accepted", i)
		}
		if res[i].Schedule != nil {
			t.Fatalf("instance %d: schedule and error both set", i)
		}
	}
	for _, i := range []int{0, 5} {
		if res[i].Err != nil {
			t.Fatalf("instance %d: good instance failed: %v", i, res[i].Err)
		}
		if err := res[i].Schedule.Validate(good, 2); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
	}
}

// TestSolveBatchCancellation: a pre-cancelled context fails every
// instance with the context error without solving anything.
func TestSolveBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	insts := randomBatch(16, 3)
	res := SolveBatch(insts, Options{Workers: 4, Ctx: ctx})
	if len(res) != len(insts) {
		t.Fatalf("%d results, want %d", len(res), len(insts))
	}
	for i, r := range res {
		if r.Err != context.Canceled {
			t.Fatalf("instance %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestSolveBatchEmpty: the degenerate batch returns an empty slice and
// spawns nothing.
func TestSolveBatchEmpty(t *testing.T) {
	if res := SolveBatch(nil, Options{}); len(res) != 0 {
		t.Fatalf("non-empty result for empty batch: %v", res)
	}
}

// TestSolveBatchPerInstanceShard: every instance solves in its own
// Opts.Shard mode. One two-component graph, on which the monolith and the
// sharded pipeline produce different schedules, goes through one batch as
// alternating ShardOff and ShardAuto instances, and each result must match
// kpbs.Solve in that instance's mode.
func TestSolveBatchPerInstanceShard(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := bipartite.FromMatrix(trafficgen.BlockDiagonal(rng, 2, 4, 0, 1, 100))
	if err != nil {
		t.Fatal(err)
	}
	want := map[kpbs.ShardMode]string{}
	for _, mode := range []kpbs.ShardMode{kpbs.ShardOff, kpbs.ShardAuto} {
		s, err := kpbs.Solve(g, 6, 1, kpbs.Options{Algorithm: kpbs.OGGP, Shard: mode})
		if err != nil {
			t.Fatal(err)
		}
		want[mode] = s.String()
	}
	if want[kpbs.ShardOff] == want[kpbs.ShardAuto] {
		t.Fatal("the instance does not tell the shard modes apart")
	}
	insts := make([]Instance, 8)
	for i := range insts {
		mode := kpbs.ShardOff
		if i%2 == 1 {
			mode = kpbs.ShardAuto
		}
		insts[i] = Instance{G: g, K: 6, Beta: 1, Opts: kpbs.Options{Algorithm: kpbs.OGGP, Shard: mode}}
	}
	for i, r := range SolveBatch(insts, Options{Workers: 4}) {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		if mode := insts[i].Opts.Shard; r.Schedule.String() != want[mode] {
			t.Fatalf("instance %d: not solved in its own mode %v", i, mode)
		}
	}
}
