package kpbs

import (
	"math/rand"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
	"redistgo/internal/obs"
	"redistgo/internal/safemath"
)

// FuzzSolve drives the full pipeline with fuzzer-chosen instance shapes:
// whatever the inputs, Solve must either reject them or produce a
// feasible schedule within the approximation envelope. Tier-1 CI runs the
// seed corpus of this target (and FuzzSolveBatchDifferential) under
// `go test -race ./...` — see the Makefile check target.
func FuzzSolve(f *testing.F) {
	f.Add(int64(1), 5, 5, 10, int64(20), 3, int64(1), 0)
	f.Add(int64(2), 1, 1, 1, int64(1), 1, int64(0), 1)
	f.Add(int64(3), 40, 40, 400, int64(10000), 40, int64(7), 2)
	f.Add(int64(4), 30, 2, 50, int64(5), 100, int64(3), 3)
	// Bitset-arm seeds: widths just past a word boundary (65, 66 rights)
	// exercise the partial last word of every row mask, and the dense 16×16
	// seed sits above the auto-selection density threshold.
	f.Add(int64(5), 65, 65, 700, int64(50), 16, int64(2), 0)
	f.Add(int64(6), 20, 66, 640, int64(9), 8, int64(1), 1)
	f.Add(int64(7), 16, 16, 250, int64(100), 10, int64(3), 2)

	f.Fuzz(func(t *testing.T, seed int64, nl, nr, edges int, maxW int64, k int, beta int64, algRaw int) {
		// Clamp the fuzzed shape to something buildable; the point is to
		// explore odd combinations, not to validate the generator.
		if nl < 1 || nr < 1 || nl > 72 || nr > 72 {
			return
		}
		if edges < 0 || edges > 900 {
			return
		}
		if maxW < 1 || maxW > 1_000_000 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		g := bipartite.New(nl, nr)
		for i := 0; i < edges; i++ {
			g.AddEdge(rng.Intn(nl), rng.Intn(nr), 1+rng.Int63n(maxW))
		}
		alg := []Algorithm{GGP, OGGP, MinSteps, Greedy}[((algRaw%4)+4)%4]

		s, err := Solve(g, k, beta, Options{Algorithm: alg})
		if k <= 0 || beta < 0 {
			if err == nil {
				t.Fatalf("invalid parameters accepted: k=%d beta=%d", k, beta)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid instance rejected: %v", err)
		}
		if err := s.Validate(g, k); err != nil {
			t.Fatalf("infeasible schedule: %v", err)
		}
		// Observability differential: an attached Observer must be strictly
		// passive — the schedule it watches is byte-identical to the
		// unobserved one on every fuzzed instance.
		observed, err := Solve(g, k, beta, Options{Algorithm: alg, Obs: obs.New()})
		if err != nil {
			t.Fatalf("%v observed solve failed: %v", alg, err)
		}
		if s.String() != observed.String() {
			t.Fatalf("%v: observer perturbed the schedule:\n--- plain ---\n%s--- observed ---\n%s", alg, s, observed)
		}
		// LB is a true lower bound for every algorithm; a schedule cheaper
		// than it means broken cost accounting (e.g. wrapped arithmetic).
		lb := LowerBound(g, k, beta)
		if s.Cost() < lb {
			t.Fatalf("%v cost %d < lower bound %d", alg, s.Cost(), lb)
		}
		if alg == GGP || alg == OGGP {
			bound := safemath.Add(safemath.Mul(2, lb), safemath.Mul(2, beta))
			if s.Cost() > bound {
				t.Fatalf("%v cost %d > 2·LB+2β = %d", alg, s.Cost(), bound)
			}
		}
		// Engine differential: the scalar and bitset matching kernels must
		// produce byte-identical schedules, and the density auto-selection
		// must be invisible — whichever arm it picks matches both pins.
		// (Greedy never runs a matching, so the arms are trivially equal.)
		if alg != Greedy {
			scalar, err := Solve(g, k, beta, Options{Algorithm: alg, engine: matching.EngineScalar})
			if err != nil {
				t.Fatalf("%v scalar-engine solve failed: %v", alg, err)
			}
			bitset, err := Solve(g, k, beta, Options{Algorithm: alg, engine: matching.EngineBitset})
			if err != nil {
				t.Fatalf("%v bitset-engine solve failed: %v", alg, err)
			}
			if scalar.String() != bitset.String() {
				t.Fatalf("%v: engine arms diverged:\n--- scalar ---\n%s--- bitset ---\n%s", alg, scalar, bitset)
			}
			if s.String() != scalar.String() {
				t.Fatalf("%v: auto engine diverged from pinned arms:\n--- auto ---\n%s--- scalar ---\n%s", alg, s, scalar)
			}
		}
		// The Pack post-pass must preserve feasibility.
		packed := s.Clone()
		packed.Pack(k)
		if err := packed.Validate(g, k); err != nil {
			t.Fatalf("pack broke schedule: %v", err)
		}

		// Sharded arms: component sharding must accept exactly the instances
		// the monolith accepts and keep the monolith's envelope
		// (checkShardedArm).
		sharded, err := Solve(g, k, beta, Options{Algorithm: alg, Shard: shardAlways})
		if err != nil {
			t.Fatalf("%v sharded solve rejected a valid instance: %v", alg, err)
		}
		checkShardedArm(t, "shardAlways", g, k, beta, alg, sharded, s)
		auto, err := Solve(g, k, beta, Options{Algorithm: alg, Shard: ShardAuto})
		if err != nil {
			t.Fatalf("%v ShardAuto solve rejected a valid instance: %v", alg, err)
		}
		checkShardedArm(t, "ShardAuto", g, k, beta, alg, auto, s)
		checkAutoArm(t, g, alg, auto, sharded, s)
		// The component pool must be schedule-invariant in its worker count,
		// and observation of a sharded solve must stay passive.
		forceShardWorkers = 1
		serial, serr := Solve(g, k, beta, Options{Algorithm: alg, Shard: shardAlways})
		forceShardWorkers = 8
		wide, werr := Solve(g, k, beta, Options{Algorithm: alg, Shard: shardAlways, Obs: obs.New()})
		forceShardWorkers = 0
		if serr != nil || werr != nil {
			t.Fatalf("%v sharded reruns failed: %v / %v", alg, serr, werr)
		}
		if serial.String() != sharded.String() || wide.String() != sharded.String() {
			t.Fatalf("%v: sharded schedule depends on worker count or observer", alg)
		}
	})
}

// FuzzPeelDifferential checks the incremental peeling engine on
// fuzzer-chosen instances. The schedule must be feasible (Validate also
// proves the transferred bytes match the instance exactly), its cost must
// respect the lower bound and the GGP/OGGP approximation envelope, and the
// engine must be deterministic across runs. The differentials are between
// the engine's own arms: both pinned matching kernels must reproduce the
// auto-selected schedule byte for byte, and the sharded path must stay in
// its envelope and reproduce the monolith on connected graphs.
func FuzzPeelDifferential(f *testing.F) {
	f.Add(int64(1), 5, 5, 10, int64(20), 3, int64(1), 0)
	f.Add(int64(2), 1, 1, 1, int64(1), 1, int64(0), 1)
	f.Add(int64(3), 12, 12, 144, int64(50), 6, int64(2), 1)
	f.Add(int64(4), 20, 3, 60, int64(9), 4, int64(5), 2)
	// Density-threshold straddlers: same 16×16 shape with ~40 edges (auto
	// resolves scalar) and ~250 edges (auto resolves bitset), so corpus
	// replay keeps both sides of the heuristic honest.
	f.Add(int64(5), 16, 16, 40, int64(30), 8, int64(1), 0)
	f.Add(int64(6), 16, 16, 250, int64(30), 8, int64(1), 1)

	f.Fuzz(func(t *testing.T, seed int64, nl, nr, edges int, maxW int64, k int, beta int64, algRaw int) {
		if nl < 1 || nr < 1 || nl > 24 || nr > 24 {
			return
		}
		if edges < 0 || edges > 250 {
			return
		}
		if maxW < 1 || maxW > 10_000 {
			return
		}
		if k <= 0 || k > 100 || beta < 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		g := bipartite.New(nl, nr)
		for i := 0; i < edges; i++ {
			g.AddEdge(rng.Intn(nl), rng.Intn(nr), 1+rng.Int63n(maxW))
		}
		alg := []Algorithm{GGP, OGGP, MinSteps}[((algRaw%3)+3)%3]

		inc, err := Solve(g, k, beta, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v incremental: %v", alg, err)
		}
		if err := inc.Validate(g, k); err != nil {
			t.Fatalf("%v: infeasible schedule: %v", alg, err)
		}
		lb := LowerBound(g, k, beta)
		if inc.Cost() < lb {
			t.Fatalf("%v: cost %d < lower bound %d", alg, inc.Cost(), lb)
		}
		if alg == GGP || alg == OGGP {
			bound := safemath.Add(safemath.Mul(2, lb), safemath.Mul(2, beta))
			if inc.Cost() > bound {
				t.Fatalf("%v: cost %d > 2·LB+2β = %d", alg, inc.Cost(), bound)
			}
		}
		// Determinism: the incremental engine must reproduce itself.
		again, err := Solve(g, k, beta, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v rerun: %v", alg, err)
		}
		if inc.String() != again.String() {
			t.Fatalf("%v: nondeterministic incremental schedule:\n%s\nvs\n%s", alg, inc, again)
		}
		// Kernel differential: both pinned engine arms must reproduce the
		// auto-selected schedule byte for byte (the canonical-traversal
		// equivalence argument of DESIGN.md §11, fuzzed).
		for _, ec := range []struct {
			name string
			eng  matching.Engine
		}{{"scalar", matching.EngineScalar}, {"bitset", matching.EngineBitset}} {
			pinned, err := Solve(g, k, beta, Options{Algorithm: alg, engine: ec.eng})
			if err != nil {
				t.Fatalf("%v %s engine: %v", alg, ec.name, err)
			}
			if pinned.String() != inc.String() {
				t.Fatalf("%v: %s engine diverged from auto:\n%s\nvs\n%s", alg, ec.name, pinned, inc)
			}
		}
		// Sharded differential: both sharded arms must keep the monolith's
		// envelope, and on connected graphs, where sharding degenerates to a
		// single component, reproduce the monolith byte for byte.
		sharded, err := Solve(g, k, beta, Options{Algorithm: alg, Shard: shardAlways})
		if err != nil {
			t.Fatalf("%v sharded: %v", alg, err)
		}
		checkShardedArm(t, "shardAlways", g, k, beta, alg, sharded, inc)
		auto, err := Solve(g, k, beta, Options{Algorithm: alg, Shard: ShardAuto})
		if err != nil {
			t.Fatalf("%v ShardAuto: %v", alg, err)
		}
		checkShardedArm(t, "ShardAuto", g, k, beta, alg, auto, inc)
		checkAutoArm(t, g, alg, auto, sharded, inc)
		sh := newSharder()
		sh.split(g)
		if sh.nComp == 1 && sharded.String() != inc.String() {
			t.Fatalf("%v: sharded diverged from monolith on a connected graph:\n%s\nvs\n%s", alg, sharded, inc)
		}
	})
}

// checkShardedArm checks the sharded schedule s of (g, k, β) against the
// monolithic schedule whole of the same instance. s must be feasible, cost
// at least LB, and for GGP and OGGP stay within the 2·LB + 2β the
// unsharded arms assert. A sharded solve either keeps its packed schedule,
// which then costs at most 2·LB (GGP, OGGP) or takes at most ηs steps
// (MinSteps) and never costs more than the component schedules
// concatenated, or falls back to whole byte for byte.
func checkShardedArm(t *testing.T, arm string, g *bipartite.Graph, k int, beta int64, alg Algorithm, s, whole *Schedule) {
	t.Helper()
	if err := s.Validate(g, k); err != nil {
		t.Fatalf("%v %s: infeasible schedule: %v", alg, arm, err)
	}
	lb := LowerBound(g, k, beta)
	if s.Cost() < lb {
		t.Fatalf("%v %s: cost %d < lower bound %d", alg, arm, s.Cost(), lb)
	}
	if alg == GGP || alg == OGGP {
		if bound := safemath.Add(safemath.Mul(2, lb), safemath.Mul(2, beta)); s.Cost() > bound {
			t.Fatalf("%v %s: cost %d > 2·LB+2β = %d", alg, arm, s.Cost(), bound)
		}
	}
	if s.String() == whole.String() {
		return
	}
	switch alg {
	case GGP, OGGP:
		if bound := safemath.Mul(2, lb); s.Cost() > bound {
			t.Fatalf("%v %s: packed cost %d > 2·LB = %d was not replaced by the monolith", alg, arm, s.Cost(), bound)
		}
	case MinSteps:
		if es := EtaS(g, k); int64(len(s.Steps)) > es {
			t.Fatalf("%v %s: packed schedule takes %d steps > ηs = %d and was not replaced by the monolith", alg, arm, len(s.Steps), es)
		}
	}
	if concat := componentConcatCost(t, g, k, beta, alg); s.Cost() > concat {
		t.Fatalf("%v %s: cost %d exceeds concatenation bound %d", alg, arm, s.Cost(), concat)
	}
}

// checkAutoArm requires the ShardAuto schedule auto of g to be the
// shardAlways one on a graph of two or more components, and the monolithic
// one otherwise.
func checkAutoArm(t *testing.T, g *bipartite.Graph, alg Algorithm, auto, always, whole *Schedule) {
	t.Helper()
	want := whole
	if !connected(g) {
		want = always
	}
	if auto.String() != want.String() {
		t.Fatalf("%v: ShardAuto diverged from the path its split selects:\n%s\nvs\n%s", alg, auto, want)
	}
}
