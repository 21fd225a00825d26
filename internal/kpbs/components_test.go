package kpbs

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/obs"
	"redistgo/internal/safemath"
	"redistgo/internal/trafficgen"
)

// blockGraph builds the block-diagonal workload of the sharding tests:
// `shards` dense blocks of size×size, no cross-shard leak, so the graph
// has exactly `shards` connected components.
func blockGraph(t testing.TB, seed int64, shards, size int) *bipartite.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := bipartite.FromMatrix(trafficgen.BlockDiagonal(rng, shards, size, 0, 1, 1000))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// powerLawGraph builds the sparse heavy-tailed workload.
func powerLawGraph(t testing.TB, seed int64, n, edges int) *bipartite.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := bipartite.FromMatrix(trafficgen.PowerLawSparse(rng, n, n, edges, 1.3, 1, 1000))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// componentConcatCost sums the costs of the per-component schedules that
// solveComponents returns — the cost of concatenating them, which the
// sharded solve must never exceed.
func componentConcatCost(t testing.TB, g *bipartite.Graph, k int, beta int64, alg Algorithm) int64 {
	t.Helper()
	sh := newSharder()
	sh.split(g)
	sh.group(g)
	parts, err := solveComponents(g, sh, k, beta, Options{Algorithm: alg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range parts {
		total = safemath.Add(total, s.Cost())
	}
	return total
}

func TestSharderSplit(t *testing.T) {
	// Three components: {L0,L1 × R0,R1}, {L2 × R2}, {L3 × R3} — plus an
	// edge appended late that joins the first component again, proving
	// grouping keeps original edge order.
	g := bipartite.New(4, 4)
	g.AddEdge(0, 0, 5) // comp 0
	g.AddEdge(2, 2, 1) // comp 1
	g.AddEdge(1, 1, 2) // comp 2 at discovery... joined to comp 0 below
	g.AddEdge(3, 3, 9) // comp 3
	g.AddEdge(0, 1, 4) // merges L0's and L1's components
	sh := newSharder()
	sh.split(g)
	if sh.nComp != 3 {
		t.Fatalf("nComp = %d, want 3", sh.nComp)
	}
	if sh.comp != nil || sh.edges != nil {
		t.Fatal("split grouped the edges; only group should")
	}
	sh.group(g)
	if sh.nComp != 3 {
		t.Fatalf("grouped nComp = %d, want 3", sh.nComp)
	}
	// Components are numbered by first edge: edge 0 (and through edge 4,
	// edges 2 and 4) is component 0; edge 1 component 1; edge 3 component 2.
	wantEdges := [][]int{{0, 2, 4}, {1}, {3}}
	for c, want := range wantEdges {
		got := sh.componentEdges(c)
		if len(got) != len(want) {
			t.Fatalf("component %d edges %v, want %v", c, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("component %d edges %v, want %v", c, got, want)
			}
		}
	}
	if le := sh.largestComponentEdges(); le != 3 {
		t.Fatalf("largest component %d edges, want 3", le)
	}
	// Splitting again must reuse the arenas and reproduce the grouping.
	sh.split(g)
	sh.group(g)
	if sh.nComp != 3 || sh.componentEdges(0)[2] != 4 {
		t.Fatalf("re-split drifted: nComp=%d edges0=%v", sh.nComp, sh.componentEdges(0))
	}
}

// TestShardForConnectedGroupsNothing: under ShardAuto a connected graph
// peels whole, so shardFor counts its one component and groups no edges
// (the grouping arrays would cost 16 bytes an edge in every such solve and
// every retained Result); shardAlways still groups it into one component.
func TestShardForConnectedGroupsNothing(t *testing.T) {
	g := denseGraph(rand.New(rand.NewSource(4)), 16, 50)
	sh := newSharder()
	if shardFor(g, ShardAuto, sh) != nil {
		t.Fatal("ShardAuto sharded a connected graph")
	}
	if sh.nComp != 1 {
		t.Fatalf("nComp = %d, want 1", sh.nComp)
	}
	if sh.comp != nil || sh.edges != nil {
		t.Fatalf("ShardAuto grouped the edges of a connected graph (comp %d, edges %d)", len(sh.comp), len(sh.edges))
	}
	if shardFor(g, shardAlways, sh) != sh || sh.nComp != 1 || len(sh.componentEdges(0)) != g.EdgeCount() {
		t.Fatalf("shardAlways: nComp = %d, want one component of %d edges", sh.nComp, g.EdgeCount())
	}
}

// TestShardOnMatchesOffOnConnectedGraphs pins the single-component
// equivalence: on a connected graph the sharded pipeline degenerates to
// one component, whose edge set and node numbering are the whole graph's,
// so shardAlways must reproduce the monolithic schedule byte for byte.
func TestShardOnMatchesOffOnConnectedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := denseGraph(rng, 16, 50)
	for _, alg := range []Algorithm{GGP, OGGP, MinSteps, Greedy} {
		t.Run(alg.String(), func(t *testing.T) {
			off, err := Solve(g, 8, 2, Options{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			on, err := Solve(g, 8, 2, Options{Algorithm: alg, Shard: shardAlways})
			if err != nil {
				t.Fatal(err)
			}
			if off.String() != on.String() {
				t.Fatalf("shardAlways diverged from monolith on a connected graph:\n--- off ---\n%s--- on ---\n%s", off, on)
			}
			// Auto must decline to shard and land on the same bytes too.
			auto, err := Solve(g, 8, 2, Options{Algorithm: alg, Shard: ShardAuto})
			if err != nil {
				t.Fatal(err)
			}
			if off.String() != auto.String() {
				t.Fatalf("Shard=auto diverged on a connected graph")
			}
		})
	}
}

// TestShardedStructuredWorkloads is the deterministic regression behind
// the sharding cost claims: on block-diagonal and power-law workloads the
// sharded schedule must stay feasible, respect the lower bound, never
// exceed the concatenation bound (the packer's guarantee), and agree
// between ShardAuto and shardAlways. The sharded cost may exceed the
// monolithic one — whole-step packing cannot reproduce the monolith's
// sub-step interleaving across components (DESIGN.md §9 has the
// counterexample) — but it must stay within the 2x envelope that the
// per-component approximation plus packing guarantees in practice; the
// ratio gate below catches a packer regression without overfitting to
// one workload.
func TestShardedStructuredWorkloads(t *testing.T) {
	type workload struct {
		name string
		g    *bipartite.Graph
		k    int
		beta int64
	}
	var ws []workload
	for seed := int64(1); seed <= 3; seed++ {
		ws = append(ws,
			workload{fmt.Sprintf("BlockDiag/seed%d", seed), blockGraph(t, seed, 6, 8), 16, 3},
			workload{fmt.Sprintf("PowerLaw/seed%d", seed), powerLawGraph(t, seed, 48, 120), 8, 5},
		)
	}
	for _, w := range ws {
		for _, alg := range []Algorithm{GGP, OGGP, MinSteps, Greedy} {
			t.Run(w.name+"/"+alg.String(), func(t *testing.T) {
				off, err := Solve(w.g, w.k, w.beta, Options{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				auto, err := Solve(w.g, w.k, w.beta, Options{Algorithm: alg, Shard: ShardAuto})
				if err != nil {
					t.Fatal(err)
				}
				on, err := Solve(w.g, w.k, w.beta, Options{Algorithm: alg, Shard: shardAlways})
				if err != nil {
					t.Fatal(err)
				}
				if err := on.Validate(w.g, w.k); err != nil {
					t.Fatalf("sharded schedule infeasible: %v", err)
				}
				if auto.String() != on.String() {
					t.Fatal("ShardAuto and shardAlways disagree on a multi-component graph")
				}
				if lb := LowerBound(w.g, w.k, w.beta); on.Cost() < lb {
					t.Fatalf("sharded cost %d below lower bound %d", on.Cost(), lb)
				}
				if concat := componentConcatCost(t, w.g, w.k, w.beta, alg); on.Cost() > concat {
					t.Fatalf("sharded cost %d exceeds concatenation bound %d", on.Cost(), concat)
				}
				if on.Cost() > 2*off.Cost() {
					t.Fatalf("sharded cost %d more than doubles monolithic cost %d", on.Cost(), off.Cost())
				}
			})
		}
	}
}

// TestShardedDeterministicAcrossWorkers pins the merge-by-component-id
// guarantee: the schedule must be byte-identical whether one worker peels
// every component or many race over the cursor.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	g := blockGraph(t, 42, 8, 6)
	for _, alg := range []Algorithm{GGP, OGGP, MinSteps, Greedy} {
		base, err := Solve(g, 12, 1, Options{Algorithm: alg, Shard: shardAlways})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			forceShardWorkers = workers
			s, err := Solve(g, 12, 1, Options{Algorithm: alg, Shard: shardAlways})
			forceShardWorkers = 0
			if err != nil {
				t.Fatal(err)
			}
			if s.String() != base.String() {
				t.Fatalf("%v: schedule depends on worker count %d", alg, workers)
			}
		}
	}
}

// TestShardedObservationPassive: attaching an observer to a sharded solve
// (whose component workers feed the same trace concurrently) must not
// perturb the schedule.
func TestShardedObservationPassive(t *testing.T) {
	g := blockGraph(t, 5, 5, 7)
	for _, alg := range []Algorithm{GGP, OGGP} {
		plain, err := Solve(g, 9, 2, Options{Algorithm: alg, Shard: shardAlways})
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		observed, err := Solve(g, 9, 2, Options{Algorithm: alg, Shard: shardAlways, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		if plain.String() != observed.String() {
			t.Fatalf("%v: observer perturbed the sharded schedule", alg)
		}
		snap := o.Metrics.Snapshot()
		if v := snap.Counters["solver.shard.solves_total."+alg.String()]; v != 1 {
			t.Fatalf("%v: shard solves counter = %d, want 1", alg, v)
		}
		if v := snap.Gauges["solver.shard.largest_component_pct."+alg.String()]; v <= 0 || v > 100 {
			t.Fatalf("%v: largest component pct = %d", alg, v)
		}
	}
}

// TestShardScratchSteadyStateAllocs: the sharding layer itself — the
// union-find split and the per-worker numbering of each component's nodes —
// must be allocation-free once warmed up, mirroring the peeler's own
// contract. Numbering the whole graph after its components reuses the same
// maps.
func TestShardScratchSteadyStateAllocs(t *testing.T) {
	g := blockGraph(t, 8, 6, 8)
	sh := newSharder()
	nb := newNumbering(g)
	warm := func() {
		sh.split(g)
		sh.group(g)
		for c := 0; c < sh.nComp; c++ {
			nb.number(edgeSet{g: g, idx: sh.componentEdges(c)})
		}
		nb.number(edgeSet{g: g})
	}
	warm()
	if sh.nComp != 6 {
		t.Fatalf("nComp = %d, want 6", sh.nComp)
	}
	if nb.nL != g.LeftCount() || nb.nR != g.RightCount() {
		t.Fatalf("whole graph numbered %dx%d nodes, want %dx%d", nb.nL, nb.nR, g.LeftCount(), g.RightCount())
	}
	if avg := testing.AllocsPerRun(20, warm); avg != 0 {
		t.Fatalf("sharding scratch allocates at steady state: %.1f allocs/run, want 0", avg)
	}
}

// TestShardedSolveRace hammers one shared graph and observer with
// concurrent sharded solves; `make race` runs it under the race detector
// where any unsynchronized sharing inside the component pool would trip.
func TestShardedSolveRace(t *testing.T) {
	g := blockGraph(t, 13, 6, 6)
	o := obs.New()
	want, err := Solve(g, 10, 1, Options{Algorithm: OGGP, Shard: shardAlways})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := Solve(g, 10, 1, Options{Algorithm: OGGP, Shard: shardAlways, Obs: o})
			if err != nil {
				errs[i] = err
				return
			}
			if s.String() != want.String() {
				errs[i] = fmt.Errorf("goroutine %d got a different schedule", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedRejectsLikeUnsharded: the sharded path validates once,
// globally, so accept/reject behavior and error text match the monolith.
func TestShardedRejectsLikeUnsharded(t *testing.T) {
	g := blockGraph(t, 2, 3, 4)
	cases := []struct {
		k    int
		beta int64
	}{{0, 1}, {-3, 0}, {2, -1}}
	for _, c := range cases {
		_, errOff := Solve(g, c.k, c.beta, Options{})
		_, errOn := Solve(g, c.k, c.beta, Options{Shard: shardAlways})
		if errOff == nil || errOn == nil {
			t.Fatalf("k=%d beta=%d accepted", c.k, c.beta)
		}
		if errOff.Error() != errOn.Error() {
			t.Fatalf("divergent errors:\noff: %v\non:  %v", errOff, errOn)
		}
	}
}

// TestShardedEdgelessGraph: an edgeless instance yields the same empty
// schedule on every path.
func TestShardedEdgelessGraph(t *testing.T) {
	g := bipartite.New(3, 3)
	for _, mode := range []ShardMode{ShardOff, ShardAuto, shardAlways} {
		s, err := Solve(g, 2, 7, Options{Shard: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(s.Steps) != 0 || s.Beta != 7 {
			t.Fatalf("mode %v: schedule %+v, want empty with beta 7", mode, s)
		}
	}
}

func TestParseShardMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want ShardMode
	}{{"off", ShardOff}, {"auto", ShardAuto}} {
		got, err := ParseShardMode(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseShardMode(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Fatalf("ShardMode(%v).String() = %q, want %q", got, got.String(), c.in)
		}
	}
	// The always-shard path is test-only (shardAlways), so no flag
	// spelling reaches it.
	for _, in := range []string{"on", "always", "maybe"} {
		if _, err := ParseShardMode(in); err == nil {
			t.Fatalf("ParseShardMode accepted %q", in)
		}
	}
}

// TestShardedGoldenTwoComponent runs the golden two-component instance
// (golden_test.go) through the sharded path: feasibility, the
// concatenation bound, and no regression against the pinned monolith
// costs.
func TestShardedGoldenTwoComponent(t *testing.T) {
	g := goldenGraph(t)
	for _, alg := range []Algorithm{GGP, OGGP} {
		off, err := Solve(g, 3, 1, Options{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		on, err := Solve(g, 3, 1, Options{Algorithm: alg, Shard: shardAlways})
		if err != nil {
			t.Fatal(err)
		}
		if err := on.Validate(g, 3); err != nil {
			t.Fatal(err)
		}
		if on.Cost() > off.Cost() {
			t.Fatalf("%v: sharded cost %d > monolith %d on the golden instance", alg, on.Cost(), off.Cost())
		}
	}
}

// TestPackedStepsDoNotAlias: the packed steps share one comm arena, so each
// step's Comms must be capped at its own length. Appending to one step
// then reallocates instead of overwriting the next step's comms.
func TestPackedStepsDoNotAlias(t *testing.T) {
	g := blockGraph(t, 7, 4, 6)
	s, err := Solve(g, 8, 1, Options{Algorithm: GGP, Shard: shardAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Steps) < 2 {
		t.Fatalf("%d packed steps, want at least 2", len(s.Steps))
	}
	want := s.String()
	for i := 0; i+1 < len(s.Steps); i++ {
		grown := append(s.Steps[i].Comms, Comm{L: -1, R: -1, Amount: -1})
		if got := s.String(); got != want {
			t.Fatalf("appending to step %d changed the schedule:\n%s\nwant\n%s", i, got, want)
		}
		if len(grown) != len(s.Steps[i].Comms)+1 {
			t.Fatal("append lost a comm")
		}
	}
}

// TestPackComponentsFirstFit checks the cross-component pack against a
// plain first fit that scans every bin from the first for each step, the
// form the per-component cursor replaced: on random component schedules
// both must place every step in the same bin. Step sizes up to k make bins
// fill unevenly, so a component's later, smaller step often fits a bin its
// earlier steps skipped for room.
func TestPackComponentsFirstFit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(7)
		parts := make([]*Schedule, 2+rng.Intn(5))
		for c := range parts {
			s := &Schedule{Beta: 1, Steps: make([]Step, 1+rng.Intn(12))}
			for si := range s.Steps {
				st := &s.Steps[si]
				for j := 1 + rng.Intn(k); j > 0; j-- {
					st.Comms = append(st.Comms, Comm{L: int32(100*c + si), R: int32(j), Amount: 1 + rng.Int63n(20)})
				}
				st.recomputeDuration()
			}
			parts[c] = s
		}
		got := packComponents(parts, k, 1).String()
		if want := firstFitPack(parts, k).String(); got != want {
			t.Fatalf("trial %d (k = %d): packed\n%s\nwant first fit\n%s", trial, k, got, want)
		}
	}
}

// firstFitPack is the reference first-fit-decreasing pack: each step, by
// descending duration, goes to the first bin with room that holds no step
// of its component.
func firstFitPack(parts []*Schedule, k int) *Schedule {
	var entries []packEntry
	for ci, p := range parts {
		for si := range p.Steps {
			entries = append(entries, packEntry{comp: ci, step: si, dur: p.Steps[si].Duration, size: len(p.Steps[si].Comms)})
		}
	}
	slices.SortFunc(entries, packByDurDesc)
	var bins [][]packEntry
	var room []int
	for _, e := range entries {
		bi := 0
		for ; bi < len(bins); bi++ {
			if room[bi] >= e.size && !slices.ContainsFunc(bins[bi], func(m packEntry) bool { return m.comp == e.comp }) {
				break
			}
		}
		if bi == len(bins) {
			bins = append(bins, nil)
			room = append(room, k)
		}
		bins[bi] = append(bins[bi], e)
		room[bi] -= e.size
	}
	out := &Schedule{Beta: 1}
	for _, members := range bins {
		slices.SortFunc(members, packByComp)
		var st Step
		for _, m := range members {
			st.Comms = append(st.Comms, parts[m.comp].Steps[m.step].Comms...)
		}
		st.recomputeDuration()
		out.Steps = append(out.Steps, st)
	}
	return out
}
