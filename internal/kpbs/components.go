package kpbs

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"redistgo/internal/bipartite"
	"redistgo/internal/obs"
	"redistgo/internal/safemath"
)

// Component sharding (Options.Shard). A perfect matching of the augmented
// working graph never crosses a connected-component boundary of the
// original traffic graph, so K-PBS decomposes exactly: each component can
// be normalized, augmented and peeled on its own, in parallel, and the
// per-component schedules recombined. Real redistribution traffic at
// scale is block-structured (a shard mostly talks to its own storage
// shard), which makes the decomposition the dominant single-solve win on
// sparse instances — see DESIGN.md §9 for the cost analysis and the
// exact guarantees.
//
// The pipeline is:
//
//  1. sharder.split — one union-find pass over the edges, O(m α(m)),
//     counting the components; then, when the graph is to be sharded,
//     sharder.group numbers them in discovery order and groups the edge
//     indices by component.
//  2. solveComponents — a bounded worker pool runs the selected algorithm
//     on every component's edge set, straight from the parent graph
//     (solveSet, the chain a monolithic solve runs), so each part comes
//     out in global node ids. Output is deterministic regardless of the
//     worker count or scheduling order: results are indexed by component
//     id and merged in component order, never in completion order.
//  3. packComponents — first-fit-decreasing bin packing of the
//     per-component steps into shared global steps under the k-edge
//     budget. Fusing steps of durations d1 ≥ d2 replaces d1+d2+2β with
//     d1+β, so the packed schedule is provably never costlier than
//     concatenating the component schedules.

// sharder splits a graph into connected components with a union-find
// pass. All storage is reusable: splitting the same-shaped graph again
// performs no allocations at steady state
// (TestShardScratchSteadyStateAllocs).
type sharder struct {
	parent []int // union-find over nodes; right node r lives at nLeft+r
	size   []int // union by size

	rootComp  []int // root node -> component id, valid when stamped
	rootStamp []int
	epoch     int

	comp  []int // edge index -> component id (discovery order over edges)
	count []int // component id -> edge count
	start []int // component id -> offset into edges
	edges []int // edge indices grouped by component, original order kept
	nComp int
}

func newSharder() *sharder { return &sharder{} }

// ensureInts returns buf resized to n, reallocating only on growth.
func ensureInts(buf []int, n int) []int {
	if cap(buf) < n {
		//redistlint:allow hotpath-interproc grow-only scratch reallocation; amortized zero at steady state, asserted by AllocsPerRun in alloc_test.go
		return make([]int, n)
	}
	return buf[:n]
}

// split computes the connected components of g and counts them in
// sh.nComp: a component is a union-find root whose tree holds an edge, so
// at least two nodes. It does not group the edges; group does, for a
// graph that is sharded.
//
//redistlint:hotpath
func (sh *sharder) split(g *bipartite.Graph) {
	n := g.LeftCount() + g.RightCount()
	m := g.EdgeCount()
	sh.parent = ensureInts(sh.parent, n)
	sh.size = ensureInts(sh.size, n)
	for i := 0; i < n; i++ {
		sh.parent[i] = i
		sh.size[i] = 1
	}
	nl := g.LeftCount()
	for i := 0; i < m; i++ {
		e := g.Edge(i)
		sh.union(e.L, nl+e.R)
	}
	sh.nComp = 0
	for i := 0; i < n; i++ {
		if sh.parent[i] == i && sh.size[i] > 1 {
			sh.nComp++
		}
	}
}

// group numbers the components split found in order of their first edge,
// so the numbering (and everything downstream of it) is independent of
// the union-find internals, and groups the edge indices by component:
// after it returns, component c owns sh.edges[sh.start[c]:sh.start[c+1]],
// original order preserved within each component.
//
//redistlint:hotpath
func (sh *sharder) group(g *bipartite.Graph) {
	n := g.LeftCount() + g.RightCount()
	m := g.EdgeCount()
	sh.rootComp = ensureInts(sh.rootComp, n)
	sh.rootStamp = ensureInts(sh.rootStamp, n)
	sh.comp = ensureInts(sh.comp, m)
	sh.edges = ensureInts(sh.edges, m)
	sh.epoch++
	sh.nComp = 0
	for i := 0; i < m; i++ {
		root := sh.find(g.Edge(i).L)
		if sh.rootStamp[root] != sh.epoch {
			sh.rootStamp[root] = sh.epoch
			sh.rootComp[root] = sh.nComp
			sh.nComp++
		}
		sh.comp[i] = sh.rootComp[root]
	}
	// Group the edge indices by component with a counting sort: stable, so
	// the original edge order survives within each component.
	sh.count = ensureInts(sh.count, sh.nComp)
	sh.start = ensureInts(sh.start, sh.nComp+1)
	for c := 0; c < sh.nComp; c++ {
		sh.count[c] = 0
	}
	for i := 0; i < m; i++ {
		sh.count[sh.comp[i]]++
	}
	sh.start[0] = 0
	for c := 0; c < sh.nComp; c++ {
		sh.start[c+1] = sh.start[c] + sh.count[c]
	}
	for c := 0; c < sh.nComp; c++ {
		sh.count[c] = sh.start[c] // reuse as fill cursor
	}
	for i := 0; i < m; i++ {
		c := sh.comp[i]
		sh.edges[sh.count[c]] = i
		sh.count[c]++
	}
}

//redistlint:hotpath
func (sh *sharder) find(x int) int {
	for sh.parent[x] != x {
		sh.parent[x] = sh.parent[sh.parent[x]] // path halving
		x = sh.parent[x]
	}
	return x
}

//redistlint:hotpath
func (sh *sharder) union(a, b int) {
	ra, rb := sh.find(a), sh.find(b)
	if ra == rb {
		return
	}
	if sh.size[ra] < sh.size[rb] {
		ra, rb = rb, ra
	}
	sh.parent[rb] = ra
	sh.size[ra] += sh.size[rb]
}

// componentEdges returns the edge indices of component c in original
// edge order.
func (sh *sharder) componentEdges(c int) []int {
	return sh.edges[sh.start[c]:sh.start[c+1]]
}

// largestComponentEdges returns the edge count of the largest component.
func (sh *sharder) largestComponentEdges() int {
	max := 0
	for c := 0; c < sh.nComp; c++ {
		if n := sh.start[c+1] - sh.start[c]; n > max {
			max = n
		}
	}
	return max
}

// forceShardWorkers pins the component worker count when > 0. It is a
// test hook: the determinism tests solve with 1 and with many workers and
// require byte-identical schedules.
var forceShardWorkers int

// shardFor splits g into its connected components when mode takes the
// sharded path, and returns nil for the monolithic path: under ShardOff, on
// an edgeless graph, and under ShardAuto on a connected graph. A single
// component gains nothing from the sharded machinery, so auto hands the
// monolithic path an untouched instance (the split costs O(m α(m)),
// negligible against the peel) and groups no edges. The split goes into
// sh, whose storage it reuses, or into a new sharder when sh is nil: Solve
// passes nil, a Result its retained sharder.
func shardFor(g *bipartite.Graph, mode ShardMode, sh *sharder) *sharder {
	if mode == ShardOff || g.EdgeCount() == 0 {
		return nil
	}
	if sh == nil {
		sh = newSharder()
	}
	sh.split(g)
	if mode == ShardAuto && sh.nComp < 2 {
		return nil
	}
	sh.group(g)
	return sh
}

// solveSharded runs the component-sharded pipeline on g, split by sh:
// every component solved on its own, then the cross-component pack. A
// packed schedule outside the bound the monolithic solve keeps (keepsBound)
// is dropped, and g is solved whole instead.
func solveSharded(g *bipartite.Graph, sh *sharder, k int, beta int64, opts Options, so *obs.SolverObs) (*Schedule, error) {
	so.Sharded(sh.nComp, sh.largestComponentEdges(), g.EdgeCount())
	parts, err := solveComponents(g, sh, k, beta, opts, so)
	if err != nil {
		return nil, err
	}
	concat := 0
	for _, p := range parts {
		concat += len(p.Steps)
	}
	out := packComponents(parts, k, beta)
	so.Packed(concat, len(out.Steps))
	if !keepsBound(g, out, k, beta, opts.Algorithm) {
		so.ShardFallback()
		return solveWhole(g, k, beta, opts, so)
	}
	return out, nil
}

// keepsBound reports whether the schedule s of g keeps the paper's bound
// for alg: cost ≤ 2·LowerBound for GGP and OGGP (Theorem 1), and at most
// EtaS steps for MinSteps. Greedy has no bound. Each component's schedule
// keeps the bound of its component, but component steps that do not fit k
// together never share a packed step, so the pack can take more steps
// than the whole graph needs (DESIGN.md §9).
func keepsBound(g *bipartite.Graph, s *Schedule, k int, beta int64, alg Algorithm) bool {
	switch alg {
	case GGP, OGGP:
		return s.Cost() <= safemath.Mul(2, LowerBound(g, k, beta))
	case MinSteps:
		return int64(len(s.Steps)) <= EtaS(g, k)
	}
	return true
}

// solveComponents solves every component on a bounded worker pool and
// returns the per-component schedules, in global node ids, indexed by
// component id. Workers claim components off an atomic cursor; the output
// position of a result depends only on its component id, so schedules are
// byte-identical for any worker count or interleaving. Each worker reuses
// one numbering for all the components it claims.
func solveComponents(g *bipartite.Graph, sh *sharder, k int, beta int64, opts Options, so *obs.SolverObs) ([]*Schedule, error) {
	c := sh.nComp
	parts := make([]*Schedule, c)
	errs := make([]error, c)
	panics := make([]any, c)
	panicked := make([]bool, c)
	workers := runtime.GOMAXPROCS(0)
	if forceShardWorkers > 0 {
		workers = forceShardWorkers
	}
	if workers > c {
		workers = c
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			nb := newNumbering(g)
			for {
				i := int(next.Add(1)) - 1
				if i >= c {
					return
				}
				solveComponentInto(g, sh, i, nb, k, beta, opts, so, parts, errs, panics, panicked)
			}
		}()
	}
	wg.Wait()
	// A panic inside a worker goroutine would crash the process instead of
	// reaching the caller's recover (the batch engine converts solver
	// panics into per-instance errors). Re-raise it on the calling
	// goroutine; the lowest component wins so the surfaced failure is
	// deterministic.
	for i := range panicked {
		if panicked[i] {
			panic(panics[i])
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// solveComponentInto solves component i into parts[i], capturing the
// error or panic in the same slot.
func solveComponentInto(g *bipartite.Graph, sh *sharder, i int, nb *numbering, k int, beta int64, opts Options, so *obs.SolverObs, parts []*Schedule, errs []error, panics []any, panicked []bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked[i] = true
			panics[i] = r
		}
	}()
	parts[i], errs[i] = solveComponent(g, sh, i, nb, k, beta, opts, so)
}

// solveComponent runs the selected algorithm on component i's edges of g.
// The global k is passed through unchanged: instance.build clamps it to the
// component's active node counts, exactly as the monolithic solve clamps it
// to the whole graph's. The engine resolves per component too: auto picks
// by each component's own density, so a mixed-density instance can peel
// dense components on the bitset arm and sparse ones on the scalar arm
// within one solve.
func solveComponent(g *bipartite.Graph, sh *sharder, i int, nb *numbering, k int, beta int64, opts Options, so *obs.SolverObs) (*Schedule, error) {
	set := edgeSet{g: g, idx: sh.componentEdges(i)}
	nb.number(set)
	co := so.Component(i, nb.nL+nb.nR, set.len())
	_, s, err := solveSet(set, nb, k, beta, opts, new(setScratch), new(denormArena), co)
	if err != nil {
		return nil, err
	}
	finish(&s, k, false, co)
	return &s, nil
}

// packEntry is one component step inside the cross-component packer.
type packEntry struct {
	comp, step int
	dur        int64
	size       int
}

// packByDurDesc orders entries by descending duration (the first-fit-
// decreasing rule), component then step index as deterministic tiebreaks.
func packByDurDesc(a, b packEntry) int {
	if a.dur != b.dur {
		return cmp.Compare(b.dur, a.dur)
	}
	if a.comp != b.comp {
		return a.comp - b.comp
	}
	return a.step - b.step
}

// packByComp orders a bin's members by component, so the merged step
// lists comms in component order. A bin holds at most one step of each
// component.
func packByComp(a, b packEntry) int { return a.comp - b.comp }

// packBin is one global step under construction. Its members are entries
// first, next[first], ... up to last, in the order they were placed.
type packBin struct {
	rem         int // remaining edge capacity out of k
	first, last int
}

// packComponents bin-packs the per-component steps into shared global
// steps: sort all steps by descending duration, then first-fit each into
// the earliest bin with enough remaining k-capacity that does not already
// hold a step of the same component. Steps of different components are
// node-disjoint by construction, so a bin is always a valid matching;
// steps of the same component may share nodes and never co-locate (their
// intra-component packing is Schedule.Pack's job, not this one's).
//
// Cost: every bin's duration is the max of its members, ≤ their sum, and
// the bin count is ≤ the step count, so the packed schedule never costs
// more than concatenating the component schedules (each fusion of d1 ≥ d2
// replaces d1+d2+2β with d1+β). That is the pack's own guarantee; the
// packed cost is NOT guaranteed ≤ the monolithic solve's, nor ≤ 2·LB, so
// solveSharded checks it (keepsBound) — see DESIGN.md §9.
//
// A cursor per component keeps first fit from rescanning the bins a
// component already fills: every bin below skip[c] holds a step of c, so
// c's search starts at skip[c], and after each placement of c the cursor
// moves past the bins that hold c. On a giant component, whose steps sit
// in almost every bin, a placement then scans a few bins instead of all.
//
// The output is allocated a fixed number of times, never per bin: the bins
// live in one value slice with index-linked members, and every packed
// step's Comms is a capped sub-slice of one arena, so appending to one
// step cannot overwrite the next.
func packComponents(parts []*Schedule, k int, beta int64) *Schedule {
	if len(parts) == 1 {
		// Nothing to pack across; returning the component schedule untouched
		// keeps shardAlways byte-identical to the monolithic solve on
		// connected graphs.
		return parts[0]
	}
	total, comms := 0, 0
	for _, p := range parts {
		total += len(p.Steps)
		for si := range p.Steps {
			comms += len(p.Steps[si].Comms)
		}
	}
	entries := make([]packEntry, 0, total)
	for ci, p := range parts {
		for si := range p.Steps {
			st := &p.Steps[si]
			entries = append(entries, packEntry{comp: ci, step: si, dur: st.Duration, size: len(st.Comms)})
		}
	}
	slices.SortFunc(entries, packByDurDesc)

	bins := make([]packBin, 0, len(entries))
	next := make([]int, len(entries)+len(parts))
	next, skip := next[:len(entries)], next[len(entries):]
	holds := func(bi, c int) bool {
		for j := bins[bi].first; j >= 0; j = next[j] {
			if entries[j].comp == c {
				return true
			}
		}
		return false
	}
	for i, e := range entries {
		next[i] = -1
		bi := skip[e.comp]
		for ; bi < len(bins); bi++ {
			if bins[bi].rem >= e.size && !holds(bi, e.comp) {
				break
			}
		}
		if bi < len(bins) {
			b := &bins[bi]
			next[b.last] = i
			b.last = i
			b.rem -= e.size
		} else {
			bins = append(bins, packBin{rem: k - e.size, first: i, last: i})
		}
		if c := e.comp; bi == skip[c] {
			skip[c]++
			for skip[c] < len(bins) && holds(skip[c], c) {
				skip[c]++
			}
		}
	}

	arena := make([]Comm, comms)
	members := make([]packEntry, 0, len(parts))
	out := &Schedule{Beta: beta, Steps: make([]Step, len(bins))}
	at := 0
	for bi := range bins {
		members = members[:0]
		for j := bins[bi].first; j >= 0; j = next[j] {
			members = append(members, entries[j])
		}
		slices.SortFunc(members, packByComp)
		start := at
		for _, m := range members {
			at += copy(arena[at:], parts[m.comp].Steps[m.step].Comms)
		}
		st := &out.Steps[bi]
		st.Comms = arena[start:at:at]
		st.recomputeDuration()
	}
	return out
}
