package kpbs

import (
	"errors"
	"fmt"
	"sort"

	"redistgo/internal/bipartite"
	"redistgo/internal/obs"
)

// Cross-instance delta solving (SolveDelta). Real redistribution traffic
// evolves between rounds — a few matrix cells change while most of the
// instance stays put — so a Result retains the canonical graph, the solve
// pipeline of its last solve and the normalized steps it peeled, and
// advances them under an edit list. The hard contract is byte-identical
// output to a cold Solve on the edited instance (DESIGN.md §13). A base
// peels whole when shardFor, the split Solve runs, takes the monolithic
// path: under ShardOff, and under ShardAuto on a connected graph. Three
// paths:
//
//   - reuse: the last solve peeled whole and no real edge's normalized
//     weight changed (β absorbed the raw change, or MinSteps' unit weights
//     ignore it). The normalized solve is the same solve, so the retained
//     normalized steps are re-denormalized against the patched raw weights
//     and nothing is re-peeled.
//   - rebuild: any other edit on a base that peels whole: the instance is
//     rebuilt from the patched graph into the retained pipeline and peeled
//     cold.
//   - cold: Greedy, and bases that shardFor splits (multi-component
//     ShardAuto, shardAlways), run Solve's chain with fresh buffers.
//
// A structural edit can join or split components, so it runs shardFor
// again; weight-only edits keep the last split.

// Edit sets one cell of the traffic matrix to a new raw weight: W > 0
// writes the cell (adding it if absent), W = 0 clears it. Edits apply in
// order, so later edits to the same cell win.
type Edit struct {
	L, R int
	W    int64
}

// DeltaPath identifies which repair path a SolveDelta call took.
type DeltaPath int

const (
	// DeltaReuse re-denormalized the retained normalized steps; nothing was
	// re-peeled (the normalized instance was unchanged by the edits).
	DeltaReuse DeltaPath = iota
	// DeltaReplay and DeltaRerun name two retired repair paths. SolveDelta
	// never returns them; they keep their values and metric labels so that
	// tables indexed by DeltaPath stay stable.
	DeltaReplay
	DeltaRerun
	// DeltaRebuild rebuilt the augmented instance from the patched graph
	// into the retained pipeline and peeled it cold (structural edits or
	// changed normalized weights on a base that peels whole).
	DeltaRebuild
	// DeltaCold solved the patched graph with fresh buffers, as Solve does
	// (Greedy, and graphs that shardFor splits into components).
	DeltaCold
)

// String returns the path's metric label.
func (p DeltaPath) String() string {
	switch p {
	case DeltaReuse:
		return "reuse"
	case DeltaReplay:
		return "replay"
	case DeltaRerun:
		return "rerun"
	case DeltaRebuild:
		return "rebuild"
	case DeltaCold:
		return "cold"
	}
	return fmt.Sprintf("DeltaPath(%d)", int(p))
}

// DeltaStats describes the last SolveDelta call on a Result.
type DeltaStats struct {
	Path  DeltaPath
	Edits int // edits submitted (before no-op collapsing)
}

// ErrNonCanonical reports a delta-base graph whose edge list is not in
// canonical row-major order (or has parallel edges).
var ErrNonCanonical = errors.New("kpbs: delta base requires canonical row-major edge order without parallel edges")

// Result is a retained solve: the schedule plus what the reuse and rebuild
// paths need to re-derive it under edits. Build one with NewResult, advance
// it with SolveDelta. A Result is single-owner state — not safe for
// concurrent use — and the *Schedule it returns aliases its arenas, valid
// only until the next SolveDelta (snapshot with Schedule.Clone to keep one).
type Result struct {
	g    *bipartite.Graph // owned canonical (row-major) graph
	k    int
	beta int64
	opts Options

	broken bool

	// split is shardFor's answer for the current graph: nil when it peels
	// whole, else the component split, which aliases sh. Only structural
	// edits change it.
	split *sharder

	// The retained pipeline: validateInstance's node sums, the numbering,
	// the sharder, the set scratch (instance, peeler, matcher) and the
	// denormalize arena of every solve that peels the whole graph. Edits
	// never change g's node counts, so sums and num last the Result's life,
	// and a rebuild of a same-shaped instance reallocates none of the
	// buffers.
	sums []int64
	num  *numbering
	sh   sharder
	set  setScratch
	out  denormArena

	// Normalized steps of the last solve when it peeled whole; nil for an
	// edgeless graph. They alias the peeler's arenas in set.
	steps []normStep

	// Edit-overlay scratch: deduplicated edited cells in first-touch order.
	ovIdx map[uint64]int
	ovK   []uint64 // packed (l<<32 | r) cell keys
	ovV   []int64  // final raw weight
	ovE   []int    // edge index in g, -1 when the cell was empty
	ovB   []int64  // base raw weight (0 when the cell was empty)
	ovN   int

	sched     Schedule // the last schedule; aliases out when peeled whole
	lastSched *Schedule
	stats     DeltaStats
}

// NewResult runs a cold solve of (g, k, beta, opts) and retains what
// delta solving needs. The graph must be in canonical row-major edge
// order with no parallel edges — exactly what bipartite.FromMatrix builds
// — because edits address cells and cold-equivalence is defined against
// the canonical graph of the patched matrix. g is cloned, not retained.
func NewResult(g *bipartite.Graph, k int, beta int64, opts Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("kpbs: nil graph")
	}
	if err := checkSides(g); err != nil {
		return nil, err
	}
	for i := 1; i < g.EdgeCount(); i++ {
		a, b := g.Edge(i-1), g.Edge(i)
		if b.L < a.L || (b.L == a.L && b.R <= a.R) {
			return nil, fmt.Errorf("%w (build the graph with bipartite.FromMatrix); edge %d (%d,%d) follows (%d,%d)", ErrNonCanonical, i, b.L, b.R, a.L, a.R)
		}
	}
	r := &Result{
		g:    g.Clone(),
		k:    k,
		beta: beta,
		opts: opts,
		sums: make([]int64, g.NodeCount()),
		num:  newNumbering(g),
	}
	if _, err := r.recompute(true); err != nil {
		return nil, err
	}
	return r, nil
}

// Schedule returns the schedule of the last solve. It aliases the Result's
// arenas: valid until the next SolveDelta (Clone to keep).
func (r *Result) Schedule() *Schedule { return r.lastSched }

// Stats returns the statistics of the last SolveDelta call that passed
// edit validation. A call refused for invalid edits, or on a poisoned
// base, leaves them unchanged.
func (r *Result) Stats() DeltaStats { return r.stats }

// K returns the instance's port budget.
func (r *Result) K() int { return r.k }

// Beta returns the instance's setup delay.
func (r *Result) Beta() int64 { return r.beta }

// Options returns the solve options the Result was built with.
func (r *Result) Options() Options { return r.opts }

// SolveDelta patches the retained instance with edits and returns the
// schedule of the edited instance, byte-identical to a cold Solve of it.
// On error after patching begins the Result is poisoned and must be
// rebuilt with NewResult; errors raised by edit validation leave it
// intact. The returned schedule aliases the Result's arenas (see
// Schedule).
func SolveDelta(prev *Result, edits []Edit) (*Schedule, error) {
	if prev == nil {
		return nil, fmt.Errorf("kpbs: SolveDelta requires a non-nil base Result")
	}
	return prev.SolveDelta(edits)
}

// SolveDelta is the method form of the package-level SolveDelta.
func (r *Result) SolveDelta(edits []Edit) (*Schedule, error) {
	if r.broken {
		return nil, fmt.Errorf("kpbs: delta base was poisoned by an earlier failed delta; rebuild it with NewResult")
	}
	nLeft, nRight := r.g.LeftCount(), r.g.RightCount()
	for i, e := range edits {
		if e.L < 0 || e.L >= nLeft || e.R < 0 || e.R >= nRight {
			return nil, fmt.Errorf("kpbs: edit %d targets cell (%d,%d) outside the %dx%d matrix", i, e.L, e.R, nLeft, nRight)
		}
		if e.W < 0 {
			return nil, fmt.Errorf("kpbs: edit %d sets negative weight %d on cell (%d,%d)", i, e.W, e.L, e.R)
		}
	}
	r.stats = DeltaStats{Edits: len(edits)}
	if r.scanEdits(edits) == 0 {
		// Every edit was a no-op: the instance is unchanged, so the retained
		// schedule already is the cold solve of it.
		r.stats.Path = DeltaReuse
		r.observe()
		return r.lastSched, nil
	}
	structural, normChanged := r.classify()
	r.applyOverlay(structural)

	if structural || normChanged || !r.peelsWhole() {
		// Adding or removing a cell can join or split components, so a
		// structural edit splits the graph again.
		var err error
		if r.stats.Path, err = r.recompute(structural); err != nil {
			r.broken = true
			return nil, err
		}
	} else {
		// β (or MinSteps' unit weights) absorbed every raw change: the
		// normalized solve is unchanged, only denormalization re-runs.
		r.stats.Path = DeltaReuse
		r.sched = r.out.denormalize(edgeSet{g: r.g}, r.steps, r.beta, r.opts.Algorithm == MinSteps)
		r.finish(r.opts.Obs.Solver(r.opts.Algorithm.String()))
	}
	r.observe()
	return r.lastSched, nil
}

// scanEdits collapses the edit list into the per-cell overlay (last write
// wins) and drops cells whose final value equals the base. Returns the
// number of effective cell changes.
func (r *Result) scanEdits(edits []Edit) int {
	r.ovK = r.ovK[:0]
	r.ovV = r.ovV[:0]
	r.ovE = r.ovE[:0]
	r.ovB = r.ovB[:0]
	if r.ovIdx == nil {
		r.ovIdx = make(map[uint64]int, len(edits))
	}
	for _, e := range edits {
		key := uint64(e.L)<<32 | uint64(uint32(e.R))
		if i, ok := r.ovIdx[key]; ok {
			r.ovV[i] = e.W
			continue
		}
		ei := r.findEdge(e.L, e.R)
		var base int64
		if ei >= 0 {
			base = r.g.Edge(ei).Weight
		}
		r.ovIdx[key] = len(r.ovK)
		r.ovK = append(r.ovK, key)
		r.ovV = append(r.ovV, e.W)
		r.ovE = append(r.ovE, ei)
		r.ovB = append(r.ovB, base)
	}
	//redistlint:allow determinism clearing the scratch map; deletion order cannot affect the resulting empty state
	for k := range r.ovIdx {
		delete(r.ovIdx, k)
	}
	n := 0
	for i := range r.ovK {
		if r.ovV[i] == r.ovB[i] {
			continue
		}
		r.ovK[n], r.ovV[n], r.ovE[n], r.ovB[n] = r.ovK[i], r.ovV[i], r.ovE[i], r.ovB[i]
		n++
	}
	r.ovK = r.ovK[:n]
	r.ovV = r.ovV[:n]
	r.ovE = r.ovE[:n]
	r.ovB = r.ovB[:n]
	r.ovN = n
	return n
}

// classify reports whether the overlay adds or removes a cell
// (structural) and whether it changes the normalized weight of a real
// edge. A base that does not peel whole needs only the structural bit, so
// it skips normalization.
func (r *Result) classify() (structural, normChanged bool) {
	reusable := r.peelsWhole()
	for i := 0; i < r.ovN; i++ {
		base, fin := r.ovB[i], r.ovV[i]
		if r.ovE[i] < 0 || fin == 0 || base == 0 {
			structural = true
			continue
		}
		if !reusable || r.opts.Algorithm == MinSteps {
			continue // cold bases skip normalization; unit weights ignore it
		}
		if normalizeWeight(base, r.beta) != normalizeWeight(fin, r.beta) {
			normChanged = true
		}
	}
	return structural, normChanged
}

// findEdge locates cell (l, rr) in the canonical row-major edge list by
// binary search, or returns -1.
//
//redistlint:hotpath
func (r *Result) findEdge(l, rr int) int {
	lo, hi := 0, r.g.EdgeCount()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := r.g.Edge(mid)
		if e.L < l || (e.L == l && e.R < rr) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < r.g.EdgeCount() {
		if e := r.g.Edge(lo); e.L == l && e.R == rr {
			return lo
		}
	}
	return -1
}

// applyOverlay writes the overlay into the retained graph. Weight-only
// overlays patch in place (preserving canonical order); structural ones
// merge the sorted overlay with the row-major edge list into a fresh
// canonical graph — exactly the graph FromMatrix would build from the
// patched matrix.
func (r *Result) applyOverlay(structural bool) {
	if !structural {
		for i := 0; i < r.ovN; i++ {
			r.g.SetWeight(r.ovE[i], r.ovV[i])
		}
		return
	}
	sort.Sort(cellOverlay{r})
	ng := bipartite.New(r.g.LeftCount(), r.g.RightCount())
	m := r.g.EdgeCount()
	ng.Grow(m + r.ovN) // the merge adds at most one edge per overlay cell
	i, j := 0, 0
	for i < m || j < r.ovN {
		if j >= r.ovN {
			e := r.g.Edge(i)
			ng.AddEdge(e.L, e.R, e.Weight)
			i++
			continue
		}
		key := r.ovK[j]
		if i >= m {
			if r.ovV[j] > 0 {
				ng.AddEdge(int(key>>32), int(uint32(key)), r.ovV[j])
			}
			j++
			continue
		}
		e := r.g.Edge(i)
		ek := uint64(e.L)<<32 | uint64(uint32(e.R))
		switch {
		case ek < key:
			ng.AddEdge(e.L, e.R, e.Weight)
			i++
		case ek == key:
			if r.ovV[j] > 0 {
				ng.AddEdge(e.L, e.R, r.ovV[j])
			}
			i++
			j++
		default:
			if r.ovV[j] > 0 {
				ng.AddEdge(int(key>>32), int(uint32(key)), r.ovV[j])
			}
			j++
		}
	}
	r.g = ng
}

// cellOverlay sorts the overlay's four parallel arrays by cell key (row-
// major order). A typed sorter, keeping the delta paths closure-free like
// the hot paths they feed.
type cellOverlay struct{ r *Result }

func (s cellOverlay) Len() int           { return s.r.ovN }
func (s cellOverlay) Less(a, b int) bool { return s.r.ovK[a] < s.r.ovK[b] }
func (s cellOverlay) Swap(a, b int) {
	r := s.r
	r.ovK[a], r.ovK[b] = r.ovK[b], r.ovK[a]
	r.ovV[a], r.ovV[b] = r.ovV[b], r.ovV[a]
	r.ovE[a], r.ovE[b] = r.ovE[b], r.ovE[a]
	r.ovB[a], r.ovB[b] = r.ovB[b], r.ovB[a]
}

// peelsWhole reports whether the current graph is peeled whole, into the
// retained pipeline, so that the retained normalized steps are those of
// the last solve: every algorithm but Greedy, when shardFor takes the
// monolithic path.
func (r *Result) peelsWhole() bool {
	return r.split == nil && r.opts.Algorithm != Greedy
}

// recompute solves the (already patched) retained graph with Solve's
// chain: the rebuild and cold paths of the delta engine, also used by
// NewResult. It runs the chain phase by phase: validateInstance, then,
// with resplit set, shardFor into the retained sharder. A graph that peels
// whole is numbered by the retained numbering and solved into the retained
// set scratch, keeping the normalized steps (rebuild); Greedy solves from
// the retained numbering too, with no steps to keep, and a split graph
// runs the sharded pipeline with fresh buffers per component (cold). It
// returns the path it took.
func (r *Result) recompute(resplit bool) (DeltaPath, error) {
	if err := validateInstance(r.g, r.k, r.beta, r.opts.Algorithm, r.sums); err != nil {
		return 0, err
	}
	if resplit {
		r.split = shardFor(r.g, r.opts.Shard, &r.sh)
	}
	so := r.opts.Obs.Solver(r.opts.Algorithm.String())
	r.steps = nil
	if r.split != nil {
		s, err := solveSharded(r.g, r.split, r.k, r.beta, r.opts, so)
		if err != nil {
			return 0, err
		}
		r.sched = *s
		r.finish(so)
		return DeltaCold, nil
	}
	set := edgeSet{g: r.g}
	r.num.number(set)
	var err error
	if r.steps, r.sched, err = solveSet(set, r.num, r.k, r.beta, r.opts, &r.set, &r.out, so); err != nil {
		return 0, err
	}
	r.finish(so)
	if !r.peelsWhole() {
		return DeltaCold, nil
	}
	return DeltaRebuild, nil
}

// observe reports the last delta outcome to the observability layer
// (strictly passive; nil Obs → no-op).
func (r *Result) observe() {
	r.opts.Obs.DeltaSolve(r.opts.Algorithm.String(), r.stats.Path.String(), r.stats.Edits)
}

// finish runs Solve's tail (finish) on the retained schedule, which
// aliases the retained arenas, and makes it the Result's schedule.
func (r *Result) finish(so *obs.SolverObs) {
	finish(&r.sched, r.k, r.opts.Pack, so)
	r.lastSched = &r.sched
}

// ensureInt64s returns buf resized to n, reallocating only on growth.
func ensureInt64s(buf []int64, n int) []int64 {
	if cap(buf) < n {
		//redistlint:allow hotpath-interproc grow-only scratch reallocation; amortized zero at steady state, asserted by AllocsPerRun in delta_test.go
		return make([]int64, n)
	}
	return buf[:n]
}

// ensureComms returns buf resized to n, reallocating only on growth.
func ensureComms(buf []Comm, n int) []Comm {
	if cap(buf) < n {
		//redistlint:allow hotpath-interproc grow-only arena reallocation; amortized zero at steady state, asserted by AllocsPerRun in delta_allocs_test.go
		return make([]Comm, n)
	}
	return buf[:n]
}

// ensureSteps returns buf resized to n, reallocating only on growth.
func ensureSteps(buf []Step, n int) []Step {
	if cap(buf) < n {
		//redistlint:allow hotpath-interproc grow-only arena reallocation; amortized zero at steady state, asserted by AllocsPerRun in delta_allocs_test.go
		return make([]Step, n)
	}
	return buf[:n]
}
