package kpbs

import (
	"errors"
	"fmt"
	"sort"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
	"redistgo/internal/obs"
)

// Cross-instance delta solving (SolveDelta). Real redistribution traffic
// evolves between rounds — a few matrix cells change while most of the
// instance stays put — so a Result retains everything a cold solve builds
// (the canonical graph, the normalized augmented instance, the peeler with
// its matcher arenas, and for GGP the full peeling trajectory) and repairs
// it under an edit list instead of rebuilding. The hard contract is
// byte-identical output to a cold Solve on the edited instance; see
// DESIGN.md §13 for the determinism argument. Five paths, cheapest first:
//
//   - reuse: no real edge's normalized weight changed (β absorbed the raw
//     change, or MinSteps' unit weights ignore it). The normalized solve is
//     the same solve, so the retained normalized steps are re-denormalized
//     against the patched raw weights and nothing is re-peeled.
//   - replay (GGP): weight-only edits that keep every node's normalized
//     weight sum — the augmentation is then unchanged and the recorded
//     trajectory of matchings is replayed against the patched weights.
//     Matchings are a pure function of (active edge set, previous matching),
//     never of the weights (matching.Incremental's canonical traversal), so
//     replay stays exact while the edge-death sequence matches the
//     recording; where it diverges the real matcher takes over, warm-started
//     from the last replayed matching, and replay resumes as soon as the
//     death multiset and the surviving matching realign with the recording.
//   - rerun (OGGP): same preconditions, but bottleneck matchings do depend
//     on weights, so the peel re-runs in the retained arenas with the
//     matcher's insertion order re-sorted over the patched weights
//     (BottleneckInc.Resort) — warm memory, cold decisions.
//   - rebuild: structural edits (cell add/remove), changed node sums, or
//     damage above the threshold: the instance is rebuilt from the patched
//     graph and peeled with the plain cold loop. No trajectory is recorded
//     (recording would cost ~15% per peel to prefetch a replay a churning
//     stream never redeems); the retained trajectory is invalidated, and
//     the first replay-path delta after a rebuild re-records one during
//     its own tracked run.
//   - cold: configurations the monolithic delta engine does not model
//     (Greedy, sharded solves) go through plain Solve on the patched graph.
//
// The damage threshold is the fraction of connected components of the
// traffic graph touched by the edits (the PR 5 union-find supplies the
// components); above it, repair is assumed to cost more than a rebuild. On
// a single-component graph the fraction degrades to edited-cells/edges.

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
	// DeltaReplay replayed the recorded GGP trajectory against the patched
	// weights, repairing only the diverging iterations.
	DeltaReplay
	// DeltaRerun re-peeled in the retained arenas with re-sorted bottleneck
	// matcher state (OGGP; bottleneck matchings depend on the weights).
	DeltaRerun
	// DeltaRebuild rebuilt the augmented instance from the patched graph
	// and peeled it cold (structural edits, changed node sums, or damage
	// above the threshold).
	DeltaRebuild
	// DeltaCold delegated to plain Solve on the patched graph (Greedy or
	// sharded configurations, which the delta engine does not model).
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
	Path        DeltaPath
	Edits       int     // edits submitted (before no-op collapsing)
	Damage      float64 // fraction of components touched (weight-only edits)
	Iterations  int     // peel iterations executed (replay paths)
	Replayed    int     // iterations satisfied from the recorded trajectory
	Repaired    int     // iterations recomputed by the real matcher
	Resyncs     int     // times replay resumed after a divergence
	Divergences int     // times replay fell out of sync
}

// DefaultDamageThreshold is the touched-component fraction above which
// SolveDelta falls back to a cold rebuild.
const DefaultDamageThreshold = 0.25

// ErrNonCanonical reports a delta-base graph whose edge list is not in
// canonical row-major order (or has parallel edges). Callers that accept
// arbitrary edge orders (the solve cache inside the engine pool) detect
// it with IsNonCanonical and fall back to a plain Solve.
var ErrNonCanonical = errors.New("kpbs: delta base requires canonical row-major edge order without parallel edges")

// IsNonCanonical reports whether err is (or wraps) ErrNonCanonical.
func IsNonCanonical(err error) bool { return errors.Is(err, ErrNonCanonical) }

// trajectory records one GGP peel as replayable state: the matched edge
// per (augmented) left node at every iteration, and the edge-death
// sequence in emission order with per-iteration boundaries.
type trajectory struct {
	nL      int
	iters   int
	matched []int32 // iters rows of nL matched-edge indices
	zeroed  []int32 // edge deaths, concatenated in emission order
	zeroEnd []int32 // per-iteration cumulative death counts
}

// Result is a retained solve: the schedule plus everything needed to
// repair it under edits. Build one with NewResult, advance it with
// SolveDelta. A Result is single-owner state — not safe for concurrent
// use — and the *Schedule it returns aliases its arenas, valid only until
// the next SolveDelta (snapshot with Schedule.Clone to keep one).
type Result struct {
	g    *bipartite.Graph // owned canonical (row-major) graph
	k    int
	beta int64
	opts Options

	simple bool // monolithic peeling config: delta engine applies
	unit   bool // MinSteps: unit normalized weights
	kind   matcherKind
	eng    matching.Engine

	damageThreshold float64
	broken          bool

	in *instance
	p  *peeler

	lookL, lookR []int // original node id -> compacted work index, -1 isolated

	cur, alt *trajectory // double-buffered recording (matchAny only)

	sh        *sharder // connected components of g, for the damage metric
	compStamp []int
	compEpoch int

	// Edit-overlay scratch: deduplicated edited cells in first-touch order.
	ovIdx map[uint64]int
	ovK   []uint64 // packed (l<<32 | r) cell keys
	ovV   []int64  // final raw weight
	ovE   []int    // edge index in g, -1 when the cell was empty
	ovB   []int64  // base raw weight (0 when the cell was empty)
	ovN   int

	sumL, sumR []int64 // accumulated normalized node-sum deltas
	tL, tR     []int   // touched node lists, to re-zero the sums

	// Output arenas for the simple path, retained across deltas.
	out   denormArena
	sched Schedule

	lastSched *Schedule
	stats     DeltaStats
}

// NewResult runs a cold solve of (g, k, beta, opts) and retains its full
// state for delta solving. The graph must be in canonical row-major edge
// order with no parallel edges — exactly what bipartite.FromMatrix builds
// — because edits address cells and cold-equivalence is defined against
// the canonical graph of the patched matrix. g is cloned, not retained.
func NewResult(g *bipartite.Graph, k int, beta int64, opts Options) (*Result, error) {
	switch opts.Algorithm {
	case GGP, OGGP, MinSteps, Greedy:
	default:
		return nil, fmt.Errorf("kpbs: unknown algorithm %v", opts.Algorithm)
	}
	eng, err := opts.Engine.matchingEngine()
	if err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("kpbs: nil graph")
	}
	for i := 1; i < g.EdgeCount(); i++ {
		a, b := g.Edge(i-1), g.Edge(i)
		if b.L < a.L || (b.L == a.L && b.R <= a.R) {
			return nil, fmt.Errorf("%w (build the graph with bipartite.FromMatrix); edge %d (%d,%d) follows (%d,%d)", ErrNonCanonical, i, b.L, b.R, a.L, a.R)
		}
	}
	kind := matchAny
	if opts.Algorithm == OGGP || opts.Algorithm == MinSteps {
		kind = matchBottleneck
	}
	r := &Result{
		g:               g.Clone(),
		k:               k,
		beta:            beta,
		opts:            opts,
		simple:          opts.Shard == ShardOff && opts.Algorithm != Greedy,
		unit:            opts.Algorithm == MinSteps,
		kind:            kind,
		eng:             eng,
		damageThreshold: DefaultDamageThreshold,
	}
	if err := r.recompute(); err != nil {
		return nil, err
	}
	return r, nil
}

// Schedule returns the schedule of the last solve. It aliases the Result's
// arenas: valid until the next SolveDelta (Clone to keep).
func (r *Result) Schedule() *Schedule { return r.lastSched }

// Stats returns the statistics of the last SolveDelta call.
func (r *Result) Stats() DeltaStats { return r.stats }

// K returns the instance's port budget.
func (r *Result) K() int { return r.k }

// Beta returns the instance's setup delay.
func (r *Result) Beta() int64 { return r.beta }

// Options returns the solve options the Result was built with.
func (r *Result) Options() Options { return r.opts }

// SetDamageThreshold overrides the touched-component fraction above which
// deltas fall back to a cold rebuild (DefaultDamageThreshold).
func (r *Result) SetDamageThreshold(t float64) { r.damageThreshold = t }

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
	r.stats = DeltaStats{Edits: len(edits)}
	nLeft, nRight := r.g.LeftCount(), r.g.RightCount()
	for i, e := range edits {
		if e.L < 0 || e.L >= nLeft || e.R < 0 || e.R >= nRight {
			return nil, fmt.Errorf("kpbs: edit %d targets cell (%d,%d) outside the %dx%d matrix", i, e.L, e.R, nLeft, nRight)
		}
		if e.W < 0 {
			return nil, fmt.Errorf("kpbs: edit %d sets negative weight %d on cell (%d,%d)", i, e.W, e.L, e.R)
		}
	}
	if r.scanEdits(edits) == 0 {
		// Every edit was a no-op: the instance is unchanged, so the retained
		// schedule already is the cold solve of it.
		r.stats.Path = DeltaReuse
		r.observe()
		return r.lastSched, nil
	}
	structural, normChanged, sumsStable := r.classify()

	var err error
	switch {
	case !r.simple:
		r.applyOverlay(structural)
		r.stats.Path = DeltaCold
		err = r.recompute()
	case structural:
		r.applyOverlay(true)
		r.stats.Path = DeltaRebuild
		err = r.recompute()
	case !normChanged:
		// β (or MinSteps' unit weights) absorbed every raw change: the
		// normalized solve is unchanged, only denormalization re-runs. Exact
		// reuse, so the damage gate does not apply.
		r.applyOverlay(false)
		r.stats.Path = DeltaReuse
		err = r.redenormalize()
	case !sumsStable || r.stats.Damage > r.damageThreshold:
		r.applyOverlay(false)
		r.stats.Path = DeltaRebuild
		err = r.recompute()
	case r.kind == matchAny:
		r.applyOverlay(false)
		r.patchInstance()
		r.stats.Path = DeltaReplay
		err = r.repeel(true)
	default:
		r.applyOverlay(false)
		r.patchInstance()
		r.stats.Path = DeltaRerun
		err = r.repeel(false)
	}
	if err != nil {
		r.broken = true
		return nil, err
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

// classify inspects the overlay: structural edits (cell add/remove),
// normalized-weight changes, normalized node-sum stability, and the
// touched-component damage fraction (recorded in stats.Damage).
func (r *Result) classify() (structural, normChanged, sumsStable bool) {
	sumsStable = true
	r.compEpoch++
	touched := 0
	for i := 0; i < r.ovN; i++ {
		base, fin, ei := r.ovB[i], r.ovV[i], r.ovE[i]
		if ei < 0 || fin == 0 || base == 0 {
			structural = true
			continue
		}
		if !r.simple {
			// Cold dispatch (greedy, sharding): only the structural bit decides
			// how the overlay is applied; the lookups below are never built.
			continue
		}
		if r.sh != nil && r.sh.nComp > 0 {
			if c := r.sh.comp[ei]; r.compStamp[c] != r.compEpoch {
				r.compStamp[c] = r.compEpoch
				touched++
			}
		}
		if r.unit {
			continue // unit weights: normalization ignores the raw value
		}
		on := normalizeWeight(base, r.beta)
		nn := normalizeWeight(fin, r.beta)
		if nn == on {
			continue
		}
		normChanged = true
		key := r.ovK[i]
		cl := r.lookL[int(key>>32)]
		cr := r.lookR[int(uint32(key))]
		var ok bool
		if r.sumL[cl] == 0 {
			r.tL = append(r.tL, cl)
		}
		if r.sumL[cl], ok = addSigned(r.sumL[cl], nn-on); !ok {
			structural = true // overflow: force the always-correct rebuild
		}
		if r.sumR[cr] == 0 {
			r.tR = append(r.tR, cr)
		}
		if r.sumR[cr], ok = addSigned(r.sumR[cr], nn-on); !ok {
			structural = true
		}
	}
	for _, n := range r.tL {
		if r.sumL[n] != 0 {
			sumsStable = false
		}
		r.sumL[n] = 0
	}
	for _, n := range r.tR {
		if r.sumR[n] != 0 {
			sumsStable = false
		}
		r.sumR[n] = 0
	}
	r.tL = r.tL[:0]
	r.tR = r.tR[:0]
	if r.simple && !structural && r.sh != nil {
		if r.sh.nComp > 1 {
			r.stats.Damage = float64(touched) / float64(r.sh.nComp)
		} else if m := r.g.EdgeCount(); m > 0 {
			r.stats.Damage = float64(r.ovN) / float64(m)
		}
	}
	return structural, normChanged, sumsStable
}

// addSigned returns a+b and whether it fit in int64. Unlike
// safemath.AddChecked it accepts negative operands — node-sum deltas are
// signed.
func addSigned(a, b int64) (int64, bool) {
	//redistlint:allow safemath this IS the signed overflow check; the wrapped value is detected and discarded below
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return s, false
	}
	return s, true
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

// patchInstance pushes the overlay's normalized weights into the retained
// augmented instance. Real edges keep their original indices in the
// augmented edge list (buildInstance appends them first, in order), so the
// graph edge index addresses the work edge directly.
//
//redistlint:hotpath
func (r *Result) patchInstance() {
	for i := 0; i < r.ovN; i++ {
		nn := normalizeWeight(r.ovV[i], r.beta)
		ei := r.ovE[i]
		r.in.edges[ei].w = nn
		r.p.w0[ei] = nn
	}
}

// recompute rebuilds the solve from the (already patched) retained graph:
// the cold path of the delta engine, also used by NewResult.
func (r *Result) recompute() error {
	if !r.simple {
		s, err := Solve(r.g, r.k, r.beta, r.opts)
		if err != nil {
			return err
		}
		r.lastSched = s
		return nil
	}
	in, err := buildInstance(r.g, r.k, r.beta, r.unit)
	if err != nil {
		return err
	}
	r.in = in
	r.p = nil
	r.cur = nil
	so := r.opts.Obs.Solver(r.opts.Algorithm.String())
	if in == nil {
		r.sched = Schedule{Beta: r.beta}
		r.finishSimple(so)
		return nil
	}
	p := newPeeler(in, r.kind, r.eng)
	p.so = so
	// A rebuild runs the plain cold loop, NOT runTracked: recording a
	// trajectory costs ~15% per peel, which would sink the rebuild path
	// below cold-solve parity (the StructuralChurn benchmark gate) to
	// prefetch a replay that a churn-heavy stream never redeems. The
	// trajectory is invalidated instead (r.cur = nil above); the first
	// weight-only delta after a rebuild records one during its own
	// tracked run, and replay resumes from the round after.
	steps, err := p.run()
	if err != nil {
		return err
	}
	r.p = p
	r.indexNodes()
	if r.sh == nil {
		r.sh = newSharder()
	}
	r.sh.split(r.g)
	r.compStamp = ensureInts(r.compStamp, r.sh.nComp)
	r.sched = r.out.denormalize(r.g, steps, r.beta, r.unit)
	r.finishSimple(so)
	return nil
}

// redenormalize serves the reuse path: the retained normalized steps are
// still the normalized solve of the patched instance, so only the raw-unit
// conversion re-runs.
func (r *Result) redenormalize() error {
	if r.p == nil {
		// Edgeless base: a weight-only overlay cannot exist (every cell is
		// empty, so any effective edit is structural); defensive rebuild.
		return r.recompute()
	}
	so := r.opts.Obs.Solver(r.opts.Algorithm.String())
	r.sched = r.out.denormalize(r.g, r.p.steps, r.beta, r.unit)
	r.finishSimple(so)
	return nil
}

// repeel re-peels the patched instance in the retained arenas: trajectory
// replay for matchAny, a cold-decision warm-memory rerun for bottleneck.
func (r *Result) repeel(replay bool) error {
	so := r.opts.Obs.Solver(r.opts.Algorithm.String())
	r.p.so = so
	r.p.reset()
	var steps []normStep
	var err error
	if replay {
		if r.alt == nil {
			// First tracked run after a rebuild (or ever): rebuilds do not
			// record, so the spare trajectory is allocated lazily here. Two
			// trajectories ping-pong from then on with no further growth.
			r.alt = &trajectory{}
		}
		// r.cur may be nil (post-rebuild): runTracked then records without
		// replaying, re-seeding the trajectory for the next round.
		steps, err = r.p.runTracked(r.cur, r.alt, &r.stats)
		if err == nil {
			r.cur, r.alt = r.alt, r.cur
		}
	} else {
		r.p.bot.Resort()
		steps, err = r.p.run()
	}
	if err != nil {
		return err
	}
	r.sched = r.out.denormalize(r.g, steps, r.beta, r.unit)
	r.finishSimple(so)
	return nil
}

// observe reports the last delta outcome to the observability layer
// (strictly passive; nil Obs → no-op).
func (r *Result) observe() {
	r.opts.Obs.DeltaSolve(r.opts.Algorithm.String(), r.stats.Path.String(),
		r.stats.Edits, int(r.stats.Damage*100), r.stats.Replayed, r.stats.Repaired, r.stats.Resyncs)
}

// finishSimple applies the post-passes and closes the solve observation,
// mirroring Solve's tail exactly.
func (r *Result) finishSimple(so *obs.SolverObs) {
	if r.opts.Coalesce {
		r.sched.Coalesce()
	}
	if r.opts.Pack {
		r.sched.Pack(r.k)
	}
	so.Done(len(r.sched.Steps), r.sched.Cost())
	r.lastSched = &r.sched
}

// indexNodes rebuilds the original-node → compacted-work-index lookups and
// the node-sum scratch after an instance (re)build.
func (r *Result) indexNodes() {
	r.lookL = ensureInts(r.lookL, r.g.LeftCount())
	r.lookR = ensureInts(r.lookR, r.g.RightCount())
	for i := range r.lookL {
		r.lookL[i] = -1
	}
	for i := range r.lookR {
		r.lookR[i] = -1
	}
	for ci, orig := range r.in.mapL {
		r.lookL[orig] = ci
	}
	for ci, orig := range r.in.mapR {
		r.lookR[orig] = ci
	}
	r.sumL = ensureInt64s(r.sumL, r.in.realL)
	r.sumR = ensureInt64s(r.sumR, r.in.realR)
	for i := range r.sumL {
		r.sumL[i] = 0
	}
	for i := range r.sumR {
		r.sumR[i] = 0
	}
	r.tL = r.tL[:0]
	r.tR = r.tR[:0]
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

// ensureInt32s returns buf resized to n, reallocating only on growth.
func ensureInt32s(buf []int32, n int) []int32 {
	if cap(buf) < n {
		//redistlint:allow hotpath-interproc grow-only scratch reallocation; amortized zero at steady state, asserted by AllocsPerRun in delta_test.go
		return make([]int32, n)
	}
	return buf[:n]
}

// ensureBools returns buf resized to n, reallocating only on growth.
func ensureBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		//redistlint:allow hotpath-interproc grow-only scratch reallocation; amortized zero at steady state, asserted by AllocsPerRun in delta_test.go
		return make([]bool, n)
	}
	return buf[:n]
}
