package matching

import (
	"math/bits"
	"sort"
)

// BottleneckInc is the incremental form of the paper's Figure-6 bottleneck
// matching procedure, built for the OGGP peeling loop. The cold-start
// procedure re-sorts every edge and grows a matching from empty at every
// peel; BottleneckInc instead maintains the decreasing-weight insertion
// state across peels:
//
//   - The active edges are kept sorted by (weight desc, index asc). A peel
//     subtracts one uniform amount from exactly the matched edges, which
//     preserves their relative order, so the next Rematch restores
//     sortedness with a single O(m) merge of two sorted runs instead of an
//     O(m log m) sort.
//   - The surviving matched pairs of the previous round seed the next
//     matching: when a previously-matched edge is inserted and both its
//     endpoints are still free, it is adopted in O(1). Growth by augmenting
//     paths then only runs for the few nodes adoption cannot fix. Adoption
//     never breaks bottleneck optimality: the procedure still stops at the
//     earliest sorted prefix admitting a matching of the target size, and
//     growing any valid matching inside that prefix with augmenting paths
//     reaches that size (Berge), so the minimum matched weight still equals
//     the optimal bottleneck value.
//   - Searches that cannot succeed are skipped. A failed search marks a
//     dead region: the right nodes it visited and the left nodes it entered
//     (its root and the partners of those right nodes). Every inserted edge
//     of a dead left node ends at a dead right node, and every dead right
//     node is matched to a dead left node, so no augmenting path leaves the
//     region. The marks therefore persist across later roots and later
//     weight groups: a dead root is not searched again, and no search
//     enters a dead right node. A successful augmentation resets the
//     region; an inserted edge from a dead left node to a live right node r
//     first tries to extend the region from r's partner (extendDead) and
//     resets it only if that search reaches a free right node. Skipped
//     searches would all have failed without side effects, so the chosen
//     augmenting paths — and the schedules — are exactly those of the
//     unpruned search (DESIGN.md §2).
//
// Augmentation traverses candidates in the same canonical order as
// Incremental — right endpoint ascending, lowest inserted edge index per
// (l, r) cell — through either of two interchangeable kernels: the scalar
// arm keeps each left node's inserted edges position-sorted (insertion
// shifts the tail, O(degree) worst case and cheap at scheduler sizes), the
// bitset arm keeps one uint64 row per left node plus a per-cell minimum
// inserted edge index, and sweeps candidates a word at a time. Identical
// traversal order makes the two arms byte-identical (DESIGN.md §11);
// EngineAuto picks by density. Which parallel edge represents a cell never
// affects the bottleneck value: every inserted edge outweighs the group
// that reached the target, so any representative preserves optimality.
//
// The caller owns the weight slice. Between two Rematch calls it may only
// (a) subtract one uniform amount from every currently matched edge and
// (b) deactivate edges via Deactivate; other weights must not change.
// That is exactly the contract of a peeling iteration.
//
// All storage is allocated at construction; Reset, Deactivate and Rematch
// perform no allocations at steady state.
type BottleneckInc struct {
	nL, nR int
	edgeL  []int
	edgeR  []int
	w      []int64 // live weights, shared with the caller

	alive []bool

	// Sorted active edges. orderBuf is the backing array; order is the live
	// prefix. order0 is the pristine construction-time sort, used by Reset.
	orderBuf []int
	order    []int
	order0   []int
	tmpA     []int // merge scratch: unchanged-weight run
	tmpB     []int // merge scratch: previously-matched run

	// Scalar adjacency, rebuilt per Rematch as edges are inserted: the
	// inserted edges of left node l occupy adj[base[l] : base[l]+fill[l]],
	// kept in canonical (right, edge) ascending order by positioned
	// insertion. fill doubles as the has-inserted-edges gate for both arms.
	base []int
	adj  []int
	fill []int

	matchL []int
	matchR []int
	size   int

	isPrev []bool // marks the surviving previous matching during Rematch

	// Kuhn augmentation scratch. The DFS is iterative — an augmenting path
	// visits each right node at most once per stamp, so its depth is
	// bounded by min(nL, nR) distinct left nodes and the explicit stacks
	// below replace O(n) recursion frames (which overflow goroutine stacks
	// on the large sparse instances component sharding unlocks; see
	// TestBottleneckIncDeepAugmentingPath).
	//
	// The marks of the current stamp are the dead region plus the nodes of
	// the search in progress: visited[r] == stamp (scalar arm) or the
	// visMask bit (bitset arm) for right nodes, markL[l] == stamp for free
	// left roots whose search failed. A matched left node is dead exactly
	// when its partner is, so it needs no mark of its own. resetDead starts
	// a new stamp.
	visited   []int
	markL     []int
	stamp     int
	stackL    []int // left node at each DFS depth
	stackIter []int // scalar arm: next adjacency slot to try at that depth
	stackEdge []int // edge chosen at that depth (valid once a child is entered)

	// Bitset kernel state (allocated only when useBits). rows holds the
	// inserted cells of each left node; cellEdge the minimum inserted edge
	// index per cell (bit-guarded: read only while the row bit is set).
	// visMask replaces the right-node visit stamps, stackR the per-depth
	// candidate cursor (last right tried at that depth).
	useBits  bool
	words    int
	rows     []uint64
	cellEdge []int
	visMask  []uint64
	stackR   []int

	// Growth gating: an augmenting path must start at a free left node with
	// inserted edges and end at a free right node with inserted edges, so
	// growth is skipped while either count is zero. roots is the bitset of
	// those free left nodes, the candidates grow sweeps in ascending order.
	roots      []uint64
	rTouched   []bool
	freeTouchL int
	freeTouchR int
}

// NewBottleneckInc builds the matcher over the edge set (edgeL[i],
// edgeR[i]) with weights w and the kernel chosen by density (EngineAuto).
// All three slices are retained, not copied; w is mutated by the caller
// under the contract documented on the type.
func NewBottleneckInc(nL, nR int, edgeL, edgeR []int, w []int64) *BottleneckInc {
	return NewBottleneckIncEngine(nL, nR, edgeL, edgeR, w, EngineAuto)
}

// NewBottleneckIncEngine is NewBottleneckInc with an explicit kernel
// choice; see Engine for the override semantics.
func NewBottleneckIncEngine(nL, nR int, edgeL, edgeR []int, w []int64, engine Engine) *BottleneckInc {
	m := len(edgeL)
	b := &BottleneckInc{
		nL:       nL,
		nR:       nR,
		edgeL:    edgeL,
		edgeR:    edgeR,
		w:        w,
		alive:    make([]bool, m),
		orderBuf: make([]int, m),
		order0:   make([]int, m),
		tmpA:     make([]int, 0, m),
		tmpB:     make([]int, 0, m),
		base:     make([]int, nL+1),
		adj:      make([]int, m),
		fill:     make([]int, nL),
		matchL:   make([]int, nL),
		matchR:   make([]int, nR),
		isPrev:   make([]bool, m),
		visited:  make([]int, nR),
		markL:    make([]int, nL),
		roots:    make([]uint64, rowWords(nL)),
		rTouched: make([]bool, nR),
	}
	depth := nL
	if nR < depth {
		depth = nR
	}
	b.stackL = make([]int, depth+1)
	b.stackIter = make([]int, depth+1)
	b.stackEdge = make([]int, depth+1)
	if resolveEngine(engine, nL, nR, m) {
		b.useBits = true
		b.words = rowWords(nR)
		b.rows = make([]uint64, nL*b.words)
		b.cellEdge = make([]int, nL*nR)
		b.visMask = make([]uint64, b.words)
		b.stackR = make([]int, depth+1)
	}
	for _, l := range edgeL {
		b.base[l+1]++
	}
	for i := 0; i < nL; i++ {
		b.base[i+1] += b.base[i]
	}
	for i := range b.order0 {
		b.order0[i] = i
	}
	sort.Sort(edgeIdxByWeightDesc{idx: b.order0, w: w})
	b.Reset()
	return b
}

// edgeIdxByWeightDesc sorts edge indices by decreasing weight, index
// ascending on ties (the deterministic insertion order of the Figure-6
// procedure). A typed sorter, not a sort.Slice closure, keeping the
// matcher construction paths closure-free like the hot paths they set up.
type edgeIdxByWeightDesc struct {
	idx []int
	w   []int64
}

func (s edgeIdxByWeightDesc) Len() int      { return len(s.idx) }
func (s edgeIdxByWeightDesc) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s edgeIdxByWeightDesc) Less(a, b int) bool {
	ia, ib := s.idx[a], s.idx[b]
	if s.w[ia] != s.w[ib] {
		return s.w[ia] > s.w[ib]
	}
	return ia < ib
}

// Reset reactivates every edge and clears the matching. The caller must
// have restored the weight slice to its construction-time values first
// (the pristine sorted order is reused, not recomputed).
func (b *BottleneckInc) Reset() {
	for i := range b.alive {
		b.alive[i] = true
	}
	b.order = b.orderBuf[:copy(b.orderBuf, b.order0)]
	for i := range b.matchL {
		b.matchL[i] = -1
	}
	for i := range b.matchR {
		b.matchR[i] = -1
	}
	b.size = 0
}

// Resort recomputes the pristine insertion order from the weight slice's
// current values and then Resets. It exists for cross-instance delta
// solving (kpbs.SolveDelta): after the caller patches edge weights in
// place, Resort makes the matcher byte-identical to one freshly
// constructed over the patched weights — the same typed sort with the same
// (weight desc, index asc) total order runs over the same index set, so
// order0 lands in exactly the construction-time permutation. O(m log m).
func (b *BottleneckInc) Resort() {
	for i := range b.order0 {
		b.order0[i] = i
	}
	sort.Sort(edgeIdxByWeightDesc{idx: b.order0, w: b.w})
	b.Reset()
}

// Size returns the current matching cardinality.
func (b *BottleneckInc) Size() int { return b.size }

// MatchedEdge returns the edge matched at left node l, or -1.
func (b *BottleneckInc) MatchedEdge(l int) int { return b.matchL[l] }

// UsesBitset reports which kernel arm this matcher resolved to.
func (b *BottleneckInc) UsesBitset() bool { return b.useBits }

// Deactivate removes edge e from the graph. If e was matched the pair is
// released. The sorted order is compacted lazily by the next Rematch.
//
//redistlint:hotpath
func (b *BottleneckInc) Deactivate(e int) {
	if !b.alive[e] {
		return
	}
	b.alive[e] = false
	l := b.edgeL[e]
	if b.matchL[l] == e {
		b.matchL[l] = -1
		b.matchR[b.edgeR[e]] = -1
		b.size--
	}
}

// Rematch recomputes a bottleneck-optimal matching of the active edges with
// the given target cardinality, warm-started from the surviving previous
// matching. It reports whether the target was reached; on success the
// matching maximizes the minimum matched weight among all matchings of that
// cardinality.
//
//redistlint:hotpath
func (b *BottleneckInc) Rematch(target int) bool {
	// Restore sortedness: the previously-matched survivors each had the
	// same amount subtracted, so they form a sorted run on their own; the
	// untouched survivors form the other sorted run. Merge, dropping dead
	// edges.
	un := b.tmpA[:0]
	ch := b.tmpB[:0]
	for _, e := range b.order {
		if !b.alive[e] {
			continue
		}
		if b.matchL[b.edgeL[e]] == e {
			//redistlint:allow hotpath append into tmpB scratch preallocated to capacity m; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
			ch = append(ch, e)
			b.isPrev[e] = true
		} else {
			//redistlint:allow hotpath append into tmpA scratch preallocated to capacity m; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
			un = append(un, e)
		}
	}
	b.tmpA, b.tmpB = un, ch
	out := b.orderBuf[:0]
	i, j := 0, 0
	for i < len(un) && j < len(ch) {
		a, c := un[i], ch[j]
		if b.w[a] > b.w[c] || (b.w[a] == b.w[c] && a < c) {
			//redistlint:allow hotpath append into orderBuf preallocated to capacity m; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
			out = append(out, a)
			i++
		} else {
			//redistlint:allow hotpath append into orderBuf preallocated to capacity m; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
			out = append(out, c)
			j++
		}
	}
	//redistlint:allow hotpath append into orderBuf preallocated to capacity m; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
	out = append(out, un[i:]...)
	//redistlint:allow hotpath append into orderBuf preallocated to capacity m; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
	out = append(out, ch[j:]...)
	b.order = out

	// Start the insertion from scratch; adoption re-seeds the survivors.
	for l := 0; l < b.nL; l++ {
		b.matchL[l] = -1
		b.fill[l] = 0
	}
	for r := 0; r < b.nR; r++ {
		b.matchR[r] = -1
		b.rTouched[r] = false
	}
	if b.useBits {
		for i := range b.rows {
			b.rows[i] = 0
		}
	}
	for i := range b.roots {
		b.roots[i] = 0
	}
	b.size = 0
	b.freeTouchL = 0
	b.freeTouchR = 0
	b.resetDead()

	// Figure-6 insertion loop: whole equal-weight groups at a time, growing
	// after each group, stopping at the earliest prefix reaching target.
	k := 0
	n := len(b.order)
	for k < n && b.size < target {
		group := b.w[b.order[k]]
		for k < n && b.w[b.order[k]] == group {
			b.insert(b.order[k])
			k++
		}
		if b.size < target && b.freeTouchL > 0 && b.freeTouchR > 0 {
			b.grow(target)
		}
	}
	for _, e := range ch {
		b.isPrev[e] = false
	}
	return b.size >= target
}

// insert adds edge e to the working adjacency, adopting it immediately if
// it belonged to the previous matching and both endpoints are still free.
// The scalar arm shifts the insertion-sorted tail to keep canonical
// (right, edge) order; the bitset arm sets the cell bit and keeps the
// cell's minimum inserted edge index. An edge from a dead left node to a
// live right node breaks the dead region's closure; extendDead restores it.
// Adoption needs no such repair: a dead left node that adopts is a failed
// root, no dead right node's partner, so it simply leaves the region.
//
//redistlint:hotpath
func (b *BottleneckInc) insert(e int) {
	l, r := b.edgeL[e], b.edgeR[e]
	if b.fill[l] == 0 {
		// First edge of l in this Rematch. l is free: only inserted edges
		// match, and none of l's has been inserted yet.
		b.freeTouchL++
		b.roots[l>>6] |= 1 << uint(l&63)
	}
	if b.useBits {
		wi := l*b.words + r>>6
		bit := uint64(1) << uint(r&63)
		c := l*b.nR + r
		if b.rows[wi]&bit == 0 {
			b.rows[wi] |= bit
			b.cellEdge[c] = e
		} else if e < b.cellEdge[c] {
			b.cellEdge[c] = e
		}
		b.fill[l]++
	} else {
		lo, hi := b.base[l], b.base[l]+b.fill[l]
		end := hi
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			me := b.adj[mid]
			if mr := b.edgeR[me]; mr < r || (mr == r && me < e) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(b.adj[lo+1:end+1], b.adj[lo:end])
		b.adj[lo] = e
		b.fill[l]++
	}
	if !b.rTouched[r] {
		// First edge of r in this Rematch; r is free for the same reason.
		b.rTouched[r] = true
		b.freeTouchR++
	}
	if b.isPrev[e] && b.matchL[l] < 0 && b.matchR[r] < 0 {
		b.matchL[l] = e
		b.matchR[r] = e
		b.size++
		b.freeTouchL--
		b.freeTouchR--
		b.roots[l>>6] &^= 1 << uint(l&63)
	}
	if b.deadLeft(l) && !b.deadRight(r) {
		b.extendDead(r)
	}
}

// extendDead restores the dead region's closure after a dead left node
// gained an edge to the live right node r. If r is matched and no
// augmenting path leaves its partner, r and everything that search marks
// join the region: it is again closed and free of free right nodes.
// Otherwise some dead nodes may now reach a free right node, and the
// region is reset. The search never flips an edge.
//
//redistlint:hotpath
func (b *BottleneckInc) extendDead(r int) {
	b.markRight(r)
	me := b.matchR[r]
	if me < 0 || b.search(b.edgeL[me]) >= 0 {
		b.resetDead()
	}
}

// grow runs one Kuhn pass over the free left nodes with inserted edges, in
// ascending order, until the matching is maximum for the current prefix or
// reaches target. One pass suffices: a root without an augmenting path
// still has none after augmentations along other roots' paths on the same
// edge set (the region a failed search marks stays closed and free of
// free right nodes, and every later path avoids it), so a second pass
// could only fail again.
//
//redistlint:hotpath
func (b *BottleneckInc) grow(target int) {
	for w := range b.roots {
		for word := b.roots[w]; word != 0; word &= word - 1 {
			if b.size >= target || b.freeTouchR == 0 {
				return
			}
			l := w<<6 + bits.TrailingZeros64(word)
			if b.markL[l] == b.stamp {
				continue // dead root: its search would fail again
			}
			top := b.search(l)
			if top < 0 {
				b.markL[l] = b.stamp
				continue
			}
			b.flip(top)
			b.roots[w] &^= 1 << uint(l&63)
			b.size++
			b.freeTouchL--
			b.freeTouchR--
			b.resetDead()
		}
	}
}

// flip applies the augmenting path recorded on the stacks down to depth
// top. Each stack level t holds the edge from stackL[t] to the right node
// level t+1 came down through (or to the free right node at the top), so
// assigning every level's edge rematches the whole alternating path.
//
//redistlint:hotpath
func (b *BottleneckInc) flip(top int) {
	for t := top; t >= 0; t-- {
		pe := b.stackEdge[t]
		b.matchL[b.stackL[t]] = pe
		b.matchR[b.edgeR[pe]] = pe
	}
}

// resetDead empties the dead region by starting a new stamp.
//
//redistlint:hotpath
func (b *BottleneckInc) resetDead() {
	b.stamp++
	if b.useBits {
		for w := range b.visMask {
			b.visMask[w] = 0
		}
	}
}

// deadRight reports whether right node r is marked in the current stamp.
//
//redistlint:hotpath
func (b *BottleneckInc) deadRight(r int) bool {
	if b.useBits {
		return b.visMask[r>>6]&(1<<uint(r&63)) != 0
	}
	return b.visited[r] == b.stamp
}

// markRight marks right node r in the current stamp.
//
//redistlint:hotpath
func (b *BottleneckInc) markRight(r int) {
	if b.useBits {
		b.visMask[r>>6] |= 1 << uint(r&63)
	} else {
		b.visited[r] = b.stamp
	}
}

// deadLeft reports whether left node l lies in the dead region: a matched
// node when its partner does, a free one when its search failed.
//
//redistlint:hotpath
func (b *BottleneckInc) deadLeft(l int) bool {
	if e := b.matchL[l]; e >= 0 {
		return b.deadRight(b.edgeR[e])
	}
	return b.markL[l] == b.stamp
}

// search runs the Kuhn DFS from left node root over the inserted edges,
// skipping marked right nodes and marking every right node it visits. It
// returns the stack depth at which it reached a free right node, with the
// path on stackL/stackEdge for flip, or -1 if none is reachable.
//
//redistlint:hotpath
func (b *BottleneckInc) search(root int) int {
	if b.useBits {
		return b.searchBits(root)
	}
	return b.searchScalar(root)
}

// searchScalar is search over the scalar adjacency, iteratively with an
// explicit stack. The traversal tries adjacency slots in canonical order,
// descending into the matched left node of each newly visited right node;
// the path is recorded on preallocated stacks instead of the goroutine
// stack, whose growth a 50k-deep recursion used to exhaust.
//
//redistlint:hotpath
func (b *BottleneckInc) searchScalar(root int) int {
	top := 0
	b.stackL[0] = root
	b.stackIter[0] = b.base[root]
	for top >= 0 {
		l := b.stackL[top]
		i := b.stackIter[top]
		if i == b.base[l]+b.fill[l] {
			top-- // adjacency exhausted: dead end, backtrack
			continue
		}
		b.stackIter[top] = i + 1
		e := b.adj[i]
		r := b.edgeR[e]
		if b.visited[r] == b.stamp {
			continue
		}
		b.visited[r] = b.stamp
		b.stackEdge[top] = e
		me := b.matchR[r]
		if me < 0 {
			return top
		}
		top++
		nl := b.edgeL[me]
		b.stackL[top] = nl
		b.stackIter[top] = b.base[nl]
	}
	return -1
}

// searchBits mirrors searchScalar over the bitset rows: the per-depth
// cursor stackR replaces the slot iterator, nextCell finds the smallest
// inserted, unmarked right above it with word sweeps, and cellEdge
// supplies the canonical (minimum inserted) edge of the cell — exactly the
// first slot the scalar scan would try, and the only one it ever uses per
// cell thanks to the visit stamp, so the two arms take identical paths.
//
//redistlint:hotpath
func (b *BottleneckInc) searchBits(root int) int {
	top := 0
	b.stackL[0] = root
	b.stackR[0] = -1
	for top >= 0 {
		l := b.stackL[top]
		r := b.nextCell(l, b.stackR[top])
		if r < 0 {
			top-- // row exhausted: dead end, backtrack
			continue
		}
		b.stackR[top] = r
		b.visMask[r>>6] |= 1 << uint(r&63)
		e := b.cellEdge[l*b.nR+r]
		b.stackEdge[top] = e
		me := b.matchR[r]
		if me < 0 {
			return top
		}
		top++
		nl := b.edgeL[me]
		b.stackL[top] = nl
		b.stackR[top] = -1
	}
	return -1
}

// nextCell returns the smallest inserted, unvisited right neighbor of l
// strictly greater than after, or -1.
//
//redistlint:hotpath
func (b *BottleneckInc) nextCell(l, after int) int {
	W := b.words
	row := b.rows[l*W : l*W+W]
	w := 0
	mask := ^uint64(0)
	if after >= 0 {
		w = (after + 1) >> 6
		mask = ^uint64(0) << uint((after+1)&63)
	}
	for ; w < W; w++ {
		if cand := row[w] &^ b.visMask[w] & mask; cand != 0 {
			return w<<6 + bits.TrailingZeros64(cand)
		}
		mask = ^uint64(0)
	}
	return -1
}

// Matching returns a copy of the current matching in the package's standard
// representation. It allocates and is meant for tests, not the hot path.
func (b *BottleneckInc) Matching() Matching {
	return Matching{EdgeOfLeft: append([]int(nil), b.matchL...), Size: b.size}
}
