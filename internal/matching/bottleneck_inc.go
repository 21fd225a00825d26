package matching

import (
	"math"
	"math/bits"
	"sort"
)

// BottleneckInc is the incremental form of the paper's Figure-6 bottleneck
// matching procedure, built for the OGGP peeling loop. The cold-start
// procedure inserts edges in decreasing weight and grows a matching from
// empty until it is perfect; its threshold t is the weight of the last
// inserted group, and the matching it returns has minimum weight t.
// BottleneckInc keeps that threshold, the working graph above it and the
// matching across peels instead of starting over:
//
//   - The optimal bottleneck never rises. Between two Rematch calls the
//     caller only lowers weights and removes edges, so every perfect
//     matching's minimum weight can only fall: the graph of live edges
//     heavier than t still holds no perfect matching.
//   - The working graph is the live edges of weight ≥ t. Peel moves the
//     matched edges it pushes below t onto a max-heap of re-entering edges
//     (the rest of the matching survives), and Rematch repairs the exposed
//     nodes with Kuhn searches. Only while no perfect matching exists does
//     it lower t to the next live weight group, taken from the
//     construction-time sort (cursor next) and the heap together, admit
//     that group and grow again. A peel only lowers matched edges, so the
//     edges past the cursor keep their construction weights and their
//     sorted order.
//   - Every peel still takes the optimal bottleneck amount. Augmenting
//     paths from any matching of the working graph reach a maximum one
//     (Berge), so the first threshold with a perfect matching is found,
//     and that matching's minimum weight is t; the graph above t has
//     none, so t is the optimum. Only the choice among bottleneck-optimal
//     matchings differs from a cold run (DESIGN.md §2).
//   - Searches that cannot succeed are skipped. A failed search marks a
//     dead region: the right nodes it visited and the left nodes it entered
//     (its root and the partners of those right nodes). Every admitted edge
//     of a dead left node ends at a dead right node, and every dead right
//     node is matched to a dead left node, so no augmenting path leaves the
//     region. The marks therefore persist across later roots and later
//     weight groups within one Rematch: a dead root is not searched again,
//     and no search enters a dead right node. A successful augmentation
//     resets the region; an admitted edge from a dead left node to a live
//     right node r first tries to extend the region from r's partner
//     (extendDead) and resets it only if that search reaches a free right
//     node. Skipped searches would all have failed without side effects, so
//     the chosen augmenting paths are exactly those of the unpruned search.
//
// Augmentation traverses candidates in the same canonical order as
// Incremental — right endpoint ascending, lowest admitted edge index per
// (l, r) cell — through either of two interchangeable kernels. Both read a
// static adjacency, built once, that lists each left node's edges in
// (right, edge) order, with one admitted bit per slot, so admitting or
// removing an edge is O(1). The scalar arm scans a row's admitted slots;
// the bitset arm keeps one uint64 row per left node plus a per-cell minimum
// admitted edge index, and sweeps candidates a word at a time. Identical
// traversal order makes the two arms byte-identical (DESIGN.md §11);
// EngineAuto picks by density.
//
// The matcher owns the peel. The weight slice is shared with the caller,
// who restores it before a Reset and otherwise only reads it. Between two
// Rematch calls the caller may only (a) call Peel once, with an amount of
// at most Bottleneck(), and (b) deactivate edges via Deactivate; the
// target must not shrink. That is exactly the contract of a peeling
// iteration. Reset starts over.
//
// All storage is allocated at construction; Reset, Deactivate, Rematch and
// Peel perform no allocations at steady state (Peel appends to the
// caller's slice).
type BottleneckInc struct {
	nL, nR int
	edgeL  []int
	edgeR  []int
	w      []int64 // live weights, shared with the caller
	nReal  int     // edges below nReal are real; Peel emits only those

	alive []bool

	// Threshold state. The working graph is the admitted edges: exactly the
	// live edges of weight ≥ t. order0 is the construction-time sort
	// (weight desc, index asc); order0[next:] holds the edges never admitted
	// since the last Reset, heap[:nHeap] the edges a peel dropped below t,
	// as a max-heap by weight.
	t      int64
	order0 []int
	next   int
	heap   []int
	nHeap  int

	// Static adjacency: the edges of left node l occupy adj[base[l] :
	// base[l+1]] in (right, edge) ascending order, slot[e] is e's position,
	// and bit s of adm is set while adj[s] is admitted. degL and degR count
	// each node's admitted edges.
	base []int
	adj  []int
	slot []int
	adm  []uint64
	degL []int
	degR []int

	matchL []int
	matchR []int
	size   int

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
	// admitted cells of each left node; cellEdge the minimum admitted edge
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
	// admitted edges and end at a free right node with admitted edges, so
	// growth is skipped while either count is zero. roots is the bitset of
	// those free left nodes, the candidates grow sweeps in ascending order.
	roots      []uint64
	freeTouchL int
	freeTouchR int
}

// NewBottleneckInc builds the matcher over the edge set (edgeL[i],
// edgeR[i]) with weights w and the kernel chosen by density (EngineAuto).
// The edges below nReal are the real ones, the only ones Peel emits. All
// three slices are retained, not copied; Peel lowers w under the contract
// documented on the type.
func NewBottleneckInc(nL, nR int, edgeL, edgeR []int, w []int64, nReal int) *BottleneckInc {
	return NewBottleneckIncEngine(nL, nR, edgeL, edgeR, w, nReal, EngineAuto)
}

// NewBottleneckIncEngine is NewBottleneckInc with an explicit kernel
// choice; see Engine for the override semantics.
func NewBottleneckIncEngine(nL, nR int, edgeL, edgeR []int, w []int64, nReal int, engine Engine) *BottleneckInc {
	m := len(edgeL)
	b := &BottleneckInc{
		nL:      nL,
		nR:      nR,
		edgeL:   edgeL,
		edgeR:   edgeR,
		w:       w,
		nReal:   nReal,
		alive:   make([]bool, m),
		order0:  make([]int, m),
		heap:    make([]int, m),
		base:    make([]int, nL+1),
		adj:     make([]int, m),
		slot:    make([]int, m),
		adm:     make([]uint64, rowWords(m)),
		degL:    make([]int, nL),
		degR:    make([]int, nR),
		matchL:  make([]int, nL),
		matchR:  make([]int, nR),
		visited: make([]int, nR),
		markL:   make([]int, nL),
		roots:   make([]uint64, rowWords(nL)),
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
	// Two counting-sort passes build the (right, edge)-ordered rows: order0
	// first lists the edges by right node (index order within one), and
	// distributing that list by left node keeps it within each row. degL
	// and degR serve as the fill cursors and are cleared by Reset.
	for _, r := range edgeR {
		b.degR[r]++
	}
	for r, at := 0, 0; r < nR; r++ {
		at, b.degR[r] = at+b.degR[r], at
	}
	for e, r := range edgeR {
		b.order0[b.degR[r]] = e
		b.degR[r]++
	}
	for _, l := range edgeL {
		b.base[l+1]++
	}
	for i := 0; i < nL; i++ {
		b.base[i+1] += b.base[i]
	}
	for _, e := range b.order0 {
		l := edgeL[e]
		s := b.base[l] + b.degL[l]
		b.adj[s] = e
		b.slot[e] = s
		b.degL[l]++
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

// Reset reactivates every edge and restores the cold state: no threshold,
// no admitted edge, an empty heap and an empty matching. The caller must
// have restored the weight slice to its construction-time values first
// (the pristine sorted order is reused, not recomputed).
func (b *BottleneckInc) Reset() {
	for i := range b.alive {
		b.alive[i] = true
	}
	b.t = math.MaxInt64
	b.next = 0
	b.nHeap = 0
	clear(b.adm)
	clear(b.degL)
	clear(b.degR)
	clear(b.rows)
	clear(b.roots)
	for i := range b.matchL {
		b.matchL[i] = -1
	}
	for i := range b.matchR {
		b.matchR[i] = -1
	}
	b.size = 0
	b.freeTouchL = 0
	b.freeTouchR = 0
}

// Size returns the current matching cardinality.
func (b *BottleneckInc) Size() int { return b.size }

// MatchedEdge returns the edge matched at left node l, or -1.
func (b *BottleneckInc) MatchedEdge(l int) int { return b.matchL[l] }

// UsesBitset reports which kernel arm this matcher resolved to.
func (b *BottleneckInc) UsesBitset() bool { return b.useBits }

// Deactivate removes edge e from the graph. If e was matched the pair is
// released. An edge not yet admitted is skipped when its turn comes.
//
//redistlint:hotpath
func (b *BottleneckInc) Deactivate(e int) {
	if !b.alive[e] {
		return
	}
	b.alive[e] = false
	if b.admitted(e) {
		if b.matchL[b.edgeL[e]] == e {
			b.unmatch(e)
		}
		b.remove(e)
	}
}

// Bottleneck returns the threshold t in O(1). After a successful Rematch it
// is the minimum matched weight: every admitted edge weighs at least t, and
// the live edges heavier than t hold no matching of the target size, so
// the matching holds an edge of weight exactly t.
func (b *BottleneckInc) Bottleneck() int64 { return b.t }

// Peel subtracts amount, at most Bottleneck(), from every matched edge in
// one pass over the left nodes in ascending order. It appends each matched
// real edge to dst, deactivates the edges that reach zero, and moves those
// left in (0, t) from the working graph to the re-entry heap; the pairs
// still at or above t stay matched. It returns dst and the number of edges
// that reached zero.
//
//redistlint:hotpath
func (b *BottleneckInc) Peel(dst []int32, amount int64) ([]int32, int) {
	died := 0
	for _, e := range b.matchL {
		if e < 0 {
			continue
		}
		if e < b.nReal {
			//redistlint:allow hotpath caller-owned arena append; the peeler retains its capacity across runs and TestPeelSteadyStateAllocs asserts zero steady-state allocations
			dst = append(dst, int32(e))
		}
		w := b.w[e] - amount
		b.w[e] = w
		switch {
		case w == 0:
			b.Deactivate(e)
			died++
		case w < b.t:
			b.unmatch(e)
			b.remove(e)
			b.push(e)
		}
	}
	return dst, died
}

// Rematch repairs the matching to a bottleneck-optimal one of the active
// edges with the given target cardinality, keeping the surviving matched
// pairs and the threshold of the previous call. It reports whether the
// target was reached; on success the matching maximizes the minimum
// matched weight among all matchings of that cardinality.
//
//redistlint:hotpath
func (b *BottleneckInc) Rematch(target int) bool {
	// Repair at the current threshold, then lower it one weight group at a
	// time while no matching of the target size exists.
	b.resetDead()
	for {
		if b.size < target && b.freeTouchL > 0 && b.freeTouchR > 0 {
			b.grow(target)
		}
		if b.size >= target {
			return true
		}
		g, ok := b.nextGroup()
		if !ok {
			return false
		}
		b.t = g
		for ; b.next < len(b.order0) && b.w[b.order0[b.next]] == g; b.next++ {
			if e := b.order0[b.next]; b.alive[e] {
				b.admit(e)
			}
		}
		for b.nHeap > 0 && b.w[b.heap[0]] == g {
			if e := b.pop(); b.alive[e] {
				b.admit(e)
			}
		}
	}
}

// nextGroup returns the weight of the heaviest live edge not in the
// working graph, dropping dead edges off the front of the cursor and the
// heap, or false when every live edge is admitted.
//
//redistlint:hotpath
func (b *BottleneckInc) nextGroup() (int64, bool) {
	for b.next < len(b.order0) && !b.alive[b.order0[b.next]] {
		b.next++
	}
	for b.nHeap > 0 && !b.alive[b.heap[0]] {
		b.pop()
	}
	var g int64
	ok := b.next < len(b.order0)
	if ok {
		g = b.w[b.order0[b.next]]
	}
	if b.nHeap > 0 && (!ok || b.w[b.heap[0]] > g) {
		g, ok = b.w[b.heap[0]], true
	}
	return g, ok
}

// push adds edge e to the re-entry heap. An edge is on the heap at most
// once, so the m slots allocated at construction always suffice.
//
//redistlint:hotpath
func (b *BottleneckInc) push(e int) {
	i := b.nHeap
	b.nHeap++
	for i > 0 {
		p := (i - 1) / 2
		if b.w[e] <= b.w[b.heap[p]] {
			break
		}
		b.heap[i] = b.heap[p]
		i = p
	}
	b.heap[i] = e
}

// pop removes and returns a heaviest edge of the re-entry heap. Which one
// of several equal weights comes first does not matter: Rematch admits a
// whole weight group before it grows.
//
//redistlint:hotpath
func (b *BottleneckInc) pop() int {
	top := b.heap[0]
	b.nHeap--
	last := b.heap[b.nHeap]
	i := 0
	for {
		c := 2*i + 1
		if c >= b.nHeap {
			break
		}
		if c+1 < b.nHeap && b.w[b.heap[c+1]] > b.w[b.heap[c]] {
			c++
		}
		if b.w[b.heap[c]] <= b.w[last] {
			break
		}
		b.heap[i] = b.heap[c]
		i = c
	}
	b.heap[i] = last
	return top
}

// admitted reports whether edge e is in the working graph.
//
//redistlint:hotpath
func (b *BottleneckInc) admitted(e int) bool {
	s := b.slot[e]
	return b.adm[s>>6]&(1<<uint(s&63)) != 0
}

// admit adds edge e to the working graph. Its endpoints are free unless
// they already have admitted edges, since only admitted edges match. The
// bitset arm sets the cell bit and keeps the cell's minimum admitted edge
// index. An edge from a dead left node to a live right node breaks the
// dead region's closure; extendDead restores it.
//
//redistlint:hotpath
func (b *BottleneckInc) admit(e int) {
	l, r := b.edgeL[e], b.edgeR[e]
	s := b.slot[e]
	b.adm[s>>6] |= 1 << uint(s&63)
	if b.degL[l] == 0 {
		b.freeTouchL++
		b.roots[l>>6] |= 1 << uint(l&63)
	}
	b.degL[l]++
	if b.degR[r] == 0 {
		b.freeTouchR++
	}
	b.degR[r]++
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
	}
	if b.deadLeft(l) && !b.deadRight(r) {
		b.extendDead(r)
	}
}

// remove takes the unmatched edge e out of the working graph. On the
// bitset arm a cell that loses its minimum edge passes to the next
// admitted parallel edge, which follows e in the (right, edge)-ordered
// row, or is cleared.
//
//redistlint:hotpath
func (b *BottleneckInc) remove(e int) {
	l, r := b.edgeL[e], b.edgeR[e]
	s := b.slot[e]
	b.adm[s>>6] &^= 1 << uint(s&63)
	b.degL[l]--
	if b.degL[l] == 0 && b.matchL[l] < 0 {
		b.freeTouchL--
		b.roots[l>>6] &^= 1 << uint(l&63)
	}
	b.degR[r]--
	if b.degR[r] == 0 && b.matchR[r] < 0 {
		b.freeTouchR--
	}
	if b.useBits && b.cellEdge[l*b.nR+r] == e {
		for s++; s < b.base[l+1] && b.edgeR[b.adj[s]] == r; s++ {
			if b.adm[s>>6]&(1<<uint(s&63)) != 0 {
				b.cellEdge[l*b.nR+r] = b.adj[s]
				return
			}
		}
		b.rows[l*b.words+r>>6] &^= 1 << uint(r&63)
	}
}

// unmatch releases the matched edge e. Its endpoints become free nodes
// with admitted edges (e itself, at least).
//
//redistlint:hotpath
func (b *BottleneckInc) unmatch(e int) {
	l := b.edgeL[e]
	b.matchL[l] = -1
	b.matchR[b.edgeR[e]] = -1
	b.size--
	b.freeTouchL++
	b.freeTouchR++
	b.roots[l>>6] |= 1 << uint(l&63)
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

// grow runs one Kuhn pass over the free left nodes with admitted edges, in
// ascending order, until the matching is maximum for the working graph or
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
		clear(b.visMask)
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

// search runs the Kuhn DFS from left node root over the admitted edges,
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
// explicit stack. The traversal tries admitted slots in canonical order,
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
		i := b.nextSlot(b.stackIter[top], b.base[l+1])
		if i < 0 {
			top-- // row exhausted: dead end, backtrack
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

// nextSlot returns the first admitted adjacency slot in [from, end), or -1.
//
//redistlint:hotpath
func (b *BottleneckInc) nextSlot(from, end int) int {
	for from < end {
		w := from >> 6
		if word := b.adm[w] >> uint(from&63); word != 0 {
			if s := from + bits.TrailingZeros64(word); s < end {
				return s
			}
			return -1
		}
		from = (w + 1) << 6
	}
	return -1
}

// searchBits mirrors searchScalar over the bitset rows: the per-depth
// cursor stackR replaces the slot iterator, nextCell finds the smallest
// admitted, unmarked right above it with word sweeps, and cellEdge
// supplies the canonical (minimum admitted) edge of the cell — exactly the
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

// nextCell returns the smallest admitted, unvisited right neighbor of l
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
