package matching

import (
	"math"
	"math/bits"
	"sort"
)

// Mode selects which maximum matchings BottleneckInc repairs toward.
type Mode int

const (
	// ModeAny takes any maximum matching of the live edges: GGP's peel
	// (paper §4.2). Reset admits every live edge at threshold 0, so the
	// sort cursor, the re-entry heap and the threshold lowering never
	// fire, and grow runs breadth-first searches.
	ModeAny Mode = iota
	// ModeBottleneck takes a matching whose minimum weight is as large as
	// possible, with the threshold procedure below and depth-first
	// searches: OGGP's peel (paper §4.3, Figure 6) and MinSteps'.
	ModeBottleneck
)

// BottleneckInc is the warm-start matcher behind the peeling loop: it keeps
// a matching of a bipartite multigraph whose edges only lose weight and
// die, and repairs it after each peel instead of matching from scratch.
//
// In ModeBottleneck it is the incremental form of the paper's Figure-6
// bottleneck matching procedure. The cold-start procedure inserts edges in
// decreasing weight and grows a matching from empty until it is perfect;
// its threshold t is the weight of the last inserted group, and the
// matching it returns has minimum weight t. BottleneckInc keeps that
// threshold, the working graph above it and the matching across peels
// instead of starting over:
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
// In ModeAny the threshold is 0 and every live edge is admitted from Reset
// on, so the working graph is the live graph and Rematch grows a maximum
// matching of it: after a peel it repairs only the exposed nodes. Each
// search is breadth-first (Kuhn's algorithm, searched breadth-first) and
// flips a shortest augmenting path; the dead region works as above, since
// a failed breadth-first search marks a closed region just as a failed
// depth-first one does. ModeBottleneck keeps the depth-first search, which
// takes different bottleneck-optimal matchings and so different schedules.
//
// Augmentation traverses candidates in a canonical order — right endpoint
// ascending, lowest admitted edge index per (l, r) cell — through either of
// two interchangeable kernels. Both read a static adjacency, built once,
// that lists each left node's edges in (right, edge) order, with one
// admitted bit per slot, so admitting or removing an edge is O(1). The
// scalar arm scans a row's admitted slots; the bitset arm keeps one uint64
// row per left node plus a per-cell minimum admitted edge index, and
// sweeps candidates a word at a time. Identical traversal order makes the
// two arms byte-identical (DESIGN.md §11), and Visits() is equal on both;
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
	any    bool    // ModeAny

	alive []bool

	// Threshold state. The working graph is the admitted edges: exactly the
	// live edges of weight ≥ t. order0 is the construction-time sort
	// (weight desc, index asc); order0[next:] holds the edges never admitted
	// since the last Reset, heap[:nHeap] the edges a peel dropped below t,
	// as a max-heap by weight. ModeAny keeps t at 0 and allocates neither.
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
	stackL    []int // left node at each DFS depth; the BFS queue in ModeAny
	stackIter []int // next adjacency slot (scalar arm) or last right tried (bitset arm) at that depth
	stackEdge []int // edge chosen at that depth (valid once a child is entered)

	// parent[r] is the edge through which the current breadth-first search
	// reached right node r (ModeAny only). visits counts the right nodes
	// all searches have visited since construction.
	parent []int
	visits int

	// Bitset kernel state (allocated only when useBits). rows holds the
	// admitted cells of each left node; cellEdge the minimum admitted edge
	// index per cell (bit-guarded: read only while the row bit is set).
	// visMask replaces the right-node visit stamps. freeR marks the free
	// right nodes, in both modes; the breadth-first search ends at the
	// lowest one in a candidate word without visiting the rest.
	useBits  bool
	words    int
	rows     []uint64
	cellEdge []int
	visMask  []uint64
	freeR    []uint64

	// Growth gating: an augmenting path must start at a free left node with
	// admitted edges and end at a free right node with admitted edges, so
	// growth is skipped while either count is zero. roots is the bitset of
	// those free left nodes, the candidates grow sweeps in ascending order.
	roots      []uint64
	freeTouchL int
	freeTouchR int

	// Storage kept across Init calls: every []int above is cut from
	// intStore, every bitset from wordStore, and sorter sorts order0.
	intStore  []int
	wordStore []uint64
	sorter    edgeIdxByWeightDesc
}

// NewBottleneckInc builds the matcher over the edge set (edgeL[i],
// edgeR[i]) with weights w, the kernel arm engine resolves to and the given
// mode: Init on a zero BottleneckInc.
func NewBottleneckInc(nL, nR int, edgeL, edgeR []int, w []int64, nReal int, engine Engine, mode Mode) *BottleneckInc {
	b := new(BottleneckInc)
	b.Init(nL, nR, edgeL, edgeR, w, nReal, engine, mode)
	return b
}

// Init builds the matcher over the edge set (edgeL[i], edgeR[i]) with
// weights w, the kernel arm engine resolves to and the given mode. The
// edges below nReal are the real ones, the only ones Peel emits. All three
// slices are retained, not copied; Peel lowers w under the contract
// documented on the type. Every []int the matcher needs is cut from one
// buffer and every bitset from another.
//
// Init reuses the storage of b's last Init when it is large enough, so a
// matcher rebuilt over same-sized edge sets allocates nothing; a zero
// BottleneckInc allocates it, which is NewBottleneckInc. Either way the
// result is a fresh matcher: the reused buffers are cleared, so no visit
// stamp, dead mark, degree or threshold of the earlier edge set survives,
// and Visits restarts at 0.
func (b *BottleneckInc) Init(nL, nR int, edgeL, edgeR []int, w []int64, nReal int, engine Engine, mode Mode) {
	m := len(edgeL)
	*b = BottleneckInc{
		nL:        nL,
		nR:        nR,
		edgeL:     edgeL,
		edgeR:     edgeR,
		w:         w,
		nReal:     nReal,
		any:       mode == ModeAny,
		alive:     b.alive,
		useBits:   resolveEngine(engine, nL, nR, m),
		intStore:  b.intStore,
		wordStore: b.wordStore,
	}
	if cap(b.alive) < m {
		b.alive = make([]bool, m)
	}
	b.alive = b.alive[:m] // Reset sets every edge alive
	depth := min(nL, nR) + 1
	sortLen, parentLen := m, 0
	if b.any {
		sortLen, parentLen = 0, nR
	}
	visitedLen, cellLen, maskLen := nR, 0, 0
	if b.useBits {
		b.words = rowWords(nR)
		visitedLen, cellLen, maskLen = 0, nL*nR, b.words
	}
	b.intStore = zeroed(b.intStore, 2*sortLen+parentLen+visitedLen+cellLen+nL+1+2*m+3*nL+2*nR+3*depth)
	ints := b.intStore
	b.order0, ints = ints[:sortLen:sortLen], ints[sortLen:]
	b.heap, ints = ints[:sortLen:sortLen], ints[sortLen:]
	b.parent, ints = ints[:parentLen:parentLen], ints[parentLen:]
	b.visited, ints = ints[:visitedLen:visitedLen], ints[visitedLen:]
	b.cellEdge, ints = ints[:cellLen:cellLen], ints[cellLen:]
	b.base, ints = ints[:nL+1:nL+1], ints[nL+1:]
	b.adj, ints = ints[:m:m], ints[m:]
	b.slot, ints = ints[:m:m], ints[m:]
	b.degL, ints = ints[:nL:nL], ints[nL:]
	b.matchL, ints = ints[:nL:nL], ints[nL:]
	b.markL, ints = ints[:nL:nL], ints[nL:]
	b.degR, ints = ints[:nR:nR], ints[nR:]
	b.matchR, ints = ints[:nR:nR], ints[nR:]
	b.stackL, ints = ints[:depth:depth], ints[depth:]
	b.stackIter, b.stackEdge = ints[:depth:depth], ints[depth:]
	admLen, rootsLen, rowsLen := rowWords(m), rowWords(nL), nL*b.words
	b.wordStore = zeroed(b.wordStore, admLen+rootsLen+rowsLen+2*maskLen)
	u := b.wordStore
	b.adm, u = u[:admLen:admLen], u[admLen:]
	b.roots, u = u[:rootsLen:rootsLen], u[rootsLen:]
	b.rows, u = u[:rowsLen:rowsLen], u[rowsLen:]
	b.visMask, b.freeR = u[:maskLen:maskLen], u[maskLen:]
	// Three counting passes build the (right, edge)-ordered rows: adj first
	// lists the edges by right node (index order within one), distributing
	// that list by left node keeps it within each row and records each
	// edge's slot, and adj is then rewritten from the slots. degL and degR
	// serve as the fill cursors and are cleared by Reset.
	for _, r := range edgeR {
		b.degR[r]++
	}
	for r, at := 0, 0; r < nR; r++ {
		at, b.degR[r] = at+b.degR[r], at
	}
	for e, r := range edgeR {
		b.adj[b.degR[r]] = e
		b.degR[r]++
	}
	for _, l := range edgeL {
		b.base[l+1]++
	}
	for i := 0; i < nL; i++ {
		b.base[i+1] += b.base[i]
	}
	for _, e := range b.adj {
		l := edgeL[e]
		b.slot[e] = b.base[l] + b.degL[l]
		b.degL[l]++
	}
	for e, s := range b.slot {
		b.adj[s] = e
	}
	if !b.any {
		for i := range b.order0 {
			b.order0[i] = i
		}
		b.sorter = edgeIdxByWeightDesc{idx: b.order0, w: w}
		sort.Sort(&b.sorter)
	}
	b.Reset()
}

// zeroed returns buf resized to n with every element zero, reallocating
// only when it is too small.
func zeroed[T int | uint64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
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

// Reset reactivates every edge and restores the cold state: an empty heap,
// an empty matching and, in ModeBottleneck, no threshold and no admitted
// edge; in ModeAny every edge is admitted at threshold 0. The caller must
// have restored the weight slice to its construction-time values first
// (the pristine sorted order is reused, not recomputed).
func (b *BottleneckInc) Reset() {
	for i := range b.alive {
		b.alive[i] = true
	}
	b.next = 0
	b.nHeap = 0
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
	if b.useBits {
		setLowBits(b.freeR, b.nR)
	}
	if b.any {
		b.t = 0
		b.admitAll()
		return
	}
	b.t = math.MaxInt64
	clear(b.adm)
}

// admitAll puts every edge into the empty working graph at once, which is
// what admitting them one by one would leave: every slot's admitted bit,
// each node's full degree, every left node with an edge a root and, on
// the bitset arm, every cell with its minimum edge, the first one its
// (right, edge)-ordered row lists.
func (b *BottleneckInc) admitAll() {
	setLowBits(b.adm, len(b.adj))
	for l := 0; l < b.nL; l++ {
		start, end := b.base[l], b.base[l+1]
		if start == end {
			continue
		}
		b.degL[l] = end - start
		b.roots[l>>6] |= 1 << uint(l&63)
		b.freeTouchL++
		if !b.useBits {
			continue
		}
		for _, e := range b.adj[start:end] {
			r := b.edgeR[e]
			wi, bit := l*b.words+r>>6, uint64(1)<<uint(r&63)
			if b.rows[wi]&bit == 0 {
				b.rows[wi] |= bit
				b.cellEdge[l*b.nR+r] = e
			}
		}
	}
	for _, r := range b.edgeR {
		if b.degR[r] == 0 {
			b.freeTouchR++
		}
		b.degR[r]++
	}
}

// Size returns the current matching cardinality.
func (b *BottleneckInc) Size() int { return b.size }

// MatchedEdge returns the edge matched at left node l, or -1.
func (b *BottleneckInc) MatchedEdge(l int) int { return b.matchL[l] }

// UsesBitset reports which kernel arm this matcher resolved to.
func (b *BottleneckInc) UsesBitset() bool { return b.useBits }

// Visits returns how many right nodes the searches have visited since
// construction. Both kernels visit the same right nodes in the same order,
// so the count is equal across arms.
func (b *BottleneckInc) Visits() int { return b.visits }

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

// Bottleneck returns the minimum matched weight after a successful
// Rematch: the peel amount. In ModeBottleneck that is the threshold t, in
// O(1): every admitted edge weighs at least t, and the live edges heavier
// than t hold no matching of the target size, so the matching holds an
// edge of weight exactly t. In ModeAny it is one scan of the matching,
// math.MaxInt64 when nothing is matched.
//
//redistlint:hotpath
func (b *BottleneckInc) Bottleneck() int64 {
	if !b.any {
		return b.t
	}
	min := int64(math.MaxInt64)
	for _, e := range b.matchL {
		if e >= 0 && b.w[e] < min {
			min = b.w[e]
		}
	}
	return min
}

// Peel subtracts amount, at most Bottleneck(), from every matched edge in
// one pass over the left nodes in ascending order. It appends each matched
// real edge to dst, deactivates the edges that reach zero, and moves those
// left in (0, t) from the working graph to the re-entry heap (none in
// ModeAny, where t is 0); the pairs still at or above t stay matched. A
// matched edge is alive and admitted, so Peel releases it directly rather
// than through Deactivate's checks. It returns dst and the number of edges
// that reached zero.
//
//redistlint:hotpath
func (b *BottleneckInc) Peel(dst []int32, amount int64) ([]int32, int) {
	died := 0
	keep := max(b.t, 1) // the pairs left at keep or above stay matched
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
		if w >= keep {
			continue
		}
		b.unmatch(e)
		b.remove(e)
		if w == 0 {
			b.alive[e] = false
			died++
		} else {
			b.push(e)
		}
	}
	return dst, died
}

// Rematch repairs the matching to a bottleneck-optimal one of the active
// edges with the given target cardinality, keeping the surviving matched
// pairs and the threshold of the previous call. It reports whether the
// target was reached; on success the matching maximizes the minimum
// matched weight among all matchings of that cardinality (ModeBottleneck).
// In ModeAny the matching is a maximum one of the live graph, or has the
// target size, whichever is smaller.
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
	l, r := b.edgeL[e], b.edgeR[e]
	b.matchL[l] = -1
	b.matchR[r] = -1
	b.size--
	b.freeTouchL++
	b.freeTouchR++
	b.roots[l>>6] |= 1 << uint(l&63)
	if b.useBits {
		b.freeR[r>>6] |= 1 << uint(r&63)
	}
}

// extendDead restores the dead region's closure after a dead left node
// gained an edge to the live right node r. If r is matched and no
// augmenting path leaves its partner, r and everything that search marks
// join the region: it is again closed and free of free right nodes.
// Otherwise some dead nodes may now reach a free right node, and the
// region is reset. The search never flips an edge. Only ModeBottleneck
// admits edges after Reset, so only it gets here.
//
//redistlint:hotpath
func (b *BottleneckInc) extendDead(r int) {
	b.markRight(r)
	me := b.matchR[r]
	if me < 0 || b.dfs(b.edgeL[me]) >= 0 {
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
			if !b.augment(l) {
				b.markL[l] = b.stamp
				continue
			}
			b.roots[w] &^= 1 << uint(l&63)
			b.size++
			b.freeTouchL--
			b.freeTouchR--
			b.resetDead()
		}
	}
}

// augment searches for an augmenting path from the free root l over the
// admitted edges, breadth-first in ModeAny and depth-first in
// ModeBottleneck, and flips it if one exists. Every search skips marked
// right nodes and marks and counts each one it visits.
//
//redistlint:hotpath
func (b *BottleneckInc) augment(l int) bool {
	if b.any {
		var r int
		if b.useBits {
			r = b.bfsBits(l)
		} else {
			r = b.bfsScalar(l)
		}
		if r < 0 {
			return false
		}
		b.flipPath(r)
		return true
	}
	top := b.dfs(l)
	if top < 0 {
		return false
	}
	b.flip(top)
	return true
}

// flip applies the augmenting path a depth-first search left on the
// stacks down to depth top. Each stack level t holds the edge from
// stackL[t] to the right node level t+1 came down through (or to the free
// right node at the top), so assigning every level's edge rematches the
// whole alternating path.
//
//redistlint:hotpath
func (b *BottleneckInc) flip(top int) {
	if b.useBits {
		r := b.edgeR[b.stackEdge[top]]
		b.freeR[r>>6] &^= 1 << uint(r&63)
	}
	for t := top; t >= 0; t-- {
		pe := b.stackEdge[t]
		b.matchL[b.stackL[t]] = pe
		b.matchR[b.edgeR[pe]] = pe
	}
}

// flipPath augments along the path a breadth-first search recorded, which
// ends at the free right node r: walking parent edges back to the root,
// every edge on the path becomes matched and the edges between them
// unmatched.
//
//redistlint:hotpath
func (b *BottleneckInc) flipPath(r int) {
	if b.useBits {
		b.freeR[r>>6] &^= 1 << uint(r&63)
	}
	for {
		e := b.parent[r]
		l := b.edgeL[e]
		prev := b.matchL[l]
		b.matchL[l] = e
		b.matchR[r] = e
		if prev < 0 {
			return
		}
		r = b.edgeR[prev]
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

// dfs runs the Kuhn DFS from left node root over the admitted edges,
// skipping marked right nodes and marking every right node it visits. It
// returns the stack depth at which it reached a free right node, with the
// path on stackL/stackEdge for flip, or -1 if none is reachable.
//
//redistlint:hotpath
func (b *BottleneckInc) dfs(root int) int {
	if b.useBits {
		return b.dfsBits(root)
	}
	return b.dfsScalar(root)
}

// dfsScalar is the depth-first search of ModeBottleneck over the scalar
// adjacency, iterative with an explicit stack. The traversal tries
// admitted slots in canonical order, descending into the matched left node
// of each newly visited right node; the path is recorded on preallocated
// stacks instead of the goroutine stack, whose growth a 50k-deep recursion
// used to exhaust.
//
//redistlint:hotpath
func (b *BottleneckInc) dfsScalar(root int) int {
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
		b.visits++
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

// dfsBits mirrors dfsScalar over the bitset rows: the per-depth
// cursor stackIter holds the last right tried instead of a slot, nextCell
// finds the smallest admitted, unmarked right above it with word sweeps,
// and cellEdge supplies the canonical (minimum admitted) edge of the cell
// — exactly the first slot the scalar scan would try, and the only one it
// ever uses per cell thanks to the visit stamp, so the two arms take
// identical paths.
//
//redistlint:hotpath
func (b *BottleneckInc) dfsBits(root int) int {
	top := 0
	b.stackL[0] = root
	b.stackIter[0] = -1
	for top >= 0 {
		l := b.stackL[top]
		r := b.nextCell(l, b.stackIter[top])
		if r < 0 {
			top-- // row exhausted: dead end, backtrack
			continue
		}
		b.stackIter[top] = r
		b.visMask[r>>6] |= 1 << uint(r&63)
		b.visits++
		b.stackEdge[top] = b.cellEdge[l*b.nR+r]
		me := b.matchR[r]
		if me < 0 {
			return top
		}
		top++
		nl := b.edgeL[me]
		b.stackL[top] = nl
		b.stackIter[top] = -1
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

// bfsScalar is the breadth-first search of ModeAny over the scalar
// adjacency. It dequeues left nodes first in, first out, scans each one's
// admitted slots in canonical order and skips marked right nodes,
// marking and counting each one it visits. A matched right node enqueues
// its partner; the first free right node ends the search and is
// returned, with the path back to the root on parent. It returns -1 when
// no free right node is reachable.
//
//redistlint:hotpath
func (b *BottleneckInc) bfsScalar(root int) int {
	q := b.stackL
	q[0] = root
	head, tail := 0, 1
	for head < tail {
		l := q[head]
		head++
		end := b.base[l+1]
		for s := b.nextSlot(b.base[l], end); s >= 0; s = b.nextSlot(s+1, end) {
			e := b.adj[s]
			r := b.edgeR[e]
			if b.visited[r] == b.stamp {
				continue
			}
			b.visited[r] = b.stamp
			b.visits++
			b.parent[r] = e
			me := b.matchR[r]
			if me < 0 {
				return r
			}
			q[tail] = b.edgeL[me]
			tail++
		}
	}
	return -1
}

// bfsBits is bfsScalar over the bitset rows. The unmarked candidates of a
// row word are row &^ visMask; they ascend by right node, and cellEdge is
// the lowest admitted parallel edge, the one the scalar scan reaches
// first. When the word holds a free right the search ends at the lowest
// one, which the scalar scan reaches after visiting the matched candidates
// below it; they are counted but neither marked nor enqueued, since the
// search succeeds there and the region resets. Otherwise every candidate
// is marked and counted and its partner enqueued in ascending order, as
// in the scalar scan.
//
//redistlint:hotpath
func (b *BottleneckInc) bfsBits(root int) int {
	W := b.words
	q := b.stackL
	q[0] = root
	head, tail := 0, 1
	for head < tail {
		l := q[head]
		head++
		row := b.rows[l*W : l*W+W]
		for w := 0; w < W; w++ {
			cand := row[w] &^ b.visMask[w]
			if cand == 0 {
				continue
			}
			if free := cand & b.freeR[w]; free != 0 {
				bit := bits.TrailingZeros64(free)
				b.visits += bits.OnesCount64(cand&(1<<uint(bit)-1)) + 1
				r := w<<6 + bit
				b.parent[r] = b.cellEdge[l*b.nR+r]
				return r
			}
			b.visMask[w] |= cand
			b.visits += bits.OnesCount64(cand)
			for ; cand != 0; cand &= cand - 1 {
				r := w<<6 + bits.TrailingZeros64(cand)
				b.parent[r] = b.cellEdge[l*b.nR+r]
				q[tail] = b.edgeL[b.matchR[r]]
				tail++
			}
		}
	}
	return -1
}

// Matching returns a copy of the current matching in the package's standard
// representation. It allocates and is meant for tests, not the hot path.
func (b *BottleneckInc) Matching() Matching {
	return Matching{EdgeOfLeft: append([]int(nil), b.matchL...), Size: b.size}
}
