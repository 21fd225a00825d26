package matching

import "math/bits"

// compactMinDead is the minimum number of dead adjacency slots before the
// lazy compaction in Deactivate bothers rewriting the arrays; below it the
// skip-dead scans are cheaper than the rewrite. The value only trades
// constant factors — scans skip dead slots, so results are identical for
// any trigger point.
const compactMinDead = 32

// Incremental maintains a maximum matching of a bipartite multigraph whose
// edge set only shrinks. It is the warm-start engine behind the GGP peeling
// loop: a peel zeroes a handful of matched edges, so instead of re-running
// Hopcroft–Karp from an empty matching the peeler deactivates exactly those
// edges and calls Augment, which repairs the matching by re-augmenting only
// the exposed nodes (the BFS/DFS phase structure of Hopcroft–Karp applies
// unchanged to a warm start, and costs nothing when no node is exposed).
//
// Candidates are always traversed in the canonical order — right endpoint
// ascending, lowest edge index first among parallel edges — which the two
// interchangeable kernels realize independently:
//
//   - scalar: per-node adjacency arrays kept in canonical order, with
//     deactivated edges skipped in place and compacted away once they
//     outnumber the survivors (amortized O(m) over a whole peeling run);
//   - bitset: one uint64 bitset row per left node over the right vertex
//     set, swept a word at a time (64 candidates per AND/ANDNOT), with a
//     per-cell chain recovering the lowest surviving parallel edge.
//
// Identical traversal order makes the two arms byte-identical, so either
// can check the other (see DESIGN.md §11); EngineAuto picks by density.
//
// In front of Hopcroft–Karp sits the forced-edge fast path: any free node
// with exactly one edge to a free partner can only ever be matched through
// that edge, and matching it is a length-1 augmenting path, so applying
// all such forced matches (propagating eliminations) never leaves maximum
// cardinality unreachable. On sparse chain- and star-like residual graphs
// the propagation resolves the whole repair without a single BFS.
//
// The edge set is given once, as parallel endpoint arrays; edges are
// addressed by their index in those arrays. All storage is allocated at
// construction; Reset, Deactivate and Augment perform no allocations, so a
// peeling loop built on Incremental runs allocation-free at steady state.
type Incremental struct {
	nL, nR int
	edgeL  []int
	edgeR  []int

	useBits bool
	forced  bool

	// Canonical adjacency, both orientations. adjL holds the edges of left
	// node l in (right, edge) ascending order at slots
	// offL[l] : offL[l]+lenL[l]; deactivated edges stay in their slots
	// (skipped via active) until compact rewrites the arrays. sortL/sortR
	// are the pristine full orders, copied back by Reset. offL0/offR0 are
	// the full CSR offsets.
	adjL, adjR   []int
	offL, lenL   []int
	offR, lenR   []int
	sortL, sortR []int
	offL0, offR0 []int
	active       []bool
	live, dead   int

	matchL []int // matched edge index per left node, -1 if exposed
	matchR []int // matched edge index per right node, -1 if exposed
	size   int

	// Hopcroft–Karp scratch, sized once.
	dist    []int
	queue   []int
	bfsRuns int

	// Forced-edge scratch: a FIFO of vertex ids (l, or nL+r for rights)
	// whose forced status should be (re)checked. Each vertex is pushed at
	// most once per incident-match event, bounding total pushes by
	// nL+nR+2m, the array's capacity.
	fq []int

	// Bitset kernel state (allocated only when useBits). rows is the
	// nL×words cell bitset and cols its nR×wordsL transpose;
	// cellHead/cellNext/cellPrev chain the active parallel edges of each
	// cell in ascending edge order (cellHead is bit-guarded: it is only
	// read when the row bit is set). freeR, freeL and visitedR are the
	// per-pass word masks.
	words    int
	wordsL   int
	rows     []uint64
	cols     []uint64
	cellHead []int
	cellNext []int
	cellPrev []int
	freeR    []uint64
	freeL    []uint64
	visitedR []uint64
}

// NewIncremental builds the matcher over the edge set (edgeL[i], edgeR[i])
// with the kernel chosen by density (EngineAuto). The endpoint slices are
// retained (not copied) and must not be mutated. All edges start active
// and the matching starts empty.
func NewIncremental(nL, nR int, edgeL, edgeR []int) *Incremental {
	return NewIncrementalEngine(nL, nR, edgeL, edgeR, EngineAuto)
}

// NewIncrementalEngine is NewIncremental with an explicit kernel choice;
// see Engine for the override semantics.
func NewIncrementalEngine(nL, nR int, edgeL, edgeR []int, engine Engine) *Incremental {
	m := len(edgeL)
	inc := &Incremental{
		nL:     nL,
		nR:     nR,
		edgeL:  edgeL,
		edgeR:  edgeR,
		forced: true,
		adjL:   make([]int, m),
		adjR:   make([]int, m),
		offL:   make([]int, nL),
		lenL:   make([]int, nL),
		offR:   make([]int, nR),
		lenR:   make([]int, nR),
		offL0:  make([]int, nL+1),
		offR0:  make([]int, nR+1),
		active: make([]bool, m),
		matchL: make([]int, nL),
		matchR: make([]int, nR),
		dist:   make([]int, nL),
		queue:  make([]int, 0, nL),
		fq:     make([]int, nL+nR+2*m),
	}
	inc.sortL, inc.sortR = canonicalOrders(nL, nR, edgeL, edgeR)
	for _, l := range edgeL {
		inc.offL0[l+1]++
	}
	for i := 0; i < nL; i++ {
		inc.offL0[i+1] += inc.offL0[i]
	}
	for _, r := range edgeR {
		inc.offR0[r+1]++
	}
	for i := 0; i < nR; i++ {
		inc.offR0[i+1] += inc.offR0[i]
	}
	if resolveEngine(engine, nL, nR, m) {
		inc.useBits = true
		inc.words = rowWords(nR)
		inc.wordsL = rowWords(nL)
		inc.rows = make([]uint64, nL*inc.words)
		inc.cols = make([]uint64, nR*inc.wordsL)
		inc.cellHead = make([]int, nL*nR)
		inc.cellNext = make([]int, m)
		inc.cellPrev = make([]int, m)
		inc.freeR = make([]uint64, inc.words)
		inc.freeL = make([]uint64, inc.wordsL)
		inc.visitedR = make([]uint64, inc.words)
	}
	inc.Reset()
	return inc
}

// canonicalOrders returns the edge indices sorted by (left, right, index)
// and by (right, left, index) — the construction images of the two
// adjacency orientations — via two stable counting-sort passes each.
func canonicalOrders(nL, nR int, edgeL, edgeR []int) (byL, byR []int) {
	m := len(edgeL)
	byRight := make([]int, m) // (right, index) ascending
	cnt := make([]int, nR+1)
	for _, r := range edgeR {
		cnt[r+1]++
	}
	for i := 0; i < nR; i++ {
		cnt[i+1] += cnt[i]
	}
	for e := 0; e < m; e++ {
		r := edgeR[e]
		byRight[cnt[r]] = e
		cnt[r]++
	}
	byL = make([]int, m) // stable by left over byRight ⇒ (left, right, index)
	cntL := make([]int, nL+1)
	for _, l := range edgeL {
		cntL[l+1]++
	}
	for i := 0; i < nL; i++ {
		cntL[i+1] += cntL[i]
	}
	for _, e := range byRight {
		l := edgeL[e]
		byL[cntL[l]] = e
		cntL[l]++
	}
	byLeft := make([]int, m) // (left, index) ascending
	cnt2 := make([]int, nL+1)
	for _, l := range edgeL {
		cnt2[l+1]++
	}
	for i := 0; i < nL; i++ {
		cnt2[i+1] += cnt2[i]
	}
	for e := 0; e < m; e++ {
		l := edgeL[e]
		byLeft[cnt2[l]] = e
		cnt2[l]++
	}
	byR = make([]int, m) // stable by right over byLeft ⇒ (right, left, index)
	cntR := make([]int, nR+1)
	for _, r := range edgeR {
		cntR[r+1]++
	}
	for i := 0; i < nR; i++ {
		cntR[i+1] += cntR[i]
	}
	for _, e := range byLeft {
		r := edgeR[e]
		byR[cntR[r]] = e
		cntR[r]++
	}
	return byL, byR
}

// Reset reactivates every edge and clears the matching, reusing all
// internal storage (no allocations).
func (inc *Incremental) Reset() {
	copy(inc.adjL, inc.sortL)
	copy(inc.adjR, inc.sortR)
	for l := 0; l < inc.nL; l++ {
		inc.offL[l] = inc.offL0[l]
		inc.lenL[l] = inc.offL0[l+1] - inc.offL0[l]
	}
	for r := 0; r < inc.nR; r++ {
		inc.offR[r] = inc.offR0[r]
		inc.lenR[r] = inc.offR0[r+1] - inc.offR0[r]
	}
	for i := range inc.active {
		inc.active[i] = true
	}
	inc.live = len(inc.active)
	inc.dead = 0
	for i := range inc.matchL {
		inc.matchL[i] = -1
	}
	for i := range inc.matchR {
		inc.matchR[i] = -1
	}
	inc.size = 0
	if inc.useBits {
		inc.resetBits()
	}
}

// resetBits rebuilds the bitset rows and columns and the per-cell
// parallel-edge chains from the canonical order (edges of one cell are
// consecutive in sortL).
func (inc *Incremental) resetBits() {
	for i := range inc.rows {
		inc.rows[i] = 0
	}
	for i := range inc.cols {
		inc.cols[i] = 0
	}
	m := len(inc.sortL)
	for i := 0; i < m; {
		e := inc.sortL[i]
		l, r := inc.edgeL[e], inc.edgeR[e]
		inc.rows[l*inc.words+(r>>6)] |= 1 << uint(r&63)
		inc.cols[r*inc.wordsL+(l>>6)] |= 1 << uint(l&63)
		inc.cellHead[l*inc.nR+r] = e
		inc.cellPrev[e] = -1
		prev := e
		j := i + 1
		for ; j < m; j++ {
			ne := inc.sortL[j]
			if inc.edgeL[ne] != l || inc.edgeR[ne] != r {
				break
			}
			inc.cellNext[prev] = ne
			inc.cellPrev[ne] = prev
			prev = ne
		}
		inc.cellNext[prev] = -1
		i = j
	}
}

// Size returns the current matching cardinality.
func (inc *Incremental) Size() int { return inc.size }

// MatchedEdge returns the edge matched at left node l, or -1.
func (inc *Incremental) MatchedEdge(l int) int { return inc.matchL[l] }

// UsesBitset reports which kernel arm this matcher resolved to.
func (inc *Incremental) UsesBitset() bool { return inc.useBits }

// SetForcedPath toggles the forced-edge fast path in front of the
// Hopcroft–Karp phases. On by default; the off position exists for the
// bench-bitset baseline and for tests that must drive the BFS directly.
func (inc *Incremental) SetForcedPath(on bool) { inc.forced = on }

// BFSRuns returns how many Hopcroft–Karp BFS phases have run since
// construction — the observable the forced-edge tests assert against (a
// matching completed purely by forced edges runs zero).
func (inc *Incremental) BFSRuns() int { return inc.bfsRuns }

// Deactivate removes edge e from the graph. If e was matched, its
// endpoints become exposed; the matching is repaired by the next Augment.
// Deactivating an already-inactive edge is a no-op. The adjacency slot is
// abandoned in place (scans skip it) and reclaimed by the amortized
// compaction once dead slots outnumber live ones.
//
//redistlint:hotpath
func (inc *Incremental) Deactivate(e int) {
	if !inc.active[e] {
		return
	}
	inc.active[e] = false
	inc.live--
	inc.dead++
	if inc.useBits {
		inc.dropBit(e)
	}
	l := inc.edgeL[e]
	if inc.matchL[l] == e {
		inc.matchL[l] = -1
		inc.matchR[inc.edgeR[e]] = -1
		inc.size--
	}
	if inc.dead > inc.live && inc.dead > compactMinDead {
		inc.compact()
	}
}

// dropBit unlinks e from its cell chain and clears the cell's row and
// column bits when the chain empties.
//
//redistlint:hotpath
func (inc *Incremental) dropBit(e int) {
	l, r := inc.edgeL[e], inc.edgeR[e]
	c := l*inc.nR + r
	p, n := inc.cellPrev[e], inc.cellNext[e]
	if p >= 0 {
		inc.cellNext[p] = n
	} else {
		inc.cellHead[c] = n
	}
	if n >= 0 {
		inc.cellPrev[n] = p
	}
	if inc.cellHead[c] < 0 {
		inc.rows[l*inc.words+(r>>6)] &^= 1 << uint(r&63)
		inc.cols[r*inc.wordsL+(l>>6)] &^= 1 << uint(l&63)
	}
}

// compact rewrites both adjacency orientations without their dead slots.
// Relative order is preserved, so scans see the same live sequence before
// and after; the trigger point is invisible to results. Each compaction
// halves the slot count at least, so total compaction work over a peeling
// run is O(m).
//
//redistlint:hotpath
func (inc *Incremental) compact() {
	w := 0
	for l := 0; l < inc.nL; l++ {
		start := w
		end := inc.offL[l] + inc.lenL[l]
		for i := inc.offL[l]; i < end; i++ {
			if e := inc.adjL[i]; inc.active[e] {
				inc.adjL[w] = e
				w++
			}
		}
		inc.offL[l] = start
		inc.lenL[l] = w - start
	}
	w = 0
	for r := 0; r < inc.nR; r++ {
		start := w
		end := inc.offR[r] + inc.lenR[r]
		for i := inc.offR[r]; i < end; i++ {
			if e := inc.adjR[i]; inc.active[e] {
				inc.adjR[w] = e
				w++
			}
		}
		inc.offR[r] = start
		inc.lenR[r] = w - start
	}
	inc.dead = 0
}

// Augment grows the current matching to maximum cardinality over the active
// edges and returns the resulting size: first the forced-edge propagation
// (length-1 augmenting paths, safe by Berge), then Hopcroft–Karp phases
// from the warm matching. From an empty matching this is a full run; after
// a peel it only re-augments the exposed nodes, and when forced matches
// complete a full-left matching no BFS runs at all.
//
//redistlint:hotpath
func (inc *Incremental) Augment() int {
	// A forced match needs an unmatched left endpoint, so a left-perfect
	// matching makes the pass a no-op — skip its seeding scans.
	if inc.forced && inc.size < inc.nL {
		if inc.useBits {
			inc.forcedPassBits()
		} else {
			inc.forcedPass()
		}
	}
	for inc.size < inc.nL {
		var found bool
		if inc.useBits {
			found = inc.bfsBits()
		} else {
			found = inc.bfs()
		}
		if !found {
			break
		}
		for l := 0; l < inc.nL; l++ {
			if inc.matchL[l] >= 0 {
				continue
			}
			if inc.useBits {
				if inc.dfsBits(l) {
					inc.size++
				}
			} else if inc.dfs(l) {
				inc.size++
			}
		}
	}
	return inc.size
}

// forcedPass repeatedly matches vertices with exactly one available edge —
// an edge to a free partner — and propagates the eliminations: matching
// (l, r) consumes one available edge at every free neighbor of l and r, so
// those neighbors are re-queued for a recheck. Every forced match is a
// length-1 augmenting path, so the pass can never paint Hopcroft–Karp into
// a corner (any matching extends to maximum cardinality by Berge's
// theorem). This is the scalar kernel, walking the canonical adjacency;
// forcedPassBits is its word-parallel twin and must force the same matches
// in the same order.
//
//redistlint:hotpath
func (inc *Incremental) forcedPass() {
	fq := inc.fq
	head, tail := 0, 0
	for l := 0; l < inc.nL; l++ {
		if inc.matchL[l] < 0 && inc.lenL[l] > 0 {
			fq[tail] = l
			tail++
		}
	}
	for r := 0; r < inc.nR; r++ {
		if inc.matchR[r] < 0 && inc.lenR[r] > 0 {
			fq[tail] = inc.nL + r
			tail++
		}
	}
	for head < tail {
		v := fq[head]
		head++
		var l, r, forced int
		if v < inc.nL {
			l = v
			if inc.matchL[l] >= 0 {
				continue
			}
			forced = -1
			n := 0
			end := inc.offL[l] + inc.lenL[l]
			for i := inc.offL[l]; i < end; i++ {
				e := inc.adjL[i]
				if inc.active[e] && inc.matchR[inc.edgeR[e]] < 0 {
					if n == 0 {
						forced = e
					}
					n++
					if n > 1 {
						break
					}
				}
			}
			if n != 1 {
				continue
			}
			r = inc.edgeR[forced]
		} else {
			r = v - inc.nL
			if inc.matchR[r] >= 0 {
				continue
			}
			forced = -1
			n := 0
			end := inc.offR[r] + inc.lenR[r]
			for i := inc.offR[r]; i < end; i++ {
				e := inc.adjR[i]
				if inc.active[e] && inc.matchL[inc.edgeL[e]] < 0 {
					if n == 0 {
						forced = e
					}
					n++
					if n > 1 {
						break
					}
				}
			}
			if n != 1 {
				continue
			}
			l = inc.edgeL[forced]
		}
		inc.matchL[l] = forced
		inc.matchR[r] = forced
		inc.size++
		end := inc.offR[r] + inc.lenR[r]
		for i := inc.offR[r]; i < end; i++ {
			e := inc.adjR[i]
			if nl := inc.edgeL[e]; inc.active[e] && inc.matchL[nl] < 0 {
				fq[tail] = nl
				tail++
			}
		}
		end = inc.offL[l] + inc.lenL[l]
		for i := inc.offL[l]; i < end; i++ {
			e := inc.adjL[i]
			if nr := inc.edgeR[e]; inc.active[e] && inc.matchR[nr] < 0 {
				fq[tail] = inc.nL + nr
				tail++
			}
		}
	}
}

// forcedPassBits is forcedPass over the bitset rows and columns. A free
// left node has popcount(row & freeR) candidate partners, a free right
// node popcount(col & freeL), a word at a time. A single candidate cell
// forces its chain head — the lowest surviving edge, the one the scalar
// scan reaches first — unless the chain holds a second edge: parallel
// edges to one free partner make the scalar count n ≥ 2, so nothing is
// forced. Seeds and queue order are the scalar pass's; a match pushes each
// free neighbor once where the scalar pass pushes it once per parallel
// edge. Those duplicates sit next to each other in the scalar queue, and
// popping a vertex twice in a row cannot force anything the first pop did
// not (a forced vertex is skipped as matched, an unforced one sees the
// same state again), so collapsing them leaves the forced matches and
// their order unchanged (DESIGN.md §11).
//
//redistlint:hotpath
func (inc *Incremental) forcedPassBits() {
	fq := inc.fq
	head, tail := 0, 0
	W, WL := inc.words, inc.wordsL
	for w := 0; w < W; w++ {
		inc.freeR[w] = 0
	}
	for w := 0; w < WL; w++ {
		inc.freeL[w] = 0
	}
	for l := 0; l < inc.nL; l++ {
		if inc.matchL[l] < 0 {
			inc.freeL[l>>6] |= 1 << uint(l&63)
			if inc.lenL[l] > 0 {
				fq[tail] = l
				tail++
			}
		}
	}
	for r := 0; r < inc.nR; r++ {
		if inc.matchR[r] < 0 {
			inc.freeR[r>>6] |= 1 << uint(r&63)
			if inc.lenR[r] > 0 {
				fq[tail] = inc.nL + r
				tail++
			}
		}
	}
	for head < tail {
		v := fq[head]
		head++
		var l, r int
		if v < inc.nL {
			l = v
			if inc.matchL[l] >= 0 {
				continue
			}
			row := inc.rows[l*W : l*W+W]
			n := 0
			for w := 0; w < W && n < 2; w++ {
				if x := row[w] & inc.freeR[w]; x != 0 {
					n += bits.OnesCount64(x)
					r = w<<6 + bits.TrailingZeros64(x)
				}
			}
			if n != 1 {
				continue
			}
		} else {
			r = v - inc.nL
			if inc.matchR[r] >= 0 {
				continue
			}
			col := inc.cols[r*WL : r*WL+WL]
			n := 0
			for w := 0; w < WL && n < 2; w++ {
				if x := col[w] & inc.freeL[w]; x != 0 {
					n += bits.OnesCount64(x)
					l = w<<6 + bits.TrailingZeros64(x)
				}
			}
			if n != 1 {
				continue
			}
		}
		forced := inc.cellHead[l*inc.nR+r]
		if inc.cellNext[forced] >= 0 {
			continue
		}
		inc.matchL[l] = forced
		inc.matchR[r] = forced
		inc.size++
		inc.freeL[l>>6] &^= 1 << uint(l&63)
		inc.freeR[r>>6] &^= 1 << uint(r&63)
		col := inc.cols[r*WL : r*WL+WL]
		for w := 0; w < WL; w++ {
			for x := col[w] & inc.freeL[w]; x != 0; x &= x - 1 {
				fq[tail] = w<<6 + bits.TrailingZeros64(x)
				tail++
			}
		}
		row := inc.rows[l*W : l*W+W]
		for w := 0; w < W; w++ {
			for x := row[w] & inc.freeR[w]; x != 0; x &= x - 1 {
				fq[tail] = inc.nL + w<<6 + bits.TrailingZeros64(x)
				tail++
			}
		}
	}
}

// bfs layers the exposed left nodes (scalar kernel); reports whether an
// augmenting path exists under the current matching.
//
//redistlint:hotpath
func (inc *Incremental) bfs() bool {
	inc.bfsRuns++
	q := inc.queue[:0]
	for l := 0; l < inc.nL; l++ {
		if inc.matchL[l] < 0 {
			inc.dist[l] = 0
			//redistlint:allow hotpath append into queue scratch preallocated to capacity nL; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
			q = append(q, l)
		} else {
			inc.dist[l] = inf
		}
	}
	found := false
	for qi := 0; qi < len(q); qi++ {
		l := q[qi]
		end := inc.offL[l] + inc.lenL[l]
		for i := inc.offL[l]; i < end; i++ {
			e := inc.adjL[i]
			if !inc.active[e] {
				continue
			}
			r := inc.edgeR[e]
			me := inc.matchR[r]
			if me < 0 {
				found = true
				continue
			}
			nl := inc.edgeL[me]
			if inc.dist[nl] == inf {
				inc.dist[nl] = inc.dist[l] + 1
				//redistlint:allow hotpath append into queue scratch preallocated to capacity nL; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
				q = append(q, nl)
			}
		}
	}
	inc.queue = q
	return found
}

// dfs searches a shortest augmenting path from exposed left node l
// (scalar kernel).
//
//redistlint:hotpath
func (inc *Incremental) dfs(l int) bool {
	end := inc.offL[l] + inc.lenL[l]
	for i := inc.offL[l]; i < end; i++ {
		e := inc.adjL[i]
		if !inc.active[e] {
			continue
		}
		r := inc.edgeR[e]
		me := inc.matchR[r]
		if me < 0 {
			inc.matchL[l] = e
			inc.matchR[r] = e
			return true
		}
		nl := inc.edgeL[me]
		if inc.dist[nl] == inc.dist[l]+1 && inc.dfs(nl) {
			inc.matchL[l] = e
			inc.matchR[r] = e
			return true
		}
	}
	inc.dist[l] = inf
	return false
}

// bfsBits is the word-parallel BFS: for each queued left node, one AND per
// row word tests 64 free rights at once, and the matched candidates
// (row &^ free &^ visited) advance via TrailingZeros64. Rights ascend
// within and across words, so dist labels and queue order are exactly the
// scalar BFS's (the scalar loop visits rights in the same canonical order
// and skips re-visits through the dist check instead of the mask).
//
//redistlint:hotpath
func (inc *Incremental) bfsBits() bool {
	inc.bfsRuns++
	q := inc.queue[:0]
	for l := 0; l < inc.nL; l++ {
		if inc.matchL[l] < 0 {
			inc.dist[l] = 0
			//redistlint:allow hotpath append into queue scratch preallocated to capacity nL; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
			q = append(q, l)
		} else {
			inc.dist[l] = inf
		}
	}
	W := inc.words
	for w := 0; w < W; w++ {
		inc.freeR[w] = 0
		inc.visitedR[w] = 0
	}
	for r := 0; r < inc.nR; r++ {
		if inc.matchR[r] < 0 {
			inc.freeR[r>>6] |= 1 << uint(r&63)
		}
	}
	found := false
	for qi := 0; qi < len(q); qi++ {
		l := q[qi]
		row := inc.rows[l*W : l*W+W]
		for w := 0; w < W; w++ {
			rw := row[w]
			if rw == 0 {
				continue
			}
			if rw&inc.freeR[w] != 0 {
				found = true
			}
			cand := rw &^ inc.freeR[w] &^ inc.visitedR[w]
			for cand != 0 {
				b := bits.TrailingZeros64(cand)
				cand &= cand - 1
				inc.visitedR[w] |= 1 << uint(b)
				r := w<<6 + b
				nl := inc.edgeL[inc.matchR[r]]
				if inc.dist[nl] == inf {
					inc.dist[nl] = inc.dist[l] + 1
					//redistlint:allow hotpath append into queue scratch preallocated to capacity nL; zero steady-state allocs asserted by TestPeelSteadyStateAllocs
					q = append(q, nl)
				}
			}
		}
	}
	inc.queue = q
	return found
}

// dfsBits mirrors dfs over the bitset rows. Candidate cells ascend by
// right vertex; the cell chain head recovers the lowest surviving parallel
// edge — the same edge the scalar scan reaches first, and the only one
// that matters: if its recursion fails, dist[nl] is poisoned to inf and
// every later parallel of the cell dies on the dist check anyway.
//
//redistlint:hotpath
func (inc *Incremental) dfsBits(l int) bool {
	W := inc.words
	row := inc.rows[l*W : l*W+W]
	for w := 0; w < W; w++ {
		cand := row[w]
		for cand != 0 {
			b := bits.TrailingZeros64(cand)
			cand &= cand - 1
			r := w<<6 + b
			me := inc.matchR[r]
			if me < 0 {
				e := inc.cellHead[l*inc.nR+r]
				inc.matchL[l] = e
				inc.matchR[r] = e
				return true
			}
			nl := inc.edgeL[me]
			if inc.dist[nl] == inc.dist[l]+1 && inc.dfsBits(nl) {
				e := inc.cellHead[l*inc.nR+r]
				inc.matchL[l] = e
				inc.matchR[r] = e
				return true
			}
		}
	}
	inc.dist[l] = inf
	return false
}

// Matching returns a copy of the current matching in the package's standard
// representation. It allocates and is meant for tests and validation, not
// for the hot path.
func (inc *Incremental) Matching() Matching {
	return Matching{EdgeOfLeft: append([]int(nil), inc.matchL...), Size: inc.size}
}

// Adopt replaces the current matching with the given one: edgeOfLeft[l] is
// the edge matched at left node l, or a negative value when l is exposed.
// Entries naming inactive (deactivated) edges are skipped, so a caller may
// hand over a recorded matching whose zeroed edges have already been
// deactivated. The given entries must form a matching over the active
// edges — no two left nodes may claim the same right node.
//
// Adopt exists for trajectory replay (kpbs.SolveDelta): after a replayed
// peeling prefix diverges from its recording, the replayer installs the
// last known-good matching and lets Augment continue from it, exactly as a
// cold run would have. It touches only the matching state; the adjacency,
// active set and kernel structures are unaffected. O(nL + nR), no
// allocations.
//
//redistlint:hotpath
func (inc *Incremental) Adopt(edgeOfLeft []int32) {
	for l := range inc.matchL {
		inc.matchL[l] = -1
	}
	for r := range inc.matchR {
		inc.matchR[r] = -1
	}
	inc.size = 0
	for l, e32 := range edgeOfLeft {
		e := int(e32)
		if e < 0 || !inc.active[e] {
			continue
		}
		r := inc.edgeR[e]
		if inc.matchR[r] >= 0 || inc.matchL[l] >= 0 {
			panic("matching: Adopt given a non-matching")
		}
		inc.matchL[l] = e
		inc.matchR[r] = e
		inc.size++
	}
}
