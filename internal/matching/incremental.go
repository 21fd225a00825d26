package matching

import (
	"math"
	"math/bits"
)

// compactMinDead is the minimum number of dead adjacency slots before the
// lazy compaction in Deactivate bothers rewriting the arrays; below it the
// skip-dead scans are cheaper than the rewrite. The value only trades
// constant factors — scans skip dead slots, so results are identical for
// any trigger point.
const compactMinDead = 32

// Incremental maintains a maximum matching of a bipartite multigraph whose
// edge set only shrinks. It is the warm-start engine behind the GGP peeling
// loop: a peel zeroes a handful of matched edges, so instead of matching
// from scratch Peel deactivates exactly those edges and the next Augment
// repairs the matching with one breadth-first search per exposed left node
// (Kuhn's algorithm, searched breadth-first), taken from a bitset of the
// exposed left nodes; it costs nothing when no node is exposed.
//
// Candidates are always traversed in the canonical order — right endpoint
// ascending, lowest active edge index first among parallel edges — which
// the two interchangeable kernels realize independently:
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
// The edge set is given once, as parallel endpoint arrays; edges are
// addressed by their index in those arrays. The matcher owns the peel under
// BottleneckInc's contract: the caller shares the weight slice, restores it
// before a Reset and otherwise only reads it, and between two Augment calls
// calls Peel at most once, with an amount of at most Bottleneck(), plus any
// Deactivate. All storage is allocated at construction; Reset, Deactivate,
// Augment and Peel perform no allocations, so a peeling loop built on
// Incremental runs allocation-free at steady state.
type Incremental struct {
	nL, nR int
	edgeL  []int
	edgeR  []int
	w      []int64 // live weights, shared with the caller
	nReal  int     // edges below nReal are real; Peel emits only those

	useBits bool

	// sortL holds the edge indices in canonical order grouped by left node
	// ((left, right, index) ascending); Reset rebuilds either kernel's
	// structures from it.
	sortL  []int
	active []bool

	matchL []int // matched edge index per left node, -1 if exposed
	matchR []int // matched edge index per right node, -1 if exposed
	size   int

	// exposedL has bit l set while left node l is exposed: the roots
	// Augment searches from, in ascending order.
	exposedL []uint64

	// Search scratch, sized once: the FIFO of left nodes, the edge through
	// which the search reached each right node, and the number of right
	// nodes visited since construction.
	queue  []int
	parent []int
	visits int

	// Scalar kernel state (allocated only when !useBits). adjL holds the
	// edges of left node l at slots offL[l] : offL[l]+lenL[l]; deactivated
	// edges stay in their slots (skipped via active) until compact rewrites
	// the array. offL0 are the full CSR offsets. seen[r] == epoch marks
	// right r visited by the current search.
	adjL       []int
	offL, lenL []int
	offL0      []int
	live, dead int
	seen       []int
	epoch      int

	// Bitset kernel state (allocated only when useBits). rows is the
	// nL×words cell bitset; cellHead/cellNext/cellPrev chain the active
	// parallel edges of each cell in ascending edge order (cellHead is
	// bit-guarded: it is only read when the row bit is set). freeR marks
	// the exposed right nodes, visitedR the right nodes the current search
	// has visited.
	words    int
	rows     []uint64
	cellHead []int
	cellNext []int
	cellPrev []int
	freeR    []uint64
	visitedR []uint64
}

// NewIncremental builds the matcher over the edge set (edgeL[i], edgeR[i])
// with weights w and the kernel chosen by density (EngineAuto). The edges
// below nReal are the real ones, the only ones Peel emits. The slices are
// retained (not copied); the endpoints must not be mutated, and Peel lowers
// w under the contract documented on the type. All edges start active and
// the matching starts empty.
func NewIncremental(nL, nR int, edgeL, edgeR []int, w []int64, nReal int) *Incremental {
	return NewIncrementalEngine(nL, nR, edgeL, edgeR, w, nReal, EngineAuto)
}

// NewIncrementalEngine is NewIncremental with an explicit kernel choice;
// see Engine for the override semantics.
func NewIncrementalEngine(nL, nR int, edgeL, edgeR []int, w []int64, nReal int, engine Engine) *Incremental {
	m := len(edgeL)
	// matchL and matchR share one allocation, and so do the bitsets.
	match := make([]int, nL+nR)
	inc := &Incremental{
		nL:     nL,
		nR:     nR,
		edgeL:  edgeL,
		edgeR:  edgeR,
		w:      w,
		nReal:  nReal,
		sortL:  canonicalOrder(nL, nR, edgeL, edgeR),
		active: make([]bool, m),
		matchL: match[:nL:nL],
		matchR: match[nL:],
		queue:  make([]int, nL),
		parent: make([]int, nR),
	}
	lw := rowWords(nL)
	if resolveEngine(engine, nL, nR, m) {
		inc.useBits = true
		inc.words = rowWords(nR)
		inc.rows = make([]uint64, nL*inc.words)
		inc.cellHead = make([]int, nL*nR)
		inc.cellNext = make([]int, m)
		inc.cellPrev = make([]int, m)
		bw := make([]uint64, lw+2*inc.words)
		inc.exposedL = bw[:lw:lw]
		inc.freeR = bw[lw : lw+inc.words : lw+inc.words]
		inc.visitedR = bw[lw+inc.words:]
	} else {
		inc.exposedL = make([]uint64, lw)
		inc.adjL = make([]int, m)
		inc.offL = make([]int, nL)
		inc.lenL = make([]int, nL)
		inc.offL0 = make([]int, nL+1)
		inc.seen = make([]int, nR)
		for _, l := range edgeL {
			inc.offL0[l+1]++
		}
		for i := 0; i < nL; i++ {
			inc.offL0[i+1] += inc.offL0[i]
		}
	}
	inc.Reset()
	return inc
}

// canonicalOrder returns the edge indices sorted by (left, right, index):
// a stable counting sort by right, then a stable one by left.
func canonicalOrder(nL, nR int, edgeL, edgeR []int) []int {
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
	byL := make([]int, m)
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
	return byL
}

// Reset reactivates every edge and clears the matching, reusing all
// internal storage (no allocations).
func (inc *Incremental) Reset() {
	for i := range inc.active {
		inc.active[i] = true
	}
	for i := range inc.matchL {
		inc.matchL[i] = -1
	}
	for i := range inc.matchR {
		inc.matchR[i] = -1
	}
	inc.size = 0
	setLowBits(inc.exposedL, inc.nL)
	if inc.useBits {
		setLowBits(inc.freeR, inc.nR)
		inc.resetBits()
		return
	}
	copy(inc.adjL, inc.sortL)
	for l := 0; l < inc.nL; l++ {
		inc.offL[l] = inc.offL0[l]
		inc.lenL[l] = inc.offL0[l+1] - inc.offL0[l]
	}
	inc.live = len(inc.active)
	inc.dead = 0
}

// resetBits rebuilds the bitset rows and the per-cell parallel-edge chains
// from the canonical order (edges of one cell are consecutive in sortL).
func (inc *Incremental) resetBits() {
	for i := range inc.rows {
		inc.rows[i] = 0
	}
	m := len(inc.sortL)
	for i := 0; i < m; {
		e := inc.sortL[i]
		l, r := inc.edgeL[e], inc.edgeR[e]
		inc.rows[l*inc.words+(r>>6)] |= 1 << uint(r&63)
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

// Visits returns how many right nodes Augment's searches have visited since
// construction. Both kernels visit the same right nodes in the same order,
// so the count is equal across arms.
func (inc *Incremental) Visits() int { return inc.visits }

// Bottleneck returns the minimum matched weight, or math.MaxInt64 when
// nothing is matched: one scan of the matching.
//
//redistlint:hotpath
func (inc *Incremental) Bottleneck() int64 {
	min := int64(math.MaxInt64)
	for _, e := range inc.matchL {
		if e >= 0 && inc.w[e] < min {
			min = inc.w[e]
		}
	}
	return min
}

// Peel subtracts amount, at most Bottleneck(), from every matched edge in
// one pass over the left nodes in ascending order. It appends each matched
// real edge to dst and deactivates the edges that reach zero, and returns
// dst and their number.
//
//redistlint:hotpath
func (inc *Incremental) Peel(dst []int32, amount int64) ([]int32, int) {
	died := 0
	for _, e := range inc.matchL {
		if e < 0 {
			continue
		}
		if e < inc.nReal {
			//redistlint:allow hotpath caller-owned arena append; the peeler retains its capacity across runs and TestPeelSteadyStateAllocs asserts zero steady-state allocations
			dst = append(dst, int32(e))
		}
		inc.w[e] -= amount
		if inc.w[e] == 0 {
			inc.Deactivate(e)
			died++
		}
	}
	return dst, died
}

// Deactivate removes edge e from the graph. If e was matched, its
// endpoints become exposed; the matching is repaired by the next Augment.
// Deactivating an already-inactive edge is a no-op. On the scalar kernel
// the adjacency slot is abandoned in place (scans skip it) and reclaimed by
// the amortized compaction once dead slots outnumber live ones.
//
//redistlint:hotpath
func (inc *Incremental) Deactivate(e int) {
	if !inc.active[e] {
		return
	}
	inc.active[e] = false
	if l := inc.edgeL[e]; inc.matchL[l] == e {
		r := inc.edgeR[e]
		inc.matchL[l] = -1
		inc.matchR[r] = -1
		inc.size--
		inc.exposedL[l>>6] |= 1 << uint(l&63)
		if inc.useBits {
			inc.freeR[r>>6] |= 1 << uint(r&63)
		}
	}
	if inc.useBits {
		inc.dropBit(e)
		return
	}
	inc.live--
	inc.dead++
	if inc.dead > inc.live && inc.dead > compactMinDead {
		inc.compact()
	}
}

// dropBit unlinks e from its cell chain and clears the cell's row bit when
// the chain empties.
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
	}
}

// compact rewrites the scalar adjacency without its dead slots. Relative
// order is preserved, so scans see the same live sequence before and
// after; the trigger point is invisible to results. Each compaction halves
// the slot count at least, so total compaction work over a peeling run is
// O(m).
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
	inc.dead = 0
}

// Augment grows the current matching to maximum cardinality over the active
// edges and returns the resulting size. It runs one search from each
// exposed left node in ascending order, sweeping the exposedL bitset a word
// at a time; a successful search clears only its own root's bit. A search
// that fails leaves its root exposed: by Kuhn's theorem no later
// augmentation of the pass can open an augmenting path from it, so one pass
// reaches maximum cardinality. From an empty matching this is a full run;
// after a peel it only searches from the exposed nodes.
//
//redistlint:hotpath
func (inc *Incremental) Augment() int {
	if inc.size == inc.nL {
		return inc.size
	}
	for w := range inc.exposedL {
		for word := inc.exposedL[w]; word != 0; word &= word - 1 {
			l := w<<6 + bits.TrailingZeros64(word)
			var found bool
			if inc.useBits {
				found = inc.searchBits(l)
			} else {
				found = inc.search(l)
			}
			if found {
				inc.size++
			}
		}
	}
	return inc.size
}

// search looks for an augmenting path from exposed left node root (scalar
// kernel). It dequeues left nodes first in, first out and scans each one's
// candidates in canonical order, skipping right nodes already visited. A
// matched right enqueues its partner; the first free right ends the search
// and the path back to the root is flipped.
//
//redistlint:hotpath
func (inc *Incremental) search(root int) bool {
	inc.epoch++
	q := inc.queue
	q[0] = root
	head, tail := 0, 1
	for head < tail {
		l := q[head]
		head++
		end := inc.offL[l] + inc.lenL[l]
		for i := inc.offL[l]; i < end; i++ {
			e := inc.adjL[i]
			if !inc.active[e] {
				continue
			}
			r := inc.edgeR[e]
			if inc.seen[r] == inc.epoch {
				continue
			}
			inc.seen[r] = inc.epoch
			inc.visits++
			inc.parent[r] = e
			me := inc.matchR[r]
			if me < 0 {
				inc.flip(r)
				return true
			}
			q[tail] = inc.edgeL[me]
			tail++
		}
	}
	return false
}

// searchBits is search over the bitset rows. The unvisited candidates of a
// row word are row &^ visitedR; they ascend by right node, and the cell
// chain head is the lowest surviving parallel edge, the one the scalar scan
// reaches first. When the word holds a free right the search ends at the
// lowest one, which the scalar scan reaches after visiting the matched
// candidates below it; they are counted but not enqueued, since the search
// stops there. Otherwise every candidate is visited and its partner
// enqueued in ascending order, as in the scalar scan.
//
//redistlint:hotpath
func (inc *Incremental) searchBits(root int) bool {
	W := inc.words
	for w := 0; w < W; w++ {
		inc.visitedR[w] = 0
	}
	q := inc.queue
	q[0] = root
	head, tail := 0, 1
	for head < tail {
		l := q[head]
		head++
		row := inc.rows[l*W : l*W+W]
		for w := 0; w < W; w++ {
			cand := row[w] &^ inc.visitedR[w]
			if cand == 0 {
				continue
			}
			if free := cand & inc.freeR[w]; free != 0 {
				b := bits.TrailingZeros64(free)
				inc.visits += bits.OnesCount64(cand&(1<<uint(b)-1)) + 1
				r := w<<6 + b
				inc.parent[r] = inc.cellHead[l*inc.nR+r]
				inc.freeR[w] &^= 1 << uint(b)
				inc.flip(r)
				return true
			}
			inc.visitedR[w] |= cand
			inc.visits += bits.OnesCount64(cand)
			for ; cand != 0; cand &= cand - 1 {
				r := w<<6 + bits.TrailingZeros64(cand)
				inc.parent[r] = inc.cellHead[l*inc.nR+r]
				q[tail] = inc.edgeL[inc.matchR[r]]
				tail++
			}
		}
	}
	return false
}

// flip augments along the search path that ends at free right node r:
// walking parent edges back to the root, every edge on the path becomes
// matched and the edges between them unmatched. The root, the one left
// node that was exposed, leaves exposedL.
//
//redistlint:hotpath
func (inc *Incremental) flip(r int) {
	for {
		e := inc.parent[r]
		l := inc.edgeL[e]
		prev := inc.matchL[l]
		inc.matchL[l] = e
		inc.matchR[r] = e
		if prev < 0 {
			inc.exposedL[l>>6] &^= 1 << uint(l&63)
			return
		}
		r = inc.edgeR[prev]
	}
}

// Matching returns a copy of the current matching in the package's standard
// representation. It allocates and is meant for tests and validation, not
// for the hot path.
func (inc *Incremental) Matching() Matching {
	return Matching{EdgeOfLeft: append([]int(nil), inc.matchL...), Size: inc.size}
}
