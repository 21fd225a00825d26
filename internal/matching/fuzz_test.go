package matching

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"redistgo/internal/bipartite"
)

// fuzzBytes hands out the fuzzer's input one byte at a time, then zeros.
type fuzzBytes []byte

func (d *fuzzBytes) next() int {
	if len(*d) == 0 {
		return 0
	}
	v := (*d)[0]
	*d = (*d)[1:]
	return int(v)
}

// FuzzBottleneckIncPeel drives both BottleneckInc arms in ModeBottleneck
// through a random graph and a random sequence of peels, deactivations and
// Resets — every mutation the matcher's contract allows between two
// Rematch calls — and after each Rematch requires that (a) the matching is
// valid: every matched edge is alive and belongs to its left node, and no
// right node is matched twice, (b) the arms and a third matcher, built
// fresh at the last Reset, matched the same edges, and the arms visited as
// many right nodes, and (c) the minimum matched weight equals the cold
// BottleneckPerfect's on the live residual graph, Bottleneck() and the
// threshold t. Each peel goes through Peel with a uniform amount of at
// most the bottleneck, so matched edges often fall below the threshold
// without dying and re-enter from the heap; every matcher must emit the
// matched real edges (index below nReal) in ascending left order, report
// as dead exactly the matched edges whose weight equalled the amount, and
// leave its working graph consistent. Small weights make equal-weight
// groups, and with them the dead-region transitions, common. A fourth
// matcher is the reuse arm: it first peels another edge set (usedMatcher),
// then Init rebuilds it over this one, again at every Reset, and it must
// match the fresh one's matchings, Visits and peels exactly; a visit stamp
// or dead mark Init left behind would prune its searches without any
// other error. FuzzIncrementalPeel covers ModeAny.
func FuzzBottleneckIncPeel(f *testing.F) {
	f.Add([]byte{3, 9, 0, 0, 1, 0, 1, 1, 2, 2, 1, 0, 1, 2, 2, 0, 1, 1, 0, 2, 2, 1, 1, 0, 2, 1, 3, 0, 1, 2})
	f.Add([]byte{5, 20, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 0, 4, 0, 1, 0, 2, 2, 1, 3, 1, 2, 0, 4, 3, 4, 1, 1, 2, 4, 0, 3, 3, 3, 2, 1, 1, 4, 4, 4, 2, 0, 1, 3, 0, 5, 1, 0, 2, 1, 0, 3})
	f.Add([]byte{8, 40, 7, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 0, 2, 0, 1, 3, 1})
	// e0 (0,0) weighs 6, e1 (1,1) 4, the cross edges 1. The first peel
	// takes 4, so e0 drops to 2 below the threshold and re-enters from the
	// heap; a Reset follows.
	f.Add([]byte{1, 2, 0, 5, 0, 3, 0, 1, 0, 1, 0, 0, 2, 3, 2, 0, 1, 2, 2, 2})
	// Four weight-6 edges on two nodes. The first peel takes 1 off the
	// cross pair, which drops onto the heap while the diagonal pair
	// matches at the same threshold; the Reset that follows must empty the
	// heap.
	f.Add([]byte{1, 2, 0, 5, 0, 5, 0, 1, 5, 1, 0, 5, 2, 0, 2, 0, 1, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0})
	// Weight 6 on the diagonal, 2 on the cross edges. The first peel
	// takes 6, the second takes 1 off the cross pair, and the Reset that
	// follows must clear their admitted bits and cells before the diagonal
	// group alone matches again.
	f.Add([]byte{1, 2, 0, 5, 0, 5, 0, 1, 1, 1, 0, 1, 2, 5, 2, 0, 1, 0, 2, 0, 2, 0})
	// Three nodes, weights 6 on a permutation and 2–3 elsewhere: partial
	// peels of 1 push the heavy pairs under the threshold one at a time.
	f.Add([]byte{2, 4, 1, 5, 1, 5, 1, 5, 0, 0, 2, 1, 1, 1, 2, 2, 1, 0, 2, 2, 2, 0, 2, 0, 2, 0, 2, 0, 2, 1, 2, 0, 2, 0, 2, 0})
	// Ten nodes, the reuse arm rebuilt on the bitset arm: an Init that
	// keeps the old dead marks skips a root here and visits fewer right
	// nodes.
	f.Add([]byte{49, 49, 48, 49, 49})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzBytes(data)
		n := 1 + d.next()%10
		m := d.next() % (3*n + 1)
		var el, er []int
		var w0 []int64
		// A permutation keeps a perfect matching available at the start.
		for i := 0; i < n; i++ {
			el = append(el, i)
			er = append(er, (i+d.next())%n)
			w0 = append(w0, int64(1+d.next()%6))
		}
		for i := 0; i < m; i++ {
			el = append(el, d.next()%n)
			er = append(er, d.next()%n)
			w0 = append(w0, int64(1+d.next()%6))
		}
		// The permutation and half the extra edges are real.
		nReal := n + m/2
		wS := append([]int64(nil), w0...)
		wB := append([]int64(nil), w0...)
		wF := append([]int64(nil), w0...)
		wU := append([]int64(nil), w0...)
		sc := NewBottleneckInc(n, n, el, er, wS, nReal, EngineScalar, ModeBottleneck)
		bs := NewBottleneckInc(n, n, el, er, wB, nReal, EngineBitset, ModeBottleneck)
		fr := NewBottleneckInc(n, n, el, er, wF, nReal, EngineScalar, ModeBottleneck)
		ru, ruEngine := usedMatcher(n, n, el, er, w0, ModeBottleneck)
		ru.Init(n, n, el, er, wU, nReal, ruEngine, ModeBottleneck)
		alive := make([]bool, len(el))
		for i := range alive {
			alive[i] = true
		}
		matchedR := make([]bool, n)
		for round := 0; round < 4*len(el)+8; round++ {
			switch d.next() % 8 {
			case 0: // drop an arbitrary edge
				e := d.next() % len(el)
				alive[e] = false
				sc.Deactivate(e)
				bs.Deactivate(e)
				fr.Deactivate(e)
				ru.Deactivate(e)
			case 1: // restore the weights and start over
				copy(wS, w0)
				copy(wB, w0)
				copy(wU, w0)
				for i := range alive {
					alive[i] = true
				}
				sc.Reset()
				bs.Reset()
				wF = append([]int64(nil), w0...)
				fr = NewBottleneckInc(n, n, el, er, wF, nReal, EngineScalar, ModeBottleneck)
				ru.Init(n, n, el, er, wU, nReal, ruEngine, ModeBottleneck)
			}
			res := bipartite.New(n, n)
			for i, a := range alive {
				if a {
					res.AddEdge(el[i], er[i], wS[i])
				}
			}
			coldM, coldOK := BottleneckPerfect(res)
			okS, okB, okF, okU := sc.Rematch(n), bs.Rematch(n), fr.Rematch(n), ru.Rematch(n)
			if okS != okB || okS != okF || okS != okU || okS != coldOK {
				t.Fatalf("round %d: Rematch %v (scalar), %v (bitset), %v (fresh), %v (reused), cold %v", round, okS, okB, okF, okU, coldOK)
			}
			checkWorkingGraph(t, sc)
			checkWorkingGraph(t, bs)
			checkWorkingGraph(t, ru)
			if sc.Visits() != bs.Visits() {
				t.Fatalf("round %d: %d visits (scalar) vs %d (bitset)", round, sc.Visits(), bs.Visits())
			}
			if ru.Visits() != fr.Visits() {
				t.Fatalf("round %d: %d visits (reused) vs %d (fresh)", round, ru.Visits(), fr.Visits())
			}
			clear(matchedR)
			for l := 0; l < n; l++ {
				e := sc.MatchedEdge(l)
				if e != bs.MatchedEdge(l) || e != fr.MatchedEdge(l) || e != ru.MatchedEdge(l) {
					t.Fatalf("round %d: left %d matched to %d (scalar) vs %d (bitset) vs %d (fresh) vs %d (reused)", round, l, e, bs.MatchedEdge(l), fr.MatchedEdge(l), ru.MatchedEdge(l))
				}
				if e < 0 {
					continue
				}
				if !alive[e] || el[e] != l || matchedR[er[e]] {
					t.Fatalf("round %d: left %d holds edge %d (alive %v, left %d, right %d matched twice %v)", round, l, e, alive[e], el[e], er[e], matchedR[er[e]])
				}
				matchedR[er[e]] = true
			}
			if !okS {
				return
			}
			var minW int64 = -1
			for l := 0; l < n; l++ {
				if e := sc.MatchedEdge(l); minW < 0 || wS[e] < minW {
					minW = wS[e]
				}
			}
			if cold := bottleneckValue(res, coldM); minW != cold {
				t.Fatalf("round %d: bottleneck %d, cold %d", round, minW, cold)
			}
			for _, b := range []*BottleneckInc{sc, bs, fr, ru} {
				if b.Bottleneck() != minW || b.t != minW {
					t.Fatalf("round %d: Bottleneck() %d, threshold %d, scanned minimum %d", round, b.Bottleneck(), b.t, minW)
				}
			}
			// Peel a uniform amount, at most the bottleneck, off the matching,
			// against a reference scan of the matching before it.
			amount := 1 + int64(d.next())%minW
			var wantComms []int32
			wantDied := 0
			for l := 0; l < n; l++ {
				e := sc.MatchedEdge(l)
				if e < nReal {
					wantComms = append(wantComms, int32(e))
				}
				if wS[e] == amount {
					alive[e] = false
					wantDied++
				}
			}
			for _, b := range []*BottleneckInc{sc, bs, fr, ru} {
				comms, died := b.Peel(nil, amount)
				if died != wantDied || !slices.Equal(comms, wantComms) {
					t.Fatalf("round %d: Peel(%d) emitted %v and killed %d, want %v and %d", round, amount, comms, died, wantComms, wantDied)
				}
				checkWorkingGraph(t, b)
			}
			if !slices.Equal(wS, wB) || !slices.Equal(wS, wF) || !slices.Equal(wS, wU) {
				t.Fatalf("round %d: weights diverged: %v (scalar), %v (bitset), %v (fresh), %v (reused)", round, wS, wB, wF, wU)
			}
		}
	})
}

// checkWorkingGraph checks BottleneckInc's threshold state after a
// Rematch or a Peel: every live edge sits in exactly one of the working
// graph, the unread part of the construction sort and the re-entry heap;
// the working graph holds exactly the live edges of weight ≥ t (all of
// them in ModeAny, where t is 0); degL and degR count its edges; the
// growth gates (roots, freeTouchL, freeTouchR) agree with it, with no root
// bit past the left nodes; and on the bitset arm the rows and cells agree
// with it and freeR marks exactly the free right nodes.
func checkWorkingGraph(t *testing.T, b *BottleneckInc) {
	t.Helper()
	places := make([]int, len(b.edgeL))
	for _, e := range b.order0[b.next:] {
		places[e]++
	}
	for _, e := range b.heap[:b.nHeap] {
		places[e]++
	}
	degL, degR := make([]int, b.nL), make([]int, b.nR)
	// cellMin is the minimum admitted edge of each cell, or -1.
	cellMin := make([]int, b.nL*b.nR)
	for i := range cellMin {
		cellMin[i] = -1
	}
	for e := range b.edgeL {
		in := b.admitted(e)
		if in {
			places[e]++
			degL[b.edgeL[e]]++
			degR[b.edgeR[e]]++
			if c := b.edgeL[e]*b.nR + b.edgeR[e]; cellMin[c] < 0 {
				cellMin[c] = e
			}
		}
		if in && !b.alive[e] {
			t.Fatalf("dead edge %d admitted", e)
		}
		if b.alive[e] && (places[e] != 1 || in != (b.w[e] >= b.t)) {
			t.Fatalf("live edge %d of weight %d: in %d places, admitted %v at threshold %d", e, b.w[e], places[e], in, b.t)
		}
	}
	freeL, freeR := 0, 0
	isRoot := make([]int, b.nL) // -1 marks a root, the way checkBits reads it
	for l, c := range degL {
		if b.degL[l] != c {
			t.Fatalf("left %d counts %d admitted edges, has %d", l, b.degL[l], c)
		}
		if b.matchL[l] < 0 && c > 0 {
			freeL++
			isRoot[l] = -1
		}
		for r := 0; b.useBits && r < b.nR; r++ {
			min := cellMin[l*b.nR+r]
			set := b.rows[l*b.words+r>>6]&(1<<uint(r&63)) != 0
			if set != (min >= 0) || set && b.cellEdge[l*b.nR+r] != min {
				t.Fatalf("cell (%d,%d): row bit %v, cell edge %d, want minimum admitted edge %d", l, r, set, b.cellEdge[l*b.nR+r], min)
			}
		}
	}
	checkBits(t, "root", b.roots, isRoot)
	for r, c := range degR {
		if b.degR[r] != c {
			t.Fatalf("right %d counts %d admitted edges, has %d", r, b.degR[r], c)
		}
		if b.matchR[r] < 0 && c > 0 {
			freeR++
		}
	}
	if b.freeTouchL != freeL || b.freeTouchR != freeR {
		t.Fatalf("free nodes with admitted edges: %d left, %d right counted, %d and %d present", b.freeTouchL, b.freeTouchR, freeL, freeR)
	}
	if b.useBits {
		checkBits(t, "free-right", b.freeR, b.matchR)
	}
}

// checkBits requires bit i of words to be set exactly when match[i] < 0,
// and clear past len(match).
func checkBits(t *testing.T, name string, words []uint64, match []int) {
	t.Helper()
	for i := 0; i < 64*len(words); i++ {
		set := words[i>>6]&(1<<uint(i&63)) != 0
		if want := i < len(match) && match[i] < 0; set != want {
			t.Fatalf("%s bit %d is %v, want %v", name, i, set, want)
		}
	}
}

// usedMatcher returns the reuse arm of the fuzz targets: a matcher that has
// peeled another edge set up to eight times, for Init to rebuild over the
// nL×nR edge set (el, er) with weights w0. That other edge set is the
// mirror of this one plus one edge on a node more a side, and the used
// matcher runs in the other mode when the edge count is odd and on the
// bitset arm when nL is odd, so Init must re-cut every buffer, across
// layouts, and clear the visit stamps, dead marks, degrees, heap and
// threshold it left. The second return is the arm to rebuild on: bitset
// when half the edge count is odd, so every pair of arms occurs.
func usedMatcher(nL, nR int, el, er []int, w0 []int64, mode Mode) (*BottleneckInc, Engine) {
	m := len(el)
	ml := append(append([]int(nil), er...), nR)
	mr := append(append([]int(nil), el...), nL)
	w := append(append([]int64(nil), w0...), 1)
	usedMode, usedEngine, engine := mode, EngineScalar, EngineScalar
	if m%2 == 1 && mode == ModeAny {
		usedMode = ModeBottleneck
	} else if m%2 == 1 {
		usedMode = ModeAny
	}
	if nL%2 == 1 {
		usedEngine = EngineBitset
	}
	if (m/2)%2 == 1 {
		engine = EngineBitset
	}
	b := NewBottleneckInc(nR+1, nL+1, ml, mr, w, (m+1)/2, usedEngine, usedMode)
	for i := 0; i < 8 && b.Rematch(min(nL, nR)+1); i++ {
		b.Peel(nil, b.Bottleneck())
	}
	return b, engine
}

// FuzzIncrementalPeel is FuzzBottleneckIncPeel for ModeAny, the mode GGP
// peels in. It drives both arms through a random weighted multigraph —
// parallel edges included, the case where the bitset arm must pass a cell
// to its next admitted edge rather than clear the row bit — and a random
// sequence of deactivations (peel-like drops of matched edges, arbitrary
// edges, whole cells), peels and Resets, calling Rematch between them.
// After each Rematch the arms must agree on the matched edge of every left
// node and on the number of right nodes their searches visited, and the
// matching must be as large as a cold Maximum over the live edges. A peel
// goes through Peel with an amount of at most the bottleneck, at most once
// between two Rematch calls, and is checked against a reference scan of
// the matching: the same minimum, the matched real edges (index below
// nReal) in ascending left order, and the same dying set. Every round
// checks the working graph, the free-node bitsets included. A third
// matcher is the reuse arm (usedMatcher), rebuilt by Init over this edge
// set at the start and at every Reset: it must match the scalar arm's
// matchings and peels exactly, and visit as many right nodes since the
// last Reset. The input's leading bytes set the shape (up to 96 nodes a
// side, so row and column sweeps cross a word boundary, and unbalanced, so
// searches fail and leave dead regions), the average degree, the
// parallel-edge rate and the generator seed; the rest steers the
// operations.
func FuzzIncrementalPeel(f *testing.F) {
	f.Add([]byte{7, 7, 3, 1, 5, 0, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 7, 3, 0, 1})
	f.Add([]byte{19, 23, 5, 3, 9, 1, 0, 0, 6, 6, 1, 4, 2, 0, 3, 5, 0, 1, 6, 2, 4})
	f.Add([]byte{70, 66, 9, 2, 41, 7, 0, 1, 0, 2, 0, 3, 4, 0, 5, 6, 0, 1, 0, 2, 0, 3, 7, 0, 1})
	f.Add([]byte{64, 95, 4, 0, 13, 2, 4, 4, 0, 0, 6, 6, 5, 1, 2, 3})
	// Two peels a round on a small dense graph, with a Reset between.
	f.Add([]byte{5, 5, 6, 1, 17, 3, 3, 1, 3, 2, 3, 3, 0, 3, 3, 1, 3, 7, 0, 3, 3, 2, 3, 3, 3, 3})
	// The smallest shape, one edge, the reuse arm rebuilt on the scalar arm
	// from a bitset one: an Init that keeps the old buffer contents as visit
	// stamps or dead marks leaves its one left node unmatched.
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzBytes(data)
		nL := 1 + d.next()%96
		nR := 1 + d.next()%96
		deg := 1 + d.next()%12
		par := d.next() % 4
		rng := rand.New(rand.NewSource(int64(d.next() | d.next()<<8)))
		var el, er []int
		for i := 0; i < nL*deg; i++ {
			l, r := rng.Intn(nL), rng.Intn(nR)
			el, er = append(el, l), append(er, r)
			for rng.Intn(4) < par {
				el, er = append(el, l), append(er, r)
			}
		}
		m := len(el)
		nReal := rng.Intn(m + 1)
		w0 := make([]int64, m)
		for i := range w0 {
			w0[i] = 1 + rng.Int63n(4)
		}
		wS := append([]int64(nil), w0...)
		wB := append([]int64(nil), w0...)
		wU := append([]int64(nil), w0...)
		sc := NewBottleneckInc(nL, nR, el, er, wS, nReal, EngineScalar, ModeAny)
		bs := NewBottleneckInc(nL, nR, el, er, wB, nReal, EngineBitset, ModeAny)
		if sc.UsesBitset() || !bs.UsesBitset() {
			t.Fatalf("arms not pinned (scalar=%v bitset=%v)", sc.UsesBitset(), bs.UsesBitset())
		}
		ru, ruEngine := usedMatcher(nL, nR, el, er, w0, ModeAny)
		ru.Init(nL, nR, el, er, wU, nReal, ruEngine, ModeAny)
		visits0 := 0 // sc's visits at its last Reset
		alive := make([]bool, m)
		for i := range alive {
			alive[i] = true
		}
		drop := func(e int) {
			alive[e] = false
			sc.Deactivate(e)
			bs.Deactivate(e)
			ru.Deactivate(e)
		}
		peel := func(round int) {
			low := int64(math.MaxInt64)
			var wantComms []int32
			for l := 0; l < nL; l++ {
				if e := sc.MatchedEdge(l); e >= 0 {
					low = min(low, wS[e])
					if e < nReal {
						wantComms = append(wantComms, int32(e))
					}
				}
			}
			if sc.Bottleneck() != low || bs.Bottleneck() != low || ru.Bottleneck() != low {
				t.Fatalf("round %d: Bottleneck() %d (scalar), %d (bitset), %d (reused), scanned minimum %d", round, sc.Bottleneck(), bs.Bottleneck(), ru.Bottleneck(), low)
			}
			if low == math.MaxInt64 {
				return // nothing matched
			}
			amount := 1 + int64(d.next())%low
			var dying []int
			for l := 0; l < nL; l++ {
				if e := sc.MatchedEdge(l); e >= 0 && wS[e] == amount {
					dying = append(dying, e)
				}
			}
			for _, b := range []*BottleneckInc{sc, bs, ru} {
				comms, died := b.Peel(nil, amount)
				if died != len(dying) || !slices.Equal(comms, wantComms) {
					t.Fatalf("round %d: Peel(%d) emitted %v and killed %d, want %v and %d", round, amount, comms, died, wantComms, len(dying))
				}
				for _, e := range dying {
					if b.alive[e] || b.MatchedEdge(el[e]) >= 0 {
						t.Fatalf("round %d: edge %d reached zero but is alive %v, left %d matched to %d", round, e, b.alive[e], el[e], b.MatchedEdge(el[e]))
					}
				}
				checkWorkingGraph(t, b)
			}
			for _, e := range dying {
				alive[e] = false
			}
			if !slices.Equal(wS, wB) || !slices.Equal(wS, wU) {
				t.Fatalf("round %d: weights diverged: %v (scalar) vs %v (bitset) vs %v (reused)", round, wS, wB, wU)
			}
		}
		for round := 0; round < 64; round++ {
			sc.Rematch(nL)
			bs.Rematch(nL)
			ru.Rematch(nL)
			live := bipartite.New(nL, nR)
			for i, ok := range alive {
				if ok {
					live.AddEdge(el[i], er[i], 1)
				}
			}
			if want := Maximum(live).Size; sc.Size() != want || bs.Size() != want {
				t.Fatalf("round %d: Rematch reached %d (scalar), %d (bitset), cold Maximum %d", round, sc.Size(), bs.Size(), want)
			}
			for l := 0; l < nL; l++ {
				if sc.MatchedEdge(l) != bs.MatchedEdge(l) || sc.MatchedEdge(l) != ru.MatchedEdge(l) {
					t.Fatalf("round %d: left %d matched to %d (scalar) vs %d (bitset) vs %d (reused)", round, l, sc.MatchedEdge(l), bs.MatchedEdge(l), ru.MatchedEdge(l))
				}
			}
			if sc.Visits() != bs.Visits() || sc.Visits()-visits0 != ru.Visits() {
				t.Fatalf("round %d: %d visits (scalar) vs %d (bitset), %d since the last Reset vs %d (reused)", round, sc.Visits(), bs.Visits(), sc.Visits()-visits0, ru.Visits())
			}
			checkWorkingGraph(t, sc)
			checkWorkingGraph(t, bs)
			checkWorkingGraph(t, ru)
			peeled := false
			for ops := 1 + d.next()%4; ops > 0; ops-- {
				switch op := d.next() % 8; {
				case op < 3: // peel-like: drop the matched edge of a left node
					if e := sc.MatchedEdge(d.next() % nL); e >= 0 {
						drop(e)
					}
				case op == 3: // peel the matching, once between two Rematch calls
					if !peeled {
						peeled = true
						peel(round)
					}
				case op < 6: // drop an arbitrary edge
					drop(rng.Intn(m))
				case op == 6: // drop every parallel edge of one cell
					e := rng.Intn(m)
					for i := range el {
						if el[i] == el[e] && er[i] == er[e] {
							drop(i)
						}
					}
				default:
					if d.next()%4 == 0 {
						copy(wS, w0)
						copy(wB, w0)
						copy(wU, w0)
						sc.Reset()
						bs.Reset()
						ru.Init(nL, nR, el, er, wU, nReal, ruEngine, ModeAny)
						visits0 = sc.Visits()
						for i := range alive {
							alive[i] = true
						}
						peeled = false
					}
				}
			}
			checkWorkingGraph(t, sc)
			checkWorkingGraph(t, bs)
			checkWorkingGraph(t, ru)
		}
	})
}
