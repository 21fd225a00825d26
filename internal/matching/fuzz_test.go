package matching

import (
	"math/rand"
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

// FuzzBottleneckIncPeel drives both BottleneckInc arms through a random
// graph and a random sequence of peels and deactivations — every mutation
// the matcher's contract allows between two Rematch calls — and
// after each Rematch requires that (a) the arms matched the same edges and
// (b) the minimum matched weight equals the cold BottleneckPerfect's on
// the live residual graph. Small weights make equal-weight groups, and
// with them the dead-region transitions, common.
func FuzzBottleneckIncPeel(f *testing.F) {
	f.Add([]byte{3, 9, 0, 0, 1, 0, 1, 1, 2, 2, 1, 0, 1, 2, 2, 0, 1, 1, 0, 2, 2, 1, 1, 0, 2, 1, 3, 0, 1, 2})
	f.Add([]byte{5, 20, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 0, 4, 0, 1, 0, 2, 2, 1, 3, 1, 2, 0, 4, 3, 4, 1, 1, 2, 4, 0, 3, 3, 3, 2, 1, 1, 4, 4, 4, 2, 0, 1, 3, 0, 5, 1, 0, 2, 1, 0, 3})
	f.Add([]byte{8, 40, 7, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 0, 2, 0, 1, 3, 1})
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
		wS := append([]int64(nil), w0...)
		wB := append([]int64(nil), w0...)
		sc := NewBottleneckIncEngine(n, n, el, er, wS, EngineScalar)
		bs := NewBottleneckIncEngine(n, n, el, er, wB, EngineBitset)
		alive := make([]bool, len(el))
		for i := range alive {
			alive[i] = true
		}
		for round := 0; round < 4*len(el)+8; round++ {
			if d.next()%8 == 0 { // drop an arbitrary edge
				e := d.next() % len(el)
				alive[e] = false
				sc.Deactivate(e)
				bs.Deactivate(e)
			}
			res := bipartite.New(n, n)
			for i, a := range alive {
				if a {
					res.AddEdge(el[i], er[i], wS[i])
				}
			}
			coldM, coldOK := BottleneckPerfect(res)
			okS, okB := sc.Rematch(n), bs.Rematch(n)
			if okS != okB || okS != coldOK {
				t.Fatalf("round %d: Rematch %v (scalar), %v (bitset), cold %v", round, okS, okB, coldOK)
			}
			if !okS {
				return
			}
			var minW int64 = -1
			for l := 0; l < n; l++ {
				e := sc.MatchedEdge(l)
				if e != bs.MatchedEdge(l) {
					t.Fatalf("round %d: left %d matched to %d (scalar) vs %d (bitset)", round, l, e, bs.MatchedEdge(l))
				}
				if minW < 0 || wS[e] < minW {
					minW = wS[e]
				}
			}
			if cold := bottleneckValue(res, coldM); minW != cold {
				t.Fatalf("round %d: bottleneck %d, cold %d", round, minW, cold)
			}
			// Peel a uniform amount, at most the bottleneck, off the matching.
			amount := 1 + int64(d.next())%minW
			for l := 0; l < n; l++ {
				e := sc.MatchedEdge(l)
				wS[e] -= amount
				wB[e] -= amount
				if wS[e] == 0 {
					alive[e] = false
					sc.Deactivate(e)
					bs.Deactivate(e)
				}
			}
		}
	})
}

// FuzzIncrementalPeel is the Incremental counterpart of
// FuzzBottleneckIncPeel. It drives both Incremental arms through a random
// multigraph — parallel edges included, the case where the bitset arm must
// read the cell chain rather than the row bit — and a random sequence of
// deactivations (peel-like drops of matched edges, arbitrary edges, whole
// cells) and Resets, calling Augment between them. After each Augment the
// arms must agree on the matched edge of every left node and on the number
// of right nodes their searches visited, and the matching must be as large
// as a cold Maximum over the live edges. The input's leading bytes
// set the shape (up to 96 nodes a side, so row and column sweeps cross a
// word boundary), the average degree, the parallel-edge rate and the
// generator seed; the rest steers the operations.
func FuzzIncrementalPeel(f *testing.F) {
	f.Add([]byte{7, 7, 3, 1, 5, 0, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 7, 3, 0, 1})
	f.Add([]byte{19, 23, 5, 3, 9, 1, 0, 0, 6, 6, 1, 4, 2, 0, 3, 5, 0, 1, 6, 2, 4})
	f.Add([]byte{70, 66, 9, 2, 41, 7, 0, 1, 0, 2, 0, 3, 4, 0, 5, 6, 0, 1, 0, 2, 0, 3, 7, 0, 1})
	f.Add([]byte{64, 95, 4, 0, 13, 2, 4, 4, 0, 0, 6, 6, 5, 1, 2, 3})
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
		sc := NewIncrementalEngine(nL, nR, el, er, EngineScalar)
		bs := NewIncrementalEngine(nL, nR, el, er, EngineBitset)
		if sc.UsesBitset() || !bs.UsesBitset() {
			t.Fatalf("arms not pinned (scalar=%v bitset=%v)", sc.UsesBitset(), bs.UsesBitset())
		}
		alive := make([]bool, m)
		for i := range alive {
			alive[i] = true
		}
		drop := func(e int) {
			alive[e] = false
			sc.Deactivate(e)
			bs.Deactivate(e)
		}
		for round := 0; round < 64; round++ {
			a, b := sc.Augment(), bs.Augment()
			live := bipartite.New(nL, nR)
			for i, ok := range alive {
				if ok {
					live.AddEdge(el[i], er[i], 1)
				}
			}
			if want := Maximum(live).Size; a != want || b != want {
				t.Fatalf("round %d: Augment %d (scalar), %d (bitset), cold Maximum %d", round, a, b, want)
			}
			for l := 0; l < nL; l++ {
				if sc.MatchedEdge(l) != bs.MatchedEdge(l) {
					t.Fatalf("round %d: left %d matched to %d (scalar) vs %d (bitset)", round, l, sc.MatchedEdge(l), bs.MatchedEdge(l))
				}
			}
			if sc.Visits() != bs.Visits() {
				t.Fatalf("round %d: %d visits (scalar) vs %d (bitset)", round, sc.Visits(), bs.Visits())
			}
			for ops := 1 + d.next()%4; ops > 0; ops-- {
				switch op := d.next() % 8; {
				case op < 4: // peel-like: drop the matched edge of a left node
					if e := sc.MatchedEdge(d.next() % nL); e >= 0 {
						drop(e)
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
						sc.Reset()
						bs.Reset()
						for i := range alive {
							alive[i] = true
						}
					}
				}
			}
		}
	})
}
