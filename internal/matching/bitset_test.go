package matching

import (
	"math/rand"
	"testing"
)

// --- engine selection -------------------------------------------------------

func TestEngineResolution(t *testing.T) {
	// Dense 16x16: 256 edges >= 8*16*1 = 128 -> auto picks bitset.
	if !BitsetEligible(16, 16, 256) {
		t.Fatal("dense 16x16 should be bitset-eligible")
	}
	// Sparse 16x16: 40 edges < 128 -> auto stays scalar.
	if BitsetEligible(16, 16, 40) {
		t.Fatal("sparse 16x16 should not be bitset-eligible")
	}
	// Huge sparse instances exceed the cell cap: the side tables would be
	// O(nL*nR), so even a forced bitset request must fall back to scalar.
	if bitsetRepresentable(50_000, 50_000) {
		t.Fatal("50k x 50k must not be bitset-representable")
	}
	// 512x512 sits exactly at the cell cap (1<<18); 600x600 exceeds it.
	b := NewBottleneckInc(512, 512, nil, nil, nil, 0, EngineBitset, ModeAny)
	if !b.UsesBitset() {
		t.Fatal("explicit bitset request on a representable shape ignored")
	}
	big := NewBottleneckInc(600, 600, nil, nil, nil, 0, EngineBitset, ModeAny)
	if big.UsesBitset() {
		t.Fatal("bitset request on a non-representable shape must fall back")
	}
	if got := rowWords(65); got != 2 {
		t.Fatalf("rowWords(65) = %d, want 2", got)
	}
	if got := rowWords(64); got != 1 {
		t.Fatalf("rowWords(64) = %d, want 1", got)
	}
	for _, tc := range []struct {
		e    Engine
		want string
	}{{EngineAuto, "auto"}, {EngineScalar, "scalar"}, {EngineBitset, "bitset"}} {
		if tc.e.String() != tc.want {
			t.Fatalf("Engine(%d).String() = %q, want %q", tc.e, tc.e.String(), tc.want)
		}
	}
}

// TestBitsetRowsMatchAdjacency cross-checks the ModeAny bitset rows, which
// hold every edge from Reset on, against the independent
// bipartite.AdjacencyRows builder on graphs whose width straddles a word
// boundary.
func TestBitsetRowsMatchAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{5, 63, 64, 65, 66} {
		g := randomRegularish(rng, n, 3*n, 9)
		el, er, w := edgeArrays(g)
		b := NewBottleneckInc(n, n, el, er, w, len(el), EngineBitset, ModeAny)
		if !b.UsesBitset() {
			t.Fatalf("n=%d: bitset arm not selected", n)
		}
		want := g.AdjacencyRows(nil)
		if len(want) != len(b.rows) {
			t.Fatalf("n=%d: %d row words, want %d", n, len(b.rows), len(want))
		}
		for i := range want {
			if b.rows[i] != want[i] {
				t.Fatalf("n=%d: row word %d = %#x, want %#x", n, i, b.rows[i], want[i])
			}
		}
	}
}

// --- scalar vs bitset differentials ----------------------------------------

// TestIncrementalEngineDifferential runs both ModeAny arms through the
// same Rematch / Deactivate interleaving and requires identical matched
// edges and visit counts at every step — the matching-level form of the
// byte-identical schedules contract.
func TestIncrementalEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(70)
		g := randomRegularish(rng, n, rng.Intn(4*n), 9)
		el, er, w := edgeArrays(g)
		m := len(el)
		sc := NewBottleneckInc(n, n, el, er, w, m, EngineScalar, ModeAny)
		bs := NewBottleneckInc(n, n, el, er, w, m, EngineBitset, ModeAny)
		if sc.UsesBitset() || !bs.UsesBitset() {
			t.Fatalf("trial %d: arms not pinned (scalar=%v bitset=%v)", trial, sc.UsesBitset(), bs.UsesBitset())
		}
		compare := func(stage string) {
			t.Helper()
			if a, b := sc.Rematch(n), bs.Rematch(n); a != b {
				t.Fatalf("trial %d %s: Rematch %v (scalar) vs %v (bitset)", trial, stage, a, b)
			}
			if sc.Size() != bs.Size() {
				t.Fatalf("trial %d %s: sizes %d vs %d", trial, stage, sc.Size(), bs.Size())
			}
			for l := 0; l < n; l++ {
				if sc.MatchedEdge(l) != bs.MatchedEdge(l) {
					t.Fatalf("trial %d %s: left %d matched to %d (scalar) vs %d (bitset)",
						trial, stage, l, sc.MatchedEdge(l), bs.MatchedEdge(l))
				}
			}
			if sc.Visits() != bs.Visits() {
				t.Fatalf("trial %d %s: %d visits (scalar) vs %d (bitset)", trial, stage, sc.Visits(), bs.Visits())
			}
		}
		compare("initial")
		// Deactivate edges in a random order, re-matching after each batch.
		for _, e := range rng.Perm(m) {
			sc.Deactivate(e)
			bs.Deactivate(e)
			if rng.Intn(3) == 0 {
				compare("after deactivation")
			}
		}
		sc.Reset()
		bs.Reset()
		compare("after reset")
	}
}

// TestBottleneckIncEngineDifferential drives both BottleneckInc arms
// through a peeling loop (rematch, peel the bottleneck) and requires
// identical matched edges, emitted edges and deaths each round.
func TestBottleneckIncEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(66)
		g := randomRegularish(rng, n, rng.Intn(4*n), 7)
		el, er, w0 := edgeArrays(g)
		wSc := append([]int64(nil), w0...)
		wBs := append([]int64(nil), w0...)
		sc := NewBottleneckInc(n, n, el, er, wSc, len(el), EngineScalar, ModeBottleneck)
		bs := NewBottleneckInc(n, n, el, er, wBs, len(el), EngineBitset, ModeBottleneck)
		if sc.UsesBitset() || !bs.UsesBitset() {
			t.Fatalf("trial %d: arms not pinned", trial)
		}
		for round := 0; ; round++ {
			okS := sc.Rematch(n)
			okB := bs.Rematch(n)
			if okS != okB {
				t.Fatalf("trial %d round %d: Rematch %v (scalar) vs %v (bitset)", trial, round, okS, okB)
			}
			if !okS {
				break
			}
			for l := 0; l < n; l++ {
				eS, eB := sc.MatchedEdge(l), bs.MatchedEdge(l)
				if eS != eB {
					t.Fatalf("trial %d round %d: left %d matched to %d (scalar) vs %d (bitset)",
						trial, round, l, eS, eB)
				}
				if wSc[eS] != wBs[eS] {
					t.Fatalf("trial %d round %d: weight arrays diverged at edge %d", trial, round, eS)
				}
			}
			if sc.Bottleneck() != bs.Bottleneck() {
				t.Fatalf("trial %d round %d: bottleneck %d (scalar) vs %d (bitset)", trial, round, sc.Bottleneck(), bs.Bottleneck())
			}
			cS, dS := sc.Peel(nil, sc.Bottleneck())
			cB, dB := bs.Peel(nil, bs.Bottleneck())
			if dS != dB || len(cS) != len(cB) {
				t.Fatalf("trial %d round %d: peel emitted %d and killed %d (scalar) vs %d and %d (bitset)", trial, round, len(cS), dS, len(cB), dB)
			}
			for i := range cS {
				if cS[i] != cB[i] {
					t.Fatalf("trial %d round %d: emitted edge %d is %d (scalar) vs %d (bitset)", trial, round, i, cS[i], cB[i])
				}
			}
		}
	}
}
