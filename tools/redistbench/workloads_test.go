package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/trafficgen"
	"redistgo/internal/wire"
)

// small returns a copy of the named workload cut down to a few instances,
// keeping its generator, loop and solver parameters. The power-law
// instances shrink to 64 nodes per side, whose solves take milliseconds.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := *workloadByName(name)
	w.pool, w.rounds, w.replay = min(w.pool, 8), min(w.rounds, 3), 0
	if name == "powerlaw256-oggp" {
		w.gen = func(rng *rand.Rand, _ int) ([][]int64, kpbs.Algorithm, error) {
			return trafficgen.PowerLawSparse(rng, 64, 64, 300, 1.3, 1, 1000), kpbs.OGGP, nil
		}
	}
	return &w
}

func applyEdits(m [][]int64, edits []kpbs.Edit) {
	for _, e := range edits {
		m[e.L][e.R] = e.W
	}
}

// TestChainCycleRestoresBase replays a chain's edit cycle on its base
// matrix: every position must reach the state the chain expects there, the
// forward rounds must reach the last state, and the inverse rounds must
// restore the base exactly, so the cycle can repeat.
func TestChainCycleRestoresBase(t *testing.T) {
	w := *workloadByName("delta64-stream")
	w.rounds = 8
	c, err := w.newChain(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.states) != w.rounds+1 || len(c.rounds) != 2*w.rounds {
		t.Fatalf("chain has %d states and %d rounds, want %d and %d", len(c.states), len(c.rounds), w.rounds+1, 2*w.rounds)
	}
	m := make([][]int64, c.states[0].g.LeftCount())
	for i := range m {
		m[i] = make([]int64, c.states[0].g.RightCount())
	}
	for _, e := range c.states[0].g.Edges() {
		m[e.L][e.R] = e.Weight
	}
	base := make([][]int64, len(m))
	for i := range m {
		base[i] = append([]int64(nil), m[i]...)
	}
	for pos, edits := range c.rounds {
		applyEdits(m, edits)
		g, err := bipartite.FromMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Edges(), c.stateAfter(pos).g.Edges()) {
			t.Fatalf("after cycle position %d the matrix differs from the expected state", pos)
		}
		if pos == w.rounds-1 && c.stateAfter(pos) != c.states[w.rounds] {
			t.Fatalf("the forward rounds end at the wrong state")
		}
	}
	if !reflect.DeepEqual(m, base) {
		t.Fatal("forward then inverse rounds did not restore the base matrix")
	}
}

// fingerprint hashes a workload's generated requests, edits and expected
// responses.
func fingerprint(t *traffic) [32]byte {
	h := sha256.New()
	for _, it := range t.items {
		p, err := wire.EncodeSolveReq(it.req)
		if err != nil {
			panic(err)
		}
		h.Write(p)
		fmt.Fprint(h, it.want, it.edits, it.ratio)
	}
	for _, c := range t.chains {
		fmt.Fprint(h, c.rounds)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestSeedDeterminism requires every workload to generate identical pools
// and expected responses from the same seed and different ones from
// another seed.
func TestSeedDeterminism(t *testing.T) {
	for _, wl := range workloads {
		w := small(t, wl.name)
		gen := func(seed int64) [32]byte {
			tr, err := w.generate(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			return fingerprint(tr)
		}
		a, b, c := gen(5), gen(5), gen(6)
		if a != b {
			t.Errorf("%s: seed 5 generated two different workloads", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 generated the same workload", w.name)
		}
	}
}

// TestLayoutMasksOnlyPerRequestFields checks the set-up-derived response
// layout: responses differing only in id, trace id or handling time match,
// and a changed version byte or schedule byte does not.
func TestLayoutMasksOnlyPerRequestFields(t *testing.T) {
	sched := &kpbs.Schedule{Beta: 3, Steps: []kpbs.Step{{Comms: []kpbs.Comm{{L: 0, R: 1, Amount: 7}}, Duration: 7}}}
	for _, traced := range []bool{false, true} {
		lay, err := deriveLayout(traced)
		if err != nil {
			t.Fatal(err)
		}
		var tc wire.TraceContext
		if traced {
			tc = wire.TraceContext{ID: [16]byte{9, 9, 9}, TS: 1234}
		}
		want, err := wire.EncodeSolveResp(0, sched, wire.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		body := want[9:] // CodecV1: version byte, then the 8-byte id
		got, err := wire.EncodeSolveResp(42, sched, tc)
		if err != nil {
			t.Fatal(err)
		}
		if !lay.match(got, digestOf(body)) {
			t.Errorf("traced=%v: a response differing only in per-request fields did not match", traced)
		}
		for _, at := range []int{0, len(got) - 1} {
			bad := append([]byte(nil), got...)
			bad[at] ^= 1
			if lay.match(bad, digestOf(body)) {
				t.Errorf("traced=%v: a response with byte %d changed matched", traced, at)
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric and workload names,
// units and directions in step with BENCHMARK.json at the repository root.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	type entry struct{ name, unit, better string }
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	var gotE2E, wantE2E, gotLayer, wantLayer []entry
	for _, m := range bf.EndToEnd {
		gotE2E = append(gotE2E, entry{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, entry{m.name, m.unit, better(m.higher)})
	}
	for _, m := range bf.PerLayer {
		gotLayer = append(gotLayer, entry{m.Name, m.Unit, m.Better})
	}
	for _, m := range perLayer {
		wantLayer = append(wantLayer, entry{m.name, m.unit, better(m.higher)})
	}
	if !reflect.DeepEqual(gotE2E, wantE2E) {
		t.Errorf("BENCHMARK.json end_to_end %v, catalogue %v", gotE2E, wantE2E)
	}
	if !reflect.DeepEqual(gotLayer, wantLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, catalogue %v", gotLayer, wantLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, want %s at %d", names, w.name, i)
		}
	}
}
