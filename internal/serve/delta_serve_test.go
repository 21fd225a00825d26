package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/engine"
	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
	"redistgo/internal/trafficgen"
	"redistgo/internal/wire"
)

// deltaMatrix is a client-side mirror of the instance a delta chain
// evolves: the test applies the same edits locally and cold-solves the
// patched matrix to verify every delta response byte-for-byte.
type deltaMatrix struct {
	m   [][]int64
	n   int
	alg kpbs.Algorithm
	k   int
}

func newDeltaMatrix(rng *rand.Rand, n, k int, alg kpbs.Algorithm) *deltaMatrix {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			if rng.Intn(4) > 0 {
				m[i][j] = 1 + rng.Int63n(1<<10)
			}
		}
	}
	return &deltaMatrix{m: m, n: n, alg: alg, k: k}
}

func (d *deltaMatrix) request(id uint64) wire.SolveRequest {
	g := d.graph()
	return wire.SolveRequest{
		ID: id, K: d.k, Beta: 16, Algorithm: d.alg,
		N1: g.LeftCount(), N2: g.RightCount(), Edges: g.Edges(),
	}
}

func (d *deltaMatrix) graph() *bipartite.Graph {
	g, err := bipartite.FromMatrix(d.m)
	if err != nil {
		panic(err)
	}
	return g
}

// edits draws a random mixed edit batch and applies it to the mirror.
func (d *deltaMatrix) edits(rng *rand.Rand, count int) []kpbs.Edit {
	out := make([]kpbs.Edit, 0, count)
	for len(out) < count {
		l, r := rng.Intn(d.n), rng.Intn(d.n)
		var w int64
		switch rng.Intn(3) {
		case 0:
			w = 1 + rng.Int63n(1<<10)
		case 1:
			w = 0
		default:
			w = d.m[l][r] + 1 + rng.Int63n(64)
		}
		d.m[l][r] = w
		out = append(out, kpbs.Edit{L: l, R: r, W: w})
	}
	return out
}

// verifyDelta cold-solves the mirror and checks the server's raw delta
// response is its byte-identical encoding.
func (d *deltaMatrix) verifyDelta(t *testing.T, id uint64, raw []byte, tc wire.TraceContext) {
	t.Helper()
	local, err := kpbs.Solve(d.graph(), d.k, 16, kpbs.Options{Algorithm: d.alg})
	if err != nil {
		t.Fatalf("local cold solve: %v", err)
	}
	want, err := wire.EncodeSolveResp(id, local, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("delta response differs from a cold solve of the edited instance")
	}
}

// TestServeDeltaChain is the serve-side acceptance for delta solving: a
// solve opens a chain, every subsequent delta names the latest response
// id, and each response is byte-identical to a cold solve of the edited
// instance — with and without the solve cache, for both algorithms.
func TestServeDeltaChain(t *testing.T) {
	for _, tc := range []struct {
		name string
		alg  kpbs.Algorithm
		cfg  Config
	}{
		{"ggp", kpbs.GGP, Config{}},
		{"oggp", kpbs.OGGP, Config{}},
		{"ggp-cached", kpbs.GGP, Config{CacheSize: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			cfg := tc.cfg
			cfg.Obs = o
			s := newServer(t, cfg)
			cl, err := Dial(s.Addr(), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(11))
			d := newDeltaMatrix(rng, 12, 3, tc.alg)

			req := d.request(1)
			if _, raw, err := cl.Solve(req); err != nil {
				t.Fatalf("base solve: %v", err)
			} else {
				verify(t, req, raw)
			}
			base := req.ID
			for round := 0; round < 6; round++ {
				edits := d.edits(rng, 1+rng.Intn(8))
				id := uint64(round + 2)
				_, raw, err := cl.SolveDelta(wire.DeltaRequest{ID: id, Base: base, Edits: edits})
				if err != nil {
					t.Fatalf("delta round %d: %v", round, err)
				}
				d.verifyDelta(t, id, raw, wire.TraceContext{})
				base = id
			}
			cl.Close()
			waitSessionsDrained(t, o)
			snap := o.Metrics.Snapshot()
			var deltaTotal int64
			for name, v := range snap.Counters {
				if len(name) > 27 && name[:27] == "solver.delta.requests_total" {
					deltaTotal += v
				}
			}
			if deltaTotal != 6 {
				t.Errorf("delta path counters sum to %d, want 6", deltaTotal)
			}
			if got := snap.Counters["serve.responses_total"]; got != 7 {
				t.Errorf("responses_total = %d, want 7", got)
			}
		})
	}
}

// TestServeDeltaTraced: a traced delta echoes the trace id with the
// server's handling time, and the payload still matches a local cold
// solve re-encoded under the echoed context.
func TestServeDeltaTraced(t *testing.T) {
	s := newServer(t, Config{})
	cl, err := Dial(s.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(21))
	d := newDeltaMatrix(rng, 8, 2, kpbs.GGP)
	req := d.request(1)
	if _, _, err := cl.Solve(req); err != nil {
		t.Fatal(err)
	}
	edits := d.edits(rng, 4)
	dreq := wire.DeltaRequest{ID: 2, Base: 1, Edits: edits,
		Trace: wire.TraceContext{ID: [16]byte{0xD3, 15: 0x7A}}}
	resp, raw, err := cl.SolveDeltaFull(dreq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace.ID != dreq.Trace.ID {
		t.Fatalf("response trace id %x, want the request's %x", resp.Trace.ID, dreq.Trace.ID)
	}
	if raw[0] != wire.CodecV2 {
		t.Fatalf("traced delta response version %d, want CodecV2", raw[0])
	}
	d.verifyDelta(t, 2, raw, resp.Trace)
}

// TestServeDeltaUnknownBase: deltas against ids that were never issued,
// or that a successful delta superseded, are refused with unknown-base
// and the session stays usable.
func TestServeDeltaUnknownBase(t *testing.T) {
	s := newServer(t, Config{})
	cl, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(31))
	d := newDeltaMatrix(rng, 8, 2, kpbs.GGP)

	expectUnknown := func(base uint64) {
		t.Helper()
		var rej *RejectError
		if _, _, err := cl.SolveDelta(wire.DeltaRequest{ID: 0, Base: base}); !errors.As(err, &rej) {
			t.Fatalf("delta against base %d: %v, want reject", base, err)
		} else if rej.Code != wire.RejectUnknownBase {
			t.Fatalf("delta against base %d rejected with %s, want %s", base, rej.Code, wire.RejectUnknownBase)
		}
	}

	expectUnknown(99) // never issued

	if _, _, err := cl.Solve(d.request(1)); err != nil {
		t.Fatal(err)
	}
	edits := d.edits(rng, 3)
	if _, raw, err := cl.SolveDelta(wire.DeltaRequest{ID: 2, Base: 1, Edits: edits}); err != nil {
		t.Fatal(err)
	} else {
		d.verifyDelta(t, 2, raw, wire.TraceContext{})
	}
	expectUnknown(1) // superseded by response 2

	// The chain is still addressable under its latest id.
	edits = d.edits(rng, 3)
	if _, raw, err := cl.SolveDelta(wire.DeltaRequest{ID: 3, Base: 2, Edits: edits}); err != nil {
		t.Fatalf("delta against the advanced base: %v", err)
	} else {
		d.verifyDelta(t, 3, raw, wire.TraceContext{})
	}
}

// TestServeDeltaEvictedBase: the per-session base registry is bounded;
// opening more chains than MaxBases evicts the oldest, whose id is then
// refused, while the newest chains keep answering.
func TestServeDeltaEvictedBase(t *testing.T) {
	s := newServer(t, Config{MaxBases: 2})
	cl, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(41))
	mats := make([]*deltaMatrix, 3)
	for i := range mats {
		mats[i] = newDeltaMatrix(rng, 8, 2, kpbs.GGP)
		if _, _, err := cl.Solve(mats[i].request(uint64(i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	var rej *RejectError
	if _, _, err := cl.SolveDelta(wire.DeltaRequest{ID: 10, Base: 1}); !errors.As(err, &rej) {
		t.Fatalf("delta against the evicted base: %v, want reject", err)
	} else if rej.Code != wire.RejectUnknownBase {
		t.Fatalf("evicted base rejected with %s, want %s", rej.Code, wire.RejectUnknownBase)
	}
	edits := mats[2].edits(rng, 4)
	if _, raw, err := cl.SolveDelta(wire.DeltaRequest{ID: 11, Base: 3, Edits: edits}); err != nil {
		t.Fatalf("delta against a retained base: %v", err)
	} else {
		mats[2].verifyDelta(t, 11, raw, wire.TraceContext{})
	}
}

// TestServeDeltaBadEdits: an edit outside the base's matrix is refused
// as bad-request without poisoning the chain — the same base answers the
// corrected delta.
func TestServeDeltaBadEdits(t *testing.T) {
	s := newServer(t, Config{})
	cl, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(51))
	d := newDeltaMatrix(rng, 8, 2, kpbs.GGP)
	if _, _, err := cl.Solve(d.request(1)); err != nil {
		t.Fatal(err)
	}
	var rej *RejectError
	bad := wire.DeltaRequest{ID: 2, Base: 1, Edits: []kpbs.Edit{{L: 8, R: 0, W: 1}}}
	if _, _, err := cl.SolveDelta(bad); !errors.As(err, &rej) {
		t.Fatalf("out-of-matrix edit: %v, want reject", err)
	} else if rej.Code != wire.RejectBadRequest {
		t.Fatalf("out-of-matrix edit rejected with %s, want %s", rej.Code, wire.RejectBadRequest)
	}
	edits := d.edits(rng, 4)
	if _, raw, err := cl.SolveDelta(wire.DeltaRequest{ID: 3, Base: 1, Edits: edits}); err != nil {
		t.Fatalf("delta after a refused edit list: %v", err)
	} else {
		d.verifyDelta(t, 3, raw, wire.TraceContext{})
	}
}

// TestServeDeltaTooLargeDropsChain: when the delta solve succeeds but the
// response exceeds a frame (RejectTooLarge), the chain's retained Result
// already reflects the edited instance while the registry still keys it
// by the old base id. The chain must be dropped: a later delta naming
// that id would otherwise be applied on top of the rejected edits and
// silently return a schedule for the wrong instance.
func TestServeDeltaTooLargeDropsChain(t *testing.T) {
	s := newServer(t, Config{})
	cl, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Base: a diagonal instance — cheap to solve, tiny response. At k = 32
	// the densified 180×180 matrix below encodes to about 2.56 MB of
	// response; at k = 2 it would take 410 KB and fit a frame.
	const n = 180
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		m[i][i] = 64
	}
	g, err := bipartite.FromMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	base := wire.SolveRequest{ID: 1, K: 32, Beta: 16, Algorithm: kpbs.GGP,
		N1: n, N2: n, Edges: g.Edges()}
	if _, _, err := cl.Solve(base); err != nil {
		t.Fatal(err)
	}

	// Densify the whole matrix: the edited instance solves fine, but its
	// schedule encodes past wire.MaxPayload, failing after the solve.
	rng := rand.New(rand.NewSource(71))
	edits := make([]kpbs.Edit, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				edits = append(edits, kpbs.Edit{L: i, R: j, W: 1 + rng.Int63n(1<<20)})
			}
		}
	}
	var rej *RejectError
	if _, _, err := cl.SolveDelta(wire.DeltaRequest{ID: 2, Base: 1, Edits: edits}); !errors.As(err, &rej) {
		t.Fatalf("densifying delta: %v, want too-large reject", err)
	} else if rej.Code != wire.RejectTooLarge {
		t.Fatalf("densifying delta rejected with %s, want %s", rej.Code, wire.RejectTooLarge)
	}

	// The old base id must no longer be addressable.
	if _, _, err := cl.SolveDelta(wire.DeltaRequest{ID: 3, Base: 1,
		Edits: []kpbs.Edit{{L: 0, R: 0, W: 128}}}); !errors.As(err, &rej) {
		t.Fatalf("delta against the dropped base: %v, want reject", err)
	} else if rej.Code != wire.RejectUnknownBase {
		t.Fatalf("delta against the dropped base rejected with %s, want %s", rej.Code, wire.RejectUnknownBase)
	}

	// The session stays healthy: a fresh solve opens a new chain that
	// answers deltas byte-identically.
	d := newDeltaMatrix(rand.New(rand.NewSource(72)), 8, 2, kpbs.GGP)
	if _, _, err := cl.Solve(d.request(4)); err != nil {
		t.Fatal(err)
	}
	fresh := d.edits(rng, 3)
	if _, raw, err := cl.SolveDelta(wire.DeltaRequest{ID: 5, Base: 4, Edits: fresh}); err != nil {
		t.Fatalf("delta after the dropped chain: %v", err)
	} else {
		d.verifyDelta(t, 5, raw, wire.TraceContext{})
	}
}

// TestDeltaJobRecoversPanic: a delta repair runs on a pool worker under
// the pool's panic guard, so a panic in the repair hot paths fails the one
// request (via the solve-failed path, which drops the chain) instead of
// crashing the daemon. A job with no chain faults at once.
func TestDeltaJobRecoversPanic(t *testing.T) {
	pool := engine.NewPool(engine.PoolOptions{Workers: 1})
	defer pool.Close()
	done := make(chan engine.Result, 1)
	if err := pool.TrySubmit(&deltaJob{edits: []kpbs.Edit{{L: 0, R: 0, W: 1}}}, done); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.Schedule != nil || res.Err == nil || !strings.Contains(res.Err.Error(), "panicked") {
		t.Fatalf("panicking delta job = (%v, %v), want a panic error", res.Schedule, res.Err)
	}
}

// TestBaseRegistryReleasesSlots: eviction and removal must clear the
// vacated backing-array slots so evicted chains (and their warm Results)
// are promptly collectible rather than pinned until the next append
// reallocates.
func TestBaseRegistryReleasesSlots(t *testing.T) {
	r := newBaseRegistry(2)
	r.chains = make([]*baseChain, 0, 8) // one backing array for the whole test
	r.register(1, nil, 1, 16, kpbs.Options{})
	backing := r.chains // aliases the array from slot 0
	r.register(2, nil, 1, 16, kpbs.Options{})
	r.register(3, nil, 1, 16, kpbs.Options{}) // evicts chain 1
	if r.lookup(1) != nil {
		t.Fatal("chain 1 should have been evicted")
	}
	if backing[:1][0] != nil {
		t.Fatal("evicted chain still reachable through the backing array slot")
	}
	c := r.lookup(2)
	if c == nil {
		t.Fatal("chain 2 should still be registered")
	}
	r.remove(c)
	if got := r.chains[:2][1]; got != nil {
		t.Fatal("removed chain's vacated tail slot still holds a pointer")
	}
	if r.lookup(3) == nil {
		t.Fatal("chain 3 should survive the removal")
	}
}

// TestServeCacheHit: with the solve cache on, a repeat of an identical
// instance is answered from the cache (hit counter, byte-identical), and a
// delta on it is answered byte-identically too.
func TestServeCacheHit(t *testing.T) {
	o := obs.New()
	s := newServer(t, Config{CacheSize: 4, Obs: o})
	cl, err := Dial(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(61))
	d := newDeltaMatrix(rng, 10, 2, kpbs.GGP)

	first := d.request(1)
	_, raw1, err := cl.Solve(first)
	if err != nil {
		t.Fatal(err)
	}
	second := d.request(2)
	_, raw2, err := cl.Solve(second)
	if err != nil {
		t.Fatal(err)
	}
	// Identical instances, different request ids: the payloads differ only
	// in the id header; both must match their local cold solves.
	verify(t, first, raw1)
	verify(t, second, raw2)
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["solver.cache.hits_total"]; got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := snap.Counters["solver.cache.misses_total"]; got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}

	edits := d.edits(rng, 4)
	if _, raw, err := cl.SolveDelta(wire.DeltaRequest{ID: 3, Base: 2, Edits: edits}); err != nil {
		t.Fatal(err)
	} else {
		d.verifyDelta(t, 3, raw, wire.TraceContext{})
	}
}

// TestServeShardMode: a served solve runs in Config.Shard, and so does a
// delta on its base. A block-diagonal 3×(4×4) instance, on which the
// monolith and the sharded pipeline produce different schedules, is served
// under ShardOff and under ShardAuto; each response must be byte-identical
// to kpbs.Solve in that mode, before and after a delta.
func TestServeShardMode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := trafficgen.BlockDiagonal(rng, 3, 4, 0, 1, 100)
	edited := make([][]int64, len(base))
	for i := range base {
		edited[i] = append([]int64(nil), base[i]...)
	}
	edits := []kpbs.Edit{{L: 0, R: 1, W: 1 + base[0][1]%50}, {L: 9, R: 10, W: 77}}
	for _, e := range edits {
		edited[e.L][e.R] = e.W
	}
	// want encodes kpbs.Solve of the matrix in the mode.
	want := func(m [][]int64, alg kpbs.Algorithm, mode kpbs.ShardMode, id uint64) []byte {
		t.Helper()
		g, err := bipartite.FromMatrix(m)
		if err != nil {
			t.Fatal(err)
		}
		s, err := kpbs.Solve(g, 6, 1, kpbs.Options{Algorithm: alg, Shard: mode})
		if err != nil {
			t.Fatal(err)
		}
		p, err := wire.EncodeSolveResp(id, s, wire.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	g, err := bipartite.FromMatrix(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []kpbs.Algorithm{kpbs.GGP, kpbs.OGGP} {
		for _, m := range [][][]int64{base, edited} {
			if bytes.Equal(want(m, alg, kpbs.ShardOff, 1), want(m, alg, kpbs.ShardAuto, 1)) {
				t.Fatalf("%v: the instance does not tell the shard modes apart", alg)
			}
		}
		for _, mode := range []kpbs.ShardMode{kpbs.ShardOff, kpbs.ShardAuto} {
			s := newServer(t, Config{Shard: mode})
			cl, err := Dial(s.Addr(), 1)
			if err != nil {
				t.Fatal(err)
			}
			req := wire.SolveRequest{ID: 1, K: 6, Beta: 1, Algorithm: alg,
				N1: g.LeftCount(), N2: g.RightCount(), Edges: g.Edges()}
			if _, raw, err := cl.Solve(req); err != nil {
				t.Fatal(err)
			} else if !bytes.Equal(raw, want(base, alg, mode, 1)) {
				t.Fatalf("%v shard %v: served schedule differs from kpbs.Solve in that mode", alg, mode)
			}
			if _, raw, err := cl.SolveDelta(wire.DeltaRequest{ID: 2, Base: 1, Edits: edits}); err != nil {
				t.Fatal(err)
			} else if !bytes.Equal(raw, want(edited, alg, mode, 2)) {
				t.Fatalf("%v shard %v: delta response differs from kpbs.Solve in that mode", alg, mode)
			}
			cl.Close()
		}
	}
}
