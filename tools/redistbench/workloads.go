package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/trafficgen"
	"redistgo/internal/wire"
)

// sessions is the number of client sessions, and so TCP connections, every
// workload drives. The benchmark host has two CPUs; one session per CPU
// keeps the load generator from oversubscribing them.
const sessions = 2

// workload is one traffic mix. Pool workloads cycle each session through a
// pool of instances; the delta workload gives each session one MsgDeltaReq
// chain. README.md records why each workload exists.
type workload struct {
	name   string
	open   bool          // open loop at rate; closed loop otherwise
	rate   float64       // open loop: requests per second over all sessions
	window time.Duration // measured window when -seconds is not given
	// tailPct is the latency_tail_ms percentile, lowered when a window's
	// samples cannot support it. Power-law serves about 6 requests per
	// second, so a 20 s window supports p75 but not reliably p90. On
	// mixed-small the slowest 1% are the heaviest few of the pool's 64 dense
	// OGGP instances (3 to 7 ms each), so p99 moved by a quarter from one
	// seed to the next; p90 moved as little as the median.
	tailPct float64
	k       int
	beta    int64
	pool    int // pool workloads: instances in the pool
	rounds  int // delta workload: forward edit rounds per chain
	replay  int // instances the traced replay walks; 0 means all
	// gen draws pool instance i (or a chain's base) and its algorithm.
	gen func(rng *rand.Rand, i int) ([][]int64, kpbs.Algorithm, error)
}

// workloads are the benchmark's traffic mixes, in reporting order.
var workloads = []*workload{
	{name: "dense64-ggp", window: 20 * time.Second, tailPct: 99, k: 32, beta: 1, pool: 16, gen: genDense64},
	{name: "powerlaw256-oggp", window: 30 * time.Second, tailPct: 75, k: 32, beta: 1, pool: 32, replay: 4, gen: genPowerLaw256},
	{name: "delta64-stream", window: 20 * time.Second, tailPct: 99, k: 32, beta: 1, rounds: 32, gen: genDense64},
	{name: "mixed-small", open: true, rate: 400, window: 20 * time.Second, tailPct: 90, k: 3, beta: 64, pool: 1024, gen: genMixedSmall},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func genDense64(rng *rand.Rand, _ int) ([][]int64, kpbs.Algorithm, error) {
	return trafficgen.DenseUniform(rng, 64, 64, 1, 20), kpbs.GGP, nil
}

func genPowerLaw256(rng *rand.Rand, _ int) ([][]int64, kpbs.Algorithm, error) {
	return trafficgen.PowerLawSparse(rng, 256, 256, 2000, 1.3, 1, 1000), kpbs.OGGP, nil
}

// genMixedSmall cycles through eight trafficgen families at 16 nodes per
// side; each family alternates between GGP and OGGP from one cycle to the
// next.
func genMixedSmall(rng *rand.Rand, i int) ([][]int64, kpbs.Algorithm, error) {
	const n, minW, maxW = 16, 1, 1 << 16
	alg := kpbs.GGP
	if i/8%2 == 1 {
		alg = kpbs.OGGP
	}
	size := minW + rng.Int63n(maxW-minW)
	var m [][]int64
	var err error
	switch i % 8 {
	case 0:
		m = trafficgen.DenseUniform(rng, n, n, minW, maxW)
	case 1:
		m = trafficgen.SparseUniform(rng, n, n, 0.3, minW, maxW)
	case 2:
		m, err = trafficgen.Permutation(rng.Perm(n), size)
	case 3:
		m, err = trafficgen.Shift(n, 1+rng.Intn(n-1), size)
	case 4:
		m, err = trafficgen.AllToAll(n, size, false)
	case 5:
		m = trafficgen.Chain(rng, n, minW, maxW)
	case 6:
		m = trafficgen.StarForest(rng, 4, n/4, minW, maxW)
	default:
		m = trafficgen.BlockDiagonal(rng, 4, n/4, 0, minW, maxW)
	}
	return m, alg, err
}

// item is one instance the server is asked to solve, with the answer it must
// give.
type item struct {
	req wire.SolveRequest // ID and Trace are filled in per request
	g   *bipartite.Graph
	// edits is one EditStream round on the instance (pool workloads), which
	// the traced replay applies as a delta.
	edits []kpbs.Edit
	want  digest  // the expected response payload after the per-request header
	ratio float64 // schedule cost / kpbs.LowerBound
}

// digest identifies an expected response body by its length and a 64-bit
// hash. Holding digests rather than the bodies (661 KB each on
// dense64-ggp) keeps the benchmark's own memory out of peak_heap_mb.
type digest struct {
	size int
	sum  uint64
}

var bodySeed = maphash.MakeSeed()

func digestOf(body []byte) digest { return digest{len(body), maphash.Bytes(bodySeed, body)} }

// chain is one session's delta lineage. Its edit cycle runs the forward
// rounds, then their inverses newest first, so the states repeat and every
// expected response is known at set-up.
type chain struct {
	states []*item       // states[j] is the base after j forward rounds
	rounds [][]kpbs.Edit // one cycle of edit rounds
}

// stateAfter is the instance the chain holds after cycle position pos.
func (c *chain) stateAfter(pos int) *item {
	fwd := len(c.rounds) / 2
	if pos < fwd {
		return c.states[pos+1]
	}
	return c.states[2*fwd-1-pos]
}

// traffic is a workload's generated inputs.
type traffic struct {
	items  []*item  // pool instances, or every state of every chain
	chains []*chain // delta workload: one per session
}

// generate draws the workload's inputs from seed and runs the correctness
// gate over every instance.
func (w *workload) generate(seed int64) (*traffic, error) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(w.name)) // hash writes never fail
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	t := &traffic{}
	if w.rounds > 0 {
		for s := 0; s < sessions; s++ {
			c, err := w.newChain(rng)
			if err != nil {
				return nil, err
			}
			t.chains = append(t.chains, c)
			t.items = append(t.items, c.states...)
		}
	} else {
		for i := 0; i < w.pool; i++ {
			m, alg, err := w.gen(rng, i)
			if err != nil {
				return nil, fmt.Errorf("%s instance %d: %w", w.name, i, err)
			}
			it, err := w.newItem(m, alg)
			if err != nil {
				return nil, fmt.Errorf("%s instance %d: %w", w.name, i, err)
			}
			it.edits = editRound(rng.Int63(), m, it.g.EdgeCount())
			t.items = append(t.items, it)
		}
	}
	if err := w.gate(t.items); err != nil {
		return nil, err
	}
	return t, nil
}

func (w *workload) newItem(m [][]int64, alg kpbs.Algorithm) (*item, error) {
	g, err := bipartite.FromMatrix(m)
	if err != nil {
		return nil, err
	}
	if g.EdgeCount() == 0 {
		return nil, errors.New("generated an instance without transfers")
	}
	return &item{
		g: g,
		req: wire.SolveRequest{K: w.k, Beta: w.beta, Algorithm: alg,
			N1: g.LeftCount(), N2: g.RightCount(), Edges: g.Edges()},
	}, nil
}

// editRound draws one EditStream round on m at the rate that edits about 5%
// as many cells as m has transfers (the delta workload's rate on a dense
// matrix).
func editRound(seed int64, m [][]int64, transfers int) []kpbs.Edit {
	rate := 0.05 * float64(transfers) / float64(len(m)*len(m[0]))
	var out []kpbs.Edit
	for _, e := range trafficgen.NewEditStream(seed, m, rate).Next() {
		out = append(out, kpbs.Edit(e))
	}
	return out
}

// newChain draws a base and w.rounds EditStream rounds at rate 0.05, and
// builds the inverse of each round from the cells' values before it.
func (w *workload) newChain(rng *rand.Rand) (*chain, error) {
	base, alg, err := w.gen(rng, 0)
	if err != nil {
		return nil, err
	}
	stream := trafficgen.NewEditStream(rng.Int63(), base, 0.05)
	cur := make([][]int64, len(base))
	for i, row := range base {
		cur[i] = append([]int64(nil), row...)
	}
	c := &chain{rounds: make([][]kpbs.Edit, 2*w.rounds)}
	it, err := w.newItem(base, alg)
	if err != nil {
		return nil, err
	}
	c.states = append(c.states, it)
	for r := 0; r < w.rounds; r++ {
		var fwd, inv []kpbs.Edit
		seen := map[[2]int]bool{}
		for _, e := range stream.Next() {
			if cell := [2]int{e.L, e.R}; !seen[cell] {
				seen[cell] = true
				inv = append(inv, kpbs.Edit{L: e.L, R: e.R, W: cur[e.L][e.R]})
			}
			fwd = append(fwd, kpbs.Edit(e))
		}
		for _, e := range fwd {
			cur[e.L][e.R] = e.W
		}
		c.rounds[r], c.rounds[2*w.rounds-1-r] = fwd, inv
		if it, err = w.newItem(stream.Matrix(), alg); err != nil {
			return nil, fmt.Errorf("%s chain round %d: %w", w.name, r, err)
		}
		c.states = append(c.states, it)
	}
	return c, nil
}

// gate computes every expected response and fails on any schedule that
// breaks the paper's guarantees or cannot be framed. The instances are
// split across GOMAXPROCS goroutines.
func (w *workload) gate(items []*item) error {
	v1, err := deriveLayout(false)
	if err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(items); i += workers {
				if err := items[i].expect(w, v1); err != nil {
					errs[i] = fmt.Errorf("%s instance %d: %w", w.name, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// expect solves the instance as the server will (shard auto) and checks the
// schedule: 1-port, at most k per step and exact transfer (Validate); cost
// at least the lower bound; at most twice it for GGP and OGGP on a
// connected instance (Theorem 1; sharded solves of several components carry
// no such bound, DESIGN.md §9); and an encoding that fits a frame.
func (it *item) expect(w *workload, v1 layout) error {
	alg := it.req.Algorithm
	s, err := kpbs.Solve(it.g, w.k, w.beta, options(it.req))
	if err != nil {
		return err
	}
	if err := s.Validate(it.g, w.k); err != nil {
		return fmt.Errorf("infeasible schedule: %w", err)
	}
	lb, cost := kpbs.LowerBound(it.g, w.k, w.beta), s.Cost()
	if cost < lb {
		return fmt.Errorf("cost %d below the lower bound %d", cost, lb)
	}
	if (alg == kpbs.GGP || alg == kpbs.OGGP) && connected(it.g) && cost-lb > lb {
		return fmt.Errorf("cost %d above twice the lower bound %d (Theorem 1)", cost, lb)
	}
	p, err := wire.EncodeSolveResp(0, s, wire.TraceContext{})
	if err != nil {
		return err
	}
	it.want = digestOf(p[len(v1.prefix):])
	it.ratio = float64(cost) / float64(lb)
	return nil
}

// options are the solve options the server applies to a request: its
// algorithm, with redist-serve's default shard auto.
func options(req wire.SolveRequest) kpbs.Options {
	return kpbs.Options{Algorithm: req.Algorithm, Shard: kpbs.ShardAuto}
}

// connected reports whether g's transfers form one connected component.
func connected(g *bipartite.Graph) bool {
	parent := make([]int, g.NodeCount())
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for ; parent[x] != x; x = parent[x] {
			parent[x] = parent[parent[x]]
		}
		return x
	}
	for i := 0; i < g.EdgeCount(); i++ {
		e := g.Edge(i)
		parent[find(e.L)] = find(g.LeftCount() + e.R)
	}
	root := find(g.Edge(0).L)
	for i := 0; i < g.EdgeCount(); i++ {
		if find(g.Edge(i).L) != root {
			return false
		}
	}
	return true
}

// layout locates the per-request fields of a response payload's header:
// the response id, and with a trace context the trace id and the server's
// handling time. It is derived at set-up by encoding one schedule under two
// different ids and trace contexts and diffing the bytes; the schedule body
// follows the last field that differs.
type layout struct {
	prefix []byte   // one encoding of the header
	masked [][2]int // header byte ranges that differ between requests
}

func deriveLayout(traced bool) (layout, error) {
	var ta, tb wire.TraceContext
	if traced {
		for i := range ta.ID {
			ta.ID[i], tb.ID[i] = 0x01, 0xfe
		}
		ta.TS, tb.TS = 0x0101010101010101, 0x7efefefefefefefe
	}
	empty := &kpbs.Schedule{}
	a, err := wire.EncodeSolveResp(0x0101010101010101, empty, ta)
	if err != nil {
		return layout{}, err
	}
	b, err := wire.EncodeSolveResp(0xfefefefefefefefe, empty, tb)
	if err != nil {
		return layout{}, err
	}
	var l layout
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		if n := len(l.masked); n > 0 && l.masked[n-1][1] == i {
			l.masked[n-1][1] = i + 1
		} else {
			l.masked = append(l.masked, [2]int{i, i + 1})
		}
	}
	if len(l.masked) == 0 || len(a) != len(b) {
		return layout{}, errors.New("cannot locate the response id in the solve-response encoding")
	}
	l.prefix = a[:l.masked[len(l.masked)-1][1]]
	return l, nil
}

// match reports whether raw is the expected response under this header
// layout, ignoring the masked fields.
func (l layout) match(raw []byte, want digest) bool {
	n := len(l.prefix)
	if len(raw) != n+want.size {
		return false
	}
	at := 0
	for _, m := range l.masked {
		if !bytes.Equal(raw[at:m[0]], l.prefix[at:m[0]]) {
			return false
		}
		at = m[1]
	}
	return bytes.Equal(raw[at:n], l.prefix[at:n]) && digestOf(raw[n:]) == want
}
