// Command redist-soak hammers a redist-serve daemon from many concurrent
// tenant sessions and verifies every answer: each client re-solves its
// instances locally and compares the server's raw MsgSolveResp payload
// byte-for-byte against the local encoding (the codec is injective, so
// equal bytes prove an identical schedule), and checks that every verified
// GGP/OGGP schedule costs between LB and 2·LB (the paper's Theorem 1). Any
// divergence, schedule outside that bound, protocol error, or unclean
// shutdown exits nonzero — this is the end-to-end correctness gate
// `make soak-smoke` runs in CI.
//
//	redist-soak -spawn -clients 8 -requests 25          # self-contained
//	redist-soak -addr 127.0.0.1:9090 -clients 4         # external daemon
//
// With -spawn the soak starts an in-process serve.Server on an ephemeral
// loopback port (real TCP, no process orchestration) and gracefully
// shuts it down when the clients finish. Traffic mixes the trafficgen
// families (dense uniform, sparse uniform, permutation, shift, all-to-all)
// across both algorithms so the daemon sees realistic variety.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"redistgo"
	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
	"redistgo/internal/obsflag"
	"redistgo/internal/safemath"
	"redistgo/internal/serve"
	"redistgo/internal/tokenbucket"
	"redistgo/internal/trafficgen"
	"redistgo/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "redist-soak:", err)
		os.Exit(1)
	}
}

// clientStats is one session's tally, merged into the final report. The
// latency histograms are populated only with -tracectx: rttUS is the
// client-observed round trip, serverUS the handling time the server
// echoed in the response's trace context — their gap is the wire.
type clientStats struct {
	ok        int
	bounded   int // verified schedules with LB ≤ cost ≤ 2·LB (Theorem 1)
	unbounded int // verified schedules outside that bound
	deltas    int // responses verified via the delta path (-delta)
	fallbacks int // chains re-opened with a full solve after unknown-base
	retries   int // refused sends resent unchanged (-delta)
	rejects   map[string]int
	mismatch  int
	traceErrs int
	fatal     error
	rttUS     *obs.Histogram
	serverUS  *obs.Histogram
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("redist-soak", flag.ContinueOnError)
	addr := fs.String("addr", "", "address of a running redist-serve daemon (mutually exclusive with -spawn)")
	spawn := fs.Bool("spawn", false, "start an in-process server on an ephemeral loopback port")
	clients := fs.Int("clients", 8, "concurrent tenant sessions")
	requests := fs.Int("requests", 25, "requests per client")
	rate := fs.Float64("rate", 0, "per-client request pacing, requests/s; 0 means unpaced")
	seed := fs.Int64("seed", 1, "random seed (each client derives its own stream)")
	n := fs.Int("n", 12, "nodes per cluster side in generated instances")
	k := fs.Int("k", 3, "simultaneous communications per step")
	beta := fs.Int64("beta", 64, "per-step startup cost in weight units")
	shard := fs.String("shard", "auto", "component sharding, applied to both the spawned server and the local check; must match the daemon's -shard when using -addr (redist-serve defaults to auto)")
	spawnGlobalRate := fs.Float64("spawn-global-rate", 0, "with -spawn: service-wide admission requests/s (exercises over-quota rejects)")
	spawnTenantRate := fs.Float64("spawn-tenant-rate", 0, "with -spawn: per-tenant admission requests/s")
	spawnWorkers := fs.Int("spawn-workers", 0, "with -spawn: solver pool size; 0 means GOMAXPROCS")
	tracectx := fs.Bool("tracectx", false, "attach a trace context to every request, verify the server echoes it, and print an end-of-run per-tenant SLO summary")
	delta := fs.Bool("delta", false, "each client solves one base instance then streams delta requests against it, verifying every response byte-identical to a local cold solve of the edited instance")
	obsFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*addr == "") == !*spawn {
		return fmt.Errorf("exactly one of -addr or -spawn is required")
	}
	if *clients < 1 || *requests < 1 || *n < 1 || *k < 1 || *beta < 0 {
		return fmt.Errorf("clients, requests, n and k must be positive and beta non-negative")
	}
	observer, obsFinish, err := obsFlags.Start(stdout)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := obsFinish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	shardMode, err := redistgo.ParseShardMode(*shard)
	if err != nil {
		return err
	}

	target := *addr
	var srv *serve.Server
	if *spawn {
		srv, err = serve.New(serve.Config{
			Workers:    *spawnWorkers,
			GlobalRate: *spawnGlobalRate,
			TenantRate: *spawnTenantRate,
			Shard:      shardMode,
			Obs:        observer,
		})
		if err != nil {
			return err
		}
		target = srv.Addr()
		fmt.Fprintf(stdout, "spawned in-process server on %s\n", target)
	}

	fmt.Fprintf(stdout, "soaking %s: %d clients x %d requests (n=%d k=%d beta=%d shard=%s)\n",
		target, *clients, *requests, *n, *k, *beta, shardMode)
	stats := make([]clientStats, *clients)
	var wg sync.WaitGroup
	for ci := 0; ci < *clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			p := soakParams{
				requests: *requests, rate: *rate, n: *n, k: *k, beta: *beta,
				shard: shardMode, trace: *tracectx,
				rng: rand.New(rand.NewSource(*seed + int64(ci)*7919)),
			}
			if *delta {
				stats[ci] = soakDeltaClient(target, int32(ci+1), p)
			} else {
				stats[ci] = soakClient(target, int32(ci+1), p)
			}
		}(ci)
	}
	wg.Wait()

	ok, bounded, unbounded, deltas, fallbacks, retries, mismatches, traceErrs := 0, 0, 0, 0, 0, 0, 0, 0
	rejects := map[string]int{}
	var fatal error
	for ci, st := range stats {
		ok += st.ok
		bounded += st.bounded
		unbounded += st.unbounded
		deltas += st.deltas
		fallbacks += st.fallbacks
		retries += st.retries
		mismatch := st.mismatch
		mismatches += mismatch
		traceErrs += st.traceErrs
		for code, c := range st.rejects {
			rejects[code] += c
		}
		if st.fatal != nil && fatal == nil {
			fatal = fmt.Errorf("client %d: %w", ci+1, st.fatal)
		}
	}
	fmt.Fprintf(stdout, "verified %d responses byte-identical, %d mismatches, rejects: %v\n", ok, mismatches, rejects)
	fmt.Fprintf(stdout, "theorem 1: %d schedules within LB <= cost <= 2*LB, %d outside\n", bounded, unbounded)
	var deltaPathErr error
	if *delta {
		fmt.Fprintf(stdout, "delta mode: %d delta responses verified against cold solves, %d full-solve fallbacks, %d refused sends retried\n", deltas, fallbacks, retries)
		if srv != nil && observer != nil {
			deltaPathErr = reportDeltaPaths(stdout, observer.Metrics.Snapshot())
		}
	}
	if *tracectx {
		printSLOSummary(stdout, stats)
	}

	var scrapeErr error
	if ep := obsFlags.Endpoint(); ep != "" {
		scrapeErr = scrapeMetrics(stdout, ep)
	}

	if srv != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if serr := srv.Shutdown(drainCtx); serr != nil {
			return fmt.Errorf("server shutdown: %w", serr)
		}
		fmt.Fprintln(stdout, "server shut down cleanly")
	}
	if fatal != nil {
		return fatal
	}
	if mismatches > 0 {
		return fmt.Errorf("%d responses diverged from the local solve", mismatches)
	}
	if traceErrs > 0 {
		return fmt.Errorf("%d responses carried a wrong or missing trace context echo", traceErrs)
	}
	if unbounded > 0 {
		return fmt.Errorf("%d GGP/OGGP schedules cost outside [LB, 2*LB]", unbounded)
	}
	if ok == 0 && len(rejects) == 0 {
		return fmt.Errorf("no responses verified")
	}
	if scrapeErr != nil {
		return scrapeErr
	}
	return deltaPathErr
}

// reportDeltaPaths prints how the spawned server's delta requests were
// solved, per algorithm and path (solver.delta.requests_total.<alg>.<path>),
// and fails when none took the reuse or rebuild path: the deltas then all
// ran as cold solves, and the retained-solve engine went unexercised over
// the served path (the solver pool, concurrent sessions, TCP).
func reportDeltaPaths(w io.Writer, snap obs.Snapshot) error {
	engine := int64(0)
	for _, alg := range []kpbs.Algorithm{kpbs.GGP, kpbs.OGGP} {
		fmt.Fprintf(w, "delta paths (server, %s):", alg)
		for _, p := range []kpbs.DeltaPath{kpbs.DeltaReuse, kpbs.DeltaRebuild, kpbs.DeltaCold} {
			n := snap.Counters["solver.delta.requests_total."+alg.String()+"."+p.String()]
			fmt.Fprintf(w, " %s=%d", p, n)
			if p != kpbs.DeltaCold {
				engine += n
			}
		}
		fmt.Fprintln(w)
	}
	if engine == 0 {
		return fmt.Errorf("no served delta took the reuse or rebuild path")
	}
	return nil
}

// printSLOSummary renders the per-tenant latency quantiles gathered under
// -tracectx: the client-observed round trip, the server's own handling
// time (echoed in the trace context), and the gap between their p50s —
// wire plus queueing outside the server's clock.
func printSLOSummary(w io.Writer, stats []clientStats) {
	fmt.Fprintln(w, "per-tenant SLO summary (µs):")
	fmt.Fprintf(w, "  %-7s %8s %8s %8s %8s %8s %8s %8s %10s\n",
		"tenant", "count", "rtt_p50", "rtt_p95", "rtt_p99", "srv_p50", "srv_p95", "srv_p99", "delta_p50")
	for ci, st := range stats {
		if st.rttUS.Count() == 0 {
			continue
		}
		rtt50 := st.rttUS.Quantile(0.5)
		srv50 := st.serverUS.Quantile(0.5)
		fmt.Fprintf(w, "  %-7d %8d %8d %8d %8d %8d %8d %8d %9d\n",
			ci+1, st.rttUS.Count(),
			rtt50, st.rttUS.Quantile(0.95), st.rttUS.Quantile(0.99),
			srv50, st.serverUS.Quantile(0.95), st.serverUS.Quantile(0.99),
			rtt50-srv50)
	}
}

// scrapeMetrics fetches /metrics from the obs endpoint and fails on
// anything that is not well-formed Prometheus text exposition — the soak
// doubles as the smoke test for the exposition path.
func scrapeMetrics(w io.Writer, endpoint string) error {
	resp, err := http.Get("http://" + endpoint + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics scrape: status %d", resp.StatusCode)
	}
	if err := obs.ValidatePrometheus(string(body)); err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	fmt.Fprintf(w, "metrics scrape ok: %d bytes of valid Prometheus exposition\n", len(body))
	return nil
}

type soakParams struct {
	requests int
	rate     float64
	n        int
	k        int
	beta     int64
	shard    kpbs.ShardMode
	trace    bool
	rng      *rand.Rand
}

// soakClient runs one tenant session to completion. Refusals (quota,
// busy) are counted, not fatal: a throttled soak is a working soak.
func soakClient(addr string, tenant int32, p soakParams) clientStats {
	st := clientStats{
		rejects:  map[string]int{},
		rttUS:    obs.NewHistogram(obs.DurationBuckets),
		serverUS: obs.NewHistogram(obs.DurationBuckets),
	}
	var pace *tokenbucket.Limiter
	if p.rate > 0 {
		if l, err := tokenbucket.New(p.rate, 1); err == nil {
			pace = l
		}
	}
	cl, err := serve.Dial(addr, tenant)
	if err != nil {
		st.fatal = err
		return st
	}
	defer func() { _ = cl.Close() }() // the soak verdict comes from the tallies

	for i := 0; i < p.requests; i++ {
		pace.Wait(1)
		matrix, err := genMatrix(p.rng, p.n)
		if err != nil {
			st.fatal = fmt.Errorf("request %d: generate: %w", i+1, err)
			return st
		}
		g, err := bipartite.FromMatrix(matrix)
		if err != nil {
			st.fatal = fmt.Errorf("request %d: graph: %w", i+1, err)
			return st
		}
		if g.EdgeCount() == 0 {
			continue // an empty pattern has nothing to schedule or verify
		}
		alg := kpbs.GGP
		if p.rng.Intn(2) == 1 {
			alg = kpbs.OGGP
		}
		req := wire.SolveRequest{
			ID: uint64(i + 1), K: p.k, Beta: p.beta, Algorithm: alg,
			N1: g.LeftCount(), N2: g.RightCount(), Edges: g.Edges(),
		}
		if p.trace {
			// Trace ids come from the client's own deterministic stream; the
			// send timestamp is stamped by SolveFull at write time.
			_, _ = p.rng.Read(req.Trace.ID[:]) // math/rand Read never fails
			if req.Trace.Zero() {              // astronomically unlikely, but Zero means "untraced"
				req.Trace.ID[0] = 1
			}
		}
		t0 := time.Now()
		resp, raw, err := cl.SolveFull(req)
		rtt := time.Since(t0)
		var rej *serve.RejectError
		switch {
		case errors.As(err, &rej):
			st.rejects[rej.Code.String()]++
			continue
		case err != nil:
			st.fatal = fmt.Errorf("request %d: %w", i+1, err)
			return st
		}
		if p.trace {
			// The response must echo the request's trace id, with TS rewritten
			// to the server's handling time.
			if resp.Trace.ID != req.Trace.ID {
				st.traceErrs++
				continue
			}
			st.rttUS.Observe(rtt.Microseconds())
			st.serverUS.Observe(resp.Trace.TS)
		}
		local, err := kpbs.Solve(g, p.k, p.beta, kpbs.Options{Algorithm: alg, Shard: p.shard})
		if err != nil {
			st.fatal = fmt.Errorf("request %d: local solve: %w", i+1, err)
			return st
		}
		// Re-encode the local solve under the echoed trace context: the
		// codec is injective given (id, schedule, trace), so byte equality
		// still proves the served schedule identical even though the
		// server's handling-time stamp is unpredictable.
		want, err := wire.EncodeSolveResp(req.ID, local, resp.Trace)
		if err != nil {
			st.fatal = fmt.Errorf("request %d: local encode: %w", i+1, err)
			return st
		}
		if !bytesEqual(raw, want) {
			st.mismatch++
			continue
		}
		st.ok++
		st.checkBound(local, g, p.k, p.beta)
	}
	return st
}

// checkBound counts a verified GGP or OGGP schedule of g as within or
// outside the paper's Theorem 1 bound, LB ≤ cost ≤ 2·LB, with LB
// kpbs.LowerBound. The byte comparison only shows that the daemon serves
// what the local solver computes; this shows that what both compute keeps
// the bound.
func (st *clientStats) checkBound(s *kpbs.Schedule, g *bipartite.Graph, k int, beta int64) {
	lb := kpbs.LowerBound(g, k, beta)
	if c := s.Cost(); lb <= c && c <= safemath.Mul(2, lb) {
		st.bounded++
	} else {
		st.unbounded++
	}
}

// soakDeltaClient runs one tenant's delta chain: a full solve opens the
// chain, then every round draws a deterministic edit batch, sends it as
// a delta against the latest response id, and verifies the answer
// byte-identical to a local cold solve of the edited instance — the
// wire-level form of kpbs.SolveDelta's equivalence contract. Every
// sixteenth round first probes a base id the server never issued and
// requires the unknown-base refusal; an unexpected unknown-base on a
// real delta is recovered by re-opening the chain with a full solve
// (counted as a fallback), which is the documented client protocol.
//
// The stream's mirror advances when a round's edits are drawn, so a
// round refused for load (over-quota, busy) is resent unchanged against
// the same base until it is answered: the server's chain never saw the
// refused edits. The chain-opening solve and the probe are resent the
// same way. Any other refusal ends the client.
func soakDeltaClient(addr string, tenant int32, p soakParams) clientStats {
	st := clientStats{
		rejects:  map[string]int{},
		rttUS:    obs.NewHistogram(obs.DurationBuckets),
		serverUS: obs.NewHistogram(obs.DurationBuckets),
	}
	var pace *tokenbucket.Limiter
	if p.rate > 0 {
		if l, err := tokenbucket.New(p.rate, 1); err == nil {
			pace = l
		}
	}
	cl, err := serve.Dial(addr, tenant)
	if err != nil {
		st.fatal = err
		return st
	}
	defer func() { _ = cl.Close() }()

	stream := trafficgen.NewEditStream(p.rng.Int63(), trafficgen.DenseUniform(p.rng, p.n, p.n, 1, 1<<12), 0.05)
	alg := kpbs.GGP
	if p.rng.Intn(2) == 1 {
		alg = kpbs.OGGP
	}
	opts := kpbs.Options{Algorithm: alg, Shard: p.shard}
	nextID := uint64(0)
	trace := func() (tc wire.TraceContext) {
		if p.trace {
			_, _ = p.rng.Read(tc.ID[:])
			if tc.Zero() {
				tc.ID[0] = 1
			}
		}
		return tc
	}
	// exchange sends one request through send, resending it after a short,
	// growing backoff while the server refuses it for load, for up to
	// retryFor. It returns the answer, or the first other refusal or
	// error (the last load refusal once retryFor has passed), with the
	// round trip of the last attempt.
	exchange := func(send func() (wire.SolveResponse, []byte, error)) (resp wire.SolveResponse, raw []byte, rtt time.Duration, err error) {
		deadline := time.Now().Add(retryFor)
		for backoff := time.Millisecond; ; backoff = min(2*backoff, 64*time.Millisecond) {
			t0 := time.Now()
			resp, raw, err = send()
			rtt = time.Since(t0)
			var rej *serve.RejectError
			if !errors.As(err, &rej) || (rej.Code != wire.RejectOverQuota && rej.Code != wire.RejectBusy) || time.Now().After(deadline) {
				return resp, raw, rtt, err
			}
			st.rejects[rej.Code.String()]++
			st.retries++
			time.Sleep(backoff)
		}
	}
	// verifyResp checks a solve or delta response against a local cold
	// solve of the stream's current matrix, re-encoded under the echoed
	// trace context.
	verifyResp := func(req wire.TraceContext, resp wire.SolveResponse, raw []byte, rtt time.Duration) error {
		if p.trace {
			if resp.Trace.ID != req.ID {
				st.traceErrs++
				return nil
			}
			st.rttUS.Observe(rtt.Microseconds())
			st.serverUS.Observe(resp.Trace.TS)
		}
		g, err := bipartite.FromMatrix(stream.Matrix())
		if err != nil {
			return fmt.Errorf("graph: %w", err)
		}
		local, err := kpbs.Solve(g, p.k, p.beta, opts)
		if err != nil {
			return fmt.Errorf("local solve: %w", err)
		}
		want, err := wire.EncodeSolveResp(resp.ID, local, resp.Trace)
		if err != nil {
			return fmt.Errorf("local encode: %w", err)
		}
		if !bytesEqual(raw, want) {
			st.mismatch++
			return nil
		}
		st.ok++
		st.checkBound(local, g, p.k, p.beta)
		return nil
	}
	// openChain full-solves the current matrix, making the response id the
	// chain's base.
	openChain := func() (uint64, error) {
		g, err := bipartite.FromMatrix(stream.Matrix())
		if err != nil {
			return 0, err
		}
		nextID++
		req := wire.SolveRequest{
			ID: nextID, K: p.k, Beta: p.beta, Algorithm: alg,
			N1: g.LeftCount(), N2: g.RightCount(), Edges: g.Edges(),
			Trace: trace(),
		}
		resp, raw, rtt, err := exchange(func() (wire.SolveResponse, []byte, error) { return cl.SolveFull(req) })
		if err != nil {
			return 0, err
		}
		return req.ID, verifyResp(req.Trace, resp, raw, rtt)
	}

	base, err := openChain()
	if err != nil {
		st.fatal = fmt.Errorf("open chain: %w", err)
		return st
	}
	for i := 0; i < p.requests; i++ {
		pace.Wait(1)
		if i%16 == 15 {
			// A base id we never received must be refused, not served.
			probe := wire.DeltaRequest{Base: base + 1<<32}
			var rej *serve.RejectError
			_, _, _, err := exchange(func() (wire.SolveResponse, []byte, error) { return cl.SolveDeltaFull(probe) })
			if !errors.As(err, &rej) || rej.Code != wire.RejectUnknownBase {
				st.fatal = fmt.Errorf("round %d: bogus base answered with %v, want %s reject", i+1, err, wire.RejectUnknownBase)
				return st
			}
			st.rejects[rej.Code.String()]++
		}
		edits := make([]kpbs.Edit, 0, 8)
		for _, e := range stream.Next() {
			edits = append(edits, kpbs.Edit(e))
		}
		nextID++
		dreq := wire.DeltaRequest{ID: nextID, Base: base, Edits: edits, Trace: trace()}
		resp, raw, rtt, err := exchange(func() (wire.SolveResponse, []byte, error) { return cl.SolveDeltaFull(dreq) })
		var rej *serve.RejectError
		switch {
		case errors.As(err, &rej) && rej.Code == wire.RejectUnknownBase:
			// The server dropped our chain (eviction, restart): fall back to
			// a full solve of the current state and chain from there.
			st.rejects[rej.Code.String()]++
			st.fallbacks++
			if base, err = openChain(); err != nil {
				st.fatal = fmt.Errorf("round %d: fallback solve: %w", i+1, err)
				return st
			}
			continue
		case err != nil:
			st.fatal = fmt.Errorf("round %d: %w", i+1, err)
			return st
		}
		if err := verifyResp(dreq.Trace, resp, raw, rtt); err != nil {
			st.fatal = fmt.Errorf("round %d: %w", i+1, err)
			return st
		}
		st.deltas++
		base = dreq.ID
	}
	return st
}

// retryFor bounds how long a delta client keeps resending one refused
// request.
const retryFor = 30 * time.Second

// genMatrix draws one instance from the mixed trafficgen families.
func genMatrix(rng *rand.Rand, n int) ([][]int64, error) {
	const minW, maxW = 1, 1 << 16
	switch rng.Intn(5) {
	case 0:
		return trafficgen.DenseUniform(rng, n, n, minW, maxW), nil
	case 1:
		return trafficgen.SparseUniform(rng, n, n, 0.3, minW, maxW), nil
	case 2:
		return trafficgen.Permutation(rng.Perm(n), minW+rng.Int63n(maxW-minW))
	case 3:
		return trafficgen.Shift(n, 1+rng.Intn(n), minW+rng.Int63n(maxW-minW))
	default:
		return trafficgen.AllToAll(n, minW+rng.Int63n(maxW-minW), false)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
