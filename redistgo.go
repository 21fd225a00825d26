// Package redistgo schedules data redistributions between two clusters
// interconnected by a backbone, implementing the algorithms of
//
//	Emmanuel Jeannot, Frédéric Wagner.
//	"Two Fast and Efficient Message Scheduling Algorithms for Data
//	Redistribution through a Backbone." IPPS/IPDPS 2004.
//
// A redistribution is described by a traffic matrix: entry (i, j) is the
// amount of data node i of the sending cluster must transfer to node j of
// the receiving cluster. The platform limits how many transfers can run
// simultaneously (k, derived from the NIC and backbone throughputs), each
// node may send/receive at most one message at a time (1-port), and each
// synchronized communication step costs a setup delay β. Scheduling the
// messages to minimize total time is the NP-complete K-PBS problem; this
// package provides the paper's GGP and OGGP 2-approximations, the WRGP
// peeler they build on, baselines, the evaluation lower bound, a fluid
// network simulator of the cluster platform, a real-sockets execution
// runtime, traffic generators, and harnesses regenerating every figure of
// the paper's evaluation.
//
// # Quick start
//
//	g, _ := redistgo.FromMatrix([][]int64{
//		{40, 0, 12},
//		{0, 30, 7},
//	})
//	sched, _ := redistgo.Solve(g, 2, 1, redistgo.Options{Algorithm: redistgo.OGGP})
//	fmt.Print(sched)
//
// See the examples/ directory for end-to-end programs: a quickstart, a
// code-coupling scenario on the paper's §2.1 platform, a local
// block-cyclic redistribution, and a shaped loopback-TCP execution.
package redistgo

import (
	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
)

// Graph is a weighted bipartite graph describing the communications to
// perform: left nodes are senders, right nodes receivers, and an edge of
// weight w is a message taking w time units (or bytes, at fixed link
// speed) to transfer.
type Graph = bipartite.Graph

// Edge is one communication of a Graph.
type Edge = bipartite.Edge

// NewGraph returns an empty graph with the given numbers of sending and
// receiving nodes.
func NewGraph(nLeft, nRight int) *Graph { return bipartite.New(nLeft, nRight) }

// FromMatrix builds the communication graph of a traffic matrix: each
// strictly positive entry m[i][j] becomes an edge from sender i to
// receiver j.
func FromMatrix(m [][]int64) (*Graph, error) { return bipartite.FromMatrix(m) }

// Schedule is an ordered sequence of communication steps solving a K-PBS
// instance. Each step is a matching of at most k communications executed
// between two barriers; its duration is its longest communication.
type Schedule = kpbs.Schedule

// Step is one communication step of a Schedule.
type Step = kpbs.Step

// Comm is one communication inside a Step.
type Comm = kpbs.Comm

// Algorithm selects the scheduling algorithm used by Solve.
type Algorithm = kpbs.Algorithm

// The available scheduling algorithms.
const (
	// GGP is the paper's Generic Graph Peeling 2-approximation (§4.2).
	GGP = kpbs.GGP
	// OGGP is the Optimized GGP (§4.3): bottleneck matchings yield fewer,
	// longer steps. Usually the right default.
	OGGP = kpbs.OGGP
	// MinSteps schedules without preemption in the provably minimal
	// number of steps — best when β dominates the message sizes.
	MinSteps = kpbs.MinSteps
	// Greedy is a non-preemptive list-scheduling baseline with no
	// approximation guarantee.
	Greedy = kpbs.Greedy
)

// Options configures Solve.
type Options = kpbs.Options

// ShardMode selects whether Solve decomposes the instance into its
// connected components and solves them in parallel (Options.Shard).
type ShardMode = kpbs.ShardMode

// The available sharding modes.
const (
	// ShardOff (the default) always runs the monolithic solver.
	ShardOff = kpbs.ShardOff
	// ShardAuto shards when the graph has two or more connected
	// components and falls back to the monolith otherwise.
	ShardAuto = kpbs.ShardAuto
)

// ParseShardMode parses "off" or "auto" — the accepted values of the
// cmd/ -shard flags.
func ParseShardMode(s string) (ShardMode, error) { return kpbs.ParseShardMode(s) }

// Solve schedules the communications of g under the 1-port constraint
// with at most k simultaneous transfers and per-step setup delay beta
// (same unit as the edge weights). The returned schedule transfers
// exactly the traffic of g; for GGP and OGGP its cost is at most twice
// the optimum (plus a small additive padding term, see DESIGN.md).
func Solve(g *Graph, k int, beta int64, opts Options) (*Schedule, error) {
	return kpbs.Solve(g, k, beta, opts)
}

// EditCell sets one cell of the traffic matrix behind a retained solve:
// a positive weight writes the cell (adding it if absent), zero clears
// it. Later edits to the same cell win.
type EditCell = kpbs.Edit

// SolveResult is a retained solve that can be advanced under edits with
// SolveDelta instead of re-solved from scratch (DESIGN.md §13). It is
// single-owner state, not safe for concurrent use.
type SolveResult = kpbs.Result

// NewSolveResult runs a cold solve of (g, k, beta) under opts and
// retains what delta solving needs. The graph must be canonical
// row-major — exactly what FromMatrix builds.
func NewSolveResult(g *Graph, k int, beta int64, opts Options) (*SolveResult, error) {
	return kpbs.NewResult(g, k, beta, opts)
}

// SolveDelta patches the retained instance with edits and returns the
// schedule of the edited instance — byte-identical to what Solve would
// return for it. It is faster than Solve only when β normalization
// absorbs every edit, so the retained peeling is re-denormalized;
// otherwise it costs a cold solve (see `make bench-delta`).
func SolveDelta(prev *SolveResult, edits []EditCell) (*Schedule, error) {
	return kpbs.SolveDelta(prev, edits)
}

// SolveCache is a bounded content-addressed LRU of solves: repeat
// instances are served without running the solver, concurrent misses of
// one instance coalesce into a single solve, and delta chains can check
// warm bases out of it (DESIGN.md §13.3).
type SolveCache = kpbs.SolveCache

// NewSolveCache builds a solve cache bounded to capacity entries.
func NewSolveCache(capacity int) *SolveCache { return kpbs.NewSolveCache(capacity, nil) }

// SolveWRGP runs the plain Weight-Regular Graph Peeling algorithm
// (paper §4.1) on a weight-regular balanced graph with unbounded k and no
// setup delay. bottleneck selects OGGP's matching rule.
func SolveWRGP(g *Graph, bottleneck bool) (*Schedule, error) {
	return kpbs.SolveWRGP(g, bottleneck)
}

// LowerBound returns the Cohen–Jeannot–Padoy lower bound on the optimal
// K-PBS cost: max(W(G), ⌈P(G)/k⌉) + β·max(Δ(G), ⌈m/k⌉). The evaluation
// ratio cost/LowerBound measures schedule quality (1 is unbeatable).
func LowerBound(g *Graph, k int, beta int64) int64 {
	return kpbs.LowerBound(g, k, beta)
}

// EtaD returns the transmission-time part of the lower bound,
// max(W(G), ⌈P(G)/k⌉).
func EtaD(g *Graph, k int) int64 { return kpbs.EtaD(g, k) }

// EtaS returns the step-count part of the lower bound,
// max(Δ(G), ⌈m/k⌉).
func EtaS(g *Graph, k int) int64 { return kpbs.EtaS(g, k) }
