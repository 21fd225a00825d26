package kpbs

import (
	"redistgo/internal/bipartite"
	"redistgo/internal/safemath"
)

// ceilDiv returns ⌈a/b⌉ for a ≥ 0, b > 0, without the overflow of the
// textbook (a+b-1)/b near MaxInt64.
func ceilDiv(a, b int64) int64 {
	return safemath.CeilDiv(a, b)
}

// EtaD returns ηd(G,k) = max(W(G), ⌈P(G)/k⌉), a lower bound on the total
// transmission time Σ_i W(M_i) of any feasible schedule: every node must
// be busy for W(G) time under the 1-port constraint, and at most k
// communications run per time unit so the aggregate work P(G) needs at
// least P(G)/k time. P(G) saturates at MaxInt64 so huge instances yield a
// huge (still valid) bound instead of a negative one.
func EtaD(g *bipartite.Graph, k int) int64 {
	if g.EdgeCount() == 0 {
		return 0
	}
	w := g.MaxNodeWeight()
	var p int64
	for i, m := 0, g.EdgeCount(); i < m; i++ {
		p = safemath.Add(p, g.Edge(i).Weight)
	}
	p = ceilDiv(p, int64(k))
	if p > w {
		return p
	}
	return w
}

// EtaS returns ηs(G,k) = max(Δ(G), ⌈m/k⌉), a lower bound on the number of
// steps of any feasible schedule: a node of degree Δ needs Δ distinct
// steps (1-port, one partner per step, and splitting an edge only adds
// steps), and m edges at ≤ k per step need ⌈m/k⌉ steps.
func EtaS(g *bipartite.Graph, k int) int64 {
	if g.EdgeCount() == 0 {
		return 0
	}
	d := int64(g.MaxDegree())
	s := ceilDiv(int64(g.EdgeCount()), int64(k))
	if s > d {
		return s
	}
	return d
}

// LowerBound returns the Cohen–Jeannot–Padoy lower bound on the optimal
// K-PBS cost used by the paper's evaluation (§3, §5.1):
//
//	LB(G,k,β) = ηd(G,k) + β·ηs(G,k)
//
// Both terms bound their parts of the objective independently, so their
// sum bounds the optimum. The arithmetic saturates at MaxInt64: a
// saturated value is still a valid lower bound on any representable cost,
// whereas the previous unchecked β·ηs wrapped negative for large β.
func LowerBound(g *bipartite.Graph, k int, beta int64) int64 {
	return safemath.Add(EtaD(g, k), safemath.Mul(beta, EtaS(g, k)))
}
