// Package kpbs implements the K-Preemptive Bipartite Scheduling problem
// (K-PBS) and the two approximation algorithms of Jeannot & Wagner,
// "Two Fast and Efficient Message Scheduling Algorithms for Data
// Redistribution through a Backbone" (IPPS 2004):
//
//   - GGP, the Generic Graph Peeling algorithm (§4.2), and
//   - OGGP, the Optimized Generic Graph Peeling algorithm (§4.3),
//
// plus the WRGP weight-regular peeler (§4.1) they are built on, the lower
// bound of Cohen–Jeannot–Padoy used for evaluation ratios, a greedy
// list-scheduling baseline, and a minimum-step-count scheduler (an
// extension: GGP run on unit weights, optimal when β dominates).
//
// An instance is a weighted bipartite graph G (weights are communication
// durations in abstract integer time units), the maximum number of
// simultaneous communications k, and the per-step setup delay β. A
// solution is a sequence of communication steps; each step is a matching
// of at most k edges, and edges may be preempted (split across steps).
// The cost of a schedule is Σ_i (β + duration(step i)).
package kpbs

import (
	"fmt"
	"sort"
	"strings"

	"redistgo/internal/bipartite"
	"redistgo/internal/safemath"
)

// Comm is one communication inside a step: transfer Amount time units of
// the message from left node L to right node R.
type Comm struct {
	L, R   int32
	Amount int64
}

// Step is one synchronous communication step: a matching of at most k
// communications executed in parallel between a pair of barriers.
type Step struct {
	Comms    []Comm
	Duration int64 // max Amount over Comms
}

// recomputeDuration sets Duration = max Amount.
func (s *Step) recomputeDuration() {
	var d int64
	for _, c := range s.Comms {
		if c.Amount > d {
			d = c.Amount
		}
	}
	s.Duration = d
}

// Schedule is an ordered list of communication steps solving a K-PBS
// instance, together with the setup delay it was computed for.
type Schedule struct {
	Steps []Step
	Beta  int64
}

// Clone returns a deep copy sharing no storage with s. Used to snapshot
// schedules that alias a Result's arenas (delta solving, the solve cache).
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{Beta: s.Beta}
	if s.Steps != nil {
		out.Steps = make([]Step, len(s.Steps))
		for i, st := range s.Steps {
			out.Steps[i] = Step{Duration: st.Duration}
			if st.Comms != nil {
				out.Steps[i].Comms = append([]Comm(nil), st.Comms...)
			}
		}
	}
	return out
}

// NumSteps returns s = |Steps|.
func (s *Schedule) NumSteps() int { return len(s.Steps) }

// TotalDuration returns Σ_i duration(step i), excluding setup delays.
// The sum saturates at MaxInt64 so huge schedules report a huge cost
// rather than a wrapped negative one.
func (s *Schedule) TotalDuration() int64 {
	var d int64
	for _, st := range s.Steps {
		d = safemath.Add(d, st.Duration)
	}
	return d
}

// Cost returns the K-PBS objective Σ_i (β + duration(step i)),
// saturating at MaxInt64 (β·steps overflows for β near the int64
// boundary).
func (s *Schedule) Cost() int64 {
	return safemath.Add(s.TotalDuration(), safemath.Mul(s.Beta, int64(len(s.Steps))))
}

// MaxConcurrency returns the largest number of simultaneous
// communications in any step.
func (s *Schedule) MaxConcurrency() int {
	max := 0
	for _, st := range s.Steps {
		if len(st.Comms) > max {
			max = len(st.Comms)
		}
	}
	return max
}

// Validate checks that the schedule is a feasible solution of the
// instance (g, k): every step is a matching (1-port), has at most k
// communications, all amounts are positive, and the per-pair transferred
// totals equal the per-pair weights of g exactly.
func (s *Schedule) Validate(g *bipartite.Graph, k int) error {
	type pair struct{ l, r int }
	sortedPairs := func(m map[pair]int64) []pair {
		ps := make([]pair, 0, len(m))
		for p := range m {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].l != ps[j].l {
				return ps[i].l < ps[j].l
			}
			return ps[i].r < ps[j].r
		})
		return ps
	}
	moved := make(map[pair]int64)
	for i, st := range s.Steps {
		if len(st.Comms) == 0 {
			return fmt.Errorf("kpbs: step %d is empty", i)
		}
		if len(st.Comms) > k {
			return fmt.Errorf("kpbs: step %d has %d > k=%d communications", i, len(st.Comms), k)
		}
		seenL := make(map[int32]bool, len(st.Comms))
		seenR := make(map[int32]bool, len(st.Comms))
		var maxAmount int64
		for _, c := range st.Comms {
			if c.L < 0 || int(c.L) >= g.LeftCount() || c.R < 0 || int(c.R) >= g.RightCount() {
				return fmt.Errorf("kpbs: step %d communication (%d,%d) out of range", i, c.L, c.R)
			}
			if c.Amount <= 0 {
				return fmt.Errorf("kpbs: step %d communication (%d,%d) has non-positive amount %d", i, c.L, c.R, c.Amount)
			}
			if seenL[c.L] {
				return fmt.Errorf("kpbs: step %d violates 1-port: left node %d sends twice", i, c.L)
			}
			if seenR[c.R] {
				return fmt.Errorf("kpbs: step %d violates 1-port: right node %d receives twice", i, c.R)
			}
			seenL[c.L] = true
			seenR[c.R] = true
			p := pair{int(c.L), int(c.R)}
			moved[p] = safemath.Add(moved[p], c.Amount)
			if c.Amount > maxAmount {
				maxAmount = c.Amount
			}
		}
		if st.Duration != maxAmount {
			return fmt.Errorf("kpbs: step %d duration %d != max amount %d", i, st.Duration, maxAmount)
		}
	}
	want := make(map[pair]int64)
	for _, e := range g.Edges() {
		want[pair{e.L, e.R}] = safemath.Add(want[pair{e.L, e.R}], e.Weight)
	}
	// Iterate both maps in sorted pair order so that, when several pairs
	// mismatch, the error reported is the same on every run.
	for _, p := range sortedPairs(want) {
		if moved[p] != want[p] {
			return fmt.Errorf("kpbs: pair (%d,%d) transferred %d, want %d", p.l, p.r, moved[p], want[p])
		}
	}
	for _, p := range sortedPairs(moved) {
		if want[p] == 0 {
			return fmt.Errorf("kpbs: pair (%d,%d) transferred %d but has no traffic", p.l, p.r, moved[p])
		}
	}
	return nil
}

// String renders a human-readable multi-line description of the schedule.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: %d steps, total duration %d, beta %d, cost %d\n",
		s.NumSteps(), s.TotalDuration(), s.Beta, s.Cost())
	for i, st := range s.Steps {
		fmt.Fprintf(&b, "  step %d (duration %d):", i+1, st.Duration)
		for _, c := range st.Comms {
			fmt.Fprintf(&b, " %d->%d:%d", c.L, c.R, c.Amount)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Gantt renders an ASCII Gantt-like chart of the schedule, one row per
// left node, one column block per step. Useful in examples and CLIs.
func (s *Schedule) Gantt(nLeft int) string {
	var b strings.Builder
	for l := 0; l < nLeft; l++ {
		fmt.Fprintf(&b, "L%-3d |", l)
		for _, st := range s.Steps {
			cell := strings.Repeat(".", 6)
			for _, c := range st.Comms {
				if int(c.L) == l {
					cell = fmt.Sprintf("%d:%-4d", c.R, c.Amount)
					if len(cell) > 6 {
						cell = cell[:6]
					}
					break
				}
			}
			fmt.Fprintf(&b, " %-6s", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
