package kpbs

import "fmt"

// The paper notes (§2.1) that "the barriers between each communication
// step can be weakened with some post-processing" but leaves it out of
// scope. AsyncPlan is that post-processing: it converts a synchronous
// schedule into a dependency DAG in which a communication waits only for
// the previous communications of its *own* endpoints, not for a global
// barrier. Executing the DAG (netsim.RunAsync) preserves
//
//   - the 1-port constraint: each node's communications stay totally
//     ordered, because every comm depends on its endpoints' latest
//     earlier comms, and
//   - per-pair chunk ordering: chunks of a preempted message share both
//     endpoints, hence are chained;
//
// the k constraint is enforced at execution time by a slot semaphore.

// AsyncComm is one communication of an asynchronous plan.
type AsyncComm struct {
	L, R   int
	Amount int64
	// Step is the synchronous step this comm came from (0-based).
	Step int
}

// AsyncPlan is a dependency-DAG version of a schedule.
type AsyncPlan struct {
	Comms []AsyncComm
	// Deps[i] lists indices of comms that must finish before comm i may
	// start. Dependencies always point to earlier steps, so the DAG is
	// acyclic by construction.
	Deps [][]int
}

// AsyncPlan flattens the schedule into a dependency DAG.
func (s *Schedule) AsyncPlan() *AsyncPlan {
	p := &AsyncPlan{}
	// lastOfLeft/lastOfRight track the most recent comm index touching a
	// node, per step boundary: dependencies must reach only into earlier
	// steps, so updates are applied after each step completes.
	lastOfLeft := map[int]int{}
	lastOfRight := map[int]int{}
	for si, st := range s.Steps {
		type upd struct{ node, comm int }
		var leftUpd, rightUpd []upd
		for _, c := range st.Comms {
			idx := len(p.Comms)
			l, r := int(c.L), int(c.R)
			p.Comms = append(p.Comms, AsyncComm{L: l, R: r, Amount: c.Amount, Step: si})
			var deps []int
			if prev, ok := lastOfLeft[l]; ok {
				deps = append(deps, prev)
			}
			if prev, ok := lastOfRight[r]; ok && (len(deps) == 0 || deps[0] != prev) {
				deps = append(deps, prev)
			}
			p.Deps = append(p.Deps, deps)
			leftUpd = append(leftUpd, upd{l, idx})
			rightUpd = append(rightUpd, upd{r, idx})
		}
		for _, u := range leftUpd {
			lastOfLeft[u.node] = u.comm
		}
		for _, u := range rightUpd {
			lastOfRight[u.node] = u.comm
		}
	}
	return p
}

// Validate checks the structural invariants of the plan: dependencies
// point backward, and per-node comm order matches step order.
func (p *AsyncPlan) Validate() error {
	for i, deps := range p.Deps {
		for _, d := range deps {
			if d < 0 || d >= i || p.Comms[d].Step >= p.Comms[i].Step {
				return fmt.Errorf("kpbs: async plan dependency %d -> %d is not strictly backward", i, d)
			}
		}
	}
	return nil
}
