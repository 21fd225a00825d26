package netsim

import (
	"fmt"
	"math"
)

// AsyncComm is one communication of a dependency-DAG execution: Flow plus
// the indices of the comms that must complete before it starts.
type AsyncComm struct {
	Flow
	Deps []int
}

// AsyncResult reports a dependency-DAG execution.
type AsyncResult struct {
	// Time is the completion time of the last communication in seconds.
	Time float64
	// Start and End give each communication's setup-start and transfer-
	// completion times (setup occupies the slot for Beta seconds before
	// bytes flow).
	Start, End []float64
	// MaxConcurrency is the largest number of simultaneously started
	// (setup or transferring) communications observed; it never exceeds
	// the k passed to RunAsync.
	MaxConcurrency int
}

// asyncState is a communication's lifecycle position.
type asyncState int

const (
	asyncWaiting asyncState = iota // dependencies outstanding
	asyncQueued                    // ready, waiting for a slot
	asyncSetup                     // slot held, paying the β setup delay
	asyncActive                    // transferring
	asyncDone
)

// RunAsync executes communications as a dependency DAG with weakened
// barriers (the post-processing the paper's §2.1 alludes to): a comm
// starts as soon as its dependencies are done *and* one of k backbone
// slots is free, pays beta seconds of setup while holding its slot, then
// transfers through the fluid network shared with every other active
// comm. Ready comms acquire slots in index order (step order), which
// keeps the execution fair to the original schedule.
func (s *Simulator) RunAsync(comms []AsyncComm, k int, beta float64) (AsyncResult, error) {
	if k <= 0 {
		return AsyncResult{}, fmt.Errorf("netsim: k must be positive, got %d", k)
	}
	if beta < 0 {
		return AsyncResult{}, fmt.Errorf("netsim: negative beta %g", beta)
	}
	flows := make([]Flow, len(comms))
	for i, c := range comms {
		flows[i] = c.Flow
	}
	if err := s.validateFlows(flows); err != nil {
		return AsyncResult{}, err
	}
	for i, c := range comms {
		for _, d := range c.Deps {
			if d < 0 || d >= i {
				return AsyncResult{}, fmt.Errorf("netsim: comm %d has non-backward dependency %d", i, d)
			}
		}
	}

	n := len(comms)
	res := AsyncResult{
		Start: make([]float64, n),
		End:   make([]float64, n),
	}
	if n == 0 {
		return res, nil
	}

	state := make([]asyncState, n)
	blockers := make([]int, n) // outstanding dependency count
	dependents := make([][]int, n)
	for i, c := range comms {
		blockers[i] = len(c.Deps)
		for _, d := range c.Deps {
			dependents[d] = append(dependents[d], i)
		}
	}
	remaining := make([]float64, n)
	setupEnd := make([]float64, n)
	for i, c := range comms {
		remaining[i] = c.Bytes
	}

	p := s.cfg.Platform
	nicSend := p.T1 / 8
	nicRecv := p.T2 / 8
	backbone := p.Backbone / 8

	now := 0.0
	done := 0
	slotsUsed := 0

	// promote moves ready comms into slots (setup state), in index order.
	promote := func() {
		for i := 0; i < n && slotsUsed < k; i++ {
			if state[i] != asyncQueued {
				continue
			}
			state[i] = asyncSetup
			setupEnd[i] = now + beta
			res.Start[i] = now
			slotsUsed++
		}
		inUse := slotsUsed
		if inUse > res.MaxConcurrency {
			res.MaxConcurrency = inUse
		}
	}
	finish := func(i int) {
		state[i] = asyncDone
		res.End[i] = now
		done++
		slotsUsed--
		for _, dep := range dependents[i] {
			blockers[dep]--
			if blockers[dep] == 0 && state[dep] == asyncWaiting {
				state[dep] = asyncQueued
			}
		}
	}

	for i := range comms {
		if blockers[i] == 0 {
			state[i] = asyncQueued
		}
	}
	promote()

	maxEvents := 6*n + 8
	for event := 0; done < n; event++ {
		if event > maxEvents {
			return AsyncResult{}, fmt.Errorf("netsim: async execution did not converge after %d events", event)
		}
		// Zero-byte comms in setup complete the moment setup ends; handle
		// transitions whose time is "now" first.
		progressed := false
		for i := range comms {
			switch state[i] {
			case asyncSetup:
				if setupEnd[i] <= now {
					if remaining[i] <= 0 {
						finish(i)
					} else {
						state[i] = asyncActive
					}
					progressed = true
				}
			case asyncActive:
				if remaining[i] <= 0 {
					finish(i)
					progressed = true
				}
			}
		}
		if progressed {
			promote()
			continue
		}

		// Fluid rates for active comms.
		idx := make([]int, 0, n)
		for i := range comms {
			if state[i] == asyncActive {
				idx = append(idx, i)
			}
		}
		var rates []float64
		if len(idx) > 0 {
			w := make([]float64, len(idx))
			for j := range w {
				w[j] = 1
			}
			send := make([][]int, p.N1)
			recv := make([][]int, p.N2)
			all := make([]int, len(idx))
			for j, i := range idx {
				send[comms[i].Src] = append(send[comms[i].Src], j)
				recv[comms[i].Dst] = append(recv[comms[i].Dst], j)
				all[j] = j
			}
			resources := make([]resource, 0, p.N1+p.N2+1)
			for _, members := range send {
				if len(members) > 0 {
					resources = append(resources, resource{capacity: nicSend, flows: members})
				}
			}
			for _, members := range recv {
				if len(members) > 0 {
					resources = append(resources, resource{capacity: nicRecv, flows: members})
				}
			}
			resources = append(resources, resource{capacity: backbone, flows: all})
			rates = maxMinRates(len(idx), w, resources)
		}

		// Next event: a transfer completion or a setup completion.
		dt := math.Inf(1)
		for j, i := range idx {
			if rates[j] <= 0 {
				return AsyncResult{}, fmt.Errorf("netsim: comm %d allocated zero rate", i)
			}
			if t := remaining[i] / rates[j]; t < dt {
				dt = t
			}
		}
		for i := range comms {
			if state[i] == asyncSetup && setupEnd[i]-now < dt {
				dt = setupEnd[i] - now
			}
		}
		if math.IsInf(dt, 1) {
			return AsyncResult{}, fmt.Errorf("netsim: async execution stalled with %d/%d comms done", done, n)
		}
		if dt < 0 {
			dt = 0
		}
		now += dt
		for j, i := range idx {
			remaining[i] -= rates[j] * dt
			if remaining[i] <= 1e-6 {
				remaining[i] = 0
			}
		}
	}
	res.Time = now
	return res, nil
}
