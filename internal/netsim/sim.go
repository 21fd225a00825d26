package netsim

import (
	"fmt"
	"math"
	"math/rand"
)

// Flow is one point-to-point transfer: Bytes bytes from sender Src (a C1
// node) to receiver Dst (a C2 node).
type Flow struct {
	Src, Dst int
	Bytes    float64
}

// Config parameterizes a Simulator.
type Config struct {
	Platform Platform

	// CongestionAlpha controls the TCP derating applied to the backbone in
	// brute-force mode when it is oversubscribed: with offered/capacity
	// ratio ρ > 1 the effective backbone capacity becomes
	// T / (1 + CongestionAlpha·(ρ − 1)). Zero disables derating.
	// The default (DefaultCongestionAlpha) is calibrated so the paper's
	// reported 5–20 % brute-force penalty is reproduced for k = 3..7.
	CongestionAlpha float64

	// JitterSigma is the standard deviation of the per-flow lognormal
	// unfairness factor applied in brute-force mode (TCP flows never share
	// perfectly; persistent per-flow throughput differences create
	// stragglers and run-to-run variance). Zero disables jitter.
	JitterSigma float64

	// FlowOverhead (bits/s) models TCP's loss-recovery inefficiency over
	// shaped links in brute-force mode: retransmissions and window stalls
	// cost a roughly constant bit-rate budget per NIC, so on a link shaped
	// to t bits/s every flow only converts the fraction t/(t+FlowOverhead)
	// of its allocation into goodput. Tightly shaped NICs (large k on the
	// paper's 100/k Mbit testbed) lose proportionally more — the reason
	// the paper's measured gains grow with k. Zero disables the overhead.
	FlowOverhead float64

	// RunJitterSigma is the standard deviation of a run-level lognormal
	// factor on the congested backbone's effective capacity in
	// brute-force mode: how lucky this run's TCP dynamics were overall.
	// It reproduces the paper's observation that repeated brute-force
	// runs vary by up to ~10 % while scheduled runs are deterministic.
	RunJitterSigma float64

	// Seed drives the jitter; the same seed reproduces the same run.
	Seed int64
}

// Default congestion-model parameters (see DESIGN.md §5 for calibration).
const (
	DefaultCongestionAlpha = 0.03
	DefaultJitterSigma     = 0.10
	DefaultFlowOverhead    = 2 * Mbit
	DefaultRunJitterSigma  = 0.02
)

// DefaultConfig returns a Config with the calibrated TCP model.
func DefaultConfig(p Platform, seed int64) Config {
	return Config{
		Platform:        p,
		CongestionAlpha: DefaultCongestionAlpha,
		JitterSigma:     DefaultJitterSigma,
		FlowOverhead:    DefaultFlowOverhead,
		RunJitterSigma:  DefaultRunJitterSigma,
		Seed:            seed,
	}
}

// Result reports a simulated redistribution.
type Result struct {
	// Time is the total wall-clock seconds, including barrier costs in
	// scheduled mode.
	Time float64
	// Steps is the number of communication steps (1 for brute force).
	Steps int
	// StepTimes lists the duration of each step, excluding barriers.
	StepTimes []float64
}

// Simulator runs fluid-flow simulations over one platform.
type Simulator struct {
	cfg Config
}

// Platform returns the simulator's platform description.
func (s *Simulator) Platform() Platform { return s.cfg.Platform }

// New returns a Simulator for the given configuration.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.CongestionAlpha < 0 || cfg.JitterSigma < 0 || cfg.FlowOverhead < 0 || cfg.RunJitterSigma < 0 {
		return nil, fmt.Errorf("netsim: congestion parameters must be non-negative")
	}
	return &Simulator{cfg: cfg}, nil
}

// validateFlows checks endpoints and sizes.
func (s *Simulator) validateFlows(flows []Flow) error {
	p := s.cfg.Platform
	for i, f := range flows {
		if f.Src < 0 || f.Src >= p.N1 {
			return fmt.Errorf("netsim: flow %d sender %d out of range [0,%d)", i, f.Src, p.N1)
		}
		if f.Dst < 0 || f.Dst >= p.N2 {
			return fmt.Errorf("netsim: flow %d receiver %d out of range [0,%d)", i, f.Dst, p.N2)
		}
		if f.Bytes < 0 || math.IsNaN(f.Bytes) || math.IsInf(f.Bytes, 0) {
			return fmt.Errorf("netsim: flow %d has invalid size %g", i, f.Bytes)
		}
	}
	return nil
}

// BruteForce simulates the paper's baseline: every flow starts at time
// zero and the transport layer alone handles the contention. Returns the
// completion time of the last flow.
func (s *Simulator) BruteForce(flows []Flow) (Result, error) {
	if err := s.validateFlows(flows); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	weights := make([]float64, len(flows))
	for i := range weights {
		if s.cfg.JitterSigma > 0 {
			weights[i] = math.Exp(rng.NormFloat64() * s.cfg.JitterSigma)
		} else {
			weights[i] = 1
		}
	}
	runEff := 1.0
	if s.cfg.RunJitterSigma > 0 {
		// Run-level TCP luck: one lognormal factor for the whole run.
		runEff = math.Exp(rng.NormFloat64() * s.cfg.RunJitterSigma)
	}
	end, err := s.drain(flows, weights, true, 0)
	if err != nil {
		return Result{}, err
	}
	t := end / runEff
	return Result{Time: t, Steps: 1, StepTimes: []float64{t}}, nil
}

// RunSteps simulates a scheduled redistribution: the steps execute in
// order, separated by barriers costing beta seconds each (one barrier per
// step, as in the paper's cost model Σ(β + W(M_i))). Within a step all
// flows share the network fairly and without congestion derating: the
// scheduler guarantees at most k compatible flows.
func (s *Simulator) RunSteps(steps [][]Flow, beta float64) (Result, error) {
	if beta < 0 {
		return Result{}, fmt.Errorf("netsim: negative beta %g", beta)
	}
	res := Result{Steps: len(steps)}
	cursor := 0.0
	for i, step := range steps {
		if err := s.validateFlows(step); err != nil {
			return Result{}, fmt.Errorf("step %d: %w", i, err)
		}
		weights := make([]float64, len(step))
		for j := range weights {
			weights[j] = 1
		}
		cursor += beta
		end, err := s.drain(step, weights, false, cursor)
		if err != nil {
			return Result{}, fmt.Errorf("step %d: %w", i, err)
		}
		res.StepTimes = append(res.StepTimes, end-cursor)
		cursor = end
	}
	res.Time = cursor
	return res, nil
}

// drain runs the fluid event loop from absolute time start until every
// flow completes and returns the absolute end time. tcpModel enables the
// congestion model.
func (s *Simulator) drain(flows []Flow, weights []float64, tcpModel bool, start float64) (float64, error) {
	p := s.cfg.Platform
	remaining := make([]float64, len(flows))
	active := 0
	for i, f := range flows {
		remaining[i] = f.Bytes
		if f.Bytes > 0 {
			active++
		}
	}
	now := start
	nicSend := p.T1 / 8 // bytes/s
	nicRecv := p.T2 / 8
	backbone := p.Backbone / 8

	maxIter := 2*len(flows) + 4
	for iter := 0; active > 0; iter++ {
		if iter > maxIter {
			return 0, fmt.Errorf("netsim: event loop did not converge after %d iterations", iter)
		}
		// Build resources over active flows (indices into flows).
		idx := make([]int, 0, active)
		for i := range flows {
			if remaining[i] > 0 {
				idx = append(idx, i)
			}
		}
		w := make([]float64, len(idx))
		for j, i := range idx {
			w[j] = weights[i]
		}
		// Group flows by NIC with deterministic (node-index) ordering so
		// that simulated times are bit-for-bit reproducible.
		send := make([][]int, p.N1)
		recv := make([][]int, p.N2)
		all := make([]int, len(idx))
		for j, i := range idx {
			send[flows[i].Src] = append(send[flows[i].Src], j)
			recv[flows[i].Dst] = append(recv[flows[i].Dst], j)
			all[j] = j
		}
		bb := backbone
		if tcpModel && s.cfg.CongestionAlpha > 0 {
			// Offered load: what the NICs alone would push at the
			// backbone. ρ > 1 means packet loss, shrinking windows and
			// wasted capacity; derate accordingly.
			offered := s.offeredLoad(len(idx), w, send, recv)
			if rho := offered / backbone; rho > 1 {
				bb = backbone / (1 + s.cfg.CongestionAlpha*(rho-1))
			}
		}
		resources := make([]resource, 0, len(send)+len(recv)+1)
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
		resources = append(resources, resource{capacity: bb, flows: all})

		rates := maxMinRates(len(idx), w, resources)
		if tcpModel && s.cfg.FlowOverhead > 0 {
			// Goodput inefficiency of TCP over shaped links: the slower
			// the shaped line rate, the larger the share of its budget a
			// flow wastes on retransmissions and recovery stalls. The
			// wasted capacity is consumed, not reallocated.
			t := math.Min(p.T1, p.T2)
			phi := t / (t + s.cfg.FlowOverhead)
			for j := range rates {
				rates[j] *= phi
			}
		}

		// Next event: a flow completion.
		dt := math.Inf(1)
		for j, i := range idx {
			if rates[j] <= 0 {
				return 0, fmt.Errorf("netsim: flow %d allocated zero rate", i)
			}
			if t := remaining[i] / rates[j]; t < dt {
				dt = t
			}
		}
		now += dt
		for j, i := range idx {
			remaining[i] -= rates[j] * dt
			if remaining[i] <= 1e-6 {
				remaining[i] = 0
				active--
			}
		}
	}
	return now, nil
}

// offeredLoad computes the aggregate rate the active flows would achieve
// if the backbone were infinite: the max-min allocation under NIC
// constraints only. This is what TCP initially pushes into the backbone.
func (s *Simulator) offeredLoad(numFlows int, w []float64, send, recv [][]int) float64 {
	p := s.cfg.Platform
	resources := make([]resource, 0, len(send)+len(recv))
	for _, members := range send {
		if len(members) > 0 {
			resources = append(resources, resource{capacity: p.T1 / 8, flows: members})
		}
	}
	for _, members := range recv {
		if len(members) > 0 {
			resources = append(resources, resource{capacity: p.T2 / 8, flows: members})
		}
	}
	rates := maxMinRates(numFlows, w, resources)
	total := 0.0
	for _, r := range rates {
		total += r
	}
	return total
}
