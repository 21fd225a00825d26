package redistgo

import (
	"redistgo/internal/kpbs"
	"redistgo/internal/netsim"
)

// Platform describes the redistribution architecture (paper §2.1,
// Figure 1): two clusters of N1 and N2 nodes with per-node NIC
// throughputs T1 and T2 bits/s, interconnected by a backbone of
// throughput Backbone bits/s. Platform.K() derives the maximum number of
// congestion-free simultaneous communications; Platform.Speed() the
// per-communication rate.
type Platform = netsim.Platform

// Flow is one point-to-point transfer for the network simulator.
type Flow = netsim.Flow

// SimConfig parameterizes the fluid network simulator, including the TCP
// congestion model applied to brute-force transfers.
type SimConfig = netsim.Config

// SimResult reports a simulated redistribution.
type SimResult = netsim.Result

// Simulator is a fluid-flow simulator of the cluster platform. It
// substitutes for the paper's real 2×10-node testbed (DESIGN.md §5).
type Simulator = netsim.Simulator

// Unit multipliers for Platform throughputs (bits/s) and Flow sizes
// (bytes).
const (
	Kbit = netsim.Kbit
	Mbit = netsim.Mbit
	Gbit = netsim.Gbit
	KB   = netsim.KB
	MB   = netsim.MB
	GB   = netsim.GB
)

// NewSimulator returns a simulator for the given configuration. With all
// four TCP-model terms zero (CongestionAlpha, JitterSigma, FlowOverhead
// and RunJitterSigma), brute force runs on the ideal fluid network; use
// DefaultSimConfig for the calibrated TCP model.
func NewSimulator(cfg SimConfig) (*Simulator, error) { return netsim.New(cfg) }

// DefaultSimConfig returns a simulator configuration with the calibrated
// TCP congestion model (backbone derating + per-flow unfairness jitter)
// used to reproduce the paper's Figures 10–11.
func DefaultSimConfig(p Platform, seed int64) SimConfig {
	return netsim.DefaultConfig(p, seed)
}

// PaperTestbed returns the platform of the paper's §5.2 experiments: two
// 10-node clusters on a 100 Mbit backbone with NICs shaped to 100/k
// Mbit/s.
func PaperTestbed(k int) Platform { return netsim.PaperTestbed(k) }

// FlowSteps converts a schedule whose amounts are bytes into the per-step
// flow lists consumed by Simulator.RunSteps.
func FlowSteps(s *Schedule) [][]Flow {
	steps := make([][]Flow, 0, len(s.Steps))
	for _, st := range s.Steps {
		flows := make([]Flow, 0, len(st.Comms))
		for _, c := range st.Comms {
			flows = append(flows, Flow{Src: int(c.L), Dst: int(c.R), Bytes: float64(c.Amount)})
		}
		steps = append(steps, flows)
	}
	return steps
}

// AsyncPlan is a dependency-DAG version of a schedule with weakened
// barriers (the post-processing the paper's §2.1 alludes to): each
// communication waits only for its own endpoints' earlier
// communications. Build one with Schedule.AsyncPlan.
type AsyncPlan = kpbs.AsyncPlan

// AsyncComm is one communication of an asynchronous execution.
type AsyncNetComm = netsim.AsyncComm

// AsyncResult reports an asynchronous execution.
type AsyncResult = netsim.AsyncResult

// AsyncComms converts a dependency plan whose amounts are bytes into the
// input of Simulator.RunAsync.
func AsyncComms(p *AsyncPlan) []AsyncNetComm {
	out := make([]AsyncNetComm, len(p.Comms))
	for i, c := range p.Comms {
		out[i] = AsyncNetComm{
			Flow: Flow{Src: c.L, Dst: c.R, Bytes: float64(c.Amount)},
			Deps: p.Deps[i],
		}
	}
	return out
}

// MatrixFlows converts a traffic matrix in bytes into the all-at-once
// flow list of the brute-force baseline.
func MatrixFlows(m [][]int64) []Flow {
	var flows []Flow
	for i, row := range m {
		for j, v := range row {
			if v > 0 {
				flows = append(flows, Flow{Src: i, Dst: j, Bytes: float64(v)})
			}
		}
	}
	return flows
}
