package experiments

import (
	"fmt"
	"math/rand"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/netsim"
	"redistgo/internal/stats"
	"redistgo/internal/trafficgen"
)

// NetworkConfig parameterizes the Figure 10/11 experiment: total
// redistribution time of brute-force TCP vs GGP vs OGGP on the paper's
// testbed platform (two 10-node clusters, 100 Mbit backbone, NICs shaped
// to 100/k Mbit/s), as the message-size upper bound n grows.
type NetworkConfig struct {
	K         int       // simultaneous communications (paper: 3, 5, 7)
	Nodes     int       // nodes per cluster (paper: 10)
	MinMB     float64   // lower bound of the uniform message size (paper: 10 MB)
	NsMB      []float64 // sweep of upper bounds n in MB
	BruteRuns int       // brute-force seeds per point (captures nondeterminism)
	BetaSec   float64   // barrier cost β in seconds
	Seed      int64
	// Congestion is the brute-force TCP model; Network overwrites its
	// Platform and Seed. FigureNetworkConfig sets the calibrated default
	// (netsim.DefaultConfig); the zero value is the ideal fluid network,
	// on which brute force and the schedules share bandwidth alike.
	Congestion netsim.Config
	// Shard selects component sharding inside each solve (kpbs
	// Options.Shard). The testbed matrices are dense all-pairs traffic —
	// a single component — so any mode reproduces the same schedules.
	Shard kpbs.ShardMode
}

// FigureNetworkConfig returns the paper's Figure 10 (k=3) or Figure 11
// (k=7) setup when called with that k, with brute force run on the
// calibrated TCP model.
func FigureNetworkConfig(k int, runs int, seed int64) NetworkConfig {
	return NetworkConfig{
		K:          k,
		Nodes:      10,
		MinMB:      10,
		NsMB:       []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		BruteRuns:  runs,
		BetaSec:    0.002, // an MPI barrier on 100 Mbit Ethernet: ~2 ms
		Seed:       seed,
		Congestion: netsim.DefaultConfig(netsim.Platform{}, 0),
	}
}

// Validate reports configuration errors.
func (c NetworkConfig) Validate() error {
	if c.K <= 0 || c.Nodes <= 0 || c.BruteRuns <= 0 {
		return fmt.Errorf("experiments: k, nodes and runs must be positive")
	}
	if c.MinMB <= 0 {
		return fmt.Errorf("experiments: minimum size must be positive")
	}
	if len(c.NsMB) == 0 {
		return fmt.Errorf("experiments: no size sweep values")
	}
	if c.BetaSec < 0 {
		return fmt.Errorf("experiments: negative beta")
	}
	return nil
}

// NetworkPoint is one x-position of Figure 10/11.
type NetworkPoint struct {
	NMB float64 // upper bound of the uniform message size, in MB

	BruteAvg, BruteMin, BruteMax float64 // seconds, across BruteRuns seeds
	BruteSpread                  float64 // (max-min)/avg nondeterminism

	GGPTime, OGGPTime   float64 // seconds (deterministic)
	GGPSteps, OGGPSteps int
}

// scheduleToFlowSteps converts a K-PBS schedule whose amounts are bytes
// into netsim step flow lists.
func scheduleToFlowSteps(s *kpbs.Schedule) [][]netsim.Flow {
	steps := make([][]netsim.Flow, 0, len(s.Steps))
	for _, st := range s.Steps {
		flows := make([]netsim.Flow, 0, len(st.Comms))
		for _, c := range st.Comms {
			flows = append(flows, netsim.Flow{Src: int(c.L), Dst: int(c.R), Bytes: float64(c.Amount)})
		}
		steps = append(steps, flows)
	}
	return steps
}

// Network runs the Figure 10/11 experiment on the netsim platform.
func Network(cfg NetworkConfig) ([]NetworkPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	platform := netsim.Platform{
		N1: cfg.Nodes, N2: cfg.Nodes,
		T1:       100 * netsim.Mbit / float64(cfg.K),
		T2:       100 * netsim.Mbit / float64(cfg.K),
		Backbone: 100 * netsim.Mbit,
	}
	// β in schedule weight units: the schedule weighs edges in bytes, and
	// one byte takes 8/speed seconds, so β seconds = β·speed/8 bytes.
	betaUnits := int64(cfg.BetaSec * platform.Speed() / 8)

	points := make([]NetworkPoint, 0, len(cfg.NsMB))
	for ni, nMB := range cfg.NsMB {
		if nMB < cfg.MinMB {
			return nil, fmt.Errorf("experiments: sweep value %g MB below minimum %g MB", nMB, cfg.MinMB)
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(ni)*1_000_003))
		matrix := trafficgen.DenseUniform(rng, cfg.Nodes, cfg.Nodes,
			int64(cfg.MinMB*netsim.MB), int64(nMB*netsim.MB))
		g, err := bipartite.FromMatrix(matrix)
		if err != nil {
			return nil, err
		}

		point := NetworkPoint{NMB: nMB}

		// Brute force under the TCP model, across several seeds.
		flows := make([]netsim.Flow, 0, cfg.Nodes*cfg.Nodes)
		for i, row := range matrix {
			for j, v := range row {
				flows = append(flows, netsim.Flow{Src: i, Dst: j, Bytes: float64(v)})
			}
		}
		var brute stats.Summary
		for run := 0; run < cfg.BruteRuns; run++ {
			simCfg := cfg.Congestion
			simCfg.Platform = platform
			simCfg.Seed = cfg.Seed*7919 + int64(ni)*127 + int64(run)
			sim, err := netsim.New(simCfg)
			if err != nil {
				return nil, err
			}
			res, err := sim.BruteForce(flows)
			if err != nil {
				return nil, err
			}
			brute.Add(res.Time)
		}
		point.BruteAvg = brute.Mean()
		point.BruteMin = brute.Min()
		point.BruteMax = brute.Max()
		point.BruteSpread = brute.RelSpread()

		// Scheduled execution: ideal fluid engine (no congestion model —
		// the scheduler never oversubscribes), deterministic.
		idealSim, err := netsim.New(netsim.Config{Platform: platform})
		if err != nil {
			return nil, err
		}
		for _, alg := range []kpbs.Algorithm{kpbs.GGP, kpbs.OGGP} {
			sched, err := kpbs.Solve(g, cfg.K, betaUnits, kpbs.Options{Algorithm: alg, Shard: cfg.Shard})
			if err != nil {
				return nil, err
			}
			res, err := idealSim.RunSteps(scheduleToFlowSteps(sched), cfg.BetaSec)
			if err != nil {
				return nil, err
			}
			if alg == kpbs.GGP {
				point.GGPTime = res.Time
				point.GGPSteps = res.Steps
			} else {
				point.OGGPTime = res.Time
				point.OGGPSteps = res.Steps
			}
		}
		points = append(points, point)
	}
	return points, nil
}
