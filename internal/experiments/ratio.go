// Package experiments regenerates every figure of the paper's evaluation
// (§5): the Monte-Carlo evaluation-ratio sweeps of Figures 7–9 and the
// testbed comparisons of Figures 10–11 (on the netsim substitute
// platform). Each harness returns the series the paper plots; the cmd/
// tools and benchmarks render them.
package experiments

import (
	"fmt"
	"math/rand"

	"redistgo/internal/bipartite"
	"redistgo/internal/engine"
	"redistgo/internal/kpbs"
	"redistgo/internal/obs"
	"redistgo/internal/stats"
	"redistgo/internal/trafficgen"
)

// RatioConfig parameterizes the Figure 7/8 sweeps: evaluation ratio
// (schedule cost / lower bound) as k increases.
type RatioConfig struct {
	Runs     int   // instances per k value (paper: 100000)
	MaxNodes int   // nodes per side, uniform in [1, MaxNodes] (paper: 40)
	MaxEdges int   // edges, uniform in [1, MaxEdges] (paper: 400)
	MinW     int64 // uniform weight range (paper Fig 7: [1,20]; Fig 8: [1,10000])
	MaxW     int64
	Beta     int64 // setup delay (paper: 1)
	Ks       []int // k values to sweep
	Seed     int64
	Workers  int // concurrent solver goroutines (≤ 0: GOMAXPROCS); results are identical for any value
	// Shard selects component sharding inside each solve (kpbs
	// Options.Shard). The paper's random instances often split into several
	// components, so ShardAuto accelerates the sweep on multi-core hosts.
	Shard kpbs.ShardMode
	// Obs observes the sweep through the batch engine (queue depth,
	// per-instance latency, per-algorithm solver metrics). nil disables;
	// the figures are identical either way.
	Obs *obs.Observer
}

// Validate reports configuration errors.
func (c RatioConfig) Validate() error {
	if c.Runs <= 0 || c.MaxNodes <= 0 || c.MaxEdges <= 0 {
		return fmt.Errorf("experiments: runs, nodes and edges must be positive")
	}
	if c.MinW <= 0 || c.MaxW < c.MinW {
		return fmt.Errorf("experiments: bad weight range [%d,%d]", c.MinW, c.MaxW)
	}
	if c.Beta < 0 {
		return fmt.Errorf("experiments: negative beta %d", c.Beta)
	}
	if len(c.Ks) == 0 {
		return fmt.Errorf("experiments: no k values")
	}
	return nil
}

// Figure7Config returns the paper's Figure 7 setup (small weights), with
// runs-per-point scaled down from the paper's 100000 to keep the default
// regeneration fast; pass a bigger Runs to converge further.
func Figure7Config(runs int, seed int64) RatioConfig {
	return RatioConfig{
		Runs: runs, MaxNodes: 40, MaxEdges: 400,
		MinW: 1, MaxW: 20, Beta: 1,
		Ks:   []int{1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 36, 40},
		Seed: seed,
	}
}

// Figure8Config returns the paper's Figure 8 setup (large weights, up to
// 10000 — communications far longer than the setup delay).
func Figure8Config(runs int, seed int64) RatioConfig {
	c := Figure7Config(runs, seed)
	c.MaxW = 10000
	return c
}

// RatioPoint is one x-position of a ratio figure: the average and maximum
// evaluation ratio over the sample, for GGP and OGGP.
type RatioPoint struct {
	X       float64 // k for Figures 7/8, β (in weight units) for Figure 9
	GGPAvg  float64
	GGPMax  float64
	OGGPAvg float64
	OGGPMax float64
}

// ratioChunk bounds how many (graph, GGP/OGGP) pairs are in flight per
// engine batch: instance generation stays serial (so the RNG stream, and
// hence the figures, are byte-identical to the historical serial loop)
// while the solving — the hot part — fans out across the worker pool.
// The cap keeps memory flat for publication-size runs (100000 per point).
const ratioChunk = 512

// accumulateRatios schedules every graph with GGP and OGGP on the batch
// engine and folds cost/LB into the two summaries in input order.
// ks[i] and betas[i] are the parameters of gs[i].
func accumulateRatios(gs []*bipartite.Graph, ks []int, betas []int64, workers int, shard kpbs.ShardMode, o *obs.Observer, ggp, oggp *stats.Summary) error {
	insts := make([]engine.Instance, 0, 2*len(gs))
	for i, g := range gs {
		insts = append(insts,
			engine.Instance{G: g, K: ks[i], Beta: betas[i], Opts: kpbs.Options{Algorithm: kpbs.GGP, Shard: shard}},
			engine.Instance{G: g, K: ks[i], Beta: betas[i], Opts: kpbs.Options{Algorithm: kpbs.OGGP, Shard: shard}})
	}
	res := engine.SolveBatch(insts, engine.Options{Workers: workers, Obs: o})
	for i := range gs {
		lb := kpbs.LowerBound(gs[i], ks[i], betas[i])
		if lb <= 0 {
			return fmt.Errorf("experiments: non-positive lower bound %d", lb)
		}
		for j, sum := range [...]*stats.Summary{ggp, oggp} {
			r := res[2*i+j]
			if r.Err != nil {
				return r.Err
			}
			sum.Add(float64(r.Schedule.Cost()) / float64(lb))
		}
	}
	return nil
}

// RatioVsK runs the Figure 7/8 experiment: for every k in cfg.Ks, cfg.Runs
// random instances are generated, scheduled with GGP and OGGP, and
// compared to the K-PBS lower bound.
func RatioVsK(cfg RatioConfig) ([]RatioPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	points := make([]RatioPoint, 0, len(cfg.Ks))
	for ki, k := range cfg.Ks {
		if k <= 0 {
			return nil, fmt.Errorf("experiments: non-positive k %d", k)
		}
		// Independent deterministic substream per point. Graphs are drawn
		// serially from it, then solved concurrently in chunks; the figures
		// are identical to the historical serial loop for any worker count.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(ki)*1_000_003))
		var ggp, oggp stats.Summary
		for done := 0; done < cfg.Runs; {
			n := cfg.Runs - done
			if n > ratioChunk {
				n = ratioChunk
			}
			gs := make([]*bipartite.Graph, n)
			ks := make([]int, n)
			betas := make([]int64, n)
			for i := range gs {
				gs[i] = trafficgen.PaperRandom(rng, cfg.MaxNodes, cfg.MaxEdges, cfg.MinW, cfg.MaxW)
				ks[i] = k
				betas[i] = cfg.Beta
			}
			if err := accumulateRatios(gs, ks, betas, cfg.Workers, cfg.Shard, cfg.Obs, &ggp, &oggp); err != nil {
				return nil, err
			}
			done += n
		}
		points = append(points, RatioPoint{
			X:      float64(k),
			GGPAvg: ggp.Mean(), GGPMax: ggp.Max(),
			OGGPAvg: oggp.Mean(), OGGPMax: oggp.Max(),
		})
	}
	return points, nil
}

// BetaConfig parameterizes the Figure 9 sweep: evaluation ratio as β
// increases with small weights and random k. Fractional β/weight ratios
// are realized in integer arithmetic by scaling the weights by
// WeightScale and sweeping integer β values around it.
type BetaConfig struct {
	Runs        int
	MaxNodes    int
	MaxEdges    int
	MinW, MaxW  int64 // pre-scale weight range (paper: [1,20])
	WeightScale int64 // weights are multiplied by this (β=WeightScale is "β equal to one weight unit")
	Betas       []int64
	Seed        int64
	Workers     int // concurrent solver goroutines (≤ 0: GOMAXPROCS); results are identical for any value
	// Shard selects component sharding inside each solve, as in
	// RatioConfig.Shard.
	Shard kpbs.ShardMode
	// Obs observes the sweep through the batch engine; nil disables. The
	// figures are identical either way.
	Obs *obs.Observer
}

// Figure9Config returns the paper's Figure 9 setup: weights 1..20, β
// sweeping from 1/64 to 1024 weight units.
func Figure9Config(runs int, seed int64) BetaConfig {
	scale := int64(64)
	var betas []int64
	for b := int64(1); b <= 1024*scale; b *= 4 {
		betas = append(betas, b)
	}
	return BetaConfig{
		Runs: runs, MaxNodes: 40, MaxEdges: 400,
		MinW: 1, MaxW: 20, WeightScale: scale,
		Betas: betas, Seed: seed,
	}
}

// Validate reports configuration errors.
func (c BetaConfig) Validate() error {
	if c.Runs <= 0 || c.MaxNodes <= 0 || c.MaxEdges <= 0 {
		return fmt.Errorf("experiments: runs, nodes and edges must be positive")
	}
	if c.MinW <= 0 || c.MaxW < c.MinW || c.WeightScale <= 0 {
		return fmt.Errorf("experiments: bad weight configuration")
	}
	if len(c.Betas) == 0 {
		return fmt.Errorf("experiments: no beta values")
	}
	return nil
}

// RatioVsBeta runs the Figure 9 experiment. Each instance draws a random
// k in [1, MaxNodes] as the paper does; the returned X values are β in
// weight units (β/WeightScale).
func RatioVsBeta(cfg BetaConfig) ([]RatioPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	points := make([]RatioPoint, 0, len(cfg.Betas))
	for bi, beta := range cfg.Betas {
		if beta < 0 {
			return nil, fmt.Errorf("experiments: negative beta %d", beta)
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(bi)*1_000_003))
		var ggp, oggp stats.Summary
		for done := 0; done < cfg.Runs; {
			n := cfg.Runs - done
			if n > ratioChunk {
				n = ratioChunk
			}
			gs := make([]*bipartite.Graph, n)
			ks := make([]int, n)
			betas := make([]int64, n)
			for i := range gs {
				// Keep the historical RNG call order: graph first, then k.
				gs[i] = trafficgen.PaperRandom(rng, cfg.MaxNodes, cfg.MaxEdges, cfg.MinW*cfg.WeightScale, cfg.MaxW*cfg.WeightScale)
				ks[i] = 1 + rng.Intn(cfg.MaxNodes)
				betas[i] = beta
			}
			if err := accumulateRatios(gs, ks, betas, cfg.Workers, cfg.Shard, cfg.Obs, &ggp, &oggp); err != nil {
				return nil, err
			}
			done += n
		}
		points = append(points, RatioPoint{
			X:      float64(beta) / float64(cfg.WeightScale),
			GGPAvg: ggp.Mean(), GGPMax: ggp.Max(),
			OGGPAvg: oggp.Mean(), OGGPMax: oggp.Max(),
		})
	}
	return points, nil
}
