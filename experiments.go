package redistgo

import (
	"redistgo/internal/experiments"
)

// The experiment harnesses regenerate the figures of the paper's
// evaluation (§5). See EXPERIMENTS.md for paper-vs-measured results.

// RatioConfig parameterizes the Figure 7/8 sweeps (evaluation ratio vs k).
type RatioConfig = experiments.RatioConfig

// BetaConfig parameterizes the Figure 9 sweep (evaluation ratio vs β).
type BetaConfig = experiments.BetaConfig

// NetworkConfig parameterizes the Figure 10/11 testbed comparison.
type NetworkConfig = experiments.NetworkConfig

// RatioPoint is one x-position of a ratio figure.
type RatioPoint = experiments.RatioPoint

// NetworkPoint is one x-position of Figure 10/11.
type NetworkPoint = experiments.NetworkPoint

// Figure7Config returns the paper's Figure 7 setup (small weights,
// β = 1) with the given Monte-Carlo sample size per point.
func Figure7Config(runs int, seed int64) RatioConfig {
	return experiments.Figure7Config(runs, seed)
}

// Figure8Config returns the paper's Figure 8 setup (weights up to 10000).
func Figure8Config(runs int, seed int64) RatioConfig {
	return experiments.Figure8Config(runs, seed)
}

// Figure9Config returns the paper's Figure 9 setup (β sweeping from far
// below to far above the weights; k random per instance).
func Figure9Config(runs int, seed int64) BetaConfig {
	return experiments.Figure9Config(runs, seed)
}

// FigureNetworkConfig returns the paper's Figure 10 (k = 3) or Figure 11
// (k = 7) setup, with brute force run on the calibrated TCP model (a zero
// Congestion runs it on the ideal fluid network instead).
func FigureNetworkConfig(k, runs int, seed int64) NetworkConfig {
	return experiments.FigureNetworkConfig(k, runs, seed)
}

// RatioVsK runs the Figure 7/8 experiment.
func RatioVsK(cfg RatioConfig) ([]RatioPoint, error) { return experiments.RatioVsK(cfg) }

// RatioVsBeta runs the Figure 9 experiment.
func RatioVsBeta(cfg BetaConfig) ([]RatioPoint, error) { return experiments.RatioVsBeta(cfg) }

// NetworkExperiment runs the Figure 10/11 experiment on the simulated
// testbed.
func NetworkExperiment(cfg NetworkConfig) ([]NetworkPoint, error) {
	return experiments.Network(cfg)
}
