// Command redist-experiments regenerates the figures of the paper's
// evaluation section (§5) and prints them as CSV or markdown tables.
//
//	redist-experiments -fig 7 -runs 2000            # ratio vs k, small weights
//	redist-experiments -fig 8 -runs 2000            # ratio vs k, large weights
//	redist-experiments -fig 9 -runs 2000            # ratio vs beta
//	redist-experiments -fig 10 -runs 5              # testbed, k=3
//	redist-experiments -fig 11 -runs 5 -format md   # testbed, k=7
//	redist-experiments -fig agg -runs 50            # gateway aggregation vs beta
//
// The paper used 100000 Monte-Carlo runs per point for Figures 7–9; the
// default here is smaller so a full regeneration takes seconds, and the
// -runs flag restores any sample size.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"redistgo"
	"redistgo/internal/experiments"
	"redistgo/internal/obsflag"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "redist-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("redist-experiments", flag.ContinueOnError)
	fig := fs.String("fig", "7", "figure to regenerate: 7, 8, 9, 10, 11, or the extension sweep agg")
	runs := fs.Int("runs", 0, "Monte-Carlo runs per point (0 = figure-specific default)")
	seed := fs.Int64("seed", 1, "random seed")
	format := fs.String("format", "csv", "output format: csv or md")
	workers := fs.Int("workers", 0, "concurrent solver goroutines for the ratio sweeps (0 = GOMAXPROCS, 1 = serial); output is identical for any value")
	shard := fs.String("shard", "off", "component sharding inside each solve: off (historical figures) or auto")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the run to this file (go tool pprof)")
	obsFlags := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	observer, obsFinish, err := obsFlags.Start(stdout)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := obsFinish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	if *format != "csv" && *format != "md" {
		return fmt.Errorf("unknown format %q (want csv or md)", *format)
	}
	md := *format == "md"
	shardMode, err := redistgo.ParseShardMode(*shard)
	if err != nil {
		return err
	}

	// Profiling hooks so hot-path work (the peeling engine above all) can
	// be profiled on any figure workload without editing code.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "redist-experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize only live heap objects in the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "redist-experiments: memprofile:", err)
			}
		}()
	}

	switch *fig {
	case "7", "8":
		n := defaultRuns(*runs, 2000)
		var cfg redistgo.RatioConfig
		if *fig == "7" {
			cfg = redistgo.Figure7Config(n, *seed)
		} else {
			cfg = redistgo.Figure8Config(n, *seed)
		}
		cfg.Workers = *workers
		cfg.Shard = shardMode
		cfg.Obs = observer
		points, err := redistgo.RatioVsK(cfg)
		if err != nil {
			return err
		}
		if md {
			return experiments.WriteRatioMarkdown(stdout, "k", points)
		}
		return experiments.WriteRatioCSV(stdout, "k", points)
	case "9":
		n := defaultRuns(*runs, 2000)
		cfg := redistgo.Figure9Config(n, *seed)
		cfg.Workers = *workers
		cfg.Shard = shardMode
		cfg.Obs = observer
		points, err := redistgo.RatioVsBeta(cfg)
		if err != nil {
			return err
		}
		if md {
			return experiments.WriteRatioMarkdown(stdout, "beta", points)
		}
		return experiments.WriteRatioCSV(stdout, "beta", points)
	case "10", "11":
		n := defaultRuns(*runs, 5)
		k := 3
		if *fig == "11" {
			k = 7
		}
		netCfg := redistgo.FigureNetworkConfig(k, n, *seed)
		netCfg.Shard = shardMode
		points, err := redistgo.NetworkExperiment(netCfg)
		if err != nil {
			return err
		}
		if md {
			return experiments.WriteNetworkMarkdown(stdout, points)
		}
		return experiments.WriteNetworkCSV(stdout, points)
	case "agg":
		n := defaultRuns(*runs, 50)
		points, err := experiments.AggregationSweep(experiments.DefaultAggregationConfig(n, *seed))
		if err != nil {
			return err
		}
		if md {
			return experiments.WriteAggregationMarkdown(stdout, points)
		}
		return experiments.WriteAggregationCSV(stdout, points)
	}
	return fmt.Errorf("unknown figure %q (want 7, 8, 9, 10, 11 or agg)", *fig)
}

func defaultRuns(requested, def int) int {
	if requested > 0 {
		return requested
	}
	return def
}
