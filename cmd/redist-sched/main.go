// Command redist-sched schedules a redistribution traffic matrix with the
// GGP/OGGP algorithms and prints the resulting communication steps.
//
// The input is a JSON 2-D array of non-negative integers: entry [i][j] is
// the amount of data (abstract units or bytes) node i of the sending
// cluster transfers to node j of the receiving cluster.
//
// Usage:
//
//	redist-sched -k 3 -beta 1 -alg oggp matrix.json
//	echo '[[40,0,12],[0,30,7]]' | redist-sched -k 2 -gantt
//
// Output: the step list (and optionally an ASCII Gantt chart or JSON),
// plus the cost and its ratio to the K-PBS lower bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"redistgo"
	"redistgo/internal/obsflag"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "redist-sched:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("redist-sched", flag.ContinueOnError)
	k := fs.Int("k", 1, "maximum simultaneous communications (backbone constraint)")
	beta := fs.Int64("beta", 0, "per-step setup delay, in the same unit as the matrix entries")
	alg := fs.String("alg", "oggp", "algorithm: ggp, oggp, minsteps or greedy")
	shard := fs.String("shard", "auto", "component sharding: off or auto (shard multi-component graphs)")
	pack := fs.Bool("pack", false, "fuse compatible steps after solving (extension)")
	gantt := fs.Bool("gantt", false, "print an ASCII Gantt chart")
	svgPath := fs.String("svg", "", "write an SVG Gantt chart to this file")
	asJSON := fs.Bool("json", false, "print the schedule as JSON instead of text")
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

	var in io.Reader = stdin
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one input file, got %d", fs.NArg())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var matrix [][]int64
	if err := json.NewDecoder(in).Decode(&matrix); err != nil {
		return fmt.Errorf("parsing traffic matrix: %w", err)
	}
	g, err := redistgo.FromMatrix(matrix)
	if err != nil {
		return err
	}

	algorithm, err := parseAlgorithm(*alg)
	if err != nil {
		return err
	}
	shardMode, err := redistgo.ParseShardMode(*shard)
	if err != nil {
		return err
	}
	sched, err := redistgo.Solve(g, *k, *beta, redistgo.Options{Algorithm: algorithm, Pack: *pack, Shard: shardMode, Obs: observer})
	if err != nil {
		return err
	}
	if err := sched.Validate(g, *k); err != nil {
		return fmt.Errorf("internal error, invalid schedule: %w", err)
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sched)
	}
	fmt.Fprint(stdout, sched)
	lb := redistgo.LowerBound(g, *k, *beta)
	if lb > 0 {
		fmt.Fprintf(stdout, "lower bound %d, evaluation ratio %.4f\n", lb, float64(sched.Cost())/float64(lb))
	}
	if *gantt {
		fmt.Fprint(stdout, sched.Gantt(g.LeftCount()))
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		title := fmt.Sprintf("%v schedule, k=%d, beta=%d", algorithm, *k, *beta)
		if err := redistgo.WriteScheduleSVG(f, sched, g.LeftCount(), redistgo.SVGOptions{Title: title}); err != nil {
			return err
		}
	}
	return nil
}

func parseAlgorithm(name string) (redistgo.Algorithm, error) {
	switch strings.ToLower(name) {
	case "ggp":
		return redistgo.GGP, nil
	case "oggp":
		return redistgo.OGGP, nil
	case "minsteps":
		return redistgo.MinSteps, nil
	case "greedy":
		return redistgo.Greedy, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want ggp, oggp, minsteps or greedy)", name)
}
