// Command redist-net compares brute-force TCP against scheduled
// redistribution on a configurable platform, using either the fluid
// network simulator (-engine sim, default) or the real loopback-TCP
// runtime with token-bucket shaping (-engine tcp).
//
//	redist-net -k 3 -nodes 10 -min-mb 10 -max-mb 50            # simulator
//	redist-net -engine tcp -k 2 -nodes 3 -min-mb 0.05 -max-mb 0.2
//
// With -engine tcp the sizes are real bytes pushed through real sockets;
// keep them small.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"redistgo"
	"redistgo/internal/obsflag"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "redist-net:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("redist-net", flag.ContinueOnError)
	engine := fs.String("engine", "sim", "execution engine: sim (fluid simulator) or tcp (loopback sockets)")
	k := fs.Int("k", 3, "simultaneous communications; NICs are shaped to backbone/k")
	nodes := fs.Int("nodes", 10, "nodes per cluster")
	minMB := fs.Float64("min-mb", 10, "minimum message size in MB")
	maxMB := fs.Float64("max-mb", 50, "maximum message size in MB")
	betaMS := fs.Float64("beta-ms", 2, "barrier cost in milliseconds")
	seed := fs.Int64("seed", 1, "random seed")
	backboneMbit := fs.Float64("backbone-mbit", 100, "backbone throughput in Mbit/s")
	shard := fs.String("shard", "auto", "component sharding: off or auto (shard multi-component graphs)")
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
	if *minMB <= 0 || *maxMB < *minMB {
		return fmt.Errorf("bad size range [%g, %g] MB", *minMB, *maxMB)
	}
	if *k <= 0 || *nodes <= 0 {
		return fmt.Errorf("k and nodes must be positive")
	}
	shardMode, err := redistgo.ParseShardMode(*shard)
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	matrix := redistgo.DenseUniformMatrix(rng, *nodes, *nodes,
		int64(*minMB*redistgo.MB), int64(*maxMB*redistgo.MB))
	g, err := redistgo.FromMatrix(matrix)
	if err != nil {
		return err
	}
	total := redistgo.MatrixTotal(matrix)
	fmt.Fprintf(stdout, "pattern: %dx%d all-pairs, %.1f MB total, k=%d\n",
		*nodes, *nodes, float64(total)/redistgo.MB, *k)

	platform := redistgo.Platform{
		N1: *nodes, N2: *nodes,
		T1:       *backboneMbit * redistgo.Mbit / float64(*k),
		T2:       *backboneMbit * redistgo.Mbit / float64(*k),
		Backbone: *backboneMbit * redistgo.Mbit,
	}
	betaUnits := int64(*betaMS / 1000 * platform.Speed() / 8) // bytes-equivalent

	schedules := map[string]*redistgo.Schedule{}
	for name, alg := range map[string]redistgo.Algorithm{"GGP": redistgo.GGP, "OGGP": redistgo.OGGP} {
		s, err := redistgo.Solve(g, *k, betaUnits, redistgo.Options{Algorithm: alg, Shard: shardMode, Obs: observer})
		if err != nil {
			return err
		}
		schedules[name] = s
	}

	switch *engine {
	case "sim":
		return runSim(stdout, platform, matrix, schedules, *betaMS/1000, *seed)
	case "tcp":
		return runTCP(stdout, platform, matrix, schedules, *betaMS, observer)
	}
	return fmt.Errorf("unknown engine %q (want sim or tcp)", *engine)
}

func runSim(stdout io.Writer, platform redistgo.Platform, matrix [][]int64,
	schedules map[string]*redistgo.Schedule, betaSec float64, seed int64) error {
	tcpSim, err := redistgo.NewSimulator(redistgo.DefaultSimConfig(platform, seed))
	if err != nil {
		return err
	}
	brute, err := tcpSim.BruteForce(redistgo.MatrixFlows(matrix))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "brute-force TCP: %8.2f s\n", brute.Time)

	idealSim, err := redistgo.NewSimulator(redistgo.SimConfig{Platform: platform})
	if err != nil {
		return err
	}
	for _, name := range []string{"GGP", "OGGP"} {
		s := schedules[name]
		res, err := idealSim.RunSteps(redistgo.FlowSteps(s), betaSec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-15s %8.2f s   (%d steps, %.1f%% faster than brute force)\n",
			name+":", res.Time, res.Steps, 100*(brute.Time-res.Time)/brute.Time)
	}
	return nil
}

func runTCP(stdout io.Writer, platform redistgo.Platform, matrix [][]int64,
	schedules map[string]*redistgo.Schedule, betaMS float64, observer *redistgo.Observer) error {
	c, err := redistgo.NewCluster(redistgo.ClusterConfig{
		N1: platform.N1, N2: platform.N2,
		SendRate:     platform.T1 / 8,
		RecvRate:     platform.T2 / 8,
		BackboneRate: platform.Backbone / 8,
		BarrierDelay: time.Duration(betaMS * float64(time.Millisecond)),
		RealBarrier:  true,
		Obs:          observer,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	brute, err := c.RunBruteForce(redistgo.MatrixTransfers(matrix))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "brute-force TCP: %10v\n", brute.Round(time.Millisecond))
	for _, name := range []string{"GGP", "OGGP"} {
		s := schedules[name]
		d, perStep, err := c.RunSchedule(redistgo.TransferSteps(s))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-15s %10v   (%d steps)\n", name+":", d.Round(time.Millisecond), len(perStep))
	}
	return nil
}
