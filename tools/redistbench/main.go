// Command redistbench is redistgo's served-traffic benchmark. It starts an
// in-process serve.Server on loopback TCP with redist-serve's defaults,
// drives one or all of four fixed workloads through serve.Client sessions,
// checks every response byte for byte against a schedule computed at
// set-up, and reports end-to-end metrics (untraced) or per-layer metrics
// (traced). README.md describes the workloads and metrics.
//
//	go run . -workload dense64-ggp -seed 1 -seconds 15 -trace 0
//	go run . -seed 1                         # every workload, default windows
//	go run . -compare setA setB              # compare two sets of result files
//
// The last line of standard output is one JSON object with the fields
// correct, attempted, failed and metrics. Each workload run also writes
// its full result to -out, and a traced run writes redistbench_trace.json
// there.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "redistbench:", err)
	}
	os.Exit(code)
}

// result is one workload run, as written to its result file.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   measures           `json:"metrics"`
	SelfMS    map[string]float64 `json:"span_self_ms,omitempty"`
}

// line is the summary JSON object printed last.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]lineMeasure `json:"metrics"`
}

type lineMeasure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes the command and returns the exit code: 0 when every run was
// correct, 1 otherwise.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("redistbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of every input generator")
	seconds := fs.Float64("seconds", 0, "measured window per workload in seconds; 0 uses each workload's default")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for result files and the trace")
	cmp := fs.Bool("compare", false, "compare the result files of two directories: -compare setA setB")
	bench := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the regression bounds, for -compare")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare needs two result directories")
		}
		regressed, err := compare(*bench, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil || regressed {
			return 1, err
		}
		return 0, nil
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		return 2, errors.New("usage: redistbench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out dir]")
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			return 2, fmt.Errorf("unknown workload %q", *name)
		}
		selected = []*workload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 1, err
	}

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	var results []*result
	for _, w := range selected {
		window := w.window
		if *seconds > 0 {
			window = time.Duration(*seconds * float64(time.Second))
		}
		res, err := runWorkload(context.Background(), w, *seed, window, tr)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Seconds = window.Seconds()
		printResult(stdout, res)
		path := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace))
		if err := writeJSON(path, res); err != nil {
			return 1, err
		}
		results = append(results, res)
	}
	if tr != nil {
		if err := writeTrace(filepath.Join(*out, "redistbench_trace.json"), tr); err != nil {
			return 1, err
		}
	}

	catalogue := endToEnd
	if *trace == 1 {
		catalogue = perLayer
	}
	sum := line{Correct: true, Metrics: map[string]lineMeasure{}}
	for _, res := range results {
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for _, m := range catalogue {
			key := m.name
			if len(results) > 1 {
				key = res.Workload + "/" + m.name
			}
			sum.Metrics[key] = lineMeasure{Value: res.Metrics[m.name].Value, Unit: m.unit}
		}
	}
	enc, err := json.Marshal(sum)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(enc))
	if !sum.Correct {
		return 1, errors.New("a run failed its correctness checks")
	}
	return 0, nil
}

// runWorkload generates the workload's inputs, runs the correctness gate,
// and measures it: untraced, one phase over the whole window; traced, an
// untraced and a traced phase of half the window each, then the replay.
func runWorkload(ctx context.Context, w *workload, seed int64, window time.Duration, tr *tracer) (*result, error) {
	t, err := w.generate(seed)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	res := &result{Workload: w.name, Seed: seed}
	catalogue := endToEnd
	var phases []*phase
	if tr == nil {
		ph, err := runPhase(ctx, w, t, false, window, true, nil, 0)
		if err != nil {
			return nil, err
		}
		phases = []*phase{ph}
		res.Metrics = endToEndMeasures(w, ph)
	} else {
		res.Trace = 1
		catalogue = perLayer
		pid := 2*indexOf(w) + 1
		tr.processes[pid], tr.processes[pid+1] = w.name+" served", w.name+" replay"
		untraced, err := runPhase(ctx, w, t, false, window/2, false, nil, 0)
		if err != nil {
			return nil, err
		}
		traced, err := runPhase(ctx, w, t, true, window/2, false, tr, pid)
		if err != nil {
			return nil, err
		}
		phases = []*phase{untraced, traced}
		res.Metrics = servedLayerMeasures(w, untraced, traced)
		layers, err := replay(w, t, tr, pid+1)
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			res.Metrics[k] = v
		}
		res.SelfMS = tr.selfByName(pid)
	}
	res.Correct = true
	for _, ph := range phases {
		res.Attempted += len(ph.samples)
		res.Failed += failures(ph)
	}
	if res.Attempted == 0 || res.Failed > 0 {
		res.Correct = false
	}
	for _, m := range catalogue {
		v, ok := res.Metrics[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// Unmeasurable (no verified responses, or an instrument the
			// server no longer registers): reported as 0 and as a failure.
			res.Correct = false
			v.Value, v.Unit = 0, m.unit
			res.Metrics[m.name] = v
		}
	}
	return res, nil
}

func indexOf(w *workload) int {
	for i, x := range workloads {
		if x == w {
			return i
		}
	}
	return len(workloads)
}

// printResult prints one line per metric: workload, name, value, unit, and
// the sample count (with the percentile for tails).
func printResult(w io.Writer, res *result) {
	for _, list := range [][]metric{endToEnd, extras, perLayer} {
		for _, m := range list {
			v, ok := res.Metrics[m.name]
			if !ok {
				continue
			}
			detail := fmt.Sprintf("n=%d", v.N)
			if v.Pct > 0 {
				detail = fmt.Sprintf("p%g, %s", v.Pct, detail)
			}
			fmt.Fprintf(w, "%s %s %.6g %s (%s)\n", res.Workload, m.name, v.Value, v.Unit, detail)
		}
	}
	if !res.Correct {
		fmt.Fprintf(w, "%s FAILED: %d of %d requests refused or answered wrongly, or a metric could not be measured\n",
			res.Workload, res.Failed, res.Attempted)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeTrace(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
