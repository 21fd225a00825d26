// Command benchcompare turns `go test -bench` output into an old-vs-new
// comparison without external dependencies (benchstat cannot be vendored
// here). It pairs benchmarks that differ only in a trailing variant
// suffix — "/ref" (old) versus "/inc" (new) by default, overridable with
// -variants — averages the ns/op samples of each across -count
// repetitions, and reports the speedup old/new per pair.
//
//	go test ./internal/kpbs -run='^$' -bench=ShardSolve -count=5 > bench.txt
//	go run ./tools/benchcompare -variants unsharded,sharded \
//	    -min-speedup 3 -expect Dense64=0.95 -json BENCH_PR5.json bench.txt
//
// -min-speedup sets the global floor; repeatable -expect substr=min
// overrides it for every pair whose name contains substr (so a
// single-component control workload can be gated at "no worse than 5%
// slower", speedup ≥ 0.95, while the sharded workloads must reach 3x).
//
// The JSON file is the machine-readable perf-trajectory artifact tracked
// in the repository (BENCH_PR5.json, BENCH_PR10.json); the exit status
// enforces the minimums so `make bench-shard` / `make bench-delta` fail
// when an engine regresses below its acceptance bar.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g.
//
//	BenchmarkShardSolve/BlockDiag8x64/OGGP/unsharded-8   5   63878975 ns/op   9175633 B/op   5913 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

type sample struct {
	nsOp     float64
	bytesOp  float64
	allocsOp float64
}

type variant struct {
	samples []sample
}

func (v *variant) meanNs() float64 {
	var s float64
	for _, x := range v.samples {
		s += x.nsOp
	}
	return s / float64(len(v.samples))
}

func (v *variant) meanAllocs() float64 {
	var s float64
	for _, x := range v.samples {
		s += x.allocsOp
	}
	return s / float64(len(v.samples))
}

func (v *variant) meanBytes() float64 {
	var s float64
	for _, x := range v.samples {
		s += x.bytesOp
	}
	return s / float64(len(v.samples))
}

// Pair is one old/new comparison in the JSON artifact. The ref_/inc_
// field names are kept for continuity with BENCH_PR2.json: "ref" is the
// old variant, "inc" the new one, whatever -variants calls them.
type Pair struct {
	Name         string  `json:"name"`
	Samples      int     `json:"samples"`
	RefNsOp      float64 `json:"ref_ns_op"`
	IncNsOp      float64 `json:"inc_ns_op"`
	Speedup      float64 `json:"speedup"`
	MinSpeedup   float64 `json:"min_speedup,omitempty"` // per-pair gate after -expect overrides
	RefBytesOp   float64 `json:"ref_bytes_op,omitempty"`
	IncBytesOp   float64 `json:"inc_bytes_op,omitempty"`
	RefAllocsOp  float64 `json:"ref_allocs_op,omitempty"`
	IncAllocsOp  float64 `json:"inc_allocs_op,omitempty"`
	AllocsFactor float64 `json:"allocs_factor,omitempty"`
}

// Report is the top-level JSON artifact.
type Report struct {
	MinSpeedup float64 `json:"min_speedup"`
	Variants   string  `json:"variants,omitempty"`
	Pass       bool    `json:"pass"`
	Pairs      []Pair  `json:"pairs"`
}

// expectList collects repeatable -expect substr=min flags.
type expectList []struct {
	substr string
	min    float64
}

func (e *expectList) String() string {
	parts := make([]string, 0, len(*e))
	for _, x := range *e {
		parts = append(parts, fmt.Sprintf("%s=%g", x.substr, x.min))
	}
	return strings.Join(parts, ",")
}

func (e *expectList) Set(v string) error {
	substr, minStr, ok := strings.Cut(v, "=")
	if !ok || substr == "" {
		return fmt.Errorf("expect %q: want substr=minSpeedup", v)
	}
	min, err := strconv.ParseFloat(minStr, 64)
	if err != nil || min <= 0 {
		return fmt.Errorf("expect %q: bad minimum speedup %q", v, minStr)
	}
	*e = append(*e, struct {
		substr string
		min    float64
	}{substr, min})
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	minSpeedup := fs.Float64("min-speedup", 0, "fail unless every old/new pair reaches this speedup (0 disables)")
	jsonPath := fs.String("json", "", "write the machine-readable report to this file")
	variants := fs.String("variants", "ref,inc", "comma-separated old,new benchmark suffixes to pair")
	var expects expectList
	fs.Var(&expects, "expect", "per-pair minimum speedup override, substr=min (repeatable; last match wins)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	oldSuf, newSuf, ok := strings.Cut(*variants, ",")
	if !ok || oldSuf == "" || newSuf == "" || oldSuf == newSuf {
		return fmt.Errorf("variants %q: want two distinct comma-separated suffixes", *variants)
	}
	var in io.Reader = os.Stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	seen := map[string]*variant{}
	sc := bufio.NewScanner(in)
	//redistlint:allow ctxpoll bounded by the benchmark log being scanned; Scan returns false at EOF
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		v := seen[name]
		if v == nil {
			v = &variant{}
			seen[name] = v
		}
		s := sample{nsOp: atof(m[2]), bytesOp: atof(m[3]), allocsOp: atof(m[4])}
		v.samples = append(v.samples, s)
	}
	if err := sc.Err(); err != nil {
		return err
	}

	var names []string
	for name := range seen {
		if strings.HasSuffix(name, "/"+oldSuf) {
			names = append(names, strings.TrimSuffix(name, "/"+oldSuf))
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no */%s benchmarks found in input", oldSuf)
	}

	rep := Report{MinSpeedup: *minSpeedup, Variants: *variants, Pass: true}
	for _, base := range names {
		ref := seen[base+"/"+oldSuf]
		inc := seen[base+"/"+newSuf]
		if inc == nil {
			return fmt.Errorf("benchmark %s/%s has no matching %s/%s", base, oldSuf, base, newSuf)
		}
		n := len(ref.samples)
		if len(inc.samples) < n {
			n = len(inc.samples)
		}
		p := Pair{
			Name:        base,
			Samples:     n,
			RefNsOp:     ref.meanNs(),
			IncNsOp:     inc.meanNs(),
			RefBytesOp:  ref.meanBytes(),
			IncBytesOp:  inc.meanBytes(),
			RefAllocsOp: ref.meanAllocs(),
			IncAllocsOp: inc.meanAllocs(),
		}
		if p.IncNsOp > 0 {
			p.Speedup = p.RefNsOp / p.IncNsOp
		}
		if p.IncAllocsOp > 0 {
			p.AllocsFactor = p.RefAllocsOp / p.IncAllocsOp
		}
		p.MinSpeedup = *minSpeedup
		for _, x := range expects {
			if strings.Contains(base, x.substr) {
				p.MinSpeedup = x.min
			}
		}
		if p.MinSpeedup > 0 && p.Speedup < p.MinSpeedup {
			rep.Pass = false
		}
		rep.Pairs = append(rep.Pairs, p)
		fmt.Fprintf(stdout, "%-24s %s %12.0f ns/op   %s %12.0f ns/op   speedup %5.2fx (%d samples)\n",
			p.Name, oldSuf, p.RefNsOp, newSuf, p.IncNsOp, p.Speedup, p.Samples)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
	}
	if !rep.Pass {
		return fmt.Errorf("speedup below required minimum %.2fx", *minSpeedup)
	}
	return nil
}

func atof(s string) float64 {
	if s == "" {
		return 0
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return f
}
