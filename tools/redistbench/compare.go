package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compare prints, for every workload and metric found in both result
// directories, each side's median and quartiles and a verdict, and reports
// whether any end-to-end metric regressed. A is the baseline, B the
// candidate.
func compare(benchPath, dirA, dirB string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	a, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return false, err
	}

	fmt.Fprintf(w, "%-17s %-27s %-31s %-31s %8s %7s %6s  %s\n",
		"workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "spread", "bound", "verdict")
	regressed := false
	for _, wl := range workloads {
		for trace, list := range [][]metric{append(endToEnd, extras...), perLayer} {
			for _, m := range list {
				va, vb := values(a, wl.name, m.name, trace), values(b, wl.name, m.name, trace)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				bound, hasBound := bounds[m.name]
				v := judge(va, vb, m.higher, bound, hasBound)
				boundText := "-"
				if hasBound {
					boundText = fmt.Sprintf("%.1f%%", 100*bound)
				}
				if m == failedShare {
					// Correctness has no tolerance: one failed request in
					// any candidate run is a regression.
					boundText, v.verdict = "0", "ok"
					if slices.Max(vb) > 0 {
						v.verdict = "regressed"
					}
				}
				regressed = regressed || v.verdict == "regressed"
				fmt.Fprintf(w, "%-17s %-27s %-31s %-31s %+7.2f%% %6.2f%% %6s  %s\n",
					wl.name, m.name, summary(v.qa), summary(v.qb), 100*v.change, 100*v.spread, boundText, v.verdict)
			}
		}
	}
	return regressed, nil
}

// loadResults reads every result file in dir.
func loadResults(dir string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result-*.json files in %s", dir)
	}
	var out []*result
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

func values(rs []*result, workload, name string, trace int) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

type judgement struct {
	qa, qb         [3]float64
	change, spread float64 // relative to A's median (absolute when it is 0)
	verdict        string
}

// judge compares candidate b with baseline a. It is regressed when b's
// median is worse than a's by more than the bound and by more than the
// run-to-run spread (the wider side's quartile distance over its median);
// unresolved when that spread exceeds the bound, unless every run of b
// beats every run of a; ok otherwise. Without a bound it only informs.
func judge(a, b []float64, higher bool, bound float64, hasBound bool) judgement {
	j := judgement{qa: quartiles(a), qb: quartiles(b)}
	rel := func(d, base float64) float64 {
		if base == 0 {
			return d
		}
		return d / math.Abs(base)
	}
	j.change = rel(j.qb[1]-j.qa[1], j.qa[1])
	j.spread = math.Max(rel(j.qa[2]-j.qa[0], j.qa[1]), rel(j.qb[2]-j.qb[0], j.qb[1]))
	worse := j.change
	if higher {
		worse = -worse
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && ((higher && y > x) || (!higher && y < x))
		}
	}
	switch {
	case !hasBound:
		j.verdict = "info"
	case worse > bound && worse > j.spread:
		j.verdict = "regressed"
	case j.spread > bound && !allBetter:
		j.verdict = "unresolved"
	default:
		j.verdict = "ok"
	}
	return j
}

func summary(q [3]float64) string {
	return fmt.Sprintf("%.5g [%.5g %.5g]", q[1], q[0], q[2])
}
