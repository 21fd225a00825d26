package main

import (
	"math"
	"time"
)

// metric is one entry of the catalogue BENCHMARK.json publishes; a test
// keeps the two in step. README.md gives each layer metric the end-to-end
// metric and the workloads it should move.
type metric struct {
	name   string
	unit   string
	higher bool // higher is better
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metric{
	{"throughput_rps", "1/s", true},
	{"latency_p50_ms", "ms", false},
	{"latency_tail_ms", "ms", false},
	{"eval_ratio_mean", "ratio", false},
	{"allocs_per_req", "count", false},
	{"alloc_kb_per_req", "KB", false},
	{"peak_heap_mb", "MB", false},
	{"setup_s", "s", false},
}

// extras are reported with the end-to-end metrics and written to the
// result file, but are not benchmark metrics. failed_share is carried by
// the result line's attempted and failed fields, and any failure fails the
// run; gen.lag_p99_ms, how far an open loop's sends fell behind their due
// times, shows whether the rate builds a backlog.
var extras = []metric{
	{"failed_share", "share", false},
	{"gen.lag_p99_ms", "ms", false},
}

var failedShare = extras[0]

// perLayer are the metrics a traced run reports.
var perLayer = []metric{
	{"kpbs.solve_p50_ms", "ms", false},
	{"kpbs.steps_mean", "count", false},
	{"kpbs.comms_mean", "count", false},
	{"kpbs.solve_allocs", "count", false},
	{"kpbs.solve_kb", "KB", false},
	{"kpbs.new_result_p50_ms", "ms", false},
	{"kpbs.delta_p50_ms", "ms", false},
	{"kpbs.delta_share.reuse", "share", true},
	{"kpbs.delta_share.replay", "share", true},
	{"kpbs.delta_share.rerun", "share", true},
	{"kpbs.delta_share.rebuild", "share", false},
	{"kpbs.delta_share.cold", "share", false},
	{"kpbs.delta_shortcut_share", "share", true},
	{"wire.encode_req_p50_us", "us", false},
	{"wire.decode_req_p50_us", "us", false},
	{"wire.encode_resp_p50_us", "us", false},
	{"wire.decode_resp_p50_us", "us", false},
	{"wire.encode_resp_allocs", "count", false},
	{"wire.decode_resp_allocs", "count", false},
	{"wire.resp_kb_mean", "KB", false},
	{"wire.frame_rw_p50_us", "us", false},
	{"wire.encode_delta_p50_us", "us", false},
	{"wire.decode_delta_p50_us", "us", false},
	{"bipartite.graph_p50_us", "us", false},
	{"engine.queue_wait_mean_us", "us", false},
	{"engine.job_mean_ms", "ms", false},
	{"engine.busy_share", "share", false},
	{"serve.handling_p50_us", "us", false},
	{"serve.handling_tail_us", "us", false},
	{"serve.outside_p50_us", "us", false},
	{"obs.tracing_overhead_pct", "%", false},
	{"gen.late_p99_ms", "ms", false},
}

// measure is one reported value. N is the sample count behind it and Pct
// the percentile read, where they apply.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Pct   float64 `json:"percentile,omitempty"`
}

// measures collects a run's values, taking each unit from the catalogue.
type measures map[string]measure

func (ms measures) set(name string, v float64, n int) {
	ms[name] = measure{Value: v, Unit: unitOf(name), N: n}
}

func unitOf(name string) string {
	for _, list := range [][]metric{endToEnd, extras, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// setTail sets a tail latency read at the workload's percentile, or at the
// highest one the samples support when that is lower.
func (ms measures) setTail(name string, w *workload, xs []float64) {
	p := math.Min(w.tailPct, tailPercentile(len(xs)))
	ms[name] = measure{Value: percentile(xs, p), Unit: unitOf(name), N: len(xs), Pct: p}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the verified requests' latencies in ms.
func latencies(ph *phase) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.ok {
			out = append(out, millis(s.done-s.start))
		}
	}
	return out
}

// failures counts the window's requests that were refused or answered
// wrongly.
func failures(ph *phase) int {
	n := 0
	for _, s := range ph.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// endToEndMeasures computes the untraced run's metrics.
func endToEndMeasures(w *workload, ph *phase) measures {
	out := measures{}
	lat := latencies(ph)
	window := (ph.we - ph.ws).Seconds()
	out.set("throughput_rps", float64(ph.responses)/window, ph.responses)
	out.set("latency_p50_ms", percentile(lat, 50), len(lat))
	out.setTail("latency_tail_ms", w, lat)
	var ratios []float64
	for _, s := range ph.samples {
		if s.ok {
			ratios = append(ratios, s.ratio)
		}
	}
	out.set("eval_ratio_mean", mean(ratios), len(ratios))
	out.set("allocs_per_req", float64(ph.mallocs)/float64(ph.responses), ph.responses)
	out.set("alloc_kb_per_req", float64(ph.allocated)/1024/float64(ph.responses), ph.responses)
	out.set("peak_heap_mb", float64(ph.peakHeap)/(1<<20), int(window*100))
	setup := make([]float64, len(ph.setup))
	for i, d := range ph.setup {
		setup[i] = d.Seconds()
	}
	out.set("setup_s", percentile(setup, 50), len(setup))
	out.set(failedShare.name, float64(failures(ph))/float64(len(ph.samples)), len(ph.samples))
	if w.open {
		// How late the generator woke, and how far sends fell behind their
		// latency start: a lag growing through the window is a backlog.
		var late, lag []float64
		for _, s := range ph.samples {
			if s.hasLate {
				late = append(late, millis(s.late))
			}
			lag = append(lag, millis(s.sent-s.start))
		}
		out.set("gen.late_p99_ms", percentile(late, 99), len(late))
		out.set("gen.lag_p99_ms", percentile(lag, 99), len(lag))
	}
	return out
}

// servedLayerMeasures computes the per-layer metrics of the served traffic:
// untraced is the untraced half of the run, traced the half with trace ids
// and server instruments.
func servedLayerMeasures(w *workload, untraced, traced *phase) measures {
	out := measures{}
	var handling, outside, late []float64
	for _, s := range traced.samples {
		if s.hasLate {
			late = append(late, millis(s.late))
		}
		if !s.ok {
			continue
		}
		handling = append(handling, float64(s.handling))
		outside = append(outside, float64((s.done-s.sent).Microseconds()-s.handling))
	}
	out.set("serve.handling_p50_us", percentile(handling, 50), len(handling))
	out.setTail("serve.handling_tail_us", w, handling)
	out.set("serve.outside_p50_us", percentile(outside, 50), len(outside))
	out.set("gen.late_p99_ms", percentile(late, 99), len(late))
	base, withTrace := percentile(latencies(untraced), 50), percentile(latencies(traced), 50)
	out.set("obs.tracing_overhead_pct", 100*(withTrace-base)/base, len(traced.samples))

	// The pool instruments cover the traced server's whole life: on the
	// delta workload only the chain-opening solves reach the pool.
	snap := traced.obs.Metrics.Snapshot()
	for _, h := range snap.Histograms {
		switch h.Name {
		case "engine.pool.queue_wait_us":
			out.set("engine.queue_wait_mean_us", float64(h.Sum)/float64(h.Count), int(h.Count))
		case "engine.pool.job_us":
			out.set("engine.job_mean_ms", float64(h.Sum)/float64(h.Count)/1e3, int(h.Count))
			workers := serverConfig(nil).Workers
			out.set("engine.busy_share", float64(h.Sum)/float64(traced.served.Microseconds())/float64(workers), int(h.Count))
		}
	}
	return out
}
