package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func checkResult(t *testing.T, res *result, catalogue []metric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", res.Workload, res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range catalogue {
		v, ok := res.Metrics[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.unit {
			t.Errorf("%s: metric %s = %+v (present %v)", res.Workload, m.name, v, ok)
		}
	}
}

// TestSmokeAllWorkloads runs every workload, cut down to a few instances,
// for a 0.5 s window through the real server, and one traced run with its
// replay and Chrome trace.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, wl := range workloads {
		w := small(t, wl.name)
		res, err := runWorkload(ctx, w, 3, 500*time.Millisecond, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, res, endToEnd)
	}

	tr := newTracer()
	res, err := runWorkload(ctx, small(t, "delta64-stream"), 3, 500*time.Millisecond, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer)
	for i, d := range tr.selfTimes() {
		if d < 0 {
			t.Fatalf("span %d (%s) has negative self time %v", i, tr.spans[i].name, d)
		}
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct{ Name, Ph string }
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"request", "server.handling", "kpbs.solve", "kpbs.solve_delta", "wire.decode_resp"} {
		if !names[want] {
			t.Errorf("the Chrome trace has no %q span", want)
		}
	}
}

// TestResultLine runs the command on the cheapest workload and checks the
// contract of its last output line.
func TestResultLine(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	code, err := run([]string{"-workload", "mixed-small", "-seed", "2", "-seconds", "0.5", "-out", dir}, &out)
	if code != 0 || err != nil {
		t.Fatalf("exit %d: %v\n%s", code, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil {
		t.Fatalf("last line %s: want exactly correct, attempted, failed, metrics", lines[len(lines)-1])
	}
	var metrics map[string]lineMeasure
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("last line has %d metrics, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v, ok := metrics[m.name]; !ok || v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("metric %s = %+v", m.name, v)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "result-mixed-small-seed2-trace0.json")); err != nil {
		t.Error(err)
	}
}
