package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redistgo"
)

func runCLI(t *testing.T, args []string, stdin string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, strings.NewReader(stdin), &out)
	return out.String(), err
}

func TestSchedFromStdin(t *testing.T) {
	out, err := runCLI(t, []string{"-k", "2", "-beta", "1"}, "[[40,0,12],[0,30,7]]")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "schedule:") {
		t.Fatalf("missing schedule header: %q", out)
	}
	if !strings.Contains(out, "lower bound") {
		t.Fatalf("missing lower bound line: %q", out)
	}
}

func TestSchedFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte("[[5,3],[2,4]]"), 0o600); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, []string{"-k", "2", path}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "schedule:") {
		t.Fatalf("unexpected output: %q", out)
	}
}

func TestSchedMissingFile(t *testing.T) {
	if _, err := runCLI(t, []string{"/does/not/exist.json"}, ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSchedTooManyArgs(t *testing.T) {
	if _, err := runCLI(t, []string{"a.json", "b.json"}, ""); err == nil {
		t.Fatal("two input files accepted")
	}
}

func TestSchedJSONOutput(t *testing.T) {
	out, err := runCLI(t, []string{"-k", "2", "-json"}, "[[5,3],[2,4]]")
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Steps []struct {
			Comms    []struct{ L, R, Amount int64 }
			Duration int64
		}
		Beta int64
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if len(decoded.Steps) == 0 {
		t.Fatal("JSON schedule has no steps")
	}
}

func TestSchedGantt(t *testing.T) {
	out, err := runCLI(t, []string{"-k", "2", "-gantt"}, "[[5,3],[2,4]]")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "L0") || !strings.Contains(out, "L1") {
		t.Fatalf("missing Gantt rows: %q", out)
	}
}

func TestSchedAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"ggp", "oggp", "minsteps", "greedy", "GGP", "OGGP"} {
		if _, err := runCLI(t, []string{"-k", "2", "-alg", alg}, "[[5,3],[2,4]]"); err != nil {
			t.Fatalf("algorithm %q rejected: %v", alg, err)
		}
	}
	if _, err := runCLI(t, []string{"-alg", "dijkstra"}, "[[1]]"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSchedBadInput(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		stdin string
	}{
		{"garbage json", []string{}, "not json"},
		{"negative entry", []string{}, "[[-1]]"},
		{"zero k", []string{"-k", "0"}, "[[1]]"},
		{"negative beta", []string{"-beta", "-1"}, "[[1]]"},
		{"bad flag", []string{"-nope"}, "[[1]]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := runCLI(t, tc.args, tc.stdin); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestSchedEmptyMatrix(t *testing.T) {
	out, err := runCLI(t, []string{"-k", "1"}, "[[0,0],[0,0]]")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0 steps") {
		t.Fatalf("empty matrix should give empty schedule: %q", out)
	}
}

// TestSchedObsFlags: -obs serves the introspection endpoint for the run
// and -trace leaves a loadable Chrome trace file behind, without changing
// the schedule output.
func TestSchedObsFlags(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	plain, err := runCLI(t, []string{"-k", "2", "-beta", "1"}, "[[40,0,12],[0,30,7]]")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, []string{"-k", "2", "-beta", "1", "-obs", ":0", "-trace", tracePath}, "[[40,0,12],[0,30,7]]")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "observability endpoint on http://127.0.0.1:") {
		t.Fatalf("missing endpoint announcement: %q", out)
	}
	// The schedule body must be unchanged by observation: strip the
	// announcement line and compare the rest.
	stripped := out[strings.Index(out, "\n")+1:]
	if stripped != plain {
		t.Fatalf("observed output diverged:\n%q\nvs\n%q", stripped, plain)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
}

// TestSchedShardFlag: the -shard flag accepts off and auto and refuses
// anything else, "on" included. On a block-diagonal (two-component)
// matrix whose sharded schedule differs from the monolith's, -shard auto
// prints the schedule of a library ShardAuto solve.
func TestSchedShardFlag(t *testing.T) {
	const matrix = "[[6,1,0,0],[6,1,0,0],[0,0,8,9],[0,0,9,6]]"
	outs := map[string]string{}
	for _, mode := range []string{"off", "auto"} {
		out, err := runCLI(t, []string{"-k", "2", "-beta", "1", "-shard", mode}, matrix)
		if err != nil {
			t.Fatalf("-shard %s: %v", mode, err)
		}
		if !strings.Contains(out, "schedule:") {
			t.Fatalf("-shard %s: missing schedule header: %q", mode, out)
		}
		outs[mode] = out
	}
	if outs["off"] == outs["auto"] {
		t.Fatal("-shard off and auto agree; the matrix no longer tells them apart")
	}
	g, err := redistgo.FromMatrix([][]int64{{6, 1, 0, 0}, {6, 1, 0, 0}, {0, 0, 8, 9}, {0, 0, 9, 6}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := redistgo.Solve(g, 2, 1, redistgo.Options{Algorithm: redistgo.OGGP, Shard: redistgo.ShardAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(outs["auto"], want.String()) {
		t.Fatalf("-shard auto printed\n%s\nwant the library ShardAuto schedule\n%s", outs["auto"], want)
	}
	for _, mode := range []string{"on", "sometimes"} {
		if _, err := runCLI(t, []string{"-shard", mode}, "[[1]]"); err == nil {
			t.Fatalf("shard mode %q accepted", mode)
		}
	}
}
