package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestFigure7CSV(t *testing.T) {
	out, err := runCLI(t, "-fig", "7", "-runs", "3", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v", err)
	}
	if records[0][0] != "k" || records[0][1] != "ggp_avg" {
		t.Fatalf("bad header: %v", records[0])
	}
	// 13 k values + header.
	if len(records) != 14 {
		t.Fatalf("rows = %d, want 14", len(records))
	}
}

func TestFigure8Markdown(t *testing.T) {
	out, err := runCLI(t, "-fig", "8", "-runs", "2", "-format", "md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| GGP avg |") {
		t.Fatalf("missing markdown header: %q", out)
	}
}

func TestFigure9(t *testing.T) {
	for _, format := range []string{"csv", "md"} {
		out, err := runCLI(t, "-fig", "9", "-runs", "2", "-format", format)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "beta") && !strings.Contains(out, "| GGP avg |") {
			t.Fatalf("format %s: unexpected output %q", format, out)
		}
	}
}

func TestFigures10And11(t *testing.T) {
	// Trimmed by using low runs; still exercises the netsim path.
	for _, fig := range []string{"10", "11"} {
		out, err := runCLI(t, "-fig", fig, "-runs", "1")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "n_mb") {
			t.Fatalf("fig %s: missing CSV header: %q", fig, out)
		}
		records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(records) != 11 { // header + 10 sizes
			t.Fatalf("fig %s: rows = %d, want 11", fig, len(records))
		}
	}
}

func TestFigures10And11Markdown(t *testing.T) {
	out, err := runCLI(t, "-fig", "10", "-runs", "1", "-format", "md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "gain") {
		t.Fatalf("missing gain column: %q", out)
	}
}

func TestAggregationSweep(t *testing.T) {
	out, err := runCLI(t, "-fig", "agg", "-runs", "2")
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v", err)
	}
	if strings.Join(records[0], ",") != "beta,direct_cost,plan_cost,steps_saved,improvement" {
		t.Fatalf("bad header: %v", records[0])
	}
	if len(records) != 7 { // header + 6 beta values
		t.Fatalf("rows = %d, want 7", len(records))
	}

	out, err = runCLI(t, "-fig", "agg", "-runs", "2", "-format", "md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "| β | direct cost | plan cost | backbone steps saved | gain |" {
		t.Fatalf("bad markdown header: %q", lines[0])
	}
	if len(lines) != 8 { // header + separator + 6 beta values
		t.Fatalf("markdown lines = %d, want 8", len(lines))
	}
}

func TestBadArguments(t *testing.T) {
	cases := [][]string{
		{"-fig", "12"},
		{"-fig", "0"},
		{"-format", "xml"},
		{"-definitely-not-a-flag"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	// The deleted adapt sweep is an unknown figure, and the error names
	// exactly the figures the switch accepts.
	_, err := runCLI(t, "-fig", "adapt")
	if want := `unknown figure "adapt" (want 7, 8, 9, 10, 11 or agg)`; err == nil || err.Error() != want {
		t.Fatalf("unknown figure: error %v, want %q", err, want)
	}
}

func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if _, err := runCLI(t, "-fig", "7", "-runs", "2", "-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestProfilingFlagBadPath(t *testing.T) {
	if _, err := runCLI(t, "-fig", "7", "-runs", "1", "-cpuprofile", "/nonexistent-dir/cpu.pprof"); err == nil {
		t.Fatal("unwritable cpuprofile path accepted")
	}
}

func TestDefaultRuns(t *testing.T) {
	if got := defaultRuns(0, 42); got != 42 {
		t.Fatalf("defaultRuns(0,42) = %d", got)
	}
	if got := defaultRuns(7, 42); got != 7 {
		t.Fatalf("defaultRuns(7,42) = %d", got)
	}
}
