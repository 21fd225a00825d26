package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAggregationSweepShape(t *testing.T) {
	cfg := DefaultAggregationConfig(5, 1)
	cfg.Betas = []int64{0, 64}
	points, err := AggregationSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// With β = 0 aggregation cannot save setup costs and only adds local
	// work; with large β the gateway plan must win big.
	if points[1].Improvement <= points[0].Improvement {
		t.Fatalf("improvement should grow with beta: %+v", points)
	}
	if points[1].Improvement < 0.2 {
		t.Fatalf("large-beta improvement %.2f too small", points[1].Improvement)
	}
	if points[1].StepsSaved <= 0 {
		t.Fatalf("no steps saved at large beta: %+v", points[1])
	}
}

func TestAggregationSweepValidation(t *testing.T) {
	bad := []AggregationConfig{
		{},
		{Runs: 1, Nodes: 1, K: 1, MinW: 0, MaxW: 1, Speedup: 1, Betas: []int64{1}},
		{Runs: 1, Nodes: 1, K: 1, MinW: 1, MaxW: 1, Speedup: 0, Betas: []int64{1}},
		{Runs: 1, Nodes: 1, K: 1, MinW: 1, MaxW: 1, Speedup: 1},
	}
	for i, cfg := range bad {
		if _, err := AggregationSweep(cfg); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	cfg := DefaultAggregationConfig(1, 1)
	cfg.Betas = []int64{-1}
	if _, err := AggregationSweep(cfg); err == nil {
		t.Fatal("negative beta accepted")
	}
}

func TestExtensionOutputRenderers(t *testing.T) {
	agg := []AggregationPoint{{Beta: 64, DirectCost: 100, PlanCost: 40, StepsSaved: 20, Improvement: 0.6}}
	var buf bytes.Buffer
	if err := WriteAggregationCSV(&buf, agg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "steps_saved") {
		t.Fatalf("csv: %q", buf.String())
	}
	buf.Reset()
	if err := WriteAggregationMarkdown(&buf, agg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "60.0%") {
		t.Fatalf("markdown: %q", buf.String())
	}
}
