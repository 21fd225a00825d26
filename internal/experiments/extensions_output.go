package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteAggregationCSV renders the aggregation sweep as CSV.
func WriteAggregationCSV(w io.Writer, points []AggregationPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"beta", "direct_cost", "plan_cost", "steps_saved", "improvement"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			formatF(p.Beta), formatF(p.DirectCost), formatF(p.PlanCost),
			formatF(p.StepsSaved), formatF(p.Improvement),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAggregationMarkdown renders the aggregation sweep as markdown.
func WriteAggregationMarkdown(w io.Writer, points []AggregationPoint) error {
	if _, err := fmt.Fprint(w, "| β | direct cost | plan cost | backbone steps saved | gain |\n|---|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "| %.0f | %.1f | %.1f | %.1f | %.1f%% |\n",
			p.Beta, p.DirectCost, p.PlanCost, p.StepsSaved, 100*p.Improvement); err != nil {
			return err
		}
	}
	return nil
}
