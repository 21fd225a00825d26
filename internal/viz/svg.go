// Package viz renders K-PBS schedules as SVG Gantt charts: one row per
// sending node, time on the horizontal axis, one colored block per
// communication, with the β setup gaps between steps shaded. Useful for
// inspecting what the schedulers actually produce (the paper's Figure 2
// is exactly such a picture).
package viz

import (
	"fmt"
	"io"
	"strings"

	"redistgo/internal/kpbs"
)

// Options style the SVG output.
type Options struct {
	// RowHeight is the height in pixels of a node lane (default 26).
	RowHeight int
	// PixelsPerUnit horizontally scales time units (default chosen so
	// the chart is ~900px wide).
	PixelsPerUnit float64
	// Title is drawn above the chart when non-empty.
	Title string
}

// palette cycles per receiving node so that all chunks of the same
// destination share a color.
var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// SVG writes the schedule as a standalone SVG document. nLeft is the
// number of sending nodes (rows). The time axis includes the β gap ahead
// of every step, matching the cost model Σ(β + duration).
func SVG(w io.Writer, s *kpbs.Schedule, nLeft int, opts Options) error {
	if nLeft <= 0 {
		return fmt.Errorf("viz: need a positive row count, got %d", nLeft)
	}
	if opts.RowHeight <= 0 {
		opts.RowHeight = 26
	}
	total := float64(s.Cost())
	if total <= 0 {
		total = 1
	}
	if opts.PixelsPerUnit <= 0 {
		opts.PixelsPerUnit = 900 / total
	}
	px := func(units float64) float64 { return units * opts.PixelsPerUnit }

	const labelW = 48
	topPad := 8
	if opts.Title != "" {
		topPad = 30
	}
	width := labelW + int(px(total)) + 16
	height := topPad + nLeft*opts.RowHeight + 28

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	if opts.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="18" font-size="14">%s</text>`+"\n", labelW, escape(opts.Title))
	}

	// Node lanes and labels.
	for l := 0; l < nLeft; l++ {
		y := topPad + l*opts.RowHeight
		fill := "#f6f6f6"
		if l%2 == 1 {
			fill = "#ececec"
		}
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n",
			labelW, y, width-labelW-8, opts.RowHeight-2, fill)
		fmt.Fprintf(&b, `<text x="4" y="%d">L%d</text>`+"\n", y+opts.RowHeight/2+4, l)
	}

	// Steps: β gap (hatched) then the communications.
	cursor := 0.0
	for i, st := range s.Steps {
		if s.Beta > 0 {
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="#ddd" opacity="0.7"/>`+"\n",
				labelW+px(cursor), topPad, px(float64(s.Beta)), nLeft*opts.RowHeight-2)
			cursor += float64(s.Beta)
		}
		for _, c := range st.Comms {
			y := topPad + int(c.L)*opts.RowHeight
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" stroke="white" stroke-width="0.5"><title>step %d: %d→%d amount %d</title></rect>`+"\n",
				labelW+px(cursor), y+2, px(float64(c.Amount)), opts.RowHeight-6,
				palette[int(c.R)%len(palette)], i+1, c.L, c.R, c.Amount)
			fmt.Fprintf(&b, `<text x="%.1f" y="%d" fill="white" font-size="9">R%d</text>`+"\n",
				labelW+px(cursor)+2, y+opts.RowHeight/2+3, c.R)
		}
		cursor += float64(st.Duration)
		// Step boundary.
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#999" stroke-dasharray="3,2"/>`+"\n",
			labelW+px(cursor), topPad, labelW+px(cursor), topPad+nLeft*opts.RowHeight)
	}

	// Time axis.
	axisY := topPad + nLeft*opts.RowHeight + 14
	fmt.Fprintf(&b, `<text x="%d" y="%d">0</text>`+"\n", labelW, axisY)
	fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="end">%d (cost)</text>`+"\n",
		labelW+px(total), axisY, s.Cost())
	b.WriteString("</svg>\n")

	_, err := io.WriteString(w, b.String())
	return err
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
