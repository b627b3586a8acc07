package svgplot

import (
	"fmt"
	"math"
	"strings"
)

// Gantt renders horizontal-lane timeline charts — one lane per cluster
// node, one bar per placed task attempt — the per-node schedule view a
// Hadoop job tracker would show. The trace subsystem feeds it simulated
// cluster time from internal/cluster.

// GanttSpan is one bar: a half-open interval [Start, End) on a lane.
type GanttSpan struct {
	// Lane indexes Gantt.Lanes.
	Lane int
	// Start and End are in the chart's time unit (the caller scales).
	Start, End float64
	// Color is the fill; Label is the hover tooltip (SVG <title>).
	Color string
	Label string
}

// GanttKey is one legend entry.
type GanttKey struct {
	Name  string
	Color string
}

// Gantt describes a timeline chart.
type Gantt struct {
	Title  string
	XLabel string
	// Lanes are the row labels, top to bottom (e.g. "node 0").
	Lanes []string
	Spans []GanttSpan
	Keys  []GanttKey
}

const (
	ganttLaneH   = 34
	ganttBarH    = 24
	ganttMarginL = 84
	ganttMarginR = 150
	ganttMarginT = 44
	ganttMarginB = 52
	ganttWidth   = 860
)

// GanttSVG renders the chart as an SVG document. Height grows with the
// lane count so dense clusters stay readable.
func GanttSVG(g Gantt) string {
	lanes := len(g.Lanes)
	if lanes == 0 {
		lanes = 1
	}
	height := ganttMarginT + lanes*ganttLaneH + ganttMarginB

	xmax := 0.0
	for _, s := range g.Spans {
		if s.End > xmax {
			xmax = s.End
		}
	}
	if xmax <= 0 {
		xmax = 1
	}

	plotW := float64(ganttWidth - ganttMarginL - ganttMarginR)
	px := func(x float64) float64 { return ganttMarginL + x/xmax*plotW }
	laneTop := func(l int) float64 { return float64(ganttMarginT + l*ganttLaneH) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif">`+"\n",
		ganttWidth, height, ganttWidth, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", ganttWidth, height)
	fmt.Fprintf(&b, `<text x="%d" y="24" font-size="15" text-anchor="middle">%s</text>`+"\n", ganttWidth/2, esc(g.Title))

	// Lane bands and labels.
	for i, name := range g.Lanes {
		y := laneTop(i)
		if i%2 == 1 {
			fmt.Fprintf(&b, `<rect x="%d" y="%.1f" width="%.1f" height="%d" fill="#f6f6f6"/>`+"\n",
				ganttMarginL, y, plotW, ganttLaneH)
		}
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-size="12" text-anchor="end">%s</text>`+"\n",
			ganttMarginL-8, y+float64(ganttLaneH)/2+4, esc(name))
	}

	// Time axis with ticks.
	axisY := ganttMarginT + lanes*ganttLaneH
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n",
		ganttMarginL, axisY, ganttWidth-ganttMarginR, axisY)
	step := niceStep(xmax / 6)
	for v := 0.0; v <= xmax+1e-9; v += step {
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#ddd"/>`+"\n",
			px(v), ganttMarginT, px(v), axisY)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n",
			px(v), axisY+16, trimFloat(v))
	}
	fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n",
		(ganttMarginL+ganttWidth-ganttMarginR)/2, height-12, esc(g.XLabel))

	// Bars. Sub-pixel spans are widened to a visible sliver.
	for _, s := range g.Spans {
		lane := s.Lane
		if lane < 0 || lane >= lanes {
			continue
		}
		x0, x1 := px(s.Start), px(s.End)
		w := math.Max(x1-x0, 1.2)
		y := laneTop(lane) + float64(ganttLaneH-ganttBarH)/2
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%d" fill="%s" stroke="#fff" stroke-width="0.5">`,
			x0, y, w, ganttBarH, s.Color)
		if s.Label != "" {
			fmt.Fprintf(&b, `<title>%s</title>`, esc(s.Label))
		}
		b.WriteString("</rect>\n")
	}

	// Legend.
	for i, k := range g.Keys {
		y := ganttMarginT + 20*i
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="14" height="10" fill="%s"/>`+"\n", ganttWidth-ganttMarginR+12, y, k.Color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12">%s</text>`+"\n", ganttWidth-ganttMarginR+32, y+9, esc(k.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}
