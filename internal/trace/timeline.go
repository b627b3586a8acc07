package trace

import (
	"fmt"
	"time"

	"fuzzyjoin/internal/svgplot"
)

// Timeline rendering: task-span events (simulated cluster time, assigned
// by cluster.Spec.Timeline) become a per-node Gantt chart. Colors
// distinguish map from reduce work and first attempts from retries.

// Span colors by (phase, kind).
const (
	colorMap      = "#2980b9" // map, first attempt
	colorMapRerun = "#e67e22" // map retry
	colorReduce   = "#27ae60" // reduce, first attempt
	colorRedRerun = "#c0392b" // reduce retry
)

func spanColor(e Event) string {
	switch {
	case e.Phase == PhaseMap && e.Kind == KindRerun:
		return colorMapRerun
	case e.Phase == PhaseMap:
		return colorMap
	case e.Kind == KindRerun:
		return colorRedRerun
	default:
		return colorReduce
	}
}

// TimelineSVG renders the per-node Gantt timeline of the given events.
// Only task-span events draw bars; everything else is ignored, so
// callers can pass a full trace unfiltered.
func TimelineSVG(title string, events []Event) string {
	maxNode := 0
	for _, e := range events {
		if e.Type == TaskSpan {
			if e.Node > maxNode {
				maxNode = e.Node
			}
		}
	}
	lanes := make([]string, maxNode+1)
	for i := range lanes {
		lanes[i] = fmt.Sprintf("node %d", i)
	}

	// Scale: milliseconds keep the axis labels compact on the
	// scaled-down workloads.
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

	g := svgplot.Gantt{
		Title:  title,
		XLabel: "simulated time (ms)",
		Lanes:  lanes,
		Keys: []svgplot.GanttKey{
			{Name: "map", Color: colorMap},
			{Name: "map rerun", Color: colorMapRerun},
			{Name: "reduce", Color: colorReduce},
			{Name: "reduce rerun", Color: colorRedRerun},
		},
	}
	for _, e := range events {
		if e.Type != TaskSpan {
			continue
		}
		g.Spans = append(g.Spans, svgplot.GanttSpan{
			Lane:  e.Node,
			Start: ms(e.Start),
			End:   ms(e.End),
			Color: spanColor(e),
			Label: fmt.Sprintf("%s %s task %d attempt %d (%s)", e.Job, e.Phase, e.Task, e.Attempt, e.Kind),
		})
	}
	return svgplot.GanttSVG(g)
}
