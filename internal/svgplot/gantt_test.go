package svgplot

import (
	"strings"
	"testing"
)

func TestGanttSVG(t *testing.T) {
	svg := GanttSVG(Gantt{
		Title:  "demo <chart>",
		XLabel: "time (ms)",
		Lanes:  []string{"node 0", "node 1"},
		Spans: []GanttSpan{
			{Lane: 0, Start: 0, End: 10, Color: "#2980b9", Label: "map task 0"},
			{Lane: 1, Start: 5, End: 6, Color: "#27ae60", Label: "reduce task 1"},
			{Lane: 5, Start: 0, End: 1}, // out-of-range lane: skipped, no panic
		},
		Keys: []GanttKey{{Name: "map", Color: "#2980b9"}},
	})
	for _, want := range []string{
		"<svg", "</svg>",
		"demo &lt;chart&gt;", // title is escaped
		"node 0", "node 1",
		"map task 0", "reduce task 1", // tooltips
		"time (ms)",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two in-range bars plus background, bands, and legend swatch — the
	// out-of-range span must not add a bar.
	if got := strings.Count(svg, "<title>"); got != 2 {
		t.Errorf("tooltip count = %d, want 2", got)
	}
}

func TestGanttSVGEmpty(t *testing.T) {
	svg := GanttSVG(Gantt{Title: "empty"})
	if !strings.Contains(svg, "</svg>") {
		t.Fatal("empty chart did not render")
	}
}

// TestGanttSVGSubPixelSpan: a zero- or near-zero-duration span must
// still draw a visible sliver rather than a 0-width rect.
func TestGanttSVGSubPixelSpan(t *testing.T) {
	svg := GanttSVG(Gantt{
		Lanes: []string{"node 0"},
		Spans: []GanttSpan{
			{Lane: 0, Start: 5, End: 5, Color: "#111", Label: "instant"},
			{Lane: 0, Start: 0, End: 100, Color: "#222", Label: "long"},
		},
	})
	if !strings.Contains(svg, `width="1.2"`) {
		t.Error("zero-duration span not widened to the minimum sliver")
	}
	if got := strings.Count(svg, "<title>"); got != 2 {
		t.Errorf("bar count = %d, want 2", got)
	}
}
