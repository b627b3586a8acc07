package trace

import (
	"encoding/xml"
	"strings"
	"testing"
)

func span(node int, phase, kind string, start, end int64) Event {
	return Event{
		Type: TaskSpan, Node: node, Phase: phase, Kind: kind,
		Start: start, End: end, Job: "s2-kernel", Task: 1, Attempt: 0,
	}
}

// TestTimelineSVGEmpty: an empty trace must still render a well-formed
// chart — one default lane, the legend, no bars.
func TestTimelineSVGEmpty(t *testing.T) {
	svg := TimelineSVG("empty run", nil)
	var any struct{}
	if err := xml.Unmarshal([]byte(svg), &any); err != nil {
		t.Fatalf("SVG is not well-formed XML: %v", err)
	}
	for _, want := range []string{"empty run", "node 0", "simulated time (ms)", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("empty timeline missing %q", want)
		}
	}
	if strings.Contains(svg, "<title>") {
		t.Error("empty timeline drew task bars")
	}
}

// TestTimelineSVGSingleNode: a one-node run gets exactly one lane and
// one bar per task span.
func TestTimelineSVGSingleNode(t *testing.T) {
	events := []Event{
		span(0, PhaseMap, KindRun, 0, 4e6),
		span(0, PhaseReduce, KindRun, 4e6, 9e6),
	}
	svg := TimelineSVG("single node", events)
	if strings.Contains(svg, "node 1") {
		t.Error("single-node timeline rendered a second lane")
	}
	if got := strings.Count(svg, "<title>"); got != 2 {
		t.Errorf("bar count = %d, want 2", got)
	}
	if !strings.Contains(svg, colorMap) || !strings.Contains(svg, colorReduce) {
		t.Error("map/reduce colors missing")
	}
}

// TestTimelineSVGRecomputeSpans: rerun spans (re-executed attempts)
// draw in their own colors so retries are visible at a glance, name
// their kind in the tooltip, and widen the lane set; the chart stays
// well-formed XML.
func TestTimelineSVGRecomputeSpans(t *testing.T) {
	events := []Event{
		span(0, PhaseMap, KindRun, 0, 2e6),
		span(3, PhaseMap, KindRerun, 2e6, 4e6),
		span(1, PhaseReduce, KindRerun, 4e6, 5e6),
	}
	svg := TimelineSVG("recompute", events)
	for _, want := range []string{colorMapRerun, colorRedRerun, "node 3", "(rerun)"} {
		if !strings.Contains(svg, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
	if got := strings.Count(svg, "<title>"); got != 3 {
		t.Errorf("bar count = %d, want 3", got)
	}
	var any struct{}
	if err := xml.Unmarshal([]byte(svg), &any); err != nil {
		t.Fatalf("SVG is not well-formed XML: %v", err)
	}
}

// TestTimelineSVGIgnoresNonSpanEvents: callers pass full traces; every
// host-time lifecycle event must be skipped, not drawn.
func TestTimelineSVGIgnoresNonSpanEvents(t *testing.T) {
	events := []Event{
		{Type: FlowStart, Flow: "self-join"},
		{Type: JobStart, Job: "s1-count"},
		{Type: AttemptEnd, Job: "s1-count", Phase: PhaseMap, Cost: 100},
		{Type: AttemptFail, Job: "s1-count", Phase: PhaseMap, Node: 2},
		{Type: FlowEnd, Flow: "self-join"},
	}
	svg := TimelineSVG("lifecycle only", events)
	if strings.Contains(svg, "<title>") {
		t.Error("non-span events drew bars")
	}
	if strings.Contains(svg, "node 2") {
		t.Error("attempt lifecycle event widened the lane set")
	}
}
