package cluster

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fuzzyjoin/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedSelfJoinFlow is a deterministic 2-node self-join flow: the three
// pipeline stages as synthetic JobCosts with fixed costs, one map retry
// chain and one reduce retry chain — every span kind the timeline
// renders.
func fixedSelfJoinFlow() []JobCost {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []JobCost{
		{
			Name:     "s1-bto-count",
			MapCosts: []time.Duration{ms(8), ms(6), ms(7), ms(5)},
			// Task 1 fails once and is re-executed.
			MapAttempts:      [][]time.Duration{nil, {ms(3), ms(6)}, nil, nil},
			ReduceCosts:      []time.Duration{ms(4), ms(5)},
			ShufflePerReduce: []int64{64 << 10, 96 << 10},
		},
		{
			Name:             "s2-pk-self",
			MapCosts:         []time.Duration{ms(12), ms(11), ms(13), ms(10)},
			ReduceCosts:      []time.Duration{ms(9), ms(14)},
			ReduceAttempts:   [][]time.Duration{{ms(4), ms(9)}, nil},
			ShufflePerReduce: []int64{128 << 10, 256 << 10},
			SideBytes:        32 << 10,
		},
		{
			Name:             "s3-brj-1",
			MapCosts:         []time.Duration{ms(6), ms(6)},
			ReduceCosts:      []time.Duration{ms(7), ms(3)},
			ShufflePerReduce: []int64{64 << 10, 32 << 10},
		},
	}
}

// TestTimelineMatchesMakespan: the timeline's clock must agree with the
// flow makespan — the latest span end plus nothing, since every job's
// waves end inside its makespan.
func TestTimelineMatchesMakespan(t *testing.T) {
	s := Default(2)
	jobs := fixedSelfJoinFlow()
	events := s.Timeline(jobs)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	var latest time.Duration
	spans := 0
	for _, e := range events {
		if e.Type != trace.TaskSpan {
			continue
		}
		spans++
		if end := time.Duration(e.End); end > latest {
			latest = end
		}
		if e.End <= e.Start {
			t.Errorf("span %+v: empty interval", e)
		}
		if e.Node < 0 || e.Node >= s.Nodes {
			t.Errorf("span %+v: node out of range", e)
		}
	}
	// One span per attempt: (4+1)+(2)+(4)+(2+1)+(2)+(2).
	wantSpans := 5 + 2 + 4 + 3 + 2 + 2
	if spans != wantSpans {
		t.Errorf("spans = %d, want %d", spans, wantSpans)
	}
	total := s.FlowMakespan(jobs)
	if latest > total {
		t.Fatalf("latest span end %v exceeds flow makespan %v", latest, total)
	}
	// The last job ends with its reduce wave, so the latest span end IS
	// the flow makespan.
	if latest != total {
		t.Fatalf("latest span end %v != flow makespan %v", latest, total)
	}
}

// TestTimelineKinds: first attempts render as runs and retries as
// reruns.
func TestTimelineKinds(t *testing.T) {
	count := map[string]int{}
	for _, e := range Default(2).Timeline(fixedSelfJoinFlow()) {
		count[e.Kind]++
	}
	if count[trace.KindRun] != 16 || count[trace.KindRerun] != 2 || len(count) != 2 {
		t.Fatalf("kind counts = %v, want 16 runs and 2 reruns", count)
	}
}

// TestTimelineGoldenSVG locks the rendered timeline of the fixed flow.
// Regenerate with: go test ./internal/cluster -run Golden -update
func TestTimelineGoldenSVG(t *testing.T) {
	events := Default(2).Timeline(fixedSelfJoinFlow())
	svg := trace.TimelineSVG("fixed 2-node self-join", events)

	golden := filepath.Join("testdata", "timeline_golden.svg")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(svg), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if svg != string(want) {
		t.Fatalf("timeline SVG deviates from %s (run with -update after intended changes)", golden)
	}
}
