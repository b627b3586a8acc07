package fuzzyjoin_test

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"fuzzyjoin"
	"fuzzyjoin/internal/trace"
)

func traceTestRecords() []fuzzyjoin.Record {
	// Clusters of near-duplicates so the join result is non-empty.
	base := []string{
		"parallel set similarity joins using mapreduce",
		"efficient record linkage in large data clusters",
		"prefix filtering for scalable similarity search",
		"token ordering strategies for distributed joins",
	}
	var recs []fuzzyjoin.Record
	rid := uint64(1)
	for _, title := range base {
		for _, suffix := range []string{"", "", " extended", " revisited edition"} {
			recs = append(recs, fuzzyjoin.Record{
				RID:    rid,
				Fields: []string{title + suffix, "smith jones", "conf"},
			})
			rid++
		}
	}
	return recs
}

// runTraced joins the test records on a 2-node FS with eight reducers,
// enough to fill both nodes' reduce slots; with faults set, about a
// third of the tasks fail their first attempt and are retried.
func runTraced(t *testing.T, traced, faults bool) (string, *fuzzyjoin.Result) {
	t.Helper()
	fs := fuzzyjoin.NewFS(2)
	if err := fuzzyjoin.WriteRecords(fs, "pubs", traceTestRecords()); err != nil {
		t.Fatal(err)
	}
	cfg := fuzzyjoin.Config{FS: fs, Work: "w", NumReducers: 8}
	if faults {
		cfg.Retry = fuzzyjoin.RetryPolicy{MaxAttempts: 3}
		cfg.FaultInjector = fuzzyjoin.RateInjector{Rate: 0.3, Seed: 1}
	}
	if traced {
		cfg.Trace = fuzzyjoin.NewTracer()
	}
	res, err := fuzzyjoin.Join(context.Background(),
		fuzzyjoin.JoinSpec{Config: cfg, Input: "pubs"})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := fuzzyjoin.ReadJoinedPairs(fs, res.Output)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(pairs))
	for i, p := range pairs {
		lines[i] = p.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n"), res
}

// TestTracedRetryAcceptance is the end-to-end observability check: a
// self-join in which injected faults fail task attempts must (a) produce
// byte-identical output with tracing on or off, and equal to a
// fault-free run, (b) record every failed attempt as an attempt-fail
// event, (c) export JSONL that parses back, and (d) render a per-node
// timeline with bars on every node and one rerun span per failed
// attempt.
func TestTracedRetryAcceptance(t *testing.T) {
	clean, _ := runTraced(t, false, false)
	plain, _ := runTraced(t, false, true)
	traced, res := runTraced(t, true, true)
	if plain != traced {
		t.Fatal("join output differs with tracing enabled")
	}
	if plain != clean {
		t.Fatal("join output with retried attempts differs from the fault-free run")
	}
	if plain == "" {
		t.Fatal("join produced no pairs; test is vacuous")
	}

	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace collected")
	}
	failed := tr.Count("attempt-fail")
	if failed == 0 {
		t.Fatal("no attempt-fail event; the injector missed every task")
	}
	if tr.Count("attempt-end") == 0 {
		t.Error("no attempt-end events")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"schema":1}`) {
		t.Fatalf("JSONL header missing: %q", buf.String()[:40])
	}
	if back, err := trace.ParseJSONL(&buf); err != nil || len(back.Events) != len(tr.Events) {
		t.Fatalf("JSONL parsed back to %d events (err %v), want %d", len(back.Events), err, len(tr.Events))
	}

	events := fuzzyjoin.TimelineEvents(res, 2)
	svg := fuzzyjoin.TimelineSVG("acceptance", events)
	nodesWithBars := map[int]bool{}
	reruns := 0
	for _, e := range events {
		if e.Type == "task-span" {
			nodesWithBars[e.Node] = true
			if e.End <= e.Start {
				t.Errorf("span %+v: empty simulated interval", e)
			}
			if e.Kind == "rerun" {
				reruns++
			}
		}
	}
	if len(nodesWithBars) != 2 {
		t.Errorf("timeline bars on %d nodes, want 2", len(nodesWithBars))
	}
	if reruns != failed {
		t.Errorf("timeline has %d rerun spans, want one per failed attempt (%d)", reruns, failed)
	}
	for _, want := range []string{"<svg", "node 0", "node 1", "(rerun)"} {
		if !strings.Contains(svg, want) {
			t.Errorf("timeline SVG missing %q", want)
		}
	}
}

// TestNewFSOptions: the options constructor defaults to single
// replication and honors the Replication option.
func TestNewFSOptions(t *testing.T) {
	if got := fuzzyjoin.NewFS(4).Replication(); got != 1 {
		t.Fatalf("default replication = %d, want 1", got)
	}
	opt := fuzzyjoin.NewFS(4, fuzzyjoin.Replication(3))
	if opt.Replication() != 3 {
		t.Fatalf("replication = %d, want 3", opt.Replication())
	}
}
