package trace

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTrace() *Trace {
	return &Trace{Schema: SchemaVersion, Events: []Event{
		{Type: FlowStart, T: 100, Flow: "self-join", Detail: "BTO-PK-BRJ"},
		{Type: StageStart, T: 150, Stage: 1, Detail: "BTO"},
		{Type: JobStart, T: 200, Job: "s1-bto-count", Detail: "inputs=2 reducers=4"},
		{Type: AttemptStart, T: 250, Job: "s1-bto-count", Phase: PhaseMap, Task: 0, Attempt: 1},
		{Type: AttemptEnd, T: 300, Job: "s1-bto-count", Phase: PhaseMap, Task: 0, Attempt: 1,
			Cost: 12345, InRecs: 10, InBytes: 1000, OutRecs: 40, OutBytes: 2000},
		{Type: AttemptFail, T: 350, Job: "s1-bto-count", Phase: PhaseReduce, Task: 2, Attempt: 1,
			Cost: 99, Err: "injected fault"},
		{Type: AttemptStart, T: 450, Job: "s1-bto-count", Phase: PhaseReduce, Task: 2, Attempt: 2},
		{Type: AttemptEnd, T: 550, Job: "s1-bto-count", Phase: PhaseReduce, Task: 2, Attempt: 2, Cost: 88},
		// Node 0: the node field is omitted from JSON (omitempty) and must
		// still round-trip as zero.
		{Type: TaskSpan, T: 0, Job: "s1-bto-count", Phase: PhaseReduce, Task: 2, Attempt: 2,
			Node: 0, Start: 1000, End: 2000, Kind: KindRerun},
		{Type: FlowEnd, T: 600, Flow: "self-join"},
	}}
}

// TestJSONLRoundTrip: emit → parse → re-emit must be byte-identical,
// including events whose omitted fields are zero.
func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var first bytes.Buffer
	if err := tr.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", parsed.Schema, SchemaVersion)
	}
	if len(parsed.Events) != len(tr.Events) {
		t.Fatalf("parsed %d events, want %d", len(parsed.Events), len(tr.Events))
	}
	for i, e := range parsed.Events {
		if e != tr.Events[i] {
			t.Errorf("event %d: %+v != %+v", i, e, tr.Events[i])
		}
	}
	var second bytes.Buffer
	if err := parsed.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-emitted JSONL differs:\n%s\nvs\n%s", first.String(), second.String())
	}
}

func TestParseJSONLRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "{\"type\":\"flow-start\",\"t_ns\":1}\n",
		"future schema":  "{\"schema\":999}\n",
		"schema zero":    "{\"schema\":0}\n",
		"malformed line": "{\"schema\":1}\n{not json}\n",
	}
	for name, in := range cases {
		if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestJSONLSinkStreamsHeaderAndEvents: the streaming sink produces the
// same bytes as writing the collected trace afterwards.
func TestJSONLSinkStreams(t *testing.T) {
	var streamed bytes.Buffer
	sink := NewJSONLSink(&streamed)
	tr := New(sink)
	for _, e := range sampleTrace().Events {
		tr.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var collected bytes.Buffer
	if err := tr.Snapshot().WriteJSONL(&collected); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), collected.Bytes()) {
		t.Fatalf("streamed JSONL differs from collected trace:\n%s\nvs\n%s",
			streamed.String(), collected.String())
	}
}

// TestNilTracer: the disabled tracer is safe and free everywhere it is
// threaded.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(Event{Type: JobStart}) // must not panic
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot not nil")
	}
	var ntr *Trace
	if got := ntr.Filter(JobStart); got != nil {
		t.Fatal("nil trace filter not nil")
	}
	if got := ntr.Count(JobStart); got != 0 {
		t.Fatal("nil trace count not zero")
	}
}

func TestTracerStampsTime(t *testing.T) {
	tr := New()
	tr.Emit(Event{Type: JobStart})
	tr.Emit(Event{Type: TaskSpan, T: 42}) // pre-stamped events keep their T
	evs := tr.Snapshot().Events
	if evs[0].T <= 0 {
		t.Fatalf("unstamped event T = %d, want > 0", evs[0].T)
	}
	if evs[1].T != 42 {
		t.Fatalf("pre-stamped event T = %d, want 42", evs[1].T)
	}
}

func TestFilterAndCount(t *testing.T) {
	tr := sampleTrace()
	if got := tr.Count(AttemptEnd); got != 2 {
		t.Fatalf("Count(AttemptEnd) = %d, want 2", got)
	}
	got := tr.Filter(AttemptFail, TaskSpan)
	if len(got) != 2 || got[0].Type != AttemptFail || got[1].Type != TaskSpan {
		t.Fatalf("Filter = %+v", got)
	}
}
