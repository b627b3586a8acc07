// Package trace is the runtime's structured observability subsystem: a
// typed event stream describing everything a join run does — flows,
// stages, jobs, phase barriers, task attempts with their costs and data
// volumes, and failed attempts with their retries — plus the
// simulated-time task spans the cluster scheduler assigns.
//
// The paper's entire evaluation (§6) rests on per-stage, per-task timing
// and data-volume measurements; this package makes those measurements
// machine-readable (JSONL, schema-versioned) and renderable (a per-node
// Gantt timeline via internal/svgplot) instead of locked inside a
// human-readable report string.
//
// A *Tracer is threaded through the engine (mapreduce.Job.Trace), the
// pipeline (core.Config.Trace), and the cluster scheduler
// (cluster.Spec.Timeline). A nil *Tracer disables tracing at zero cost:
// every method is nil-safe, and the engine's emit sites are additionally
// guarded so no Event is even constructed. Tracing only observes — join
// output is byte-identical with tracing on or off.
package trace

import (
	"sync"
	"time"
)

// SchemaVersion identifies the trace and metrics-export schema. It is
// written into every JSONL header and metrics.json document; consumers
// should reject documents with a schema they do not understand. Bump it
// on any incompatible change to Event or the export layout.
const SchemaVersion = 1

// EventType discriminates trace events.
type EventType string

// The event taxonomy. Events nest: a flow contains stages, a stage
// contains jobs, a job contains phases, a phase contains task attempts.
// Task-span events are appended after the run by the cluster scheduler
// and live in simulated time (Start/End) rather than host time (T).
const (
	// FlowStart / FlowEnd bracket one end-to-end pipeline run.
	FlowStart EventType = "flow-start"
	FlowEnd   EventType = "flow-end"
	// StageStart / StageEnd bracket one pipeline stage (1, 2, or 3).
	StageStart EventType = "stage-start"
	StageEnd   EventType = "stage-end"
	// JobStart / JobEnd bracket one MapReduce job.
	JobStart EventType = "job-start"
	JobEnd   EventType = "job-end"
	// PhaseStart / PhaseEnd bracket a job's map or reduce phase — the
	// engine's barriers.
	PhaseStart EventType = "phase-start"
	PhaseEnd   EventType = "phase-end"
	// AttemptStart begins one numbered task attempt; AttemptEnd commits
	// it (carrying cost, records and bytes); AttemptFail
	// records a failed attempt (injected fault, panic, timeout, error)
	// whose effects were rolled back.
	AttemptStart EventType = "attempt-start"
	AttemptEnd   EventType = "attempt-end"
	AttemptFail  EventType = "attempt-fail"
	// TaskSpan is one placed task attempt in simulated cluster time:
	// Node is the virtual node, Start/End the simulated interval, Kind
	// "run" (first attempt) or "rerun" (retry). Appended by
	// cluster.Spec.Timeline.
	TaskSpan EventType = "task-span"
)

// Phase names used in Event.Phase.
const (
	PhaseMap    = "map"
	PhaseReduce = "reduce"
)

// Task-span kinds used in Event.Kind.
const (
	KindRun   = "run"
	KindRerun = "rerun"
)

// Event is one trace record. Zero-valued fields are omitted from JSON;
// consumers must treat an absent field as zero. T is nanoseconds of
// host-monotonic time since the tracer started; Start/End are
// nanoseconds of simulated cluster time (task-span events only).
type Event struct {
	Type EventType `json:"type"`
	T    int64     `json:"t_ns"`

	Flow    string `json:"flow,omitempty"`
	Stage   int    `json:"stage,omitempty"`
	Job     string `json:"job,omitempty"`
	Phase   string `json:"phase,omitempty"`
	Task    int    `json:"task,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Node    int    `json:"node,omitempty"`

	Cost     int64 `json:"cost_ns,omitempty"`
	InRecs   int64 `json:"in_recs,omitempty"`
	InBytes  int64 `json:"in_bytes,omitempty"`
	OutRecs  int64 `json:"out_recs,omitempty"`
	OutBytes int64 `json:"out_bytes,omitempty"`

	Start int64  `json:"start_ns,omitempty"`
	End   int64  `json:"end_ns,omitempty"`
	Kind  string `json:"kind,omitempty"`

	// Worker identifies the worker process a committed attempt executed
	// on ("w3"); empty for in-process execution. Additive: absent fields
	// decode as empty, so the schema version is unchanged.
	Worker string `json:"worker,omitempty"`

	Err    string `json:"err,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Sink receives emitted events. Implementations must be safe for
// concurrent use: the engine emits from parallel task goroutines.
type Sink interface {
	Emit(Event)
}

// Collector is an in-memory Sink.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of everything collected so far.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Tracer timestamps events and fans them out to its sinks. The zero
// value is not usable; construct with New. A nil *Tracer is the
// disabled tracer: every method is a no-op.
type Tracer struct {
	start time.Time
	col   *Collector
	sinks []Sink
}

// New returns a Tracer collecting into memory (see Snapshot) and
// additionally forwarding every event to the given sinks — e.g. a
// JSONL writer streaming to a file.
func New(extra ...Sink) *Tracer {
	return &Tracer{start: time.Now(), col: &Collector{}, sinks: extra}
}

// Enabled reports whether the tracer records anything. It is the
// cheap guard emit sites use so a disabled run constructs no Events.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit stamps the event with the tracer-relative time (unless the
// caller already set T) and delivers it to every sink. Safe for
// concurrent use; a no-op on a nil Tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.T == 0 {
		e.T = int64(time.Since(t.start))
	}
	t.col.Emit(e)
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Snapshot returns the trace collected so far: the schema version plus
// a copy of every event in emission order. Returns nil on a nil Tracer,
// so Result.Trace is nil exactly when tracing was disabled.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{Schema: SchemaVersion, Events: t.col.Events()}
}

// Trace is a completed, self-describing event log.
type Trace struct {
	Schema int     `json:"schema"`
	Events []Event `json:"events"`
}

// Filter returns the events matching any of the given types, in order.
func (tr *Trace) Filter(types ...EventType) []Event {
	if tr == nil {
		return nil
	}
	var out []Event
	for _, e := range tr.Events {
		for _, t := range types {
			if e.Type == t {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// Count returns how many events of the given type the trace holds.
func (tr *Trace) Count(t EventType) int {
	n := 0
	if tr == nil {
		return 0
	}
	for _, e := range tr.Events {
		if e.Type == t {
			n++
		}
	}
	return n
}
