package fuzzyjoin

import (
	"io"

	"fuzzyjoin/internal/cluster"
	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/trace"
)

// Observability: every join can emit a structured trace of typed events
// (job/phase boundaries, task attempts with costs and volumes, failed
// attempts and their retries).
// Set Config.Trace to a NewTracer() and read the collected trace from
// Result.Trace, stream it as JSONL via a TraceSink, or render it as a
// per-node timeline SVG. Tracing is off by default and free when off:
// a nil Config.Trace emits nothing and leaves the join output
// byte-identical.
//
//	tr := fuzzyjoin.NewTracer()
//	res, err := fuzzyjoin.Join(ctx, fuzzyjoin.JoinSpec{
//		Config: fuzzyjoin.Config{FS: fs, Work: "job1", Trace: tr},
//		Input:  "pubs",
//	})
//	res.Trace.WriteJSONL(f)                                  // machine-readable event log
//	svg := fuzzyjoin.TimelineSVG("pubs self-join",
//		fuzzyjoin.TimelineEvents(res, 4))                    // simulated-time Gantt
type (
	// Tracer collects typed events from every job a join runs; see
	// Config.Trace. The zero of the pointer (nil) disables tracing.
	Tracer = trace.Tracer
	// Trace is a collected event log plus its schema version.
	Trace = trace.Trace
	// TraceEvent is one typed event; see internal/trace for the
	// taxonomy.
	TraceEvent = trace.Event
	// TraceSink receives events as they are emitted (streaming export).
	TraceSink = trace.Sink
	// MetricsExport is the versioned envelope the CLIs write as
	// metrics.json.
	MetricsExport = core.MetricsExport
	// ConfigError reports one invalid Config field; returned by
	// Config.Validate and every join entry point.
	ConfigError = core.ConfigError
)

// TraceSchemaVersion is the schema version stamped on traces and
// metrics exports; bumped when the meaning or name of an existing JSON
// field changes (adding fields does not bump it).
const TraceSchemaVersion = trace.SchemaVersion

// NewTracer creates a Tracer that collects events in memory; extra
// sinks, if given, additionally receive every event as it is emitted.
func NewTracer(extra ...TraceSink) *Tracer { return trace.New(extra...) }

// NewJSONLSink returns a streaming sink writing one JSON event per line
// (after a schema header) to w. Call Flush when the run completes.
func NewJSONLSink(w io.Writer) *trace.JSONLSink { return trace.NewJSONLSink(w) }

// TimelineEvents schedules a completed join's measured tasks onto the
// default virtual cluster of the given size (see internal/cluster) and
// returns simulated-time task-span events — where every attempt ran and
// when, under the paper's slot model rather than host wall-clock. Render
// the result with TimelineSVG.
func TimelineEvents(res *Result, nodes int) []TraceEvent {
	var jobs []cluster.JobCost
	for _, m := range res.AllJobs() {
		jobs = append(jobs, cluster.FromMetrics(m))
	}
	return cluster.Default(nodes).Timeline(jobs)
}

// TimelineSVG renders task-span events (from TimelineEvents or a
// cluster Spec's Timeline) as a per-node Gantt chart.
func TimelineSVG(title string, events []TraceEvent) string {
	return trace.TimelineSVG(title, events)
}
