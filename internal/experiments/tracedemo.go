package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/trace"
)

// TraceArtifacts is the observability bundle the trace demo produces:
// the raw event log, the simulated per-node timeline, and the versioned
// metrics document — the same three files `fuzzyjoin -trace` writes.
type TraceArtifacts struct {
	// JSONL is the schema-versioned event log (one JSON event per line).
	JSONL []byte
	// TimelineSVG is the per-node Gantt chart in simulated cluster time.
	TimelineSVG string
	// MetricsJSON is the core.MetricsExport document, indented.
	MetricsJSON []byte
	// Events is the engine trace backing JSONL.
	Events []trace.Event
	// Pairs is the join's output pair count (sanity check: tracing must
	// not change the result).
	Pairs int64
}

// TraceDemo runs a traced fault-tolerance showcase: a BTO-PK-BRJ
// self-join in which a fifth of the tasks fail their first attempt
// (RateInjector at 0.2, up to 3 attempts per task). The resulting trace
// carries every event type the engine emits — job and phase bounds,
// committed and failed attempts — and the timeline schedules the
// measured attempt chains onto the default virtual cluster of the given
// node count, each retry a "rerun" span.
func (s *Suite) TraceDemo() (*TraceArtifacts, error) {
	const factor, nodes, rate = 2, 4, 0.2
	fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes})
	if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
		return nil, err
	}
	cfg := s.w.baseCfg(fs, nodes)
	cfg.Work = "tracedemo"
	cfg.Kernel, cfg.RecordJoin = core.PK, core.BRJ
	cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
	cfg.FaultInjector = mapreduce.RateInjector{Rate: rate, Seed: s.w.p.Seed}
	cfg.Trace = trace.New()
	r, err := core.SelfJoin(cfg, "dblp")
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	if err := r.Trace.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	timeline := spec(nodes).Timeline(jobCosts(r.AllJobs()))
	title := fmt.Sprintf("%s self-join, %d nodes, %.0f%% of tasks fail their first attempt",
		cfg.Combo(), nodes, 100*rate)
	doc, err := json.MarshalIndent(r.Export(cfg.Combo()), "", "  ")
	if err != nil {
		return nil, err
	}
	return &TraceArtifacts{
		JSONL:       buf.Bytes(),
		TimelineSVG: trace.TimelineSVG(title, timeline),
		MetricsJSON: append(doc, '\n'),
		Events:      r.Trace.Events,
		Pairs:       r.Pairs,
	}, nil
}
