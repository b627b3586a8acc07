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
// self-join on a replication-2 DFS where node 0 dies after the first
// map wave and speculative reduce execution is on. The resulting trace
// exercises the full event taxonomy — attempts, node-down,
// lost-map-output recomputation, speculation wins and losses — and the
// timeline schedules the measured tasks onto the default virtual
// cluster of the given node count.
func (s *Suite) TraceDemo() (*TraceArtifacts, error) {
	const factor, nodes, replication = 2, 4, 2
	fs := dfs.New(dfs.Options{BlockSize: s.w.p.BlockSize, Nodes: nodes,
		Replication: replication, AutoReReplicate: true})
	if err := mapreduce.WriteTextFile(fs, "dblp", datagen.Lines(s.w.dblpTimes(factor))); err != nil {
		return nil, err
	}
	cfg := s.w.baseCfg(fs, nodes)
	cfg.Work = "tracedemo"
	cfg.Kernel, cfg.RecordJoin = core.PK, core.BRJ
	cfg.Speculative = true
	cfg.NodeFailures = []mapreduce.NodeFailure{{Barrier: mapreduce.AfterMap, Node: 0}}
	cfg.Trace = trace.New()
	r, err := core.SelfJoin(cfg, "dblp")
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	if err := r.Trace.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	timeline := spec(nodes).Timeline(jobCosts(r.AllJobs()), r.Trace.Events)
	title := fmt.Sprintf("%s self-join, %d nodes, replication %d, node 0 dies after map",
		cfg.Combo(), nodes, replication)
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
