package core

import (
	"context"
	"fmt"
	"time"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/trace"
)

// SelfJoinContext is SelfJoin with cancellation: every MapReduce job the
// pipeline runs executes under ctx, so canceling it stops the join at
// the next task boundary with an error wrapping mapreduce.ErrCanceled.
func SelfJoinContext(ctx context.Context, cfg Config, input string) (*Result, error) {
	cfg.ctx = ctx
	return join(cfg, input)
}

// RSJoinContext is RSJoin with cancellation (see SelfJoinContext).
func RSJoinContext(ctx context.Context, cfg Config, inputR, inputS string) (*Result, error) {
	cfg.ctx = ctx
	return join(cfg, inputR, inputS)
}

// traceFlow emits a flow-level marker (FlowStart/FlowEnd) when tracing.
func traceFlow(cfg *Config, typ trace.EventType, flow string, detail string) {
	if cfg.Trace.Enabled() {
		cfg.Trace.Emit(trace.Event{Type: typ, Flow: flow, Detail: detail})
	}
}

// traceStage emits a stage-level marker (StageStart/StageEnd).
func traceStage(cfg *Config, typ trace.EventType, stage int, alg string) {
	if cfg.Trace.Enabled() {
		cfg.Trace.Emit(trace.Event{Type: typ, Stage: stage, Detail: alg})
	}
}

// SelfJoin runs the end-to-end set-similarity self-join of the records in
// input (a Text-format DFS file, one record line per row): Stage 1 orders
// the tokens, Stage 2 generates similar-RID pairs, Stage 3 rebuilds full
// record pairs. The final output is Result.Output (Text part files of
// records.JoinedPair lines).
func SelfJoin(cfg Config, input string) (*Result, error) { return join(cfg, input) }

// RSJoin runs the end-to-end set-similarity R-S join of two record files.
// Per §4, Stage 1 builds the token ordering from R only, so pass the
// smaller relation as inputR (the paper uses DBLP against CITESEERX).
// Joined pairs carry the R record on the left.
func RSJoin(cfg Config, inputR, inputS string) (*Result, error) { return join(cfg, inputR, inputS) }

// join is the one three-stage flow: a self-join over one input, or an
// R-S join over (R, S).
func join(cfg Config, inputs ...string) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	defer cfg.withScratch()()
	for _, in := range inputs {
		if !cfg.FS.Exists(in) {
			return nil, fmt.Errorf("core: input %q does not exist", in)
		}
	}
	flow := "self-join"
	if len(inputs) == 2 {
		flow = "rs-join"
		if inputs[0] == inputs[1] {
			return nil, fmt.Errorf("core: R-S join requires distinct inputs; use SelfJoin for %q", inputs[0])
		}
	}
	res := &Result{}
	traceFlow(&cfg, trace.FlowStart, flow, cfg.Combo())
	// stage runs one stage between its trace markers and records its
	// metrics; run returns the stage's jobs.
	stage := func(n int, alg string, run func() ([]*mapreduce.Metrics, error)) error {
		start := time.Now()
		traceStage(&cfg, trace.StageStart, n, alg)
		ms, err := run()
		if err != nil {
			return fmt.Errorf("stage %d (%s): %w", n, alg, err)
		}
		traceStage(&cfg, trace.StageEnd, n, alg)
		res.Stages[n-1] = StageMetrics{Stage: n, Alg: alg, Jobs: ms, Wall: time.Since(start)}
		return nil
	}
	// Stage 1 reads inputs[0] only: for R-S joins the token order comes
	// from R (§4).
	err := stage(1, cfg.TokenOrder.String(), func() (ms []*mapreduce.Metrics, err error) {
		res.TokenOrderFile, ms, err = runStage1(&cfg, inputs[0], cfg.Work)
		return ms, err
	})
	if err != nil {
		return nil, err
	}
	err = stage(2, cfg.Kernel.String(), func() (ms []*mapreduce.Metrics, err error) {
		res.RIDPairs, ms, err = runStage2(&cfg, res.TokenOrderFile, cfg.Work, inputs...)
		return ms, err
	})
	if err != nil {
		return nil, err
	}
	err = stage(3, cfg.RecordJoin.String(), func() (ms []*mapreduce.Metrics, err error) {
		res.Output, ms, err = runStage3(&cfg, res.RIDPairs, cfg.Work, inputs...)
		return ms, err
	})
	if err != nil {
		return nil, err
	}
	res.Pairs = stagePairCount(res.Stages[2].Jobs)
	traceFlow(&cfg, trace.FlowEnd, flow, cfg.Combo())
	res.Trace = cfg.Trace.Snapshot()
	return res, nil
}

// Stage1 runs only the token-ordering stage (the experiment harness
// measures stages independently). It returns the token-order file.
func Stage1(cfg Config, input string) (string, []*mapreduce.Metrics, error) {
	if err := cfg.fillDefaults(); err != nil {
		return "", nil, err
	}
	defer cfg.withScratch()()
	return runStage1(&cfg, input, cfg.Work)
}

// stageFunc is the shape runStage2 and runStage3 share: the previous
// stage's output, the work directory, and one input (self) or (R, S).
type stageFunc func(cfg *Config, prev, work string, inputs ...string) (string, []*mapreduce.Metrics, error)

// standalone runs one stage outside a flow.
func standalone(cfg Config, run stageFunc, prev string, inputs ...string) (string, []*mapreduce.Metrics, error) {
	if err := cfg.fillDefaults(); err != nil {
		return "", nil, err
	}
	defer cfg.withScratch()()
	return run(&cfg, prev, cfg.Work, inputs...)
}

// Stage2Self runs only the self-join kernel stage against an existing
// token-order file. It returns the RID-pair output prefix.
func Stage2Self(cfg Config, input, tokenFile string) (string, []*mapreduce.Metrics, error) {
	return standalone(cfg, runStage2, tokenFile, input)
}

// Stage2RS runs only the R-S kernel stage.
func Stage2RS(cfg Config, inputR, inputS, tokenFile string) (string, []*mapreduce.Metrics, error) {
	return standalone(cfg, runStage2, tokenFile, inputR, inputS)
}

// Stage3Self runs only the self-join record-join stage against an
// existing RID-pair prefix. It returns the final output prefix.
func Stage3Self(cfg Config, input, pairsPrefix string) (string, []*mapreduce.Metrics, error) {
	return standalone(cfg, runStage3, pairsPrefix, input)
}

// Stage3RS runs only the R-S record-join stage.
func Stage3RS(cfg Config, inputR, inputS, pairsPrefix string) (string, []*mapreduce.Metrics, error) {
	return standalone(cfg, runStage3, pairsPrefix, inputR, inputS)
}

func stagePairCount(ms []*mapreduce.Metrics) int64 {
	if len(ms) == 0 {
		return 0
	}
	return ms[len(ms)-1].Counters["stage3.pairs"]
}

// AllJobs flattens a result's per-stage metrics in execution order (the
// cluster simulator consumes this).
func (r *Result) AllJobs() []*mapreduce.Metrics {
	var out []*mapreduce.Metrics
	for _, s := range r.Stages {
		out = append(out, s.Jobs...)
	}
	return out
}
