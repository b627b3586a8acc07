// Package fuzzyjoin is a parallel set-similarity join library — a Go
// reproduction of "Efficient Parallel Set-Similarity Joins Using
// MapReduce" (Vernica, Carey, Li — SIGMOD 2010), named after the authors'
// released system.
//
// The library answers set-similarity workloads in two shapes:
//
//   - Batch joins — Join runs the paper's three-stage MapReduce pipeline
//     (token ordering BTO/OPTO, RID-pair generation with prefix filtering
//     BK/PK, record join BRJ/OPRJ, plus the §5 block-processing
//     strategies) over record files or in-memory slices, self-join or
//     R-S join.
//   - Online queries — NewIndex builds a persistent concurrent prefix
//     index (the pipeline's Stage-1 token order + Stage-2 filters in
//     long-lived form) that answers Match(record) lookups at high QPS
//     and ingests new records incrementally.
//
// # Quick start
//
// One batch self-join over in-memory records:
//
//	res, err := fuzzyjoin.Join(ctx, fuzzyjoin.JoinSpec{Records: recs})
//	if err != nil { ... }
//	for _, p := range res.Joined { ... }
//
// The same join over DFS files:
//
//	fs := fuzzyjoin.NewFS(4)
//	fuzzyjoin.WriteRecords(fs, "pubs", recs)
//	res, err := fuzzyjoin.Join(ctx, fuzzyjoin.JoinSpec{
//		Config: fuzzyjoin.Config{FS: fs, Work: "job1"},
//		Input:  "pubs",
//	})
//	pairs, err := fuzzyjoin.ReadJoinedPairs(fs, res.Output)
//
// or, without holding the whole output, a pair at a time:
//
//	err = fuzzyjoin.WalkJoinedPairs(fs, res.Output, func(p fuzzyjoin.JoinedPair) error { ... })
//
// Online queries against a growing corpus:
//
//	ix, err := fuzzyjoin.NewIndex(ctx, fuzzyjoin.WithCorpus(recs))
//	defer ix.Close()
//	similar, err := ix.Match(ctx, probe)
//	err = ix.Add(newRecord) // visible to the next Match
//
// The zero Config runs the paper's recommended configuration: word
// tokens over title+authors, Jaccard at τ = 0.80, BTO-BK-BRJ with the
// full PPJoin+ filter stack. Set Kernel: fuzzyjoin.PK and RecordJoin:
// fuzzyjoin.OPRJ for the fastest combination the paper measured
// (BTO-PK-OPRJ), or keep BRJ for the most scalable one (BTO-PK-BRJ).
// Or let the cost planner choose from a sample of the workload:
//
//	p, err := fuzzyjoin.Plan(ctx, spec)
//	spec.Config = p.Best.Apply(spec.Config)
//	res, err := fuzzyjoin.Join(ctx, spec)
//
// Joins and queries are cancellable: cancel the ctx and the call
// returns an error matching ErrCanceled at the next task boundary.
package fuzzyjoin

import (
	"context"
	"fmt"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/plan"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
	"fuzzyjoin/internal/ssjserve"
)

// Core configuration and result types.
type (
	// Config configures an end-to-end join; see the field docs in
	// internal/core.
	Config = core.Config
	// Result describes a completed join: output location, per-stage
	// metrics, and the pair count.
	Result = core.Result
	// Record is one input record: a unique RID plus fields.
	Record = records.Record
	// JoinedPair is one output pair: two records and their similarity.
	JoinedPair = records.JoinedPair
	// RIDPair is a Stage 2 result (two RIDs and their similarity).
	RIDPair = records.RIDPair
	// FS is the simulated distributed file system joins run on.
	FS = dfs.FS
)

// Stage algorithm choices (see the paper's §3).
const (
	// BTO / OPTO select the Stage 1 token-ordering algorithm.
	BTO  = core.BTO
	OPTO = core.OPTO
	// BK / PK / FVT select the Stage 2 kernel (FVT is the
	// candidate-free Filter-and-Verification Tree, internal/fvt).
	BK  = core.BK
	PK  = core.PK
	FVT = core.FVT
	// BRJ / OPRJ select the Stage 3 record join.
	BRJ  = core.BRJ
	OPRJ = core.OPRJ
	// IndividualTokens / GroupedTokens select Stage 2 routing.
	IndividualTokens = core.IndividualTokens
	GroupedTokens    = core.GroupedTokens
	// NoBlocks / MapBlocks / ReduceBlocks select §5 block processing.
	NoBlocks     = core.NoBlocks
	MapBlocks    = core.MapBlocks
	ReduceBlocks = core.ReduceBlocks
)

// Similarity functions.
const (
	Jaccard = simfn.Jaccard
	Cosine  = simfn.Cosine
	Dice    = simfn.Dice
)

// Fault-tolerance configuration (see the field docs in
// internal/mapreduce): Config.Retry re-executes failed task attempts the
// way Hadoop does, and Config.FaultInjector deterministically fails
// chosen attempts for tests and failure experiments.
type (
	// RetryPolicy bounds attempts per task and sets the base backoff.
	RetryPolicy = mapreduce.RetryPolicy
	// FaultInjector decides which task attempts to fail.
	FaultInjector = mapreduce.FaultInjector
	// TaskRef identifies one task attempt (job, phase, task, attempt).
	TaskRef = mapreduce.TaskRef
	// RateInjector fails the first attempt of a deterministic
	// pseudo-random fraction of tasks.
	RateInjector = mapreduce.RateInjector
)

// FailAttempts returns an injector failing exactly the listed attempts.
func FailAttempts(refs ...TaskRef) FaultInjector { return mapreduce.FailAttempts(refs...) }

// Task phases for TaskRef.
const (
	MapPhase    = mapreduce.MapPhase
	ReducePhase = mapreduce.ReducePhase
)

// Record field indices for the bibliographic record layout.
const (
	FieldTitle   = records.FieldTitle
	FieldAuthors = records.FieldAuthors
	FieldRest    = records.FieldRest
)

// FSOption customizes a file system created by NewFS.
type FSOption func(*dfs.Options)

// Replication places every block on n distinct nodes (HDFS-style). The
// cluster simulator runs a map task data-local on any of them; the bytes
// are stored once. The default is one location per block.
func Replication(n int) FSOption {
	return func(o *dfs.Options) { o.Replication = n }
}

// NewFS creates a distributed file system spread over the given number of
// virtual nodes, with 1 MiB blocks, so one map task reads 1 MiB of input
// (the split rule at dfs.DefaultBlockSize):
//
//	fs := fuzzyjoin.NewFS(4, fuzzyjoin.Replication(2))
func NewFS(nodes int, opts ...FSOption) *FS {
	o := dfs.Options{Nodes: nodes}
	for _, opt := range opts {
		opt(&o)
	}
	return dfs.New(o)
}

// WriteRecords stores records as a Text-format DFS file joins can read.
func WriteRecords(fs *FS, name string, recs []Record) error {
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = r.Line()
	}
	return mapreduce.WriteTextFile(fs, name, lines)
}

// WalkJoinedPairs calls fn for each pair of a join's final output
// (Result.Output), in part-file order, one line at a time: nothing holds
// the whole output. A malformed line stops the walk with an error that
// names its part file; an error from fn stops it too and comes back
// wrapped (errors.Is finds it).
func WalkJoinedPairs(fs *FS, outputPrefix string, fn func(JoinedPair) error) error {
	return core.WalkJoined(fs, outputPrefix, func(sim float64, left, right []byte) error {
		l, err := records.ParseLine(string(left))
		if err != nil {
			return err
		}
		r, err := records.ParseLine(string(right))
		if err != nil {
			return err
		}
		return fn(JoinedPair{Left: l, Right: r, Sim: sim})
	})
}

// ReadJoinedPairs collects a join's final output (Result.Output) into a
// slice; WalkJoinedPairs reads it without one.
func ReadJoinedPairs(fs *FS, outputPrefix string) ([]JoinedPair, error) {
	out := make([]JoinedPair, 0, mapreduce.Records(fs, outputPrefix+"/"))
	if err := WalkJoinedPairs(fs, outputPrefix, func(p JoinedPair) error {
		out = append(out, p)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ErrCanceled is the typed error every canceled execution wraps — batch
// joins whose ctx is canceled mid-pipeline, distributed dispatches
// abandoned mid-flight, and online queries canceled in the pool. Test
// with errors.Is(err, fuzzyjoin.ErrCanceled).
var ErrCanceled = mapreduce.ErrCanceled

// JoinSpec describes one batch join. Exactly one input mode is used:
//
//   - File mode: Input (and InputS for an R-S join) name Text-format
//     DFS files under Config.FS; results land in DFS part files at
//     Result.Output (walk them with WalkJoinedPairs or collect them
//     with ReadJoinedPairs).
//   - In-memory mode: Records (and RecordsS) hold the corpus directly;
//     the join provisions a private single-node FS — Config.FS and
//     Config.Work must be unset — and parsed pairs are returned on
//     Result.Joined.
//
// Setting InputS or RecordsS makes the join an R-S join (§4): the token
// dictionary is built from the R side, so pass the smaller relation as
// Input/Records. Otherwise the input is self-joined.
type JoinSpec struct {
	// Config tunes the pipeline (algorithms, threshold, fault
	// tolerance, tracing, distributed execution); the zero value is the
	// paper's recommended configuration.
	Config Config
	// Input and InputS are the file-mode inputs.
	Input  string
	InputS string
	// Records and RecordsS are the in-memory-mode inputs.
	Records  []Record
	RecordsS []Record
}

// Join runs one batch set-similarity join to completion. Canceling ctx
// stops the pipeline at the next task boundary, cleans up its partial
// output, and returns an error wrapping ErrCanceled.
func Join(ctx context.Context, spec JoinSpec) (*Result, error) {
	cfg := spec.Config
	fileMode, err := checkSpec(spec)
	if err != nil {
		return nil, err
	}
	if fileMode {
		if spec.InputS != "" {
			return core.RSJoinContext(ctx, cfg, spec.Input, spec.InputS)
		}
		return core.SelfJoinContext(ctx, cfg, spec.Input)
	}

	fs := NewFS(1)
	if err := WriteRecords(fs, "r", spec.Records); err != nil {
		return nil, err
	}
	cfg.FS, cfg.Work = fs, "work"
	var res *Result
	if spec.RecordsS != nil {
		if err := WriteRecords(fs, "s", spec.RecordsS); err != nil {
			return nil, err
		}
		res, err = core.RSJoinContext(ctx, cfg, "r", "s")
	} else {
		res, err = core.SelfJoinContext(ctx, cfg, "r")
	}
	if err != nil {
		return nil, err
	}
	if res.Joined, err = ReadJoinedPairs(fs, res.Output); err != nil {
		return nil, err
	}
	return res, nil
}

// checkSpec applies the mode rules Join and Plan share (JoinSpec's doc)
// and reports whether the spec is in file mode.
func checkSpec(spec JoinSpec) (fileMode bool, err error) {
	fileMode = spec.Input != "" || spec.InputS != ""
	memMode := spec.Records != nil || spec.RecordsS != nil
	switch {
	case fileMode && memMode:
		return false, fmt.Errorf("fuzzyjoin: JoinSpec mixes file inputs (%q) and in-memory records; use one mode", spec.Input)
	case !fileMode && !memMode:
		return false, fmt.Errorf("fuzzyjoin: empty JoinSpec: set Input or Records")
	case fileMode && spec.Input == "":
		return false, fmt.Errorf("fuzzyjoin: JoinSpec.InputS set without Input (the R side)")
	case memMode && spec.Records == nil:
		return false, fmt.Errorf("fuzzyjoin: JoinSpec.RecordsS set without Records (the R side)")
	case memMode && (spec.Config.FS != nil || spec.Config.Work != ""):
		return false, fmt.Errorf("fuzzyjoin: in-memory joins manage FS and Work; leave them unset")
	}
	return fileMode, nil
}

// Cost-planner types (see internal/plan for the model).
type (
	// JoinPlan is the planner's decision: the chosen knob vector
	// (Best), every candidate ranked by predicted makespan, and the
	// input sample the decision was made from. Render() formats it for
	// logs.
	JoinPlan = plan.Plan
	// PlanChoice is one complete knob vector the planner can select:
	// Stage 1/2/3 algorithms, routing and reducer count. Apply copies it
	// onto a Config.
	PlanChoice = plan.Choice
	// PlanOptions bounds planner sampling (record budget, stride seed).
	// The zero value is the default policy.
	PlanOptions = plan.Options
)

// Plan chooses a join configuration for the spec's workload without
// running it: it reads a bounded deterministic sample of the input,
// measures the statistics the knob choices are sensitive to (the
// token-frequency head, record lengths, R-S dictionary overlap),
// predicts every candidate knob vector's makespan on the virtual
// cluster, and returns the ranked plan. Planning is advisory and
// admissible — every choice it can emit produces byte-identical join
// output, so a bad prediction can cost time but never correctness.
//
// Use it ahead of Join:
//
//	p, err := fuzzyjoin.Plan(ctx, spec)
//	if err != nil { ... }
//	spec.Config = p.Best.Apply(spec.Config)
//	res, err := fuzzyjoin.Join(ctx, spec)
//
// The spec is interpreted exactly as Join interprets it (file mode
// needs Config.FS; in-memory mode forbids it). The cluster size is
// taken from Config.FS when set, else a small default; sampling follows
// Config's threshold, similarity function, tokenizer, and join fields.
func Plan(ctx context.Context, spec JoinSpec) (*JoinPlan, error) {
	cfg := spec.Config
	fileMode, err := checkSpec(spec)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
	}

	var rLines, sLines []string
	nodes := 4 // representative small cluster for in-memory planning
	if fileMode {
		if cfg.FS == nil {
			return nil, fmt.Errorf("fuzzyjoin: file-mode planning needs Config.FS")
		}
		nodes = cfg.FS.Nodes()
		if rLines, err = readLines(cfg.FS, spec.Input); err != nil {
			return nil, err
		}
		if spec.InputS != "" {
			if sLines, err = readLines(cfg.FS, spec.InputS); err != nil {
				return nil, err
			}
		}
	} else {
		rLines = make([]string, len(spec.Records))
		for i, r := range spec.Records {
			rLines[i] = r.Line()
		}
		if spec.RecordsS != nil {
			sLines = make([]string, len(spec.RecordsS))
			for i, r := range spec.RecordsS {
				sLines[i] = r.Line()
			}
		}
	}

	s, err := plan.New(rLines, sLines, plan.Options{
		Fn:         cfg.Fn,
		Threshold:  cfg.Threshold,
		Tokenizer:  cfg.Tokenizer,
		JoinFields: cfg.JoinFields,
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return plan.Decide(s, nodes), nil
}

// readLines returns the lines of a Text-format DFS file.
func readLines(fs *FS, name string) ([]string, error) {
	var lines []string
	_, err := mapreduce.Walk(fs, name, mapreduce.Text, func(_, l []byte) error {
		lines = append(lines, string(l))
		return nil
	})
	return lines, err
}

// IndexStats is the online index's metrics snapshot: corpus shape,
// query/ingest counters, the filter funnel, and QPS/p50/p99.
type IndexStats = ssjserve.Stats

// indexConfig collects the functional options of NewIndex.
type indexConfig struct {
	corpus []Record
	opts   ssjserve.Options
}

// IndexOption customizes an Index created by NewIndex.
type IndexOption func(*indexConfig)

// WithCorpus seeds the index with an initial batch-built corpus.
// Without it the index starts empty and grows through Add.
func WithCorpus(recs []Record) IndexOption {
	return func(c *indexConfig) { c.corpus = recs }
}

// WithThreshold sets the similarity threshold τ (default 0.80).
func WithThreshold(tau float64) IndexOption {
	return func(c *indexConfig) { c.opts.Threshold = tau }
}

// WithSimilarity selects the similarity function (default Jaccard).
func WithSimilarity(fn simfn.Func) IndexOption {
	return func(c *indexConfig) { c.opts.Fn = fn }
}

// WithJoinFields selects the record fields concatenated into the join
// attribute (default title + authors).
func WithJoinFields(fields ...int) IndexOption {
	return func(c *indexConfig) { c.opts.JoinFields = fields }
}

// WithShards sets the index shard count (default 8): the token space is
// partitioned across shards, one lock each, so probe and ingest traffic
// on different tokens never contend.
func WithShards(n int) IndexOption {
	return func(c *indexConfig) { c.opts.Shards = n }
}

// WithWorkers sets the query worker-pool size (default GOMAXPROCS).
func WithWorkers(n int) IndexOption {
	return func(c *indexConfig) { c.opts.Workers = n }
}

// WithDriftThreshold sets the lazy re-order trigger: the fraction of
// incrementally added records (relative to the corpus at the last
// build) that forces a fresh Stage-1 token ordering (default 0.25).
func WithDriftThreshold(f float64) IndexOption {
	return func(c *indexConfig) { c.opts.DriftThreshold = f }
}

// Index is a persistent, concurrent similarity index — the online
// counterpart to Join. Queries and ingestion are safe to run
// concurrently from any number of goroutines; see internal/ssjserve for
// the sharding, filter funnel and drift re-ordering design.
type Index struct {
	svc *ssjserve.Service
}

// NewIndex builds an online similarity index. The initial corpus (if
// any) is indexed synchronously before NewIndex returns; ctx cancels
// that build.
func NewIndex(ctx context.Context, opts ...IndexOption) (*Index, error) {
	var c indexConfig
	for _, opt := range opts {
		opt(&c)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	svc, err := ssjserve.NewService(c.opts, c.corpus)
	if err != nil {
		return nil, err
	}
	return &Index{svc: svc}, nil
}

// Match returns every indexed record similar to probe (sim ≥ τ) as
// JoinedPairs with the indexed record on the left. Probing with an
// already-indexed record returns its neighbors, not itself. Canceling
// ctx abandons the query with an error wrapping ErrCanceled.
func (ix *Index) Match(ctx context.Context, probe Record) ([]JoinedPair, error) {
	return ix.svc.Match(ctx, probe)
}

// MatchBatch answers a batch of probes through one admission (answers
// aligned with probes).
func (ix *Index) MatchBatch(ctx context.Context, probes []Record) ([][]JoinedPair, error) {
	return ix.svc.MatchBatch(ctx, probes)
}

// Add ingests one record incrementally; it is visible to the next
// Match. No Stage-1 rebuild runs unless token-frequency drift crosses
// the configured threshold.
func (ix *Index) Add(rec Record) error { return ix.svc.Add(rec) }

// Stats snapshots the index metrics.
func (ix *Index) Stats() IndexStats { return ix.svc.Stats() }

// Close stops the query workers; subsequent calls fail.
func (ix *Index) Close() error { return ix.svc.Close() }
