// Package core implements the paper's primary contribution: the
// three-stage MapReduce set-similarity join (Vernica, Carey, Li —
// SIGMOD 2010), end-to-end from complete records to complete joined
// record pairs.
//
//	Stage 1 — token ordering:    BTO (two jobs) or OPTO (one job);
//	Stage 2 — RID-pair kernel:   BK (nested loop) or PK (PPJoin+),
//	                             routing by individual or grouped prefix
//	                             tokens;
//	Stage 3 — record join:       BRJ (two jobs) or OPRJ (one broadcast
//	                             job).
//
// Both the self-join and the R-S join cases are supported, along with the
// §5 strategies for reducer inputs that exceed memory (map-based and
// reduce-based block processing).
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/freelist"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
	"fuzzyjoin/internal/tokenize"
	"fuzzyjoin/internal/trace"
)

// TokenOrderAlg selects the Stage 1 algorithm.
type TokenOrderAlg int

const (
	// BTO (Basic Token Ordering) counts token frequencies in one job and
	// sorts them with a second single-reducer job.
	BTO TokenOrderAlg = iota
	// OPTO (One-Phase Token Ordering) aggregates counts at a single
	// reducer and sorts them in its cleanup hook.
	OPTO
)

func (a TokenOrderAlg) String() string {
	if a == OPTO {
		return "OPTO"
	}
	return "BTO"
}

// KernelAlg selects the Stage 2 algorithm.
type KernelAlg int

const (
	// BK (Basic Kernel) cross-pairs each reduce group with a nested loop.
	BK KernelAlg = iota
	// PK (PPJoin+ Kernel) streams each reduce group through a PPJoin+
	// index in length order.
	PK
	// FVT (Filter-and-Verification Tree) builds a prefix tree over the
	// reduce group and verifies during traversal — no candidate pairs
	// are materialized (internal/fvt).
	FVT
)

func (a KernelAlg) String() string {
	switch a {
	case PK:
		return "PK"
	case FVT:
		return "FVT"
	default:
		return "BK"
	}
}

// RecordJoinAlg selects the Stage 3 algorithm.
type RecordJoinAlg int

const (
	// BRJ (Basic Record Join) routes RID pairs and records through two
	// jobs.
	BRJ RecordJoinAlg = iota
	// OPRJ (One-Phase Record Join) broadcasts the RID-pair list to every
	// mapper.
	OPRJ
)

func (a RecordJoinAlg) String() string {
	if a == OPRJ {
		return "OPRJ"
	}
	return "BRJ"
}

// Routing selects how Stage 2 maps prefix tokens to reducer keys (§3.2).
type Routing int

const (
	// IndividualTokens uses each prefix token itself as the key: one
	// group per token.
	IndividualTokens Routing = iota
	// GroupedTokens maps tokens round-robin (by frequency rank) onto
	// Config.NumGroups synthetic keys.
	GroupedTokens
)

func (r Routing) String() string {
	if r == GroupedTokens {
		return "grouped"
	}
	return "individual"
}

// BlockMode selects the §5 insufficient-memory strategy for Stage 2 BK.
type BlockMode int

const (
	// NoBlocks disables block processing; a reduce group must fit in the
	// memory budget.
	NoBlocks BlockMode = iota
	// MapBlocks is map-based block processing: mappers replicate and
	// interleave block copies so reducers consume them in rounds.
	MapBlocks
	// ReduceBlocks is reduce-based block processing: mappers send each
	// projection once and reducers spill non-resident blocks to local
	// disk.
	ReduceBlocks
)

func (m BlockMode) String() string {
	switch m {
	case MapBlocks:
		return "map-based"
	case ReduceBlocks:
		return "reduce-based"
	default:
		return "none"
	}
}

// Config configures an end-to-end join.
//
// The Config is also what reaches task bodies in worker processes: it is
// serialized into every job's program spec (programs.go). Fields tagged
// json:"-" are engine-side — storage, naming and execution policy that
// travel in the JobSpec or stay with the coordinator, plus the Tokenizer
// interface, which travels as a tokSpec — and never reach a worker-side
// Config; every other field does, so a new field that mappers or
// reducers read needs no tag and no mirroring.
type Config struct {
	// FS is the distributed file system holding inputs, intermediates,
	// and output.
	FS *dfs.FS `json:"-"`
	// Work is the prefix for intermediate and output files. Each run
	// needs a fresh prefix.
	Work string `json:"-"`

	// Tokenizer converts join-attribute strings into token sets.
	// Defaults to word tokenization, the paper's choice.
	Tokenizer tokenize.Tokenizer `json:"-"`
	// JoinFields are the record fields concatenated into the join
	// attribute. Defaults to title + authors, the paper's choice.
	JoinFields []int
	// Fn is the similarity function; Threshold its τ. Defaults to
	// Jaccard at 0.80, the paper's evaluation setting.
	Fn        simfn.Func
	Threshold float64
	// Filters is the kernel filter stack; nil means the full PPJoin+
	// stack. Point at a zero filter.Stack to run with the prefix filter
	// alone (the filter ablation does).
	Filters *filter.Stack
	// BitmapFilter is ignored: every kernel ends its funnel with the
	// bitmap filter (ppjoin.Tail.Verify). Named by bench/ until ROADMAP
	// 8(a)'s benchmark PR.
	BitmapFilter bool `json:"-"`

	// TokenOrder, Kernel, and RecordJoin pick the per-stage algorithms.
	TokenOrder TokenOrderAlg
	Kernel     KernelAlg
	RecordJoin RecordJoinAlg
	// Routing and NumGroups configure Stage 2 key generation. NumGroups
	// is only used with GroupedTokens; it defaults to 1 group per
	// reducer-slot-scaled token count — see Stage 2.
	Routing   Routing
	NumGroups int

	// NumReducers is the reduce-task count per job (the paper runs
	// 4 × nodes). Defaults to 4.
	NumReducers int `json:"-"`
	// MemoryLimit caps per-task memory (0 = unlimited).
	MemoryLimit int64 `json:"-"`
	// BlockMode and NumBlocks configure §5 block processing of Stage 2 BK
	// groups: each reduce group is sub-partitioned into NumBlocks blocks
	// (by RID hash) so one block — not the whole group — must fit in the
	// memory budget. The paper sizes blocks "so that each block fits in
	// memory"; the count is chosen by the operator from Stage 1
	// statistics and is a job-level constant because map-based
	// replication must know it before reducing.
	BlockMode BlockMode
	NumBlocks int
	// LengthRouting enables the §5 secondary routing criterion for the
	// self-join BK kernel: projections are routed on (token, length
	// bucket) keys so reducers buffer only one length bucket at a time.
	// A bucket is two tokens wide.
	LengthRouting bool
	// Parallelism is the host-goroutine bound for task execution.
	// It affects wall-clock only: results are byte-identical and
	// recorded per-task costs are measured per task regardless of how
	// many run concurrently. Defaults to runtime.GOMAXPROCS(0); set 1
	// explicitly for minimum-noise cost measurement.
	Parallelism int `json:"-"`
	// Retry configures per-task attempt retries in every job the
	// pipeline runs (Hadoop's transparent task re-execution; see
	// mapreduce.RetryPolicy). The zero value runs each task once.
	Retry mapreduce.RetryPolicy `json:"-"`
	// FaultInjector, when non-nil, deterministically fails chosen task
	// attempts in every job — used by tests and the failure-rate
	// experiments; requires Retry.MaxAttempts > 1 for jobs to survive
	// the injected failures.
	FaultInjector mapreduce.FaultInjector `json:"-"`
	// Trace, when non-nil, receives typed events from every job the
	// pipeline runs plus flow- and stage-level markers; the collected
	// trace is returned on Result.Trace. Nil disables tracing at zero
	// cost and leaves the join output byte-identical.
	Trace *trace.Tracer `json:"-"`
	// Runner, when non-nil, dispatches every task attempt of every job
	// the pipeline runs to an external executor — the distributed
	// backend's coordinator (see mapreduce.TaskRunner). Requires a
	// serializable Config (stock tokenizer); output stays byte-identical
	// to in-process execution.
	Runner mapreduce.TaskRunner `json:"-"`

	// ctx is the cancellation context the *Context entry points install;
	// every job the pipeline runs executes under it. Plumbing, not
	// configuration — external callers cancel through SelfJoinContext /
	// RSJoinContext (or the fuzzyjoin facade), never by setting this.
	ctx context.Context
	// buffers and tables are the pipeline's scratch (withScratch): the
	// engine's map output buffers and Stage 1's counting tables, kept
	// warm from job to job. Plumbing, like ctx.
	buffers *mapreduce.Buffers
	tables  *freelist.List[tokenTable]
}

// withScratch gives the pipeline c runs its scratch, shared by its jobs,
// and returns the function that drops it once the last job is done.
// Each holds at most one value per task running at once.
//
// It also collects garbage, once per pipeline. Without it a pipeline
// starts on the garbage of whatever ran before it, under a heap goal set
// in the middle of that work (about twice the live heap then), and its
// own garbage piles on top before anything collects. The jobs inside
// the pipeline run under the runtime's own pacer: forcing a collection
// before every job costs more wall time than it saves (DESIGN §4.8).
func (c *Config) withScratch() (release func()) {
	runtime.GC()
	c.buffers = mapreduce.NewBuffers(c.Parallelism)
	c.tables = freelist.New[tokenTable](c.Parallelism)
	return func() {
		c.buffers.Release()
		c.tables.Clear()
	}
}

// context returns the pipeline's cancellation context (context.Background
// when the join was started through a non-Context entry point).
func (c *Config) context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// fillDefaults validates the Config (see Validate) and then replaces
// zero values with the paper's defaults.
func (c *Config) fillDefaults() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Tokenizer == nil {
		c.Tokenizer = tokenize.Word{}
	}
	if len(c.JoinFields) == 0 {
		c.JoinFields = []int{records.FieldTitle, records.FieldAuthors}
	}
	if c.Threshold == 0 {
		c.Threshold = 0.8
	}
	if c.Filters == nil {
		all := filter.AllFilters
		c.Filters = &all
	}
	if c.NumReducers <= 0 {
		c.NumReducers = 4
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return nil
}

// StageMetrics collects the engine metrics of the jobs one stage ran.
// The JSON tags are schema-stable (versioned by trace.SchemaVersion).
type StageMetrics struct {
	// Stage is 1, 2, or 3.
	Stage int `json:"stage"`
	// Alg names the algorithm used (BTO, PK, ...).
	Alg string `json:"alg"`
	// Jobs holds one Metrics per MapReduce job, in execution order.
	Jobs []*mapreduce.Metrics `json:"jobs"`
	// Wall is the measured host execution time of the stage.
	Wall time.Duration `json:"wall_ns"`
}

// Result describes a completed end-to-end join. The JSON tags are
// schema-stable (versioned by trace.SchemaVersion); Trace is exported
// separately as JSONL, not embedded in the metrics document.
type Result struct {
	// Output is the DFS prefix of the final joined-record part files
	// (Text format, one records.JoinedPair per line).
	Output string `json:"output"`
	// RIDPairs is the DFS prefix of Stage 2's RID-pair part files.
	RIDPairs string `json:"rid_pairs"`
	// TokenOrderFile is the Stage 1 output consumed by Stage 2.
	TokenOrderFile string `json:"token_order_file"`
	// Stages holds per-stage metrics: Stages[0] is Stage 1, etc.
	Stages [3]StageMetrics `json:"stages"`
	// Pairs is the number of joined pairs produced.
	Pairs int64 `json:"pairs"`
	// Trace is the collected trace when Config.Trace was set (nil
	// otherwise).
	Trace *trace.Trace `json:"-"`
	// Joined holds the parsed output pairs for joins run through the
	// facade's in-memory mode (fuzzyjoin.Join over JoinSpec.Records);
	// nil for file-mode joins, whose output stays in the DFS part files
	// under Output. Excluded from the metrics document — it is data,
	// not metrics.
	Joined []records.JoinedPair `json:"-"`
}

// Combo renders the algorithm combination the way the paper does, e.g.
// "BTO-PK-OPRJ".
func (c Config) Combo() string {
	return fmt.Sprintf("%s-%s-%s", c.TokenOrder, c.Kernel, c.RecordJoin)
}
