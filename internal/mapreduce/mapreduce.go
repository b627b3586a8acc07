// Package mapreduce implements the MapReduce runtime the join pipeline
// executes on — the Hadoop substitute.
//
// The engine reproduces the Hadoop features the paper's algorithms rely
// on (§2.1, §3, §4):
//
//   - map / reduce functions over (key, value) byte pairs; a mapper
//     that pre-aggregates keeps its table per task and emits it from
//     cleanup (in-mapper combining);
//   - Hadoop's secondary-sort idiom — partition and group on a key
//     prefix, sort on the whole key — as one integer, Job.GroupPrefix:
//     keys are order-preserving byte encodings (internal/keys), so PK
//     sorts (group, length) and groups by group only, and one reduce call
//     sees its values in length order;
//   - setup and cleanup hooks for mappers and reducers, where cleanup may
//     emit output (OPTO emits the final token order from reducer cleanup);
//   - side files (the distributed-cache analogue) broadcast to every task
//     (Stage 2 broadcasts the token order, OPRJ broadcasts the RID pairs);
//   - per-task metrics (records, bytes, shuffle sizes, measured cost) that
//     feed the cluster cost simulator; and
//   - a per-task memory budget so experiments can reproduce the paper's
//     out-of-memory behaviour (OPRJ at scale, §5 block processing).
//
// Tasks execute on host goroutines with configurable parallelism;
// "cluster time" for N virtual nodes is computed afterwards by
// internal/cluster from the recorded per-task costs.
package mapreduce

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/trace"
)

// Pair is one (key, value) record flowing through the engine.
type Pair struct {
	Key, Value []byte

	// prefix caches sortPrefix(Key) during sorts and merges so most
	// comparisons resolve on one integer compare without touching key
	// bytes. It is engine-internal scratch, never serialized, and zero
	// outside sort/merge paths.
	prefix uint64
}

// Emitter receives pairs produced by map, reduce, or cleanup functions.
type Emitter interface {
	Emit(key, value []byte) error
}

// Mapper transforms one input record into zero or more intermediate pairs.
type Mapper interface {
	Map(ctx *Context, key, value []byte, out Emitter) error
}

// Reducer folds all values sharing a key group into output pairs.
type Reducer interface {
	Reduce(ctx *Context, key []byte, values *Values, out Emitter) error
}

// Setupper is implemented by mappers/reducers needing per-task
// initialization (Hadoop's configure). Setup runs once before the first
// record of each task.
type Setupper interface {
	Setup(ctx *Context) error
}

// Cleanupper is implemented by mappers/reducers needing per-task teardown
// (Hadoop's close). Cleanup runs after the last record and may emit.
type Cleanupper interface {
	Cleanup(ctx *Context, out Emitter) error
}

// TaskLocal is implemented by mappers and reducers that carry per-task
// state (loaded side data, reused buffers): the engine calls
// NewTaskInstance once per task and uses the returned instance, mirroring
// Hadoop's per-task instantiation. Stateless mappers/reducers may run as
// a single shared value and don't need this.
type TaskLocal interface {
	NewTaskInstance() any
}

// taskMapper returns the mapper instance to use for one task.
func taskMapper(m Mapper) Mapper {
	if tl, ok := m.(TaskLocal); ok {
		return tl.NewTaskInstance().(Mapper)
	}
	return m
}

// taskReducer returns the reducer instance to use for one task.
func taskReducer(r Reducer) Reducer {
	if tl, ok := r.(TaskLocal); ok {
		return tl.NewTaskInstance().(Reducer)
	}
	return r
}

// MapFunc adapts a function to the Mapper interface.
type MapFunc func(ctx *Context, key, value []byte, out Emitter) error

// Map implements Mapper.
func (f MapFunc) Map(ctx *Context, key, value []byte, out Emitter) error {
	return f(ctx, key, value, out)
}

// ReduceFunc adapts a function to the Reducer interface.
type ReduceFunc func(ctx *Context, key []byte, values *Values, out Emitter) error

// Reduce implements Reducer.
func (f ReduceFunc) Reduce(ctx *Context, key []byte, values *Values, out Emitter) error {
	return f(ctx, key, values, out)
}

// IdentityMapper passes records through unchanged (used by BRJ phase 2).
var IdentityMapper Mapper = MapFunc(func(_ *Context, key, value []byte, out Emitter) error {
	return out.Emit(key, value)
})

// Values iterates over the values of one reduce group in sorted order.
type Values struct {
	pairs []Pair
	i     int
}

// Next returns the next value in the group. The returned slice is only
// valid until the next call.
func (v *Values) Next() ([]byte, bool) {
	if v.i >= len(v.pairs) {
		return nil, false
	}
	val := v.pairs[v.i].Value
	v.i++
	return val, true
}

// Key returns the full key of the value most recently returned by Next.
// When Job.GroupPrefix is shorter than the keys, the reduce key (the
// group's first key) stays fixed per group while per-value keys advance —
// PK's R-S kernel reads the length class and relation tag from here.
func (v *Values) Key() []byte {
	if v.i == 0 {
		if len(v.pairs) == 0 {
			return nil
		}
		return v.pairs[0].Key
	}
	return v.pairs[v.i-1].Key
}

// Len returns the total number of values in the group.
func (v *Values) Len() int { return len(v.pairs) }

// Job configures one MapReduce execution.
type Job struct {
	// Name labels the job in metrics and errors.
	Name string
	// FS is the storage inputs are read from and output written to.
	// Locally this is a *dfs.FS; under the distributed backend a worker
	// process receives an RPC proxy to the coordinator-owned FS.
	FS dfs.Storage
	// Inputs are the input file names. Names may be prefixes ending in
	// "/" which expand to all files underneath (part-file directories).
	Inputs []string
	// InputFormat decodes input blocks into records. Defaults to Text.
	InputFormat Format
	// InputFormatsByPrefix optionally overrides InputFormat for matching
	// inputs: keys are exact file names or prefixes ending in "/". Jobs
	// that join heterogeneous inputs (Stage 3 BRJ reads text records and
	// binary RID pairs in one job) need this.
	InputFormatsByPrefix map[string]Format
	// Output is the output prefix; reducer r writes Output/part-r-%05d.
	Output string
	// OutputFormat encodes output pairs. Defaults to Pairs.
	OutputFormat Format
	// Mapper is required.
	Mapper Mapper
	// Reducer is required.
	Reducer Reducer
	// NumReducers defaults to 1.
	NumReducers int
	// GroupPrefix is the width w, in bytes, of the key head the job
	// partitions and groups on; 0 means the whole key, and a key
	// shorter than w counts whole. It is the engine's one ordering setting:
	// a pair goes to reducer FNV-1a-32(key[:w]) mod NumReducers, pairs are
	// sorted by key bytes then value bytes, and each run of sorted pairs
	// with equal key[:w] is one reduce call.
	GroupPrefix int
	// SideFiles lists FS files broadcast to every task (distributed
	// cache). Tasks read them with Context.SideFile.
	SideFiles []string
	// Conf carries free-form job configuration to tasks.
	Conf map[string]string
	// MemoryLimit caps bytes a single task may hold via Context.Memory;
	// 0 means unlimited.
	MemoryLimit int64
	// Parallelism bounds concurrently executing tasks on the host. It
	// affects wall-clock only, never results or recorded per-task costs.
	// Defaults to 1 for stable cost measurement.
	Parallelism int
	// Buffers lends the job's map tasks their output buffers. Jobs that
	// share one reuse each other's; a job without one gets its own,
	// dropped when its map phase ends.
	Buffers *Buffers
	// Retry configures per-task attempt retries (Hadoop's
	// mapred.{map,reduce}.max.attempts analogue). The zero value runs
	// each task exactly once.
	Retry RetryPolicy
	// FaultInjector, when non-nil, is consulted once per otherwise-
	// successful task attempt and can force it to fail — deterministic
	// fault injection for tests and failure experiments. Injected
	// failures exercise the same rollback path as genuine task errors.
	FaultInjector FaultInjector
	// Trace, when non-nil, receives typed events for everything the job
	// does: job/phase boundaries and every task attempt with its cost and
	// data volumes, failed attempts included. nil disables tracing at
	// zero cost; the job's output is byte-identical either way.
	Trace *trace.Tracer
	// Runner, when non-nil, executes task attempt bodies through an
	// external dispatcher (the distributed backend's RPC workers)
	// instead of in-process. The control plane — attempt numbering,
	// retry backoff, fault injection, single-winner commit, counter
	// merging — stays with Run either way.
	Runner TaskRunner
	// Program names a registered program builder (RegisterProgram) and
	// ProgramSpec carries its serialized configuration; together they
	// let a worker process rebuild the job's function-valued fields
	// (Mapper, Reducer) from JobSpec. A job with an empty
	// Program can only run in-process.
	Program     string
	ProgramSpec string

	// ctx is the cancellation context RunContext installs before
	// execution starts. It is engine plumbing, not configuration: tasks
	// and dispatchers read it through Context(), never set it.
	ctx context.Context
}

// Context returns the job's cancellation context (context.Background
// for jobs started through plain Run). TaskRunner implementations use
// it to abandon dispatch loops when the job is canceled.
func (j *Job) Context() context.Context {
	if j.ctx == nil {
		return context.Background()
	}
	return j.ctx
}

// ErrCanceled is the typed error every canceled execution surfaces
// (wrapped): jobs whose RunContext context is canceled, distributed
// dispatches abandoned mid-flight, and online-service queries canceled
// while queued. Test with errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("mapreduce: canceled")

// canceled reports the job's cancellation state as a typed error, nil
// while the context is live.
func (j *Job) canceled() error {
	if j.ctx == nil {
		return nil
	}
	if err := j.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return nil
}

// ErrInsufficientMemory is returned (wrapped) when a task exceeds its
// memory budget. The paper's §5 strategies exist for exactly this case.
var ErrInsufficientMemory = errors.New("mapreduce: insufficient memory")

// Memory tracks a task's budgeted memory use.
type Memory struct {
	used  int64
	peak  int64
	limit int64
}

// Alloc charges n bytes against the budget.
func (m *Memory) Alloc(n int64) error {
	m.used += n
	if m.used > m.peak {
		m.peak = m.used
	}
	if m.limit > 0 && m.used > m.limit {
		return fmt.Errorf("%w: %d bytes used, limit %d", ErrInsufficientMemory, m.used, m.limit)
	}
	return nil
}

// Free returns n bytes to the budget.
func (m *Memory) Free(n int64) {
	m.used -= n
	if m.used < 0 {
		m.used = 0
	}
}

// Used returns the current charge.
func (m *Memory) Used() int64 { return m.used }

// Peak returns the high-water mark.
func (m *Memory) Peak() int64 { return m.peak }

// Limit returns the budget (0 = unlimited).
func (m *Memory) Limit() int64 { return m.limit }

// Context carries per-task state into user functions.
type Context struct {
	// JobName is Job.Name.
	JobName string
	// TaskID is the map or reduce task index.
	TaskID int
	// Attempt is the 1-based attempt number of this task execution;
	// it is greater than 1 when earlier attempts failed and were retried.
	Attempt int
	// NumReducers is the job's reducer count.
	NumReducers int
	// InputFile is the file the current map record came from (empty in
	// reducers). BRJ's mapper dispatches on it.
	InputFile string
	// Conf is Job.Conf.
	Conf map[string]string
	// Memory is the task's budget tracker.
	Memory *Memory

	side     map[string][]byte
	counters *Counters
}

// SideFile returns the contents of a broadcast side file.
func (c *Context) SideFile(name string) ([]byte, error) {
	if b, ok := c.side[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("mapreduce: side file %q not attached to job %s", name, c.JobName)
}

// Count adds delta to the named job counter.
func (c *Context) Count(name string, delta int64) { c.counters.Add(name, delta) }

// Counters aggregates named counters across tasks.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// Add adds delta to the named counter.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the value of the named counter.
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// merge folds another counter set into this one. The engine buffers each
// task attempt's counts in a private Counters and merges them into the
// job totals only when the attempt commits, so failed or abandoned
// attempts never pollute final counter values.
func (c *Counters) merge(from *Counters) {
	from.mu.Lock()
	defer from.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]int64, len(from.m))
	}
	for k, v := range from.m {
		c.m[k] += v
	}
}

// Snapshot copies all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// TaskMetrics records one task's work, consumed by the cluster simulator.
//
// The JSON field names are schema-stable (versioned by
// trace.SchemaVersion): cost_ns, in_recs, in_bytes, out_recs,
// out_bytes, attempts. The remaining fields serialize with the tags
// below but may gain siblings in later schema versions. Durations are
// nanoseconds.
type TaskMetrics struct {
	// Cost is the CPU time of the thread that ran the task body (see
	// taskClock); wall time where the platform has no thread clock.
	Cost time.Duration `json:"cost_ns"`
	// InputRecords and InputBytes describe the task's input.
	InputRecords int64 `json:"in_recs"`
	InputBytes   int64 `json:"in_bytes"`
	// OutputRecords and OutputBytes describe the task's output.
	OutputRecords int64 `json:"out_recs"`
	OutputBytes   int64 `json:"out_bytes"`
	// PartitionBytes (map tasks only) is the bytes destined to each
	// reducer — the shuffle traffic matrix row.
	PartitionBytes []int64 `json:"partition_bytes,omitempty"`
	// Locations (map tasks only) lists the virtual nodes holding the
	// task's input split (for locality-aware scheduling in the cluster
	// simulator).
	Locations []int `json:"locations,omitempty"`
	// PeakMemory is the task's budget high-water mark.
	PeakMemory int64 `json:"peak_memory,omitempty"`
	// SpillCount is always zero: map output stays in memory until the
	// reduce phase. It is kept for readers of the field.
	SpillCount int `json:"spills,omitempty"`
	// Attempts is how many attempts this task ran (1 = no retries).
	Attempts int `json:"attempts"`
	// AttemptCosts is every attempt's measured cost in order; the last
	// entry is the committed attempt's cost (== Cost). The cluster
	// simulator charges the failed attempts into the makespan.
	AttemptCosts []time.Duration `json:"attempt_costs_ns,omitempty"`
	// Worker names the worker process the committed attempt ran on
	// (distributed backend only; empty in-process).
	Worker string `json:"worker,omitempty"`
}

// Metrics describes one job execution.
//
// The JSON field names job, map_tasks, reduce_tasks, side_bytes, and
// counters are schema-stable; see MarshalJSON.
type Metrics struct {
	Job         string        `json:"job"`
	MapTasks    []TaskMetrics `json:"map_tasks"`
	ReduceTasks []TaskMetrics `json:"reduce_tasks"`
	// SideBytes is the total size of broadcast side files (charged once
	// per node by the simulator).
	SideBytes int64 `json:"side_bytes,omitempty"`
	// Counters holds the job's aggregated counters.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// ShufflePerReduce returns the bytes each reducer fetched.
func (m *Metrics) ShufflePerReduce() []int64 {
	if len(m.MapTasks) == 0 {
		return nil
	}
	n := len(m.MapTasks[0].PartitionBytes)
	out := make([]int64, n)
	for _, mt := range m.MapTasks {
		for r, b := range mt.PartitionBytes {
			out[r] += b
		}
	}
	return out
}

// TotalShuffleBytes returns the total map→reduce traffic.
func (m *Metrics) TotalShuffleBytes() int64 {
	var n int64
	for _, b := range m.ShufflePerReduce() {
		n += b
	}
	return n
}

// groupHead is the part of key a job with group prefix w partitions and
// groups on: its first w bytes, or all of it.
func groupHead(key []byte, w int) []byte {
	if w > 0 && len(key) > w {
		return key[:w]
	}
	return key
}

// partition is the reducer key goes to: FNV-1a-32 of its group head,
// mod n.
func partition(key []byte, w, n int) int {
	h := fnv.New32a()
	h.Write(groupHead(key, w))
	return int(h.Sum32() % uint32(n))
}

// sameGroup reports whether two keys fall in one reduce group.
func sameGroup(a, b []byte, w int) bool {
	return bytes.Equal(groupHead(a, w), groupHead(b, w))
}

func (j *Job) fillDefaults() error {
	if j.FS == nil {
		return fmt.Errorf("mapreduce: job %s: FS is required", j.Name)
	}
	if j.Mapper == nil {
		return fmt.Errorf("mapreduce: job %s: Mapper is required", j.Name)
	}
	if j.Reducer == nil {
		return fmt.Errorf("mapreduce: job %s: Reducer is required", j.Name)
	}
	if len(j.Inputs) == 0 {
		return fmt.Errorf("mapreduce: job %s: no inputs", j.Name)
	}
	if j.Output == "" {
		return fmt.Errorf("mapreduce: job %s: no output", j.Name)
	}
	if j.NumReducers <= 0 {
		j.NumReducers = 1
	}
	if j.InputFormat == FormatUnset {
		j.InputFormat = Text
	}
	if j.OutputFormat == FormatUnset {
		j.OutputFormat = Pairs
	}
	if j.GroupPrefix < 0 {
		return fmt.Errorf("mapreduce: job %s: GroupPrefix %d is negative", j.Name, j.GroupPrefix)
	}
	if j.Parallelism <= 0 {
		j.Parallelism = 1
	}
	if j.Buffers == nil {
		j.Buffers = NewBuffers(j.Parallelism)
	}
	return nil
}
