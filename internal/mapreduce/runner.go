package mapreduce

import (
	"fmt"
	"sync"

	"fuzzyjoin/internal/dfs"
)

// This file is the engine's remote-execution seam. A Job may carry a
// TaskRunner; when it does, every task attempt body is handed to the
// runner instead of executing in-process, while the control plane —
// attempt numbering, retry backoff, fault injection, the single-winner
// commit rename, counter merging — stays with Run. The distributed
// backend (internal/distrib) implements TaskRunner with RPC dispatch to
// worker processes; the worker side re-enters this package through
// ExecMapAttempt / ExecReduceAttempt, so local and remote execution
// share one task-body code path.

// TaskRunner executes a job's task attempts somewhere other than the
// calling goroutine. Run calls StartJob once per run of a job, before
// its first dispatch, and End on the result when the run returns, on
// success and on failure alike.
type TaskRunner interface {
	StartJob(job *Job) JobTasks
}

// JobTasks dispatches the task attempts of one job run. Implementations
// must be safe for concurrent use (Run dispatches up to Job.Parallelism
// attempts at once). An error return counts as an attempt failure and is
// retried under Job.Retry like any in-process error.
type JobTasks interface {
	// RunMap executes one map attempt over the given split. Its
	// per-reducer segments stay with the runner; MapOutput.Ref names
	// them.
	RunMap(taskID, attempt int, split dfs.Split) (MapOutput, error)
	// RunReduce executes one reduce attempt over the committed map
	// attempts' segments, named by their Refs in map-task order (the
	// merge's tie-break order), and returns the temporary part-file name
	// the attempt wrote, awaiting the coordinator's commit rename.
	RunReduce(taskID, attempt int, maps []int) (ReduceOutput, error)
	// End frees what the runner holds for the job run. An attempt that
	// returns after End (one abandoned on timeout) frees its own output.
	End()
}

// MapOutput is one remote map attempt's result: the runner's name for
// its segments, the attempt's private counters (merged into the job
// totals only when the attempt commits), and its measured metrics.
type MapOutput struct {
	Ref      int
	Counters map[string]int64
	Metrics  TaskMetrics
}

// ReduceOutput is one committed remote reduce attempt's result: the
// temporary part file it wrote (renamed into place by the coordinator
// on commit — the single-winner guarantee), plus counters and metrics.
type ReduceOutput struct {
	Temp     string
	Counters map[string]int64
	Metrics  TaskMetrics
}

// ExecMapAttempt runs one map attempt body in this process against
// job.FS — the worker-side entry point of the distributed backend — and
// returns its per-reducer segments with its counters and metrics. Side
// files are fetched through job.FS (on a worker, the RPC storage
// proxy). No retry or commit logic runs here; that stays with the
// coordinator.
func ExecMapAttempt(job *Job, taskID, attempt int, split dfs.Split) ([][]byte, MapOutput, error) {
	if err := job.fillDefaults(); err != nil {
		return nil, MapOutput{}, err
	}
	side, _, err := loadSideFiles(job.FS, job.SideFiles)
	if err != nil {
		return nil, MapOutput{}, fmt.Errorf("job %s: %w", job.Name, err)
	}
	res, tm, err := runMapTask(job, taskID, attempt, split, side)
	if err != nil {
		return nil, MapOutput{}, err
	}
	return res.parts, MapOutput{Counters: res.counters.Snapshot(), Metrics: tm}, nil
}

// ExecReduceAttempt runs one reduce attempt body in this process,
// writing the part file under the given temporary name through job.FS.
// The caller (the coordinator's dispatcher) chooses temp so that
// concurrent or re-dispatched attempts of the same task never collide.
func ExecReduceAttempt(job *Job, taskID, attempt int, column [][]byte, temp string) (ReduceOutput, error) {
	if err := job.fillDefaults(); err != nil {
		return ReduceOutput{}, err
	}
	side, _, err := loadSideFiles(job.FS, job.SideFiles)
	if err != nil {
		return ReduceOutput{}, fmt.Errorf("job %s: %w", job.Name, err)
	}
	res, tm, err := runReduceTask(job, taskID, attempt, column, side, temp, nil)
	if err != nil {
		return ReduceOutput{}, err
	}
	return ReduceOutput{Temp: res.temp, Counters: res.counters.Snapshot(), Metrics: tm}, nil
}

// dispatchMap adapts a runner map dispatch to the attempt-body shape
// runTaskAttempts drives.
func dispatchMap(tasks JobTasks, taskID, attempt int, split dfs.Split) (mapResult, TaskMetrics, error) {
	out, err := tasks.RunMap(taskID, attempt, split)
	if err != nil {
		return mapResult{}, TaskMetrics{}, err
	}
	return mapResult{ref: out.Ref, counters: countersFrom(out.Counters)}, out.Metrics, nil
}

// dispatchReduce adapts a runner reduce dispatch likewise.
func dispatchReduce(tasks JobTasks, taskID, attempt int, maps []int) (reduceResult, TaskMetrics, error) {
	out, err := tasks.RunReduce(taskID, attempt, maps)
	if err != nil {
		return reduceResult{}, TaskMetrics{}, err
	}
	return reduceResult{temp: out.Temp, counters: countersFrom(out.Counters)}, out.Metrics, nil
}

func countersFrom(m map[string]int64) *Counters {
	c := &Counters{}
	for k, v := range m {
		c.Add(k, v)
	}
	return c
}

// JobSpec is the serializable half of a Job: everything a worker
// process needs to reconstruct the job remotely. Function-valued fields
// (Mapper, Reducer) travel as the Program name plus its
// ProgramSpec configuration and are rebuilt by the registered builder
// on the worker. Control-plane fields (Retry, FaultInjector, Trace,
// Runner) are deliberately absent: they belong to the coordinator.
type JobSpec struct {
	Name                 string
	Inputs               []string
	InputFormat          Format
	InputFormatsByPrefix map[string]Format
	Output               string
	OutputFormat         Format
	NumReducers          int
	GroupPrefix          int
	SideFiles            []string
	Conf                 map[string]string
	MemoryLimit          int64
	Program              string
	ProgramSpec          string
}

// Spec extracts the serializable half of the job.
func (j *Job) Spec() JobSpec {
	return JobSpec{
		Name:                 j.Name,
		Inputs:               j.Inputs,
		InputFormat:          j.InputFormat,
		InputFormatsByPrefix: j.InputFormatsByPrefix,
		Output:               j.Output,
		OutputFormat:         j.OutputFormat,
		NumReducers:          j.NumReducers,
		GroupPrefix:          j.GroupPrefix,
		SideFiles:            j.SideFiles,
		Conf:                 j.Conf,
		MemoryLimit:          j.MemoryLimit,
		Program:              j.Program,
		ProgramSpec:          j.ProgramSpec,
	}
}

// JobFromSpec reconstructs a runnable Job from its spec against the
// given storage, rebuilding the task bodies through the program
// registry. The result carries no retry policy, tracer, or runner —
// the worker executes single attempt bodies on the coordinator's
// instruction.
func JobFromSpec(s JobSpec, fs dfs.Storage) (Job, error) {
	prog, err := buildProgram(s.Program, s.ProgramSpec)
	if err != nil {
		return Job{}, fmt.Errorf("job %s: %w", s.Name, err)
	}
	return Job{
		Name:                 s.Name,
		FS:                   fs,
		Inputs:               s.Inputs,
		InputFormat:          s.InputFormat,
		InputFormatsByPrefix: s.InputFormatsByPrefix,
		Output:               s.Output,
		OutputFormat:         s.OutputFormat,
		NumReducers:          s.NumReducers,
		GroupPrefix:          s.GroupPrefix,
		SideFiles:            s.SideFiles,
		Conf:                 s.Conf,
		MemoryLimit:          s.MemoryLimit,
		Mapper:               prog.Mapper,
		Reducer:              prog.Reducer,
		Program:              s.Program,
		ProgramSpec:          s.ProgramSpec,
	}, nil
}

// Program is a job's rebuilt task-side machinery: the function-valued
// Job fields a spec cannot carry.
type Program struct {
	Mapper  Mapper
	Reducer Reducer
}

// ProgramBuilder materializes a Program from its serialized spec.
type ProgramBuilder func(spec string) (*Program, error)

var (
	programsMu sync.RWMutex
	programs   = map[string]ProgramBuilder{}
)

// RegisterProgram installs a named program builder, typically from a
// package init so coordinator and worker binaries register identically.
// Registering a name twice panics: silently shadowing a builder would
// make worker behaviour depend on init order.
func RegisterProgram(name string, build ProgramBuilder) {
	if name == "" || build == nil {
		panic("mapreduce: RegisterProgram with empty name or nil builder")
	}
	programsMu.Lock()
	defer programsMu.Unlock()
	if _, dup := programs[name]; dup {
		panic(fmt.Sprintf("mapreduce: program %q registered twice", name))
	}
	programs[name] = build
}

func buildProgram(name, spec string) (*Program, error) {
	if name == "" {
		return nil, fmt.Errorf("mapreduce: job has no program; it cannot run on a remote worker")
	}
	programsMu.RLock()
	build := programs[name]
	programsMu.RUnlock()
	if build == nil {
		return nil, fmt.Errorf("mapreduce: program %q not registered in this binary", name)
	}
	p, err := build(spec)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: building program %q: %w", name, err)
	}
	if p == nil || p.Mapper == nil || p.Reducer == nil {
		return nil, fmt.Errorf("mapreduce: program %q built without mapper or reducer", name)
	}
	return p, nil
}
