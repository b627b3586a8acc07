package mapreduce

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/trace"
)

// Run executes the job to completion and returns its metrics. Output part
// files are written to job.Output + "/part-r-%05d", one per reducer.
// On error no partial output is left behind.
//
// Each task runs as a sequence of numbered attempts under job.Retry; a
// failed attempt leaves no trace (its counters are buffered per attempt
// and its part file is written under an attempt-suffixed temporary name,
// renamed into place only on commit) so retried and fault-free runs
// produce byte-identical output.
//
// Run is RunContext with a background context; it never cancels.
func Run(job Job) (*Metrics, error) {
	return RunContext(context.Background(), job)
}

// RunContext is Run with cancellation: when ctx is canceled the job
// stops at the next task boundary (before starting a task, before each
// retry attempt, and at the phase barriers), cleans up its partial
// output exactly like any other failure, and returns an error wrapping
// ErrCanceled. Canceled attempts do not consume retry budget.
func RunContext(ctx context.Context, job Job) (*Metrics, error) {
	job.ctx = ctx
	if err := job.canceled(); err != nil {
		return nil, fmt.Errorf("job %s: %w", job.Name, err)
	}
	ownBuffers := job.Buffers == nil
	if err := job.fillDefaults(); err != nil {
		return nil, err
	}
	inputs, err := expandInputs(job.FS, job.Inputs)
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", job.Name, err)
	}

	side, sideBytes, err := loadSideFiles(job.FS, job.SideFiles)
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", job.Name, err)
	}

	var splits []dfs.Split
	for _, in := range inputs {
		ss, err := job.FS.Splits(in)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", job.Name, err)
		}
		splits = append(splits, ss...)
	}

	counters := &Counters{}
	metrics := &Metrics{Job: job.Name, SideBytes: sideBytes}
	if job.Trace.Enabled() {
		job.Trace.Emit(trace.Event{Type: trace.JobStart, Job: job.Name,
			Detail: fmt.Sprintf("inputs=%d reducers=%d", len(splits), job.NumReducers)})
	}
	// Track every file this job creates so failure cleanup removes
	// exactly those — never unrelated files that happen to share the
	// output prefix (e.g. a prior stage's output in the same directory).
	track := &outputTracker{}

	// A runner keeps map outputs where they ran; refs name them.
	var tasks JobTasks
	if job.Runner != nil {
		tasks = job.Runner.StartJob(&job)
		defer tasks.End()
	}

	// ---- Map phase ----
	segments := make([][][]byte, len(splits)) // [mapTask][partition] encoded segment
	refs := make([]int, len(splits))
	metrics.MapTasks = make([]TaskMetrics, len(splits))
	if job.Trace.Enabled() {
		job.Trace.Emit(trace.Event{Type: trace.PhaseStart, Job: job.Name, Phase: trace.PhaseMap})
	}
	err = runParallel(len(splits), job.Parallelism, func(i int) error {
		if err := job.canceled(); err != nil {
			return err
		}
		body := func(attempt int) (mapResult, TaskMetrics, error) {
			return runMapTask(&job, i, attempt, splits[i], side)
		}
		if tasks != nil {
			body = func(attempt int) (mapResult, TaskMetrics, error) {
				return dispatchMap(tasks, i, attempt, splits[i])
			}
		}
		res, tm, err := runTaskAttempts(&job, MapPhase, i, body, nil)
		if err != nil {
			return err
		}
		counters.merge(res.counters)
		segments[i], refs[i] = res.parts, res.ref
		metrics.MapTasks[i] = tm
		return nil
	})
	if ownBuffers {
		job.Buffers.Release() // the reduce phase has no use for them
	}
	if err != nil {
		track.removeAll(job.FS)
		return nil, fmt.Errorf("job %s: %w", job.Name, err)
	}
	if job.Trace.Enabled() {
		job.Trace.Emit(trace.Event{Type: trace.PhaseEnd, Job: job.Name, Phase: trace.PhaseMap})
	}

	// ---- Reduce phase (shuffle + sort + reduce) ----
	if err := job.canceled(); err != nil {
		track.removeAll(job.FS)
		return nil, fmt.Errorf("job %s: %w", job.Name, err)
	}
	metrics.ReduceTasks = make([]TaskMetrics, job.NumReducers)
	if job.Trace.Enabled() {
		job.Trace.Emit(trace.Event{Type: trace.PhaseStart, Job: job.Name, Phase: trace.PhaseReduce})
	}
	if err := runParallel(job.NumReducers, job.Parallelism, func(r int) error {
		if err := job.canceled(); err != nil {
			return err
		}
		var (
			res reduceResult
			tm  TaskMetrics
			err error
		)
		switch {
		case tasks != nil:
			// Remote dispatch: the runner picks a collision-free temp name
			// per dispatch, and lease revocation cleans up after attempts
			// whose RPC failed. Attempts the coordinator fails AFTER a
			// successful reply (injected fault, abandoned timeout) leave a
			// completed lease and an orphaned temp file; sweepRunnerTemps
			// removes those before the job finishes.
			res, tm, err = runTaskAttempts(&job, ReducePhase, r, func(attempt int) (reduceResult, TaskMetrics, error) {
				return dispatchReduce(tasks, r, attempt, refs)
			}, nil)
		default:
			column := reduceColumn(segments, r)
			res, tm, err = runTaskAttempts(&job, ReducePhase, r, func(attempt int) (reduceResult, TaskMetrics, error) {
				return runReduceTask(&job, r, attempt, column, side, tempPartName(job.Output, r, attempt), track)
			}, func(attempt int) {
				// Discard the failed attempt's partial part file (if the
				// attempt got far enough to create it) before retrying.
				track.remove(job.FS, tempPartName(job.Output, r, attempt))
			})
		}
		if err != nil {
			return err
		}
		// Commit: rename the attempt's temp file to the final part name
		// and fold its counters into the job totals. (add is a no-op for
		// in-process attempts, which already tracked their temp file.)
		track.add(res.temp)
		final := partName(job.Output, r)
		if err := job.FS.Rename(res.temp, final); err != nil {
			return fmt.Errorf("reduce task %d: commit: %w", r, err)
		}
		track.rename(res.temp, final)
		counters.merge(res.counters)
		metrics.ReduceTasks[r] = tm
		return nil
	}); err != nil {
		sweepRunnerTemps(&job)
		track.removeAll(job.FS)
		return nil, fmt.Errorf("job %s: %w", job.Name, err)
	}

	// Sweep temp files left by abandoned (timed-out) attempts: their
	// zombie goroutines may have created files after the attempt was
	// already declared failed.
	track.removeTemps(job.FS, job.Output)
	sweepRunnerTemps(&job)

	metrics.Counters = counters.Snapshot()
	if job.Trace.Enabled() {
		job.Trace.Emit(trace.Event{Type: trace.PhaseEnd, Job: job.Name, Phase: trace.PhaseReduce})
		job.Trace.Emit(trace.Event{Type: trace.JobEnd, Job: job.Name,
			Detail: fmt.Sprintf("shuffle_bytes=%d", metrics.TotalShuffleBytes())})
	}
	return metrics, nil
}

// sweepRunnerTemps removes temporary part files remote attempts left
// under the job output. The coordinator learns a remote attempt's temp
// name only from its reply, so when it fails an attempt AFTER a
// successful reply (injected fault, abandoned timeout) no caller can
// discard that file individually — instead the job sweeps the
// _temporary- namespace it owns, which every dispatch-chosen temp name
// lives under. Committed part files are never touched. Local attempts
// are tracked individually and cleaned through the outputTracker.
func sweepRunnerTemps(job *Job) {
	if job.Runner == nil {
		return
	}
	// List's prefix matching is path-segment aware, so list the whole
	// output directory and filter on the raw name prefix.
	tempPrefix := job.Output + "/_temporary-"
	for _, name := range job.FS.List(job.Output + "/") {
		if strings.HasPrefix(name, tempPrefix) {
			job.FS.Remove(name)
		}
	}
}

// partName is the committed output file of reduce task r.
func partName(output string, r int) string {
	return fmt.Sprintf("%s/part-r-%05d", output, r)
}

// tempPartName is the attempt-suffixed temporary name a reduce attempt
// writes to before committing (Hadoop's _temporary attempt directories).
func tempPartName(output string, r, attempt int) string {
	return fmt.Sprintf("%s/_temporary-part-r-%05d-%d", output, r, attempt)
}

// outputTracker records the files a job created, so cleanup touches only
// this job's output.
type outputTracker struct {
	mu    sync.Mutex
	files map[string]bool
}

func (t *outputTracker) add(name string) {
	t.mu.Lock()
	if t.files == nil {
		t.files = make(map[string]bool)
	}
	t.files[name] = true
	t.mu.Unlock()
}

func (t *outputTracker) rename(oldName, newName string) {
	t.mu.Lock()
	delete(t.files, oldName)
	if t.files == nil {
		t.files = make(map[string]bool)
	}
	t.files[newName] = true
	t.mu.Unlock()
}

// remove deletes one tracked file if it exists (a failed attempt may not
// have gotten far enough to create it).
func (t *outputTracker) remove(fs dfs.Storage, name string) {
	t.mu.Lock()
	delete(t.files, name)
	t.mu.Unlock()
	if fs.Exists(name) {
		fs.Remove(name)
	}
}

// removeAll deletes every file the job created (failure cleanup).
func (t *outputTracker) removeAll(fs dfs.Storage) {
	t.mu.Lock()
	names := make([]string, 0, len(t.files))
	for n := range t.files {
		names = append(names, n)
	}
	t.files = nil
	t.mu.Unlock()
	for _, n := range names {
		if fs.Exists(n) {
			fs.Remove(n)
		}
	}
}

// removeTemps deletes tracked files still under temporary names (left by
// abandoned attempts), keeping committed part files.
func (t *outputTracker) removeTemps(fs dfs.Storage, output string) {
	t.mu.Lock()
	var names []string
	prefix := output + "/_temporary-"
	for n := range t.files {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
			delete(t.files, n)
		}
	}
	t.mu.Unlock()
	for _, n := range names {
		if fs.Exists(n) {
			fs.Remove(n)
		}
	}
}

func loadSideFiles(fs dfs.Storage, names []string) (map[string][]byte, int64, error) {
	side := make(map[string][]byte, len(names))
	var total int64
	for _, n := range names {
		b, err := fs.ReadAll(n)
		if err != nil {
			return nil, 0, fmt.Errorf("side file %q: %w", n, err)
		}
		side[n] = b
		total += int64(len(b))
	}
	return side, total, nil
}

// runParallel executes fn(0..n-1) with at most p concurrent invocations,
// returning the first error.
func runParallel(n, p int, fn func(i int) error) error {
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, p)
	for i := 0; i < n; i++ {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// mapResult is one committed map attempt's output: the per-reducer
// segments (a runner's ref to them) plus the attempt's private counters
// (merged into the job's only on commit, so failed attempts leave none).
type mapResult struct {
	parts    [][]byte
	ref      int
	counters *Counters
}

func runMapTask(job *Job, taskID, attempt int, split dfs.Split, side map[string][]byte) (mapResult, TaskMetrics, error) {
	counters := &Counters{}
	ctx := &Context{
		JobName:     job.Name,
		TaskID:      taskID,
		Attempt:     attempt,
		NumReducers: job.NumReducers,
		InputFile:   split.File,
		Conf:        job.Conf,
		Memory:      &Memory{limit: job.MemoryLimit},
		side:        side,
		counters:    counters,
	}
	var tm TaskMetrics
	clock := startTaskClock()
	defer clock.release()
	sink := newMapBuffer(job, int64(split.Bytes))
	defer sink.release()
	mapper := taskMapper(job.Mapper)
	if s, ok := mapper.(Setupper); ok {
		if err := s.Setup(ctx); err != nil {
			return mapResult{}, tm, fmt.Errorf("map task %d setup: %w", taskID, err)
		}
	}
	format := job.formatFor(split.File)
	err := readSplit(job.FS, format, split, func(key, value []byte) error {
		tm.InputRecords++
		sink.read += int64(len(key) + len(value))
		if format == Text {
			sink.read++ // the newline: the DFS writers end every line with one
		}
		return mapper.Map(ctx, key, value, sink)
	})
	tm.InputBytes = sink.read
	if err != nil {
		return mapResult{}, tm, fmt.Errorf("map task %d: %w", taskID, err)
	}
	if c, ok := mapper.(Cleanupper); ok {
		if err := c.Cleanup(ctx, sink); err != nil {
			return mapResult{}, tm, fmt.Errorf("map task %d cleanup: %w", taskID, err)
		}
	}

	parts := sink.finish(&tm)
	tm.Cost = clock.elapsed()
	tm.PeakMemory = ctx.Memory.Peak()
	tm.Locations = append([]int(nil), split.Locations...)
	return mapResult{parts: parts, counters: counters}, tm, nil
}

// reduceResult is one committed reduce attempt's output: the temporary
// part-file name awaiting rename plus the attempt's private counter
// buffer.
type reduceResult struct {
	temp     string
	counters *Counters
}

// reduceColumn gathers reducer r's encoded segment from every map
// task's output — the slice of the shuffle matrix one reduce attempt
// consumes.
func reduceColumn(segments [][][]byte, r int) [][]byte {
	column := make([][]byte, 0, len(segments))
	for _, seg := range segments {
		if r < len(seg) {
			column = append(column, seg[r])
		}
	}
	return column
}

func runReduceTask(job *Job, r, attempt int, column [][]byte, side map[string][]byte, temp string, track *outputTracker) (reduceResult, TaskMetrics, error) {
	counters := &Counters{}
	ctx := &Context{
		JobName:     job.Name,
		TaskID:      r,
		Attempt:     attempt,
		NumReducers: job.NumReducers,
		Conf:        job.Conf,
		Memory:      &Memory{limit: job.MemoryLimit},
		side:        side,
		counters:    counters,
	}
	var tm TaskMetrics
	res := reduceResult{counters: counters}
	clock := startTaskClock()
	defer clock.release()

	// Shuffle: fetch this reducer's encoded segment from every map task,
	// then k-way merge the sorted runs in their encoded form. The merge
	// streams — segments are decoded pair by pair as the loser tree
	// consumes them, so the task never materializes the merged partition.
	var cursors []*runCursor
	for _, data := range column {
		if len(data) == 0 {
			continue
		}
		tm.InputBytes += int64(len(data))
		cursors = append(cursors, cursorForEncoded(data))
	}
	ms, err := newMergeStream(cursors)
	if err != nil {
		return res, tm, fmt.Errorf("reduce task %d: %w", r, err)
	}

	// Write under the caller-chosen temporary name; Run renames it to
	// the final part name only when the attempt commits. track is nil on
	// workers, where the coordinator's lease machinery owns cleanup.
	res.temp = temp
	if track != nil {
		track.add(res.temp)
	}
	fw, err := newFileWriter(job.FS, res.temp, job.OutputFormat)
	if err != nil {
		return res, tm, err
	}
	out := &writerEmitter{fw: fw}

	reducer := taskReducer(job.Reducer)
	if s, ok := reducer.(Setupper); ok {
		if err := s.Setup(ctx); err != nil {
			return res, tm, fmt.Errorf("reduce task %d setup: %w", r, err)
		}
	}
	gs := &groupStream{m: ms, prefix: job.GroupPrefix}
	for {
		g, err := gs.next()
		if err != nil {
			return res, tm, fmt.Errorf("reduce task %d: %w", r, err)
		}
		if g == nil {
			break
		}
		tm.InputRecords += int64(len(g))
		vals := &Values{pairs: g}
		if err := reducer.Reduce(ctx, g[0].Key, vals, out); err != nil {
			return res, tm, fmt.Errorf("reduce task %d: %w", r, err)
		}
	}
	if c, ok := reducer.(Cleanupper); ok {
		if err := c.Cleanup(ctx, out); err != nil {
			return res, tm, fmt.Errorf("reduce task %d cleanup: %w", r, err)
		}
	}
	if err := fw.close(); err != nil {
		return res, tm, err
	}
	tm.OutputRecords = fw.recs
	tm.OutputBytes = fw.bytes
	tm.Cost = clock.elapsed()
	tm.PeakMemory = ctx.Memory.Peak()
	return res, tm, nil
}

// writerEmitter streams reducer output straight to the part file.
type writerEmitter struct {
	fw *fileWriter
}

func (w *writerEmitter) Emit(key, value []byte) error { return w.fw.write(key, value) }
