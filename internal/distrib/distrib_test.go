package distrib_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/distrib"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/trace"
)

// TestMain makes the test binary usable as a worker process: Session
// forks the current executable, and MaybeWorker turns the fork into a
// worker before any test runs.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// The "wcount" program registered here is compiled into the test binary
// and therefore into every forked worker too.
func init() { mapreduce.RegisterProgram("wcount", buildWcount) }

func buildWcount(string) (*mapreduce.Program, error) {
	return &mapreduce.Program{
		// A job that attaches side file "stop" skips the words it lists.
		Mapper: mapreduce.MapFunc(func(ctx *mapreduce.Context, _, value []byte, out mapreduce.Emitter) error {
			ctx.Count("wc.records", 1)
			stop, _ := ctx.SideFile("stop")
			for _, w := range strings.Fields(string(value)) {
				if slices.Contains(strings.Fields(string(stop)), w) {
					continue
				}
				if err := out.Emit([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		}),
		Reducer: mapreduce.ReduceFunc(func(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
			ctx.Count("wc.groups", 1)
			total := 0
			for v, ok := values.Next(); ok; v, ok = values.Next() {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				total += n
			}
			return out.Emit(key, []byte(strconv.Itoa(total)))
		}),
	}, nil
}

func startSession(t *testing.T, opts distrib.Options) *distrib.Session {
	t.Helper()
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 50 * time.Millisecond
	}
	if opts.Stderr == nil {
		opts.Stderr = io.Discard
	}
	s, err := distrib.Start(opts)
	if err != nil {
		t.Fatalf("starting session: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// snapshotFiles reads every file under prefix into a name→contents map.
func snapshotFiles(t *testing.T, fs dfs.Storage, prefix string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range fs.List(prefix + "/") {
		data, err := fs.ReadAll(name)
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		out[name] = data
	}
	return out
}

// diffFiles asserts two file snapshots are byte-identical.
func diffFiles(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("missing output file %s", name)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("file %s differs: %d bytes vs %d bytes", name, len(g), len(w))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected output file %s", name)
		}
	}
	if len(want) == 0 {
		t.Fatal("test premise broken: no output files")
	}
}

func wordLines() []string {
	lines := make([]string, 40)
	for i := range lines {
		lines[i] = fmt.Sprintf("tok%d tok%d tok%d shared", i%7, i%13, i%3)
	}
	return lines
}

func wordCountJob(fs dfs.Storage, conf map[string]string) mapreduce.Job {
	prog, err := buildWcount("")
	if err != nil {
		panic(err)
	}
	return mapreduce.Job{
		Name:        "wcount",
		FS:          fs,
		Inputs:      []string{"in"},
		InputFormat: mapreduce.Text,
		Output:      "out",
		NumReducers: 3,
		Parallelism: 2,
		Conf:        conf,
		Mapper:      prog.Mapper,
		Reducer:     prog.Reducer,
		Program:     "wcount",
	}
}

func runWordCount(t *testing.T, runner mapreduce.TaskRunner, conf map[string]string) (map[string][]byte, map[string]int64) {
	t.Helper()
	fs := dfs.New(dfs.Options{BlockSize: 256, Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "in", wordLines()); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob(fs, conf)
	job.Runner = runner
	m, err := mapreduce.Run(job)
	if err != nil {
		t.Fatalf("wordcount run: %v", err)
	}
	return snapshotFiles(t, fs, "out"), m.Counters
}

// TestDistributedWordCountMatchesInProcess is the basic tentpole check:
// the same job dispatched to two worker processes produces byte-for-byte
// the output and counters of the in-process run.
func TestDistributedWordCountMatchesInProcess(t *testing.T) {
	localFiles, localCounters := runWordCount(t, nil, nil)
	s := startSession(t, distrib.Options{Workers: 2})
	distFiles, distCounters := runWordCount(t, s.Runner, nil)
	diffFiles(t, distFiles, localFiles)
	if fmt.Sprint(distCounters) != fmt.Sprint(localCounters) {
		t.Errorf("counters diverge: %v vs %v", distCounters, localCounters)
	}
	if got := distCounters["wc.records"]; got != 40 {
		t.Errorf("wc.records = %d, want 40", got)
	}
}

func joinLines() []string {
	return datagen.Lines(datagen.Generate(datagen.Spec{
		Records: 40, Seed: 7, Style: datagen.DBLPLike, VocabSize: 256,
	}))
}

func runSelfJoin(t *testing.T, runner mapreduce.TaskRunner, parallelism int) map[string][]byte {
	t.Helper()
	fs := dfs.New(dfs.Options{BlockSize: 2 << 10, Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "in", joinLines()); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		FS: fs, Work: "w", NumReducers: 3, Parallelism: parallelism, Runner: runner,
	}
	res, err := core.SelfJoin(cfg, "in")
	if err != nil {
		t.Fatalf("self join: %v", err)
	}
	return snapshotFiles(t, fs, res.Output)
}

// TestDistributedJoinByteIdentical runs the full three-stage pipeline on
// the RPC backend and requires byte-identical join output.
func TestDistributedJoinByteIdentical(t *testing.T) {
	local := runSelfJoin(t, nil, 1)
	s := startSession(t, distrib.Options{Workers: 2})
	diffFiles(t, runSelfJoin(t, s.Runner, 2), local)
}

// TestChaosKillByteIdentical SIGKILLs workers mid-task (seeded,
// deterministic) and requires the pipeline to recover — re-dispatching
// orphaned attempts — with byte-identical output.
func TestChaosKillByteIdentical(t *testing.T) {
	local := runSelfJoin(t, nil, 1)
	s := startSession(t, distrib.Options{
		Workers: 4,
		Kill:    &distrib.KillSpec{Rate: 0.6, Seed: 3, MaxKills: 2},
	})
	diffFiles(t, runSelfJoin(t, s.Runner, 2), local)
	if s.Runner.Kills() == 0 {
		t.Error("chaos harness fired no kills; the test certified nothing")
	}
	t.Logf("chaos kills fired: %d", s.Runner.Kills())
}

// TestCrashBetweenWorkAndReportDoesNotDoubleCount kills worker 1 after
// it has fully executed a task body but before it reports the result —
// the classic double-count window. Dispatch picks the lowest ID among
// idle workers, so worker 1 gets the job's first task. The re-dispatched
// attempt's counters must be merged exactly once.
func TestCrashBetweenWorkAndReportDoesNotDoubleCount(t *testing.T) {
	localFiles, localCounters := runWordCount(t, nil, nil)
	s := startSession(t, distrib.Options{Workers: 2})
	fs := dfs.New(dfs.Options{BlockSize: 256, Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "in", wordLines()); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob(fs, map[string]string{"distrib.exit-after": "1"})
	job.Runner = s.Runner
	tr := trace.New()
	job.Trace = tr
	m, err := mapreduce.Run(job)
	if err != nil {
		t.Fatalf("wordcount run: %v", err)
	}
	diffFiles(t, snapshotFiles(t, fs, "out"), localFiles)
	if fmt.Sprint(m.Counters) != fmt.Sprint(localCounters) {
		t.Errorf("counters diverge after mid-report crash: %v vs %v", m.Counters, localCounters)
	}
	// Worker 1 ran a task body and died before reporting it: no attempt
	// commits on it, and the lost report costs the task no attempt.
	committed := 0
	for _, e := range tr.Snapshot().Events {
		if e.Type != trace.AttemptEnd {
			continue
		}
		committed++
		if e.Worker == "w1" || e.Attempt != 1 {
			t.Errorf("attempt %d of %s task %d committed on %s; want every task's first attempt on w2",
				e.Attempt, e.Phase, e.Task, e.Worker)
		}
	}
	if want := len(m.MapTasks) + len(m.ReduceTasks); committed != want {
		t.Errorf("%d attempts committed, want one per task (%d)", committed, want)
	}
	if s.Coord.LiveWorkers() != 1 {
		t.Errorf("live workers = %d, want 1 (worker 1 exited)", s.Coord.LiveWorkers())
	}
}

// TestInjectedFaultsByteIdenticalOnWorkers fails attempts at the
// coordinator AFTER the worker completed them successfully (the
// FaultInjector contract: the fault lands once the user code has run,
// exercising the full rollback path). The worker already wrote its
// temp part file by then, so this pins the orphan sweep: the retried
// run's output files and counters must exactly match a clean
// in-process run — no leaked _temporary- files, no doubled counts.
func TestInjectedFaultsByteIdenticalOnWorkers(t *testing.T) {
	localFiles, localCounters := runWordCount(t, nil, nil)

	s := startSession(t, distrib.Options{Workers: 2})
	fs := dfs.New(dfs.Options{BlockSize: 256, Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "in", wordLines()); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob(fs, nil)
	job.Runner = s.Runner
	job.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
	job.FaultInjector = mapreduce.FailAttempts(
		mapreduce.TaskRef{Job: "wcount", Phase: mapreduce.MapPhase, TaskID: 0, Attempt: 1},
		mapreduce.TaskRef{Job: "wcount", Phase: mapreduce.ReducePhase, TaskID: 1, Attempt: 1},
		mapreduce.TaskRef{Job: "wcount", Phase: mapreduce.ReducePhase, TaskID: 2, Attempt: 1},
	)
	m, err := mapreduce.Run(job)
	if err != nil {
		t.Fatalf("faulty dist run: %v", err)
	}
	diffFiles(t, snapshotFiles(t, fs, "out"), localFiles)
	if fmt.Sprint(m.Counters) != fmt.Sprint(localCounters) {
		t.Errorf("counters diverge under injected faults: %v vs %v", m.Counters, localCounters)
	}
}

// TestWorkerLossMidJobRecovers starts two workers, kills one outright
// between jobs, and requires the next job to complete on the survivor.
func TestWorkerLossMidJobRecovers(t *testing.T) {
	s := startSession(t, distrib.Options{Workers: 2})
	localFiles, _ := runWordCount(t, nil, nil)
	distFiles, _ := runWordCount(t, s.Runner, nil)
	diffFiles(t, distFiles, localFiles)

	s.KillWorker(0)
	deadline := time.Now().Add(5 * time.Second)
	for s.Coord.LiveWorkers() > 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.Coord.LiveWorkers(); n != 1 {
		t.Fatalf("live workers = %d after kill, want 1", n)
	}
	again, _ := runWordCount(t, s.Runner, nil)
	diffFiles(t, again, localFiles)
}

// killAfterMap is a trace sink that SIGKILLs, when the map phase ends,
// the worker that committed the first map attempt: it dies holding
// committed map outputs.
type killAfterMap struct {
	s      *distrib.Session
	holder atomic.Value // "w<ID>"
}

func (k *killAfterMap) Emit(e trace.Event) {
	switch {
	case e.Type == trace.AttemptEnd && e.Phase == string(mapreduce.MapPhase):
		k.holder.CompareAndSwap(nil, e.Worker)
	case e.Type == trace.PhaseEnd && e.Phase == trace.PhaseMap:
		id, _ := strconv.Atoi(strings.TrimPrefix(k.holder.Load().(string), "w"))
		k.s.KillWorkerID(id)
	}
}

// TestHolderKilledBetweenPhasesRecomputes kills a worker that holds
// committed map outputs between the map and the reduce phase. The
// coordinator must re-run the lost map tasks without spending their
// attempts or merging their counters twice: output and counters equal
// the in-process run's.
func TestHolderKilledBetweenPhasesRecomputes(t *testing.T) {
	localFiles, localCounters := runWordCount(t, nil, nil)
	s := startSession(t, distrib.Options{Workers: 2})
	fs := dfs.New(dfs.Options{BlockSize: 256, Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "in", wordLines()); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob(fs, nil)
	job.Runner = s.Runner
	job.Trace = trace.New(&killAfterMap{s: s})
	m, err := mapreduce.Run(job)
	if err != nil {
		t.Fatalf("run with a holder killed: %v", err)
	}
	diffFiles(t, snapshotFiles(t, fs, "out"), localFiles)
	if fmt.Sprint(m.Counters) != fmt.Sprint(localCounters) {
		t.Errorf("counters diverge after recompute: %v vs %v", m.Counters, localCounters)
	}
	for _, tm := range m.MapTasks {
		if tm.Attempts != 1 {
			t.Errorf("a recomputed map task reports %d attempts, want 1", tm.Attempts)
		}
	}
	st := s.Stats()
	if st.Recomputed == 0 {
		t.Error("no map output was recomputed; the killed worker held none")
	}
	t.Logf("recomputed %d map outputs", st.Recomputed)
}

// TestWorkersFreeMapOutputs requires that no worker holds map outputs
// once a job has returned, whether it succeeded or failed after its map
// phase.
func TestWorkersFreeMapOutputs(t *testing.T) {
	s := startSession(t, distrib.Options{Workers: 2})
	fs := dfs.New(dfs.Options{BlockSize: 256, Nodes: 4})
	if err := mapreduce.WriteTextFile(fs, "in", wordLines()); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob(fs, nil)
	job.Runner = s.Runner
	if _, err := mapreduce.Run(job); err != nil {
		t.Fatal(err)
	}
	if held := s.Stats().Held; held != 0 {
		t.Errorf("after a job succeeded, workers hold %d map outputs", held)
	}

	job.Output = "out2"
	job.FaultInjector = mapreduce.FailAttempts(
		mapreduce.TaskRef{Job: "wcount", Phase: mapreduce.ReducePhase, TaskID: 1, Attempt: 1})
	if _, err := mapreduce.Run(job); err == nil {
		t.Fatal("a job whose reduce attempt fails its only attempt succeeded")
	}
	if held := s.Stats().Held; held != 0 {
		t.Errorf("after a job failed, workers hold %d map outputs", held)
	}
}

// TestRecreatedFileReadsNewBytes removes the input and the side file
// between two jobs on the same workers and creates both again under the
// same names with new contents. The workers' caches must not serve the
// old bytes.
func TestRecreatedFileReadsNewBytes(t *testing.T) {
	s := startSession(t, distrib.Options{Workers: 2})
	fs := dfs.New(dfs.Options{BlockSize: 256, Nodes: 4})
	lines := wordLines()
	run := func(runner mapreduce.TaskRunner, out string) map[string][]byte {
		t.Helper()
		job := wordCountJob(fs, nil)
		job.Output, job.SideFiles, job.Runner = out, []string{"stop"}, runner
		if _, err := mapreduce.Run(job); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for name, data := range snapshotFiles(t, fs, out) {
			files[strings.TrimPrefix(name, out)] = data
		}
		return files
	}
	write := func(lines []string, stop string) {
		t.Helper()
		for _, name := range []string{"in", "stop"} {
			if fs.Exists(name) {
				fs.Remove(name)
			}
		}
		if err := mapreduce.WriteTextFile(fs, "in", lines); err != nil {
			t.Fatal(err)
		}
		if err := mapreduce.WriteTextFile(fs, "stop", []string{stop}); err != nil {
			t.Fatal(err)
		}
	}
	write(lines, "shared")
	first := run(s.Runner, "dist1")
	diffFiles(t, first, run(nil, "local1"))

	for i := range lines {
		lines[i] = strings.ReplaceAll(lines[i], "tok", "new")
	}
	write(lines, "new1")
	second := run(s.Runner, "dist2")
	diffFiles(t, second, run(nil, "local2"))
	if fmt.Sprint(first) == fmt.Sprint(second) {
		t.Fatal("test premise broken: new contents gave the same output")
	}
}

// TestShuffleBypassesCoordinator pins where the shuffle travels: map
// segments of tens of kilobytes per task ride neither the RunMap
// replies nor the RunReduce arguments, and the reducers fetch them from
// their peers.
func TestShuffleBypassesCoordinator(t *testing.T) {
	s := startSession(t, distrib.Options{Workers: 2})
	fs := dfs.New(dfs.Options{BlockSize: 32 << 10, Nodes: 4})
	lines := make([]string, 800)
	for i := range lines {
		lines[i] = fmt.Sprintf("%s%d %s%d", strings.Repeat("a", 100), i%97, strings.Repeat("b", 100), i)
	}
	if err := mapreduce.WriteTextFile(fs, "in", lines); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob(fs, nil)
	job.Runner = s.Runner
	m, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	perTask := m.TotalShuffleBytes() / int64(len(m.MapTasks))
	if len(m.MapTasks) < 4 || perTask < 16<<10 {
		t.Fatalf("test premise broken: %d map tasks, %d shuffle bytes each", len(m.MapTasks), perTask)
	}
	st := s.Stats()
	for _, c := range []struct {
		method string
		bytes  int64
	}{
		{"Worker.RunMap", st.RPC["Worker.RunMap"].ReplyBytes},
		{"Worker.RunReduce", st.RPC["Worker.RunReduce"].ArgBytes},
	} {
		calls := st.RPC[c.method].Calls
		if calls == 0 || c.bytes/calls > 2<<10 {
			t.Errorf("%s: %d calls carried %d bytes; segments are %d bytes a map task",
				c.method, calls, c.bytes, perTask)
		}
	}
	if f := st.RPC["Worker.Fetch"]; f.Calls == 0 || f.ReplyBytes == 0 {
		t.Errorf("no segment was fetched from a peer: %+v", f)
	}
	t.Logf("per-RPC numbers: %+v", st.RPC)
}
