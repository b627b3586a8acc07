package mapreduce

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fuzzyjoin/internal/dfs"
)

// faultJob builds the wordcount job used by the fault tests.
func faultJob(fs *dfs.FS, out string) Job {
	return Job{
		Name:        "wordcount",
		FS:          fs,
		Inputs:      []string{"in"},
		InputFormat: Text,
		Output:      out,
		Mapper:      wordCountMapper,
		Reducer:     sumReducer,
		NumReducers: 2,
	}
}

func writeFaultInput(t *testing.T, fs *dfs.FS) {
	t.Helper()
	// Enough data for several 256-byte blocks, i.e. several map tasks.
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var lines []string
	for i := 0; i < 60; i++ {
		lines = append(lines, fmt.Sprintf("%s %s %s",
			words[i%len(words)], words[(i*3+1)%len(words)], words[(i*5+2)%len(words)]))
	}
	if err := WriteTextFile(fs, "in", lines); err != nil {
		t.Fatal(err)
	}
}

// outputBytes concatenates all part files under prefix, keyed by name.
func outputBytes(t *testing.T, fs *dfs.FS, prefix string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range fs.List(prefix + "/") {
		b, err := fs.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimPrefix(name, prefix+"/")] = string(b)
	}
	return out
}

func sameStringMaps[V comparable](a, b map[string]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestRetryProducesIdenticalOutput(t *testing.T) {
	fs := newFS()
	writeFaultInput(t, fs)

	clean, err := Run(faultJob(fs, "clean"))
	if err != nil {
		t.Fatal(err)
	}

	job := faultJob(fs, "faulty")
	job.Retry = RetryPolicy{MaxAttempts: 3}
	job.FaultInjector = FailAttempts(
		TaskRef{Phase: MapPhase, TaskID: 0, Attempt: 1},
		TaskRef{Phase: ReducePhase, TaskID: 1, Attempt: 1},
		TaskRef{Phase: ReducePhase, TaskID: 1, Attempt: 2},
	)
	faulty, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}

	if !sameStringMaps(outputBytes(t, fs, "clean"), outputBytes(t, fs, "faulty")) {
		t.Fatalf("output with injected faults differs from fault-free output:\nclean: %v\nfaulty: %v",
			outputBytes(t, fs, "clean"), outputBytes(t, fs, "faulty"))
	}
	if !sameStringMaps(clean.Counters, faulty.Counters) {
		t.Fatalf("counters differ: clean %v faulty %v", clean.Counters, faulty.Counters)
	}
	if got := faulty.MapTasks[0].Attempts; got != 2 {
		t.Fatalf("map task 0 Attempts = %d, want 2", got)
	}
	if got := faulty.ReduceTasks[1].Attempts; got != 3 {
		t.Fatalf("reduce task 1 Attempts = %d, want 3", got)
	}
	if got := len(faulty.ReduceTasks[1].AttemptCosts); got != 3 {
		t.Fatalf("reduce task 1 AttemptCosts has %d entries, want 3", got)
	}
	if faulty.MapTasks[1].Attempts != 1 || faulty.ReduceTasks[0].Attempts != 1 {
		t.Fatalf("unfaulted tasks should have 1 attempt, got map1=%d reduce0=%d",
			faulty.MapTasks[1].Attempts, faulty.ReduceTasks[0].Attempts)
	}
	// No attempt-temp debris may survive a successful job.
	for _, name := range fs.List("faulty/") {
		if strings.Contains(name, "_temporary") {
			t.Fatalf("temp file %s left behind", name)
		}
	}
}

func TestJobFailsAfterMaxAttempts(t *testing.T) {
	fs := newFS()
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.Retry = RetryPolicy{MaxAttempts: 2}
	// Every attempt of reduce task 0 fails.
	job.FaultInjector = FaultFunc(func(ref TaskRef) error {
		if ref.Phase == ReducePhase && ref.TaskID == 0 {
			return ErrInjectedFault
		}
		return nil
	})
	_, err := Run(job)
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("want ErrInjectedFault after exhausting attempts, got %v", err)
	}
	if !strings.Contains(err.Error(), "after 2 attempt(s)") {
		t.Fatalf("error should mention exhausted attempts: %v", err)
	}
	if names := fs.List("out/"); len(names) != 0 {
		t.Fatalf("failed job left files: %v", names)
	}
}

// TestFailureCleanupSparesForeignFiles is the regression test for the
// over-broad cleanup bug: Run used to RemovePrefix the whole output
// prefix on failure, deleting files under it that the job never wrote.
func TestFailureCleanupSparesForeignFiles(t *testing.T) {
	fs := newFS()
	writeFaultInput(t, fs)
	// A prior stage's output sharing the directory.
	if err := WriteTextFile(fs, "out/earlier-stage", []string{"precious"}); err != nil {
		t.Fatal(err)
	}
	job := faultJob(fs, "out")
	job.Reducer = ReduceFunc(func(_ *Context, _ []byte, _ *Values, _ Emitter) error {
		return fmt.Errorf("boom")
	})
	if _, err := Run(job); err == nil {
		t.Fatal("job should have failed")
	}
	if !fs.Exists("out/earlier-stage") {
		t.Fatal("cleanup removed a file the job never wrote")
	}
	if names := fs.List("out/"); len(names) != 1 {
		t.Fatalf("only the foreign file should remain, got %v", names)
	}
}

// TestCountersIsolatedFromFailedAttempts is the regression test for
// counter pollution: a failing attempt's counts must never reach the job
// totals, with or without retries.
func TestCountersIsolatedFromFailedAttempts(t *testing.T) {
	fs := newFS()
	writeFaultInput(t, fs)

	countingMapper := MapFunc(func(ctx *Context, _, value []byte, out Emitter) error {
		for _, w := range strings.Fields(string(value)) {
			ctx.Count("words", 1)
			if err := out.Emit([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})

	clean := faultJob(fs, "clean")
	clean.Mapper = countingMapper
	cm, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	want := cm.Counters["words"]
	if want == 0 {
		t.Fatal("test premise broken: no words counted")
	}

	// Injected failure after map task 0 fully ran (and counted): the
	// retry must not double-count.
	job := faultJob(fs, "faulty")
	job.Mapper = countingMapper
	job.Retry = RetryPolicy{MaxAttempts: 2}
	job.FaultInjector = FailAttempts(TaskRef{Phase: MapPhase, TaskID: 0, Attempt: 1})
	fm, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := fm.Counters["words"]; got != want {
		t.Fatalf("counters polluted by failed attempt: got %d want %d", got, want)
	}

	// No-retry path: a task that counts then fails must contribute
	// nothing — its counts die with the failed attempt.
	job = faultJob(fs, "failing")
	job.Mapper = MapFunc(func(ctx *Context, _, value []byte, out Emitter) error {
		ctx.Count("poison", 1)
		return fmt.Errorf("boom")
	})
	if _, err := Run(job); err == nil {
		t.Fatal("job should have failed")
	}
	// The failing job returns no metrics; re-run a healthy job over the
	// same shared-counter name to prove nothing leaked into shared state.
	job = faultJob(fs, "after")
	job.Mapper = countingMapper
	am, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if got := am.Counters["poison"]; got != 0 {
		t.Fatalf("poison counter leaked across jobs: %d", got)
	}
	if got := am.Counters["words"]; got != want {
		t.Fatalf("counters wrong after failed job: got %d want %d", got, want)
	}
}

func TestPanicRecoveredAndRetried(t *testing.T) {
	fs := newFS()
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.Retry = RetryPolicy{MaxAttempts: 2}
	job.Mapper = MapFunc(func(ctx *Context, _, value []byte, out Emitter) error {
		if ctx.TaskID == 0 && ctx.Attempt == 1 {
			panic("mapper exploded")
		}
		return wordCountMapper(ctx, nil, value, out)
	})
	m, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.MapTasks[0].Attempts != 2 {
		t.Fatalf("panicked map task should have retried, Attempts = %d", m.MapTasks[0].Attempts)
	}
}

func TestPanicWithoutRetryFailsJob(t *testing.T) {
	fs := newFS()
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.Reducer = ReduceFunc(func(_ *Context, _ []byte, _ *Values, _ Emitter) error {
		panic("reducer exploded")
	})
	_, err := Run(job)
	if !errors.Is(err, ErrTaskPanic) {
		t.Fatalf("want ErrTaskPanic, got %v", err)
	}
	if !strings.Contains(err.Error(), "reducer exploded") {
		t.Fatalf("panic message lost: %v", err)
	}
}

func TestAttemptTimeoutRetries(t *testing.T) {
	fs := newFS()
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.Retry = RetryPolicy{MaxAttempts: 2, AttemptTimeout: 100 * time.Millisecond}
	job.Mapper = MapFunc(func(ctx *Context, _, value []byte, out Emitter) error {
		if ctx.TaskID == 0 && ctx.Attempt == 1 {
			time.Sleep(2 * time.Second)
		}
		return wordCountMapper(ctx, nil, value, out)
	})
	m, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.MapTasks[0].Attempts != 2 {
		t.Fatalf("timed-out map task should have retried, Attempts = %d", m.MapTasks[0].Attempts)
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, Backoff: 100 * time.Millisecond}
	a := p.backoffDelay("job", MapPhase, 3, 2)
	b := p.backoffDelay("job", MapPhase, 3, 2)
	if a != b {
		t.Fatalf("backoff not deterministic: %v vs %v", a, b)
	}
	if a < 75*time.Millisecond || a >= 125*time.Millisecond {
		t.Fatalf("attempt-2 backoff %v outside jitter bounds of base 100ms", a)
	}
	// Attempt 3 doubles the base before jitter.
	c := p.backoffDelay("job", MapPhase, 3, 3)
	if c < 150*time.Millisecond || c >= 250*time.Millisecond {
		t.Fatalf("attempt-3 backoff %v outside jitter bounds of base 200ms", c)
	}
	if p.backoffDelay("job", MapPhase, 3, 1) != 0 {
		t.Fatal("first attempt must not back off")
	}
}

func TestRateInjectorDeterministic(t *testing.T) {
	ri := RateInjector{Rate: 0.5, Seed: 7}
	failed := 0
	for task := 0; task < 100; task++ {
		ref := TaskRef{Job: "j", Phase: MapPhase, TaskID: task, Attempt: 1}
		e1 := ri.AttemptFault(ref)
		e2 := ri.AttemptFault(ref)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("rate injector nondeterministic for task %d", task)
		}
		if e1 != nil {
			failed++
			// Later attempts of a chosen task succeed.
			ref.Attempt = 2
			if ri.AttemptFault(ref) != nil {
				t.Fatalf("attempt 2 of task %d should succeed", task)
			}
		}
	}
	if failed < 25 || failed > 75 {
		t.Fatalf("rate 0.5 failed %d/100 tasks; hash badly skewed", failed)
	}
	if (RateInjector{Rate: 0, Seed: 7}).AttemptFault(TaskRef{Attempt: 1}) != nil {
		t.Fatal("rate 0 must never fail")
	}
}
