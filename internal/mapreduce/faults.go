package mapreduce

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"fuzzyjoin/internal/backoff"
	"fuzzyjoin/internal/trace"
)

// This file implements the task-attempt model: each map/reduce task runs
// as a sequence of numbered attempts under Job.Retry, the Hadoop
// behaviour the paper's reliability assumptions rest on (§2.1 runs on
// Hadoop precisely because failed tasks are transparently re-executed).
// A FaultInjector deterministically fails chosen attempts so tests and
// experiments can prove the engine produces byte-identical output with
// and without failures.

// Phase distinguishes map from reduce tasks in attempt identifiers.
type Phase string

// The two task phases.
const (
	MapPhase    Phase = "map"
	ReducePhase Phase = "reduce"
)

// TaskRef identifies one task attempt. Attempt numbers are 1-based; the
// first attempt of a task is attempt 1.
type TaskRef struct {
	// Job is the job name. An empty Job in a matcher (FailAttempts)
	// matches any job.
	Job     string
	Phase   Phase
	TaskID  int
	Attempt int
}

// String renders the attempt Hadoop-style, e.g. "attempt_wordcount_m_000002_1".
func (r TaskRef) String() string {
	p := "m"
	if r.Phase == ReducePhase {
		p = "r"
	}
	return fmt.Sprintf("attempt_%s_%s_%06d_%d", r.Job, p, r.TaskID, r.Attempt)
}

// RetryPolicy configures task re-execution (Hadoop's
// mapred.{map,reduce}.max.attempts and backoff analogue). The zero value
// runs each task exactly once with no timeout, the engine's historical
// behaviour.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per task, including
	// the first. Values below 1 mean 1 (no retries).
	MaxAttempts int
	// Backoff is the delay before the second attempt. Each later
	// attempt doubles it, without a cap. The actual delay is jittered
	// ±25% deterministically from the attempt identity, so identical
	// runs sleep identically.
	Backoff time.Duration
	// AttemptTimeout bounds one attempt's wall-clock execution; an
	// attempt exceeding it fails with ErrAttemptTimeout and is retried
	// (Hadoop's mapred.task.timeout). 0 disables the timeout.
	AttemptTimeout time.Duration
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoffDelay returns the sleep before the given attempt (>= 2):
// exponential in the retry count, with deterministic jitter derived from
// the attempt identity so re-runs of a job are reproducible. The delay
// computation lives in internal/backoff so the RPC dispatch retry path
// (internal/distrib) shares the same policy and seed discipline.
func (p RetryPolicy) backoffDelay(job string, phase Phase, taskID, attempt int) time.Duration {
	pol := backoff.Policy{Base: p.Backoff}
	return pol.Delay(backoff.Key{Scope: job, Sub: string(phase), ID: taskID}, attempt)
}

// ErrInjectedFault marks attempt failures forced by a FaultInjector.
var ErrInjectedFault = errors.New("mapreduce: injected fault")

// ErrAttemptTimeout marks attempts that exceeded RetryPolicy.AttemptTimeout.
var ErrAttemptTimeout = errors.New("mapreduce: task attempt timed out")

// ErrTaskPanic marks attempts whose user map/reduce code panicked; the
// panic is recovered into an attempt failure instead of crashing the
// process, as a task-JVM crash would be contained on Hadoop.
var ErrTaskPanic = errors.New("mapreduce: task panicked")

// FaultInjector deterministically fails task attempts. The engine
// consults it once per otherwise-successful attempt, after the user code
// has run but before any of the attempt's effects (output part file,
// counters) are committed — the injected failure therefore exercises the
// full rollback path of a genuine mid-task crash.
type FaultInjector interface {
	// AttemptFault returns a non-nil error to fail the attempt.
	AttemptFault(ref TaskRef) error
}

// FaultFunc adapts a function to the FaultInjector interface.
type FaultFunc func(ref TaskRef) error

// AttemptFault implements FaultInjector.
func (f FaultFunc) AttemptFault(ref TaskRef) error { return f(ref) }

// FailAttempts returns an injector failing exactly the listed attempts.
// A ref with an empty Job matches that (phase, task, attempt) in every
// job — a pipeline-wide injection used by the determinism tests.
func FailAttempts(refs ...TaskRef) FaultInjector {
	list := append([]TaskRef(nil), refs...)
	return FaultFunc(func(ref TaskRef) error {
		for _, want := range list {
			if (want.Job == "" || want.Job == ref.Job) &&
				want.Phase == ref.Phase && want.TaskID == ref.TaskID && want.Attempt == ref.Attempt {
				return fmt.Errorf("%w: %s", ErrInjectedFault, ref)
			}
		}
		return nil
	})
}

// RateInjector fails a deterministic pseudo-random fraction of tasks:
// task identities hashing below Rate fail their first attempt, then
// succeed. With RetryPolicy.MaxAttempts above 1 every job still
// completes, so experiments can sweep the failure rate and compare
// makespans (the experiments knob for failure-aware scheduling).
type RateInjector struct {
	// Rate is the fraction of tasks to fail, in [0, 1].
	Rate float64
	// Seed varies which tasks are chosen.
	Seed int64
}

// AttemptFault implements FaultInjector.
func (ri RateInjector) AttemptFault(ref TaskRef) error {
	if ref.Attempt > 1 || ri.Rate <= 0 {
		return nil
	}
	// Hash the task identity with the seed: the same tasks fail on
	// every run.
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%d", ri.Seed, ref.Job, ref.Phase, ref.TaskID)
	u := float64(h.Sum64()%(1<<53)) / (1 << 53)
	if u < ri.Rate {
		return fmt.Errorf("%w: %s (rate %.2f)", ErrInjectedFault, ref, ri.Rate)
	}
	return nil
}

// runTaskAttempts drives one task through numbered attempts under the
// job's retry policy: user-code panics and injected faults become
// attempt failures, each attempt's wall clock is bounded by
// AttemptTimeout, and a failed attempt's partial effects are discarded
// via the discard callback before the retry starts. The returned
// TaskMetrics is the committed attempt's, extended with the attempt
// count and every attempt's measured cost (the cluster simulator charges
// failed attempts into the makespan from AttemptCosts).
func runTaskAttempts[T any](job *Job, phase Phase, taskID int,
	run func(attempt int) (T, TaskMetrics, error), discard func(attempt int)) (T, TaskMetrics, error) {

	var zero T
	max := job.Retry.maxAttempts()
	var attemptCosts []time.Duration
	var lastErr error
	for attempt := 1; attempt <= max; attempt++ {
		if err := job.canceled(); err != nil {
			return zero, TaskMetrics{}, err
		}
		if delay := job.Retry.backoffDelay(job.Name, phase, taskID, attempt); delay > 0 {
			// Sleep the backoff, but wake immediately on cancellation so a
			// canceled job is not pinned behind a long retry delay.
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-job.Context().Done():
				timer.Stop()
				return zero, TaskMetrics{}, job.canceled()
			}
		}
		if job.Trace.Enabled() {
			job.Trace.Emit(trace.Event{Type: trace.AttemptStart, Job: job.Name,
				Phase: string(phase), Task: taskID, Attempt: attempt})
		}
		start := time.Now()
		res, tm, err := runOneAttempt(job, phase, taskID, attempt, run)
		cost := time.Since(start)
		// An attempt that failed before its task body measured a cost
		// is charged its wall time.
		if tm.Cost == 0 {
			tm.Cost = cost
		}
		if err == nil && job.FaultInjector != nil {
			ref := TaskRef{Job: job.Name, Phase: phase, TaskID: taskID, Attempt: attempt}
			if ferr := job.FaultInjector.AttemptFault(ref); ferr != nil {
				err = fmt.Errorf("%s task %d attempt %d: %w", phase, taskID, attempt, ferr)
			}
		}
		attemptCosts = append(attemptCosts, tm.Cost)
		if err == nil {
			tm.Attempts = attempt
			tm.AttemptCosts = attemptCosts
			if job.Trace.Enabled() {
				job.Trace.Emit(attemptEndEvent(job.Name, phase, taskID, attempt, tm))
			}
			return res, tm, nil
		}
		lastErr = err
		if job.Trace.Enabled() {
			job.Trace.Emit(trace.Event{Type: trace.AttemptFail, Job: job.Name,
				Phase: string(phase), Task: taskID, Attempt: attempt,
				Cost: int64(tm.Cost), Err: err.Error()})
		}
		if discard != nil {
			discard(attempt)
		}
		// Retrying a canceled attempt cannot succeed.
		if errors.Is(err, ErrCanceled) {
			return zero, TaskMetrics{}, fmt.Errorf("after %d attempt(s): %w", attempt, lastErr)
		}
	}
	return zero, TaskMetrics{}, fmt.Errorf("after %d attempt(s): %w", max, lastErr)
}

// attemptEndEvent builds the committed-attempt event from the attempt's
// metrics: cost and data volumes.
func attemptEndEvent(job string, phase Phase, taskID, attempt int, tm TaskMetrics) trace.Event {
	return trace.Event{
		Type: trace.AttemptEnd, Job: job, Phase: string(phase), Task: taskID, Attempt: attempt,
		Cost:   int64(tm.Cost),
		InRecs: tm.InputRecords, InBytes: tm.InputBytes,
		OutRecs: tm.OutputRecords, OutBytes: tm.OutputBytes,
		Worker: tm.Worker,
	}
}

// runOneAttempt executes one attempt body, recovering panics into errors
// and enforcing the per-attempt timeout. A timed-out attempt's goroutine
// is abandoned; its side effects stay isolated behind the attempt's
// private counters and attempt-suffixed temp files, which the job sweeps
// at the end.
func runOneAttempt[T any](job *Job, phase Phase, taskID, attempt int,
	run func(attempt int) (T, TaskMetrics, error)) (T, TaskMetrics, error) {

	type outcome struct {
		res T
		tm  TaskMetrics
		err error
	}
	exec := func() (o outcome) {
		defer func() {
			if p := recover(); p != nil {
				o.err = fmt.Errorf("%s task %d attempt %d: %w: %v", phase, taskID, attempt, ErrTaskPanic, p)
			}
		}()
		o.res, o.tm, o.err = run(attempt)
		return o
	}
	timeout := job.Retry.AttemptTimeout
	if timeout <= 0 {
		o := exec()
		return o.res, o.tm, o.err
	}
	ch := make(chan outcome, 1)
	go func() { ch <- exec() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.tm, o.err
	case <-timer.C:
		var zero T
		return zero, TaskMetrics{}, fmt.Errorf("%s task %d attempt %d: %w after %v",
			phase, taskID, attempt, ErrAttemptTimeout, timeout)
	}
}
