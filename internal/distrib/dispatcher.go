package distrib

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/rpc"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"fuzzyjoin/internal/backoff"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
)

// KillSpec configures the deterministic chaos harness: on first
// dispatch of a task whose identity hashes below Rate, the worker the
// task was sent to is SIGKILLed shortly after dispatch — mid-attempt.
// Task selection is a pure function of (Seed, job, phase, task), so a
// given seed kills the same tasks in every run; the join output must
// come out byte-identical regardless.
type KillSpec struct {
	// Rate is the fraction of tasks whose dispatch triggers a kill.
	Rate float64
	// Seed varies which tasks are chosen.
	Seed int64
	// MaxKills bounds the total kills (never below one live worker).
	MaxKills int
	// Delay is how long after dispatch the SIGKILL lands (default 2ms),
	// aiming for mid-attempt.
	Delay time.Duration
}

// Runner implements mapreduce.TaskRunner by dispatching attempts to
// worker processes. Transport failures (worker crash, connection loss)
// and fencing rejections are retried on other workers without consuming
// the job's RetryPolicy attempts; only errors the task body itself
// returned count as attempt failures.
type Runner struct {
	coord         *Coordinator
	kill          *KillSpec
	kills         int64
	serial        int64
	dispatchRetry backoff.Policy
	maxDispatch   int
}

// Kills reports how many chaos kills have fired.
func (r *Runner) Kills() int { return int(atomic.LoadInt64(&r.kills)) }

// defaultDispatchRetry is the dispatch-retry backoff: fast (a dispatch
// retry means a worker just died — the task itself is fine), bounded,
// and deterministic per task via the shared backoff discipline. The
// retry budget scales with the fleet so losing several workers in one
// dispatch loop still converges on a survivor.
func defaultDispatchRetry(workers int) (backoff.Policy, int) {
	return backoff.Policy{Base: 2 * time.Millisecond, Factor: 2, Max: 250 * time.Millisecond},
		4 + 2*workers
}

func dispatchKey(jobName string, phase mapreduce.Phase, taskID int) backoff.Key {
	return backoff.Key{Scope: "distrib-dispatch:" + jobName, Sub: string(phase), ID: taskID}
}

// RunMap implements mapreduce.TaskRunner.
func (r *Runner) RunMap(job *mapreduce.Job, taskID, attempt int, split dfs.Split) (mapreduce.MapOutput, error) {
	spec := job.Spec()
	var reply RunMapReply
	wid, err := r.dispatch(job, mapreduce.MapPhase, taskID, attempt, func(fs, lease int64, cl *rpc.Client) error {
		reply = RunMapReply{}
		return cl.Call("Worker.RunMap", RunMapArgs{
			FS: fs, Lease: lease, Spec: spec, TaskID: taskID, Attempt: attempt, Split: split,
		}, &reply)
	})
	if err != nil {
		return mapreduce.MapOutput{}, err
	}
	out := mapreduce.MapOutput{Parts: reply.Parts, Counters: reply.Counters, Metrics: reply.Metrics}
	out.Metrics.Worker = workerName(wid)
	return out, nil
}

// RunReduce implements mapreduce.TaskRunner. The temporary part name is
// chosen fresh per dispatch try (serial-suffixed), so a re-dispatched
// attempt never races the fenced remains of its predecessor.
func (r *Runner) RunReduce(job *mapreduce.Job, taskID, attempt int, column [][]byte) (mapreduce.ReduceOutput, error) {
	spec := job.Spec()
	var reply RunReduceReply
	wid, err := r.dispatch(job, mapreduce.ReducePhase, taskID, attempt, func(fs, lease int64, cl *rpc.Client) error {
		reply = RunReduceReply{}
		temp := fmt.Sprintf("%s/_temporary-part-r-%05d-%d-d%d",
			job.Output, taskID, attempt, atomic.AddInt64(&r.serial, 1))
		return cl.Call("Worker.RunReduce", RunReduceArgs{
			FS: fs, Lease: lease, Spec: spec, TaskID: taskID, Attempt: attempt, Column: column, Temp: temp,
		}, &reply)
	})
	if err != nil {
		return mapreduce.ReduceOutput{}, err
	}
	out := mapreduce.ReduceOutput{Temp: reply.Temp, Counters: reply.Counters, Metrics: reply.Metrics}
	out.Metrics.Worker = workerName(wid)
	return out, nil
}

func workerName(id int) string { return fmt.Sprintf("w%d", id) }

// dispatch drives one attempt body to completion on some worker:
// pick the least-loaded live worker, grant a lease, call, and on
// transport failure revoke the lease (removing partial writes), declare
// the worker dead, and retry elsewhere under deterministic backoff.
func (r *Runner) dispatch(job *mapreduce.Job, phase mapreduce.Phase, taskID, attempt int,
	call func(fs, lease int64, cl *rpc.Client) error) (int, error) {

	fsid := r.coord.fsID(job.FS)
	key := dispatchKey(job.Name, phase, taskID)
	ctx := job.Context()
	var lastErr error
	for try := 1; try <= r.maxDispatch; try++ {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("%w: %v", mapreduce.ErrCanceled, err)
		}
		if d := r.dispatchRetry.Delay(key, try); d > 0 {
			// Wake immediately if the job is canceled mid-backoff; a dead
			// job must not hold its dispatch slot for a full retry delay.
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return 0, fmt.Errorf("%w: %v", mapreduce.ErrCanceled, ctx.Err())
			}
		}
		w := r.coord.pickWorker()
		if w == nil {
			lastErr = ErrNoWorkers
			continue
		}
		cl, err := r.coord.workerClient(w)
		if err != nil {
			r.coord.release(w)
			r.coord.workerFailed(w.id)
			lastErr = err
			continue
		}
		l := r.coord.grantLease(w.id, job.FS)
		r.maybeKill(job.Name, phase, taskID, attempt, w)
		err = call(fsid, l.id, cl)
		r.coord.release(w)
		if err == nil {
			if !r.coord.completeLease(l) {
				// Declared dead while the reply was in flight; the lease's
				// files are gone. Single-winner: this result is void.
				lastErr = fmt.Errorf("worker %d: %w", w.id, ErrLeaseRevoked)
				continue
			}
			return w.id, nil
		}
		r.coord.revokeLease(l)
		if isTaskError(err) {
			return 0, err
		}
		r.coord.workerFailed(w.id)
		lastErr = err
	}
	return 0, fmt.Errorf("distrib: %s task %d attempt %d: dispatch failed after %d tries: %w",
		phase, taskID, attempt, r.maxDispatch, lastErr)
}

// isTaskError distinguishes a failure of the task body itself (an error
// the remote method returned — counts as an attempt failure) from
// transport loss or fencing (retried without consuming attempts).
func isTaskError(err error) bool {
	var se rpc.ServerError
	if !errors.As(err, &se) {
		return false
	}
	return !strings.Contains(string(se), ErrLeaseRevoked.Error())
}

// maybeKill fires the chaos harness for this dispatch if the task's
// identity is chosen by the seed, at most MaxKills times, and never
// when it would leave no live worker.
func (r *Runner) maybeKill(jobName string, phase mapreduce.Phase, taskID, attempt int, w *workerState) {
	k := r.kill
	if k == nil || k.Rate <= 0 || attempt != 1 {
		return
	}
	if atomic.LoadInt64(&r.kills) >= int64(k.MaxKills) || r.coord.liveWorkers() < 2 {
		return
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%d", k.Seed, jobName, phase, taskID)
	if float64(h.Sum64()%(1<<53))/(1<<53) >= k.Rate {
		return
	}
	if atomic.AddInt64(&r.kills, 1) > int64(k.MaxKills) {
		return
	}
	pid := w.pid
	delay := k.Delay
	if delay <= 0 {
		delay = 2 * time.Millisecond
	}
	go func() {
		time.Sleep(delay)
		syscall.Kill(pid, syscall.SIGKILL)
	}()
}
