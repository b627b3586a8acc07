package distrib

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/rpc"
	"strconv"
	"strings"
	"sync"
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
	recomputed    atomic.Int64
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

// StartJob implements mapreduce.TaskRunner.
func (r *Runner) StartJob(job *mapreduce.Job) mapreduce.JobTasks {
	j := &jobRun{r: r, job: job, spec: job.Spec(), side: map[string]uint64{}}
	for _, name := range job.SideFiles {
		if ss, err := job.FS.Splits(name); err == nil && len(ss) > 0 {
			j.side[name] = ss[0].FileID
		}
	}
	return j
}

// jobRun dispatches one job run's attempts and tracks where its map
// outputs live.
type jobRun struct {
	r    *Runner
	job  *mapreduce.Job
	spec mapreduce.JobSpec
	side map[string]uint64

	mu    sync.Mutex
	ended bool
	outs  []*heldOutput // every map attempt that returned, by Ref
}

// heldOutput is one map attempt's segments on their holder.
type heldOutput struct {
	task, attempt int
	split         dfs.Split
	Holder
}

// runMap dispatches one map attempt; its segments stay on the worker.
func (j *jobRun) runMap(taskID, attempt int, split dfs.Split) (*heldOutput, TaskReply, error) {
	var reply TaskReply
	w, lease, err := j.r.dispatch(j.job, mapreduce.MapPhase, taskID, attempt, nil, func(lease int64, cl *client) error {
		reply = TaskReply{}
		return cl.call("Worker.RunMap", TaskArgs{
			Lease: lease, Spec: j.spec, Side: j.side, TaskID: taskID, Attempt: attempt, Split: split,
		}, &reply)
	})
	if err != nil {
		return nil, reply, err
	}
	return &heldOutput{taskID, attempt, split, Holder{w.id, w.addr, lease}}, reply, nil
}

// RunMap implements mapreduce.JobTasks.
func (j *jobRun) RunMap(taskID, attempt int, split dfs.Split) (mapreduce.MapOutput, error) {
	o, reply, err := j.runMap(taskID, attempt, split)
	if err != nil {
		return mapreduce.MapOutput{}, err
	}
	j.mu.Lock()
	j.outs = append(j.outs, o)
	ref, ended := len(j.outs)-1, j.ended
	j.mu.Unlock()
	if ended {
		j.r.free([]*heldOutput{o})
	}
	out := mapreduce.MapOutput{Ref: ref, Counters: reply.Counters, Metrics: reply.Metrics}
	out.Metrics.Worker = workerName(o.Worker)
	return out, nil
}

// RunReduce implements mapreduce.JobTasks. The temporary part name is
// chosen fresh per dispatch try (serial-suffixed), so a re-dispatched
// attempt never races the fenced remains of its predecessor.
func (j *jobRun) RunReduce(taskID, attempt int, refs []int) (mapreduce.ReduceOutput, error) {
	var reply TaskReply
	var maps []Holder
	prepare := func() (err error) {
		maps, err = j.holders(refs)
		return err
	}
	w, _, err := j.r.dispatch(j.job, mapreduce.ReducePhase, taskID, attempt, prepare, func(lease int64, cl *client) error {
		reply = TaskReply{}
		temp := fmt.Sprintf("%s/_temporary-part-r-%05d-%d-d%d",
			j.job.Output, taskID, attempt, atomic.AddInt64(&j.r.serial, 1))
		return cl.call("Worker.RunReduce", TaskArgs{
			Lease: lease, Spec: j.spec, Side: j.side, TaskID: taskID, Attempt: attempt, Maps: maps, Temp: temp,
		}, &reply)
	})
	if err != nil {
		return mapreduce.ReduceOutput{}, err
	}
	out := mapreduce.ReduceOutput{Temp: reply.Temp, Counters: reply.Counters, Metrics: reply.Metrics}
	out.Metrics.Worker = workerName(w.id)
	return out, nil
}

// holders names the holders of the given map outputs, first re-running
// on a live worker each one whose holder died. A rerun takes none of the
// task's RetryPolicy attempts, and its counters are discarded: the first
// commit's are merged already. Reruns are serialized, so reduce
// dispatches that find the same loss wait for one rerun.
func (j *jobRun) holders(refs []int) ([]Holder, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ended {
		return nil, fmt.Errorf("distrib: job %s has ended", j.job.Name)
	}
	maps := make([]Holder, len(refs))
	for i, ref := range refs {
		o := j.outs[ref]
		if j.r.coord.liveWorker(o.Worker) == nil {
			again, _, err := j.runMap(o.task, o.attempt, o.split)
			if err != nil {
				return nil, fmt.Errorf("recomputing map task %d: %w", o.task, err)
			}
			*o = *again
			j.r.recomputed.Add(1)
		}
		maps[i] = o.Holder
	}
	return maps, nil
}

// End implements mapreduce.JobTasks: every map output the job made is
// dropped from its holder.
func (j *jobRun) End() {
	j.mu.Lock()
	outs := j.outs
	j.outs, j.ended = nil, true
	j.mu.Unlock()
	j.r.free(outs)
}

// free drops map outputs from their live holders, one Free per worker.
// A holder that cannot be reached has died with them.
func (r *Runner) free(outs []*heldOutput) {
	byWorker := map[int][]int64{}
	for _, o := range outs {
		byWorker[o.Worker] = append(byWorker[o.Worker], o.Lease)
	}
	for id, leases := range byWorker {
		w := r.coord.liveWorker(id)
		if w == nil {
			continue
		}
		if cl, err := r.coord.workerClient(w); err == nil {
			cl.call("Worker.Free", leases, &Ack{})
		}
	}
}

func workerName(id int) string { return fmt.Sprintf("w%d", id) }

// dispatch drives one attempt body to completion on some worker: run
// prepare (if any), pick the least-loaded live worker, grant a lease,
// call, and on transport failure revoke the lease (removing partial
// writes), declare the worker dead, and retry elsewhere under
// deterministic backoff. A reduce attempt
// that could not fetch from a holder declares the holder dead instead;
// the next try's prepare recomputes what it held. prepare's errors end
// the dispatch as they are.
func (r *Runner) dispatch(job *mapreduce.Job, phase mapreduce.Phase, taskID, attempt int,
	prepare func() error, call func(lease int64, cl *client) error) (*workerState, int64, error) {

	key := dispatchKey(job.Name, phase, taskID)
	ctx := job.Context()
	var lastErr error
	for try := 1; try <= r.maxDispatch; try++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", mapreduce.ErrCanceled, err)
		}
		if d := r.dispatchRetry.Delay(key, try); d > 0 {
			// Wake immediately if the job is canceled mid-backoff; a dead
			// job must not hold its dispatch slot for a full retry delay.
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, 0, fmt.Errorf("%w: %v", mapreduce.ErrCanceled, ctx.Err())
			}
		}
		if prepare != nil {
			if err := prepare(); err != nil {
				return nil, 0, err
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
		err = call(l.id, cl)
		r.coord.release(w)
		if err == nil {
			if !r.coord.completeLease(l) {
				// Declared dead while the reply was in flight; the lease's
				// files are gone. Single-winner: this result is void.
				lastErr = fmt.Errorf("worker %d: %w", w.id, ErrLeaseRevoked)
				continue
			}
			return w, l.id, nil
		}
		r.coord.revokeLease(l)
		lastErr = err
		switch task, holder := classify(err); {
		case holder != 0:
			r.coord.workerFailed(holder)
		case task:
			return nil, 0, err
		default:
			r.coord.workerFailed(w.id)
		}
	}
	return nil, 0, fmt.Errorf("distrib: %s task %d attempt %d: dispatch failed after %d tries: %w",
		phase, taskID, attempt, r.maxDispatch, lastErr)
}

// classify tells a failure of the task body itself (an error the
// remote method returned — counts as an attempt failure) from transport
// loss or fencing (retried without consuming attempts). A reduce
// attempt that could not fetch from a holder names it (worker IDs start
// at 1); that is the holder's loss, also retried.
func classify(err error) (task bool, holder int) {
	var se rpc.ServerError
	if !errors.As(err, &se) {
		return false, 0
	}
	if rest, ok := strings.CutPrefix(string(se), fetchFailed); ok {
		id, _, _ := strings.Cut(rest, ":")
		holder, _ = strconv.Atoi(id)
		return false, holder
	}
	return !strings.Contains(string(se), ErrLeaseRevoked.Error()), 0
}

// maybeKill fires the chaos harness for this dispatch if the task's
// identity is chosen by the seed, at most MaxKills times, and never
// when it would leave no live worker.
func (r *Runner) maybeKill(jobName string, phase mapreduce.Phase, taskID, attempt int, w *workerState) {
	k := r.kill
	if k == nil || k.Rate <= 0 || attempt != 1 {
		return
	}
	if atomic.LoadInt64(&r.kills) >= int64(k.MaxKills) || r.coord.LiveWorkers() < 2 {
		return
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s\x00%s\x00%d", k.Seed, jobName, phase, taskID)
	if float64(h.Sum64()%(1<<53))/(1<<53) >= k.Rate {
		return
	}
	if atomic.AddInt64(&r.kills, 1) > int64(k.MaxKills) {
		atomic.AddInt64(&r.kills, -1) // another dispatch took the last kill
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
