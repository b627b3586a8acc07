// Package cluster models the virtual shared-nothing cluster the
// experiments "run on" — the substitute for the paper's 10-node Hadoop
// deployment.
//
// The MapReduce engine (internal/mapreduce) executes every task for real
// on the host and records each task's measured cost and shuffle volume.
// This package schedules those recorded tasks onto a virtual cluster of N
// nodes with a fixed number of map and reduce slots per node (the paper
// runs 4 map and 4 reduce tasks in parallel per node) and computes the
// job makespan:
//
//	makespan = job overhead                    (job setup/startup)
//	         + side-file broadcast time        (distributed cache fetch)
//	         + LPT(map costs, N×mapSlots)      (map wave)
//	         + LPT(reduce costs + per-reduce shuffle fetch, N×reduceSlots)
//
// LPT is longest-processing-time list scheduling, the behaviour of a slot
// scheduler assigning queued tasks to free slots. The model intentionally
// keeps the effects the paper's evaluation hinges on: single-reducer
// stages don't speed up, per-task and per-job fixed overheads bound
// speedup, broadcast cost stays constant as N grows, and reducer skew
// stretches the reduce wave.
//
// One scheduler (wave) places every attempt and one per-job function
// (job) runs both waves, so Makespan, FlowMakespan and Timeline cannot
// disagree. Failed task attempts are the one failure the model charges:
// each recorded attempt occupies a slot for its cost before the retry
// goes out.
package cluster

import (
	"fmt"
	"sort"
	"time"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/trace"
)

// Spec describes a virtual cluster configuration.
type Spec struct {
	// Nodes is the cluster size.
	Nodes int
	// MapSlotsPerNode and ReduceSlotsPerNode mirror the paper's Hadoop
	// settings (4 and 4).
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// NetBytesPerSec is per-node network bandwidth for shuffle fetches
	// and side-file broadcast.
	NetBytesPerSec float64
	// JobOverhead is the fixed per-job cost (job submission, scheduling —
	// the Hadoop job-startup analogue), scaled to the scaled-down
	// datasets.
	JobOverhead time.Duration
	// TaskOverhead is the fixed per-task cost (task launch).
	TaskOverhead time.Duration
}

// Default returns the specification used by all experiments: the paper's
// slot configuration with overhead and bandwidth constants scaled to the
// ~100×-smaller datasets (the paper's job startup is tens of seconds
// against minutes of work; the same ratio holds here).
func Default(nodes int) Spec {
	return Spec{
		Nodes:              nodes,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 4,
		NetBytesPerSec:     32 << 20, // 32 MB/s effective per node
		// Hadoop's fixed costs (job submission ~10 s, task launch ~1 s)
		// scaled so their share of a stage matches the paper's runs on
		// the ~1000×-smaller workloads.
		JobOverhead:  20 * time.Millisecond,
		TaskOverhead: 2 * time.Millisecond,
	}
}

// normalized is the spec every entry point schedules on: at least one
// node, and unset slot counts mean one slot per node.
func (s Spec) normalized() Spec {
	s.Nodes = max(s.Nodes, 1)
	s.MapSlotsPerNode = max(s.MapSlotsPerNode, 1)
	s.ReduceSlotsPerNode = max(s.ReduceSlotsPerNode, 1)
	return s
}

// JobCost is the schedulable summary of one executed job.
type JobCost struct {
	// Name labels the job.
	Name string
	// MapCosts and ReduceCosts are the measured per-task execution times
	// of each task's committed attempt.
	MapCosts    []time.Duration
	ReduceCosts []time.Duration
	// MapAttempts and ReduceAttempts, when set, carry each task's full
	// attempt-cost chain (failed attempts first, committed attempt
	// last). The scheduler charges a failed attempt's slot occupancy
	// before rescheduling the retry, so makespans reflect re-execution.
	// A nil entry (or nil slice) means the task ran once at its
	// MapCosts/ReduceCosts value.
	MapAttempts    [][]time.Duration
	ReduceAttempts [][]time.Duration
	// MapLocations lists, per map task, the nodes holding its input
	// split; a non-local assignment pays a remote read of MapInputBytes.
	// Empty slices disable the locality model for that task.
	MapLocations  [][]int
	MapInputBytes []int64
	// ShufflePerReduce is the bytes each reduce task fetches.
	ShufflePerReduce []int64
	// SideBytes is the total broadcast (distributed-cache) volume each
	// node must fetch once.
	SideBytes int64
}

// FromMetrics summarizes engine metrics into a schedulable JobCost.
func FromMetrics(m *mapreduce.Metrics) JobCost {
	jc := JobCost{
		Name:             m.Job,
		MapCosts:         make([]time.Duration, len(m.MapTasks)),
		ReduceCosts:      make([]time.Duration, len(m.ReduceTasks)),
		MapLocations:     make([][]int, len(m.MapTasks)),
		MapInputBytes:    make([]int64, len(m.MapTasks)),
		ShufflePerReduce: m.ShufflePerReduce(),
		SideBytes:        m.SideBytes,
	}
	for i, t := range m.MapTasks {
		jc.MapCosts[i] = t.Cost
		jc.MapLocations[i] = t.Locations
		jc.MapInputBytes[i] = t.InputBytes
		if t.Attempts > 1 {
			if jc.MapAttempts == nil {
				jc.MapAttempts = make([][]time.Duration, len(m.MapTasks))
			}
			jc.MapAttempts[i] = append([]time.Duration(nil), t.AttemptCosts...)
		}
	}
	for i, t := range m.ReduceTasks {
		jc.ReduceCosts[i] = t.Cost
		if t.Attempts > 1 {
			if jc.ReduceAttempts == nil {
				jc.ReduceAttempts = make([][]time.Duration, len(m.ReduceTasks))
			}
			jc.ReduceAttempts[i] = append([]time.Duration(nil), t.AttemptCosts...)
		}
	}
	return jc
}

// chain returns task i's attempt costs, each plus extra: the recorded
// chain when present, else the single committed cost.
func chain(attempts [][]time.Duration, i int, cost, extra time.Duration) []time.Duration {
	if i >= len(attempts) || len(attempts[i]) == 0 {
		return []time.Duration{cost + extra}
	}
	out := make([]time.Duration, len(attempts[i]))
	for k, a := range attempts[i] {
		out[k] = a + extra
	}
	return out
}

// transfer is the time one node takes to fetch the given bytes; the
// network is free when the spec sets no bandwidth.
func (s Spec) transfer(bytes int64) time.Duration {
	if bytes <= 0 || s.NetBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / s.NetBytesPerSec * float64(time.Second))
}

// broadcastTime is the side-file broadcast cost: every node fetches the
// side files in parallel; the wall time is one node's fetch — constant
// in N, linear in the side data.
func (s Spec) broadcastTime(jc JobCost) time.Duration { return s.transfer(jc.SideBytes) }

// reduceFetch is reduce task i's shuffle-fetch time.
func (s Spec) reduceFetch(jc JobCost, i int) time.Duration {
	if i >= len(jc.ShufflePerReduce) {
		return 0
	}
	return s.transfer(jc.ShufflePerReduce[i])
}

// task is one schedulable task of a wave.
type task struct {
	attempts []time.Duration // attempt costs, overheads included; all but the last fail
	locs     []int           // input replica holders (empty = unconstrained)
	penalty  time.Duration   // remote-read cost when run off-replica
}

// placement, when non-nil, is told where and when each attempt ran:
// the phase (trace.PhaseMap or trace.PhaseReduce), the task, its
// 1-based attempt number, the node, and the attempt's absolute interval.
// Recording does not perturb the schedule.
type placement func(phase string, task, attempt, node int, start, end time.Duration)

// wave is the cluster's scheduler: it places one wave of tasks (a job's
// map or reduce tasks) onto Nodes × slots-per-node slots from start and
// returns the wave's absolute completion time.
//
//   - First attempts go out longest first (LPT by first-attempt cost),
//     each to the slot that can start it earliest. A task with input
//     locations runs on a replica holder unless waiting for one costs
//     more than the remote read; off-replica it pays the read.
//   - A recorded failed attempt occupies its slot for its cost, and the
//     next attempt is dispatched when it fails, onto whichever slot can
//     start it earliest then. Retries go out in the order they became
//     ready, ties by task index.
func (s Spec) wave(phase string, tasks []task, start time.Duration, rec placement) time.Duration {
	if len(tasks) == 0 {
		return start
	}
	slotsPerNode := s.MapSlotsPerNode
	if phase == trace.PhaseReduce {
		slotsPerNode = s.ReduceSlotsPerNode
	}
	slots := s.Nodes * slotsPerNode
	free := make([]time.Duration, slots)
	for i := range free {
		free[i] = start
	}
	nodeOf := func(sl int) int { return sl / slotsPerNode }
	onReplica := func(locs []int, node int) bool {
		for _, n := range locs {
			if n%s.Nodes == node {
				return true
			}
		}
		return false
	}

	type retry struct {
		id, next int           // the task and the index of its next attempt
		ready    time.Duration // it cannot start earlier
	}
	var retries []retry

	// place runs attempt next of task id no earlier than ready.
	place := func(id, next int, ready time.Duration) {
		t := tasks[id]
		startOn := func(sl int) time.Duration { return max(free[sl], ready) }
		bestAny, bestLocal := 0, -1
		for sl := 0; sl < slots; sl++ {
			st := startOn(sl)
			if st < startOn(bestAny) {
				bestAny = sl
			}
			if onReplica(t.locs, nodeOf(sl)) && (bestLocal < 0 || st < startOn(bestLocal)) {
				bestLocal = sl
			}
		}
		sl, cost := bestAny, t.attempts[next]
		if len(t.locs) > 0 {
			if bestLocal >= 0 && startOn(bestLocal) <= startOn(bestAny)+t.penalty {
				sl = bestLocal
			} else {
				cost += t.penalty
			}
		}
		st := startOn(sl)
		free[sl] = st + cost
		if rec != nil {
			rec(phase, id, next+1, nodeOf(sl), st, free[sl])
		}
		if next+1 < len(t.attempts) {
			// A recorded failure: the next attempt goes out when it fails.
			retries = append(retries, retry{id: id, next: next + 1, ready: free[sl]})
		}
	}

	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return tasks[order[i]].attempts[0] > tasks[order[j]].attempts[0] })
	for _, id := range order {
		place(id, 0, start)
	}
	for len(retries) > 0 {
		sort.SliceStable(retries, func(i, j int) bool {
			if retries[i].ready != retries[j].ready {
				return retries[i].ready < retries[j].ready
			}
			return retries[i].id < retries[j].id
		})
		r := retries[0]
		retries = retries[1:]
		place(r.id, r.next, r.ready)
	}
	end := start
	for _, f := range free {
		end = max(end, f)
	}
	return end
}

// job runs one job from startAt and returns its absolute completion
// time: job overhead and side-file broadcast, the map wave, then the
// reduce wave. rec sees every attempt of both waves.
func (s Spec) job(jc JobCost, startAt time.Duration, rec placement) time.Duration {
	mapTasks := make([]task, len(jc.MapCosts))
	for i, c := range jc.MapCosts {
		t := task{attempts: chain(jc.MapAttempts, i, c, s.TaskOverhead)}
		if i < len(jc.MapLocations) && len(jc.MapLocations[i]) > 0 {
			t.locs = jc.MapLocations[i]
			if i < len(jc.MapInputBytes) {
				t.penalty = s.transfer(jc.MapInputBytes[i])
			}
		}
		mapTasks[i] = t
	}
	mapEnd := s.wave(trace.PhaseMap, mapTasks, startAt+s.JobOverhead+s.broadcastTime(jc), rec)

	reduceTasks := make([]task, len(jc.ReduceCosts))
	for i, c := range jc.ReduceCosts {
		// Every attempt — failed ones included — pays the shuffle fetch
		// and task launch again, as a re-executed reducer does on Hadoop.
		reduceTasks[i] = task{attempts: chain(jc.ReduceAttempts, i, c, s.reduceFetch(jc, i)+s.TaskOverhead)}
	}
	return s.wave(trace.PhaseReduce, reduceTasks, mapEnd, rec)
}

// Makespan computes the simulated wall-clock time of one job on the
// cluster.
func (s Spec) Makespan(jc JobCost) time.Duration {
	return s.FlowMakespan([]JobCost{jc})
}

// FlowMakespan is the simulated time of a sequence of dependent jobs run
// one after another — the sum of their Makespans.
func (s Spec) FlowMakespan(jobs []JobCost) time.Duration {
	s = s.normalized()
	var at time.Duration
	for _, jc := range jobs {
		at = s.job(jc, at, nil)
	}
	return at
}

// String renders the spec compactly for experiment logs.
func (s Spec) String() string {
	return fmt.Sprintf("%d nodes × (%dM+%dR slots)", s.Nodes, s.MapSlotsPerNode, s.ReduceSlotsPerNode)
}
