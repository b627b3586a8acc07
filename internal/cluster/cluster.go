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
// One scheduler (wave) places every attempt. Makespan and FlowMakespan
// are SimulateFlow without failures, and Timeline records where that
// failure-free run placed each attempt, so the three cannot disagree.
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
	// ReduceBackups, when non-nil, records per reduce task the cost of a
	// speculative backup attempt that lost the race (0 = no backup ran).
	// Backups occupy a slot concurrently with the original, so they do
	// not extend the reduce wave; the timeline renders them as wasted
	// work.
	ReduceBackups []time.Duration
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
		if t.BackupCost > 0 {
			if jc.ReduceBackups == nil {
				jc.ReduceBackups = make([]time.Duration, len(m.ReduceTasks))
			}
			jc.ReduceBackups[i] = t.BackupCost
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

// barrier blocks attempts from starting inside [from, until) — the
// window in which lost map outputs are being recomputed.
type barrier struct{ from, until time.Duration }

// placement, when non-nil, is told where and when each attempt ran:
// the phase (trace.PhaseMap or trace.PhaseReduce), the task, its
// 1-based attempt number, the node, and the attempt's absolute interval.
// Recording does not perturb the schedule.
type placement func(phase string, task, attempt, node int, start, end time.Duration)

// waveOut is one wave's outcome.
type waveOut struct {
	end        time.Duration // absolute completion time of the wave
	commitNode []int         // per task, the node it committed on (-1 if none)
	commits    []int         // per task, times committed (0 if lost)
	killed     int
	spLaunched int
	spWins     int
	wasted     time.Duration
	lost       bool          // some task's input had no live replica
	lostAt     time.Duration // when that was detected
}

// wave is the cluster's scheduler: it places one wave of tasks (a job's
// map or reduce tasks) onto Nodes × slots-per-node slots from start, the
// way a failure-blind slot scheduler does.
//
//   - First attempts go out longest first (LPT by first-attempt cost),
//     each to the slot that can start it earliest. A task with input
//     locations runs on a replica holder unless waiting for one costs
//     more than the remote read; off-replica it pays the read.
//   - A recorded failed attempt occupies its slot for its cost, and the
//     next attempt is dispatched when it fails, onto whichever slot can
//     start it earliest then. Retries go out in the order they became
//     ready, ties by task index.
//   - No attempt starts on a dead node (dead[n] is node n's death time)
//     or inside a recompute barrier. An attempt running when its node
//     dies is killed and re-run once the death is detected, or earlier
//     by a speculative backup; a task whose input has no live replica
//     loses the wave.
//
// With no deaths and no barriers this is LPT over attempt chains.
func (s Spec) wave(phase string, tasks []task, start time.Duration, dead []time.Duration,
	barriers []barrier, fm FailureModel, rec placement) waveOut {

	out := waveOut{
		end:        start,
		commitNode: make([]int, len(tasks)),
		commits:    make([]int, len(tasks)),
	}
	for i := range out.commitNode {
		out.commitNode[i] = -1
	}
	if len(tasks) == 0 {
		return out
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

	// A backup launches once an attempt has run slack × the median
	// committed task cost without finishing.
	committed := make([]time.Duration, len(tasks))
	for i, t := range tasks {
		committed[i] = t.attempts[len(t.attempts)-1]
	}
	sort.Slice(committed, func(i, j int) bool { return committed[i] < committed[j] })
	slackLag := time.Duration(fm.slack() * float64(committed[len(committed)/2]))

	afterBarriers := func(t time.Duration) time.Duration {
		for _, b := range barriers {
			if t >= b.from && t < b.until {
				t = b.until
			}
		}
		return t
	}

	type retry struct {
		id, next int           // the task and the index of its next attempt
		ready    time.Duration // it cannot start earlier
	}
	var retries []retry
	placed := make([]int, len(tasks)) // attempts placed so far, per task

	// place runs attempt next of task id no earlier than ready; false
	// means the task's input is lost.
	place := func(id, next int, ready time.Duration) bool {
		t := tasks[id]
		startOn := func(sl int) time.Duration { return afterBarriers(max(free[sl], ready)) }
		bestAny, bestLocal := -1, -1
		for sl := 0; sl < slots; sl++ {
			st := startOn(sl)
			if st >= dead[nodeOf(sl)] {
				continue
			}
			if bestAny < 0 || st < startOn(bestAny) {
				bestAny = sl
			}
			if onReplica(t.locs, nodeOf(sl)) && (bestLocal < 0 || st < startOn(bestLocal)) {
				bestLocal = sl
			}
		}
		if bestAny < 0 {
			// Every node is dead: nothing can ever run.
			out.lost, out.lostAt = true, ready
			return false
		}
		sl, cost := bestAny, t.attempts[next]
		if len(t.locs) > 0 {
			if bestLocal >= 0 && startOn(bestLocal) <= startOn(bestAny)+t.penalty {
				sl = bestLocal
			} else if !s.replicaAlive(t.locs, dead, startOn(sl)) {
				// Off-replica, and no replica is left to read from.
				out.lost, out.lostAt = true, startOn(sl)+fm.detect()
				return false
			} else {
				cost += t.penalty
			}
		}
		st := startOn(sl)
		end := st + cost
		node := nodeOf(sl)
		killed := dead[node] < end
		if killed {
			end = dead[node]
		}
		placed[id]++
		if rec != nil {
			rec(phase, id, placed[id], node, st, end)
		}
		free[sl] = end
		switch {
		case killed:
			// The node died mid-attempt. The stall is visible from the
			// death on: the heartbeat timeout notices after DetectTimeout,
			// the speculation lag detector after slackLag, and whichever
			// fires first launches the re-run. When speculation wins, the
			// re-run IS the backup, and it commits.
			out.killed++
			out.wasted += end - st
			ready := end + fm.detect()
			if specAt := end + slackLag; fm.Speculative && specAt < ready {
				ready = specAt
				out.spLaunched++
				out.spWins++
			}
			retries = append(retries, retry{id: id, next: next, ready: ready})
		case next+1 < len(t.attempts):
			// A recorded failure: the next attempt goes out when it fails.
			retries = append(retries, retry{id: id, next: next + 1, ready: end})
		default:
			out.commits[id]++
			out.commitNode[id] = node
			if fm.Speculative && t.attempts[next] > slackLag {
				// A backup launched for this laggard at st+slackLag and was
				// killed when the original committed first: pure waste.
				out.spLaunched++
				out.wasted += end - (st + slackLag)
			}
		}
		return true
	}

	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return tasks[order[i]].attempts[0] > tasks[order[j]].attempts[0] })
	for _, id := range order {
		if !place(id, 0, start) {
			return out
		}
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
		if !place(r.id, r.next, r.ready) {
			return out
		}
	}
	for _, f := range free {
		out.end = max(out.end, f)
	}
	return out
}

// Makespan computes the simulated wall-clock time of one job on the
// cluster: SimulateFlow's makespan with no failures.
func (s Spec) Makespan(jc JobCost) time.Duration {
	return s.FlowMakespan([]JobCost{jc})
}

// FlowMakespan is the simulated time of a sequence of dependent jobs run
// one after another with no failures — the sum of their Makespans.
func (s Spec) FlowMakespan(jobs []JobCost) time.Duration {
	return s.SimulateFlow(jobs, FailureModel{}).Makespan
}

// String renders the spec compactly for experiment logs.
func (s Spec) String() string {
	return fmt.Sprintf("%d nodes × (%dM+%dR slots)", s.Nodes, s.MapSlotsPerNode, s.ReduceSlotsPerNode)
}
