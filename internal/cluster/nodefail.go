package cluster

import (
	"math"
	"time"

	"fuzzyjoin/internal/trace"
)

// This file extends the cluster model with node-level failures, the
// dimension the paper's Hadoop deployment gets for free and a
// single-host simulation must model explicitly: a node that dies at
// simulated time t takes down (a) the task attempts running on it,
// (b) the input-block replicas it holds, and (c) the map outputs stored
// on its local disk. The simulator reproduces Hadoop's responses —
// failure detection after a heartbeat timeout, re-execution of killed
// attempts, recomputation of completed maps whose outputs became
// unfetchable, replica reads for surviving input blocks — plus
// speculative execution, which launches a backup attempt for a task
// whose progress lags the wave and commits whichever attempt finishes
// first.
//
// Model simplifications (each keeps the first-order effect the paper's
// fault-tolerance argument needs and drops second-order contention):
//
//   - The scheduler is failure-blind: placement never anticipates a
//     future death, and learns of one only DetectTimeout after it.
//   - Reducers fetch all map output at attempt start; a failure only
//     stalls reducers that have not started yet.
//   - Recomputation of lost map outputs runs on the surviving map
//     slots as a separate LPT wave, ignoring overlap with still-running
//     map tasks.
//   - A full-job restart reloads the input onto surviving nodes, so
//     restarted map tasks run unconstrained (data-local after reload).

// forever stands in for "never happens" in failure-time arithmetic.
const forever = time.Duration(math.MaxInt64)

// NodeFailureEvent kills one node at an absolute simulated time. At <=
// the job (or flow) start means the node is dead from the beginning.
type NodeFailureEvent struct {
	Node int
	At   time.Duration
}

// FailureModel configures a failure-aware simulation.
type FailureModel struct {
	// Failures lists node deaths, in absolute simulated time.
	Failures []NodeFailureEvent
	// Replication caps how many of each map task's recorded input
	// replica locations the simulation uses — "what if this data had
	// been stored with replication r". 0 uses all recorded locations.
	Replication int
	// Speculative enables backup attempts for lagging tasks.
	Speculative bool
	// SpeculativeSlack is the lag threshold: a backup launches once an
	// attempt has run Slack × the median task cost without finishing.
	// Values <= 0 mean 1.5.
	SpeculativeSlack float64
	// DetectTimeout is how long after a node dies the scheduler notices
	// (Hadoop's heartbeat timeout, scaled down with the workloads).
	// Values <= 0 mean 50ms — deliberately large against task costs, so
	// speculation has a stall to beat.
	DetectTimeout time.Duration
}

func (fm FailureModel) slack() float64 {
	if fm.SpeculativeSlack > 0 {
		return fm.SpeculativeSlack
	}
	return 1.5
}

func (fm FailureModel) detect() time.Duration {
	if fm.DetectTimeout > 0 {
		return fm.DetectTimeout
	}
	return 50 * time.Millisecond
}

// SimResult reports a failure-aware simulation.
type SimResult struct {
	// Makespan is the simulated completion time (absolute: a flow's
	// later jobs include everything before them).
	Makespan time.Duration
	// Restarts counts full-job restarts forced by unrecoverable input
	// loss (a dead node held the only replica of a needed block).
	Restarts int
	// RecomputedMaps counts completed map tasks re-executed because the
	// node holding their output died.
	RecomputedMaps int
	// KilledAttempts counts attempts cut down mid-run by a node death.
	KilledAttempts int
	// SpeculativeLaunched and SpeculativeWins count backup attempts and
	// how many of them committed (their original never finished).
	SpeculativeLaunched int
	SpeculativeWins     int
	// WastedWork is slot time consumed by killed attempts and by backup
	// attempts that lost the race.
	WastedWork time.Duration
	// MaxCommits is the largest number of commits any single task saw;
	// 1 proves the single-winner invariant under speculation.
	MaxCommits int
}

func (r *SimResult) absorb(w waveOut) {
	r.KilledAttempts += w.killed
	r.SpeculativeLaunched += w.spLaunched
	r.SpeculativeWins += w.spWins
	r.WastedWork += w.wasted
	for _, c := range w.commits {
		if c > r.MaxCommits {
			r.MaxCommits = c
		}
	}
}

// addStats folds another result's work statistics (not its makespan)
// into this one.
func (r *SimResult) addStats(o SimResult) {
	r.Restarts += o.Restarts
	r.RecomputedMaps += o.RecomputedMaps
	r.KilledAttempts += o.KilledAttempts
	r.SpeculativeLaunched += o.SpeculativeLaunched
	r.SpeculativeWins += o.SpeculativeWins
	r.WastedWork += o.WastedWork
	if o.MaxCommits > r.MaxCommits {
		r.MaxCommits = o.MaxCommits
	}
}

// deadTimes returns each node's absolute death time (forever = stays
// alive); events at or before `from` pin the node dead for the whole
// window.
func (s Spec) deadTimes(fm FailureModel, from time.Duration) []time.Duration {
	dead := make([]time.Duration, s.Nodes)
	for i := range dead {
		dead[i] = forever
	}
	for _, f := range fm.Failures {
		n := ((f.Node % s.Nodes) + s.Nodes) % s.Nodes
		at := f.At
		if at < from {
			at = from
		}
		if at < dead[n] {
			dead[n] = at
		}
	}
	return dead
}

// replicaAlive reports whether some node in locs is still alive at `at`.
func (s Spec) replicaAlive(locs []int, dead []time.Duration, at time.Duration) bool {
	for _, n := range locs {
		if dead[n%s.Nodes] > at {
			return true
		}
	}
	return false
}

// simulateFrom runs one job from startAt under the failure model: job
// overhead and side-file broadcast, the map wave, the recomputation of
// map outputs lost with their node, then the reduce wave. rec sees every
// attempt of both waves.
func (s Spec) simulateFrom(jc JobCost, fm FailureModel, startAt time.Duration, depth int, rec placement) SimResult {
	var res SimResult
	dead := s.deadTimes(fm, startAt)
	liveAny := false
	for _, d := range dead {
		if d > startAt {
			liveAny = true
		}
	}
	if !liveAny || depth > 8 {
		// The cluster is gone (or restarts cascaded past any plausible
		// recovery): the job never finishes.
		res.Makespan = forever
		return res
	}

	mapTasks := make([]task, len(jc.MapCosts))
	for i, c := range jc.MapCosts {
		t := task{attempts: chain(jc.MapAttempts, i, c, s.TaskOverhead)}
		if i < len(jc.MapLocations) && len(jc.MapLocations[i]) > 0 {
			t.locs = jc.MapLocations[i]
			if fm.Replication > 0 && len(t.locs) > fm.Replication {
				// "What if this data had been stored with replication r":
				// keep only the first r recorded replica holders.
				t.locs = t.locs[:fm.Replication]
			}
			if i < len(jc.MapInputBytes) {
				t.penalty = s.transfer(jc.MapInputBytes[i])
			}
		}
		mapTasks[i] = t
	}
	t0 := startAt + s.JobOverhead + s.broadcastTime(jc)
	mw := s.wave(trace.PhaseMap, mapTasks, t0, dead, nil, fm, rec)
	res.absorb(mw)
	if mw.lost {
		return s.restart(jc, fm, mw.lostAt, depth, res, rec)
	}

	// A node dying after map tasks committed on it loses their outputs:
	// they are recomputed on the surviving map slots (needing a live
	// input replica — at replication 1 this is the full-restart case),
	// and reducers that have not started yet wait out the recomputation.
	var barriers []barrier
	for n := 0; n < s.Nodes; n++ {
		failAt := dead[n]
		if failAt == forever {
			continue
		}
		var lost []task
		for i, cn := range mw.commitNode {
			if cn != n {
				continue
			}
			if len(mapTasks[i].locs) > 0 && !s.replicaAlive(mapTasks[i].locs, dead, failAt) {
				return s.restart(jc, fm, failAt+fm.detect(), depth, res, rec)
			}
			committed := mapTasks[i].attempts[len(mapTasks[i].attempts)-1:]
			lost = append(lost, task{attempts: committed})
		}
		if len(lost) == 0 {
			continue
		}
		res.RecomputedMaps += len(lost)
		survivors := Spec{MapSlotsPerNode: s.MapSlotsPerNode}
		for m := 0; m < s.Nodes; m++ {
			if dead[m] > failAt {
				survivors.Nodes++
			}
		}
		survivors = survivors.normalized()
		span := survivors.wave(trace.PhaseMap, lost, 0, survivors.deadTimes(FailureModel{}, 0), nil, FailureModel{}, nil).end
		barriers = append(barriers, barrier{from: failAt, until: failAt + fm.detect() + span})
	}

	reduceTasks := make([]task, len(jc.ReduceCosts))
	for i, c := range jc.ReduceCosts {
		// Every attempt — failed ones included — pays the shuffle fetch
		// and task launch again, as a re-executed reducer does on Hadoop.
		reduceTasks[i] = task{attempts: chain(jc.ReduceAttempts, i, c, s.reduceFetch(jc, i)+s.TaskOverhead)}
	}
	rw := s.wave(trace.PhaseReduce, reduceTasks, mw.end, dead, barriers, fm, rec)
	res.absorb(rw)
	if rw.lost {
		return s.restart(jc, fm, rw.lostAt, depth, res, rec)
	}
	res.Makespan = rw.end
	return res
}

// restart models an unrecoverable input loss: the whole job starts over
// at `at` with the input reloaded onto the surviving nodes — fresh
// local placement, so restarted map tasks run unconstrained. Work done
// before the restart is reflected in the late start time; its attempt
// statistics carry over.
func (s Spec) restart(jc JobCost, fm FailureModel, at time.Duration, depth int, sofar SimResult, rec placement) SimResult {
	reloaded := jc
	reloaded.MapLocations = nil
	res := s.simulateFrom(reloaded, fm, at, depth+1, rec)
	res.Restarts++
	res.addStats(sofar)
	return res
}

// SimulateFlow runs dependent jobs back-to-back under one absolute
// failure timeline: a node dead during one job stays dead for all
// following jobs.
func (s Spec) SimulateFlow(jobs []JobCost, fm FailureModel) SimResult {
	s = s.normalized()
	var total SimResult
	at := time.Duration(0)
	for _, jc := range jobs {
		r := s.simulateFrom(jc, fm, at, 0, nil)
		total.addStats(r)
		at = r.Makespan
		if at == forever {
			break
		}
	}
	total.Makespan = at
	return total
}
