package cluster

import (
	"testing"
	"time"

	"fuzzyjoin/internal/trace"
)

// simJob builds a synthetic job: nMaps map tasks of mapCost each, input
// replicas placed round-robin with the given replication, and nReduces
// reduce tasks of reduceCost each.
func simJob(nodes, nMaps, nReduces, replication int, mapCost, reduceCost time.Duration) JobCost {
	jc := JobCost{
		Name:          "sim",
		MapCosts:      make([]time.Duration, nMaps),
		ReduceCosts:   make([]time.Duration, nReduces),
		MapLocations:  make([][]int, nMaps),
		MapInputBytes: make([]int64, nMaps),
	}
	for i := 0; i < nMaps; i++ {
		jc.MapCosts[i] = mapCost
		for r := 0; r < replication; r++ {
			jc.MapLocations[i] = append(jc.MapLocations[i], (i+r)%nodes)
		}
		jc.MapInputBytes[i] = 1 << 16
	}
	for i := 0; i < nReduces; i++ {
		jc.ReduceCosts[i] = reduceCost
	}
	return jc
}

// entryPoints is the failure-free simulated time of a flow through every
// entry point: the sum of its jobs' Makespans, FlowMakespan,
// SimulateFlow without failures, and the latest span end of its Timeline
// (speculative backups aside, which run beside the wave).
func entryPoints(s Spec, jobs []JobCost) map[string]time.Duration {
	var sum, end time.Duration
	for _, jc := range jobs {
		sum += s.Makespan(jc)
	}
	for _, e := range s.Timeline(jobs, nil) {
		if e.Kind != trace.KindBackup {
			end = max(end, time.Duration(e.End))
		}
	}
	return map[string]time.Duration{
		"Makespan":     sum,
		"FlowMakespan": s.FlowMakespan(jobs),
		"SimulateFlow": s.SimulateFlow(jobs, FailureModel{}).Makespan,
		"Timeline":     end,
	}
}

func checkEntryPoints(t *testing.T, name string, s Spec, jobs []JobCost, want time.Duration) {
	t.Helper()
	for entry, got := range entryPoints(s, jobs) {
		if got != want {
			t.Errorf("%s: %s = %v, want %v", name, entry, got, want)
		}
	}
}

// TestSimulateNoFailuresMatchesMakespan: without failures every entry
// point runs the same schedule — on every golden input, attempt chains
// included, and on specs with unset slot counts.
func TestSimulateNoFailuresMatchesMakespan(t *testing.T) {
	spec := Default(4)
	jc := simJob(4, 16, 8, 2, 10*time.Millisecond, 8*time.Millisecond)
	jc.ShufflePerReduce = make([]int64, 8)
	for i := range jc.ShufflePerReduce {
		jc.ShufflePerReduce[i] = 1 << 18
	}
	checkEntryPoints(t, "simJob", spec, []JobCost{jc}, spec.Makespan(jc))

	specs := goldenSpecs()
	specs["unset-slots"] = Spec{Nodes: 4, MapSlotsPerNode: 1}
	specs["bare"] = Spec{Nodes: 3}
	for fname, jobs := range goldenFlows(readSimGolden(t).RecordedFlow) {
		for sname, s := range specs {
			checkEntryPoints(t, fname+"/"+sname, s, jobs, s.FlowMakespan(jobs))
		}
	}
}

// TestFailureFreeSimulationChargesAttemptChains: a map task whose first
// attempt failed after 30 ms and whose retry took 10 ms costs both
// attempts through every entry point: 20 ms job overhead, then 32 ms and
// 12 ms of map attempts (with task overhead), then a 7 ms reducer.
func TestFailureFreeSimulationChargesAttemptChains(t *testing.T) {
	ms := time.Millisecond
	jobs := []JobCost{{
		Name:        "retried",
		MapCosts:    []time.Duration{10 * ms},
		MapAttempts: [][]time.Duration{{30 * ms, 10 * ms}},
		ReduceCosts: []time.Duration{5 * ms},
	}}
	checkEntryPoints(t, "retried map", Default(2), jobs, 71*ms)
}

// TestUnsetSlotsMeanOnePerNode: a spec that leaves ReduceSlotsPerNode
// unset runs one reducer per node in every entry point, so four 10 ns
// reducers on four nodes take one 10 ns wave after the 10 ns map.
func TestUnsetSlotsMeanOnePerNode(t *testing.T) {
	jobs := []JobCost{{
		Name:        "unset",
		MapCosts:    []time.Duration{10},
		ReduceCosts: []time.Duration{10, 10, 10, 10},
	}}
	checkEntryPoints(t, "unset reduce slots", Spec{Nodes: 4, MapSlotsPerNode: 1}, jobs, 20)
}

func TestSimulateReplicationTwoDegradesGracefully(t *testing.T) {
	spec := Default(4)
	jc := simJob(4, 16, 8, 2, 10*time.Millisecond, 8*time.Millisecond)
	base := spec.SimulateFlow([]JobCost{jc}, FailureModel{}).Makespan

	// Node 0 dies mid-map-wave (after the job overhead, before the maps
	// finish). With replication 2 every input block has a surviving
	// replica: killed attempts retry, committed outputs on node 0 are
	// recomputed, and the job finishes without a restart.
	fm := FailureModel{
		Failures:    []NodeFailureEvent{{Node: 0, At: spec.JobOverhead + 6*time.Millisecond}},
		Replication: 2,
	}
	r := spec.SimulateFlow([]JobCost{jc}, fm)
	if r.Restarts != 0 {
		t.Fatalf("replication 2 restarted the job: %+v", r)
	}
	if r.KilledAttempts == 0 && r.RecomputedMaps == 0 {
		t.Fatalf("mid-wave node death had no effect: %+v", r)
	}
	if r.Makespan <= base {
		t.Fatalf("makespan with node death %v not above fault-free %v", r.Makespan, base)
	}
	if r.MaxCommits != 1 {
		t.Fatalf("MaxCommits = %d, want 1", r.MaxCommits)
	}
}

func TestSimulateReplicationOneForcesRestart(t *testing.T) {
	spec := Default(4)
	jc := simJob(4, 16, 8, 2, 10*time.Millisecond, 8*time.Millisecond)

	fm := FailureModel{
		Failures:    []NodeFailureEvent{{Node: 0, At: spec.JobOverhead + 6*time.Millisecond}},
		Replication: 1, // node 0 held the only replica of some inputs
	}
	r := spec.SimulateFlow([]JobCost{jc}, fm)
	if r.Restarts == 0 {
		t.Fatalf("replication 1 should force a restart: %+v", r)
	}
	if r.Makespan == forever {
		t.Fatalf("restarted job never finished")
	}
	// The restart re-runs the whole job after the failure, so it must
	// cost more than the graceful replication-2 recovery.
	r2 := spec.SimulateFlow([]JobCost{jc}, FailureModel{Failures: fm.Failures, Replication: 2})
	if r.Makespan <= r2.Makespan {
		t.Fatalf("restart (%v) not slower than graceful recovery (%v)", r.Makespan, r2.Makespan)
	}
}

func TestSimulateSpeculationBeatsDetectionTimeout(t *testing.T) {
	spec := Default(4)
	jc := simJob(4, 16, 8, 2, 10*time.Millisecond, 8*time.Millisecond)
	failures := []NodeFailureEvent{{Node: 0, At: spec.JobOverhead + 6*time.Millisecond}}

	// The heartbeat timeout dwarfs task costs (Hadoop's 10-minute
	// default vs seconds-long tasks); speculation's lag detector fires
	// at 1.5× the median task cost instead.
	slow := spec.SimulateFlow([]JobCost{jc}, FailureModel{
		Failures: failures, Replication: 2, DetectTimeout: 200 * time.Millisecond,
	})
	fast := spec.SimulateFlow([]JobCost{jc}, FailureModel{
		Failures: failures, Replication: 2, DetectTimeout: 200 * time.Millisecond,
		Speculative: true,
	})
	if fast.SpeculativeLaunched == 0 || fast.SpeculativeWins == 0 {
		t.Fatalf("speculation never launched a backup: %+v", fast)
	}
	if fast.Makespan >= slow.Makespan {
		t.Fatalf("speculation (%v) did not beat detection stall (%v)", fast.Makespan, slow.Makespan)
	}
	if fast.MaxCommits != 1 {
		t.Fatalf("speculation committed %d times for one task", fast.MaxCommits)
	}
	if fast.WastedWork == 0 {
		t.Fatal("killed attempts reported no wasted work")
	}
}

func TestSimulateNodeDeadFromStart(t *testing.T) {
	spec := Default(4)
	jc := simJob(4, 16, 8, 2, 10*time.Millisecond, 8*time.Millisecond)
	r := spec.SimulateFlow([]JobCost{jc}, FailureModel{
		Failures:    []NodeFailureEvent{{Node: 2, At: 0}},
		Replication: 2,
	})
	// Dead before anything ran: nothing to kill or recompute, the job
	// just runs on 3 nodes and takes longer.
	if r.KilledAttempts != 0 || r.RecomputedMaps != 0 || r.Restarts != 0 {
		t.Fatalf("pre-start death should only shrink the cluster: %+v", r)
	}
	base := spec.SimulateFlow([]JobCost{jc}, FailureModel{}).Makespan
	if r.Makespan < base {
		t.Fatalf("3-node makespan %v below 4-node %v", r.Makespan, base)
	}
}

func TestSimulateAllNodesDeadNeverFinishes(t *testing.T) {
	spec := Default(2)
	jc := simJob(2, 4, 2, 1, 10*time.Millisecond, 8*time.Millisecond)
	r := spec.SimulateFlow([]JobCost{jc}, FailureModel{
		Failures: []NodeFailureEvent{{Node: 0, At: 0}, {Node: 1, At: 0}},
	})
	if r.Makespan != forever {
		t.Fatalf("dead cluster finished a job in %v", r.Makespan)
	}
}

func TestSimulateFlowCarriesFailuresAcrossJobs(t *testing.T) {
	spec := Default(4)
	j1 := simJob(4, 8, 4, 2, 10*time.Millisecond, 8*time.Millisecond)
	j2 := simJob(4, 8, 4, 2, 10*time.Millisecond, 8*time.Millisecond)
	base := spec.SimulateFlow([]JobCost{j1, j2}, FailureModel{}).Makespan

	// A node dying during job 1 stays dead for job 2: the flow still
	// completes (replication 2) but slower than fault-free.
	j1span := spec.SimulateFlow([]JobCost{j1}, FailureModel{}).Makespan
	r := spec.SimulateFlow([]JobCost{j1, j2}, FailureModel{
		Failures:    []NodeFailureEvent{{Node: 1, At: j1span / 2}},
		Replication: 2,
	})
	if r.Restarts != 0 {
		t.Fatalf("flow restarted despite replication 2: %+v", r)
	}
	if r.Makespan <= base {
		t.Fatalf("flow with node death %v not above fault-free %v", r.Makespan, base)
	}
}

func TestSimulateLateFailureCostsLessThanEarly(t *testing.T) {
	spec := Default(4)
	jc := simJob(4, 32, 8, 1, 10*time.Millisecond, 8*time.Millisecond)
	base := spec.SimulateFlow([]JobCost{jc}, FailureModel{}).Makespan
	early := spec.SimulateFlow([]JobCost{jc}, FailureModel{
		Failures: []NodeFailureEvent{{Node: 0, At: base / 8}}, Replication: 1,
	})
	late := spec.SimulateFlow([]JobCost{jc}, FailureModel{
		Failures: []NodeFailureEvent{{Node: 0, At: base / 2}}, Replication: 1,
	})
	// Both restart (replication 1), but the later failure throws away
	// more completed work: t_fail dominates the restarted total.
	if early.Restarts == 0 || late.Restarts == 0 {
		t.Fatalf("replication 1 failures should both restart: early %+v late %+v", early, late)
	}
	if late.Makespan <= early.Makespan {
		t.Fatalf("late failure (%v) should cost more than early (%v)", late.Makespan, early.Makespan)
	}
}
