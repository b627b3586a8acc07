package cluster

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"fuzzyjoin/internal/mapreduce"
)

// lptSpan is LPT through the scheduler: the tasks as the map wave of one
// node with `slots` slots, no overheads and no network.
func lptSpan(tasks []time.Duration, slots int) time.Duration {
	return Spec{Nodes: 1, MapSlotsPerNode: slots}.Makespan(JobCost{MapCosts: tasks})
}

// chainSpan is lptSpan over attempt chains (failed attempts first).
func chainSpan(chains [][]time.Duration, slots int) time.Duration {
	jc := JobCost{MapAttempts: chains}
	for _, c := range chains {
		jc.MapCosts = append(jc.MapCosts, c[len(c)-1])
	}
	return Spec{Nodes: 1, MapSlotsPerNode: slots}.Makespan(jc)
}

// mapWave schedules jc's map tasks alone on s and returns the wave's span
// and how many attempts ran on a node holding their split (tasks without
// recorded locations count as local) or off it.
func mapWave(s Spec, jc JobCost) (span time.Duration, local, remote int) {
	s.JobOverhead = 0
	jc.ReduceCosts, jc.SideBytes = nil, 0
	for _, e := range s.Timeline([]JobCost{jc}) {
		span = max(span, time.Duration(e.End))
		var locs []int
		if e.Task < len(jc.MapLocations) {
			locs = jc.MapLocations[e.Task]
		}
		if len(locs) == 0 || slices.ContainsFunc(locs, func(n int) bool { return n%s.Nodes == e.Node }) {
			local++
		} else {
			remote++
		}
	}
	return span, local, remote
}

func TestLPTBasics(t *testing.T) {
	if got := lptSpan(nil, 4); got != 0 {
		t.Fatalf("lptSpan(empty) = %v", got)
	}
	// One slot: makespan is the sum.
	tasks := []time.Duration{3, 1, 2}
	if got := lptSpan(tasks, 1); got != 6 {
		t.Fatalf("lptSpan(1 slot) = %v, want 6", got)
	}
	// Enough slots: makespan is the max.
	if got := lptSpan(tasks, 3); got != 3 {
		t.Fatalf("lptSpan(3 slots) = %v, want 3", got)
	}
	// Classic LPT behaviour: tasks 5,4,3,3,3 on 2 slots. LPT assigns
	// 5→A, 4→B, 3→B, 3→A, 3→B giving makespan 10 (the optimum is 9;
	// LPT is a 4/3-approximation, like Hadoop's greedy slot scheduler).
	if got := lptSpan([]time.Duration{5, 4, 3, 3, 3}, 2); got != 10 {
		t.Fatalf("LPT = %v, want 10", got)
	}
	// slots < 1 treated as 1.
	if got := lptSpan(tasks, 0); got != 6 {
		t.Fatalf("lptSpan(0 slots) = %v, want 6", got)
	}
}

// TestLPTBounds: for any task set, max(task) ≤ makespan ≤ sum(task), and
// makespan ≥ sum/slots (work conservation).
func TestLPTBounds(t *testing.T) {
	f := func(raw []uint16, slots8 uint8) bool {
		slots := int(slots8%16) + 1
		tasks := make([]time.Duration, len(raw))
		var sum, max time.Duration
		for i, v := range raw {
			tasks[i] = time.Duration(v)
			sum += tasks[i]
			if tasks[i] > max {
				max = tasks[i]
			}
		}
		got := lptSpan(tasks, slots)
		if len(tasks) == 0 {
			return got == 0
		}
		lower := sum / time.Duration(slots)
		return got >= max && got <= sum && got >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLPTMonotonicInSlots: more slots never increases the makespan for
// the same task set... LPT is not strictly monotone in general, but it is
// for the bound max(max_task, ceil-ish sum/slots) it tracks; verify
// non-increase on random inputs as a regression guard.
func TestLPTMoreSlotsHelps(t *testing.T) {
	tasks := []time.Duration{9, 8, 7, 6, 5, 4, 3, 2, 1}
	prev := lptSpan(tasks, 1)
	for slots := 2; slots <= 9; slots++ {
		cur := lptSpan(tasks, slots)
		if cur > prev {
			t.Fatalf("makespan grew from %v to %v at %d slots", prev, cur, slots)
		}
		prev = cur
	}
}

func TestMakespanComponents(t *testing.T) {
	s := Spec{
		Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2,
		NetBytesPerSec: 1 << 20, // 1 MB/s
		JobOverhead:    100 * time.Millisecond,
		TaskOverhead:   10 * time.Millisecond,
	}
	jc := JobCost{
		MapCosts:         []time.Duration{40 * time.Millisecond},
		ReduceCosts:      []time.Duration{30 * time.Millisecond},
		ShufflePerReduce: []int64{1 << 20}, // 1 MB → 1 s fetch
		SideBytes:        2 << 20,          // 2 MB → 2 s broadcast
	}
	got := s.Makespan(jc)
	want := 100*time.Millisecond + // job overhead
		2*time.Second + // broadcast
		50*time.Millisecond + // map wave (40+10)
		30*time.Millisecond + 10*time.Millisecond + time.Second // reduce + fetch
	if got != want {
		t.Fatalf("Makespan = %v, want %v", got, want)
	}
}

func TestMakespanNoNetwork(t *testing.T) {
	s := Spec{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}
	jc := JobCost{
		MapCosts:         []time.Duration{time.Second},
		ReduceCosts:      []time.Duration{time.Second},
		ShufflePerReduce: []int64{1 << 30},
		SideBytes:        1 << 30,
	}
	if got := s.Makespan(jc); got != 2*time.Second {
		t.Fatalf("Makespan with zero bandwidth = %v, want 2s (network free)", got)
	}
}

// TestSpeedupShape: a parallel-friendly job (many equal map tasks, no
// single-reducer bottleneck) speeds up with nodes, sublinearly because of
// fixed overheads.
func TestSpeedupShape(t *testing.T) {
	mapCosts := make([]time.Duration, 80)
	for i := range mapCosts {
		mapCosts[i] = 100 * time.Millisecond
	}
	redCosts := make([]time.Duration, 40)
	shuffle := make([]int64, 40)
	for i := range redCosts {
		redCosts[i] = 50 * time.Millisecond
		shuffle[i] = 1 << 16
	}
	jc := JobCost{MapCosts: mapCosts, ReduceCosts: redCosts, ShufflePerReduce: shuffle}
	t2 := Default(2).Makespan(jc)
	t10 := Default(10).Makespan(jc)
	if t10 >= t2 {
		t.Fatalf("no speedup: t2=%v t10=%v", t2, t10)
	}
	speedup := float64(t2) / float64(t10)
	if speedup < 2 || speedup > 5 {
		t.Fatalf("speedup %0.2f outside plausible sublinear range (ideal 5)", speedup)
	}
}

// TestSingleReducerBottleneck: a job whose reduce work is one giant task
// stops speeding up — the OPTO/BTO-sort effect.
func TestSingleReducerBottleneck(t *testing.T) {
	jc := JobCost{
		MapCosts:    []time.Duration{10 * time.Millisecond, 10 * time.Millisecond},
		ReduceCosts: []time.Duration{2 * time.Second},
	}
	t2 := Default(2).Makespan(jc)
	t10 := Default(10).Makespan(jc)
	if float64(t2)/float64(t10) > 1.05 {
		t.Fatalf("single-reducer job sped up: t2=%v t10=%v", t2, t10)
	}
}

// TestBroadcastConstantInN: side-file fetch time does not shrink with
// cluster size — the OPRJ speedup cap.
func TestBroadcastConstantInN(t *testing.T) {
	jc := JobCost{SideBytes: 64 << 20, MapCosts: []time.Duration{time.Millisecond}}
	d2 := Default(2).Makespan(jc)
	d10 := Default(10).Makespan(jc)
	if d2 != d10 {
		t.Fatalf("broadcast time changed with N: %v vs %v", d2, d10)
	}
}

func TestFromMetrics(t *testing.T) {
	m := &mapreduce.Metrics{
		Job: "j",
		MapTasks: []mapreduce.TaskMetrics{
			{Cost: time.Second, PartitionBytes: []int64{10, 20}},
			{Cost: 2 * time.Second, PartitionBytes: []int64{5, 15}},
		},
		ReduceTasks: []mapreduce.TaskMetrics{{Cost: 3 * time.Second}, {Cost: time.Second}},
		SideBytes:   99,
	}
	jc := FromMetrics(m)
	if jc.Name != "j" || len(jc.MapCosts) != 2 || len(jc.ReduceCosts) != 2 {
		t.Fatalf("jc = %+v", jc)
	}
	if jc.SideBytes != 99 {
		t.Fatalf("SideBytes = %d", jc.SideBytes)
	}
	if jc.ShufflePerReduce[0] != 15 || jc.ShufflePerReduce[1] != 35 {
		t.Fatalf("ShufflePerReduce = %v", jc.ShufflePerReduce)
	}
}

func TestFlowMakespan(t *testing.T) {
	s := Default(4)
	a := JobCost{MapCosts: []time.Duration{time.Second}}
	b := JobCost{MapCosts: []time.Duration{2 * time.Second}}
	if got, want := s.FlowMakespan([]JobCost{a, b}), s.Makespan(a)+s.Makespan(b); got != want {
		t.Fatalf("FlowMakespan = %v, want %v", got, want)
	}
}

func TestDefaultSpec(t *testing.T) {
	s := Default(10)
	if s.Nodes != 10 || s.MapSlotsPerNode != 4 || s.ReduceSlotsPerNode != 4 {
		t.Fatalf("Default = %+v", s)
	}
	if s.String() != "10 nodes × (4M+4R slots)" {
		t.Fatalf("String = %q", s.String())
	}
}

// TestSkewStretchesReduceWave: one hot reducer dominates the reduce wave —
// the Stage 3 BRJ skew effect the paper reports.
func TestSkewStretchesReduceWave(t *testing.T) {
	even := make([]time.Duration, 8)
	skewed := make([]time.Duration, 8)
	var total time.Duration
	for i := range even {
		even[i] = 100 * time.Millisecond
		total += even[i]
	}
	skewed[0] = total - 7*10*time.Millisecond
	for i := 1; i < 8; i++ {
		skewed[i] = 10 * time.Millisecond
	}
	s := Default(8)
	je := JobCost{ReduceCosts: even}
	js := JobCost{ReduceCosts: skewed}
	if s.Makespan(js) <= s.Makespan(je) {
		t.Fatal("skewed reduce wave was not slower than even wave")
	}
	sort.SliceIsSorted(skewed, func(i, j int) bool { return skewed[i] > skewed[j] })
}

func TestLocalitySchedulingPrefersReplicaNodes(t *testing.T) {
	s := Default(4)
	// 16 equal tasks, each local to exactly one node, spread evenly: a
	// locality-aware schedule places every task locally.
	jc := JobCost{}
	for i := 0; i < 16; i++ {
		jc.MapCosts = append(jc.MapCosts, 100*time.Millisecond)
		jc.MapLocations = append(jc.MapLocations, []int{i % 4})
		jc.MapInputBytes = append(jc.MapInputBytes, 32<<20) // 1 s remote read
	}
	_, local, remote := mapWave(s, jc)
	if remote != 0 {
		t.Fatalf("remote maps = %d, want 0", remote)
	}
	if local != 16 {
		t.Fatalf("local maps = %d", local)
	}
}

func TestLocalityPenaltyChargedWhenForcedRemote(t *testing.T) {
	// All tasks local to node 0 only: its 4 slots saturate and the
	// scheduler must weigh waiting against fetching remotely.
	s := Default(4)
	jc := JobCost{}
	for i := 0; i < 16; i++ {
		jc.MapCosts = append(jc.MapCosts, 100*time.Millisecond)
		jc.MapLocations = append(jc.MapLocations, []int{0})
		jc.MapInputBytes = append(jc.MapInputBytes, 320<<10) // 10 ms remote read
	}
	span, _, remote := mapWave(s, jc)
	if remote == 0 {
		t.Fatal("expected some remote maps when one node holds all splits")
	}
	// With the penalty tiny relative to task cost, spreading beats
	// queueing on node 0: makespan well under the 4-wave local-only time.
	if span >= 400*time.Millisecond {
		t.Fatalf("map span = %v, scheduler refused cheap remote reads", span)
	}
}

func TestLocalityHotNodeQueuesWhenRemoteIsDear(t *testing.T) {
	s := Default(4)
	jc := JobCost{}
	for i := 0; i < 8; i++ {
		jc.MapCosts = append(jc.MapCosts, 10*time.Millisecond)
		jc.MapLocations = append(jc.MapLocations, []int{0})
		jc.MapInputBytes = append(jc.MapInputBytes, 32<<20) // 1 s remote read
	}
	span, _, remote := mapWave(s, jc)
	// Remote read (1 s) dwarfs queueing (2 waves × 10 ms): everything
	// stays local on node 0.
	if remote != 0 {
		t.Fatalf("remote maps = %d, want 0 when remote reads are dear", remote)
	}
	if span != 20*time.Millisecond+2*s.TaskOverhead {
		t.Fatalf("map span = %v", span)
	}
}

func TestNoLocationsBehavesAsBefore(t *testing.T) {
	s := Default(2)
	tasks := []time.Duration{30 * time.Millisecond, 20 * time.Millisecond, 10 * time.Millisecond}
	jc := JobCost{MapCosts: tasks}
	withOverhead := make([]time.Duration, len(tasks))
	for i, c := range tasks {
		withOverhead[i] = c + s.TaskOverhead
	}
	want := lptSpan(withOverhead, 8)
	if got, _, _ := mapWave(s, jc); got != want {
		t.Fatalf("span without locations = %v, want plain LPT %v", got, want)
	}
}

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

// entryPoints is the simulated time of a flow through every entry
// point: the sum of its jobs' Makespans, FlowMakespan, and the latest
// span end of its Timeline.
func entryPoints(s Spec, jobs []JobCost) map[string]time.Duration {
	var sum, end time.Duration
	for _, jc := range jobs {
		sum += s.Makespan(jc)
	}
	for _, e := range s.Timeline(jobs) {
		end = max(end, time.Duration(e.End))
	}
	return map[string]time.Duration{
		"Makespan":     sum,
		"FlowMakespan": s.FlowMakespan(jobs),
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

// TestSimulateNoFailuresMatchesMakespan: every entry point runs the same
// schedule — on every golden input, attempt chains included, and on
// specs with unset slot counts.
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
