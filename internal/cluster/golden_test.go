package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/trace"
)

const simGoldenPath = "testdata/sim_golden.json"

// simGolden is the simulator's fingerprint. Cells holds, per (flow,
// spec), every job's Makespan, the FlowMakespan and a digest of every
// Timeline event. RecordedFlow is an input, not an output: the JobCosts
// of one small BTO-PK-BRJ self-join with one injected map retry,
// recorded once so the file does not depend on the host's speed.
type simGolden struct {
	RecordedFlow []JobCost          `json:"recorded_flow"`
	Cells        map[string]simCell `json:"cells"`
}

type simCell struct {
	Makespans string `json:"makespans_ns"`
	Flow      int64  `json:"flow_ns"`
	Timeline  string `json:"timeline"`
}

// seededJob draws one JobCost. The mask's bits switch on attempt chains
// (1), map locations (2), shuffle (4) and side bytes (8). Bit 16 once
// drew reduce backups; its draws are kept and discarded so every other
// field keeps the value the golden file was recorded with.
func seededJob(mask int) JobCost {
	rng := rand.New(rand.NewSource(int64(1000 + mask)))
	dur := func() time.Duration { return time.Duration(1000 + rng.Int63n(20e6)) }
	chain := func(c time.Duration) []time.Duration {
		if mask&1 == 0 || rng.Intn(4) != 0 {
			return nil
		}
		var ch []time.Duration
		for f := 1 + rng.Intn(2); f > 0; f-- {
			ch = append(ch, dur())
		}
		return append(ch, c)
	}
	jc := JobCost{Name: fmt.Sprintf("job%02d", mask)}
	for i, n := 0, 1+rng.Intn(16); i < n; i++ {
		c := dur()
		jc.MapCosts = append(jc.MapCosts, c)
		jc.MapAttempts = append(jc.MapAttempts, chain(c))
		if mask&2 != 0 {
			var locs []int
			for _, node := range rng.Perm(10)[:1+rng.Intn(3)] {
				locs = append(locs, node)
			}
			jc.MapLocations = append(jc.MapLocations, locs)
			jc.MapInputBytes = append(jc.MapInputBytes, rng.Int63n(2<<20))
		}
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		c := dur()
		jc.ReduceCosts = append(jc.ReduceCosts, c)
		jc.ReduceAttempts = append(jc.ReduceAttempts, chain(c))
		if mask&4 != 0 {
			jc.ShufflePerReduce = append(jc.ShufflePerReduce, rng.Int63n(1<<20))
		}
		if mask&16 != 0 && rng.Intn(3) == 0 {
			dur()
		}
	}
	if mask&8 != 0 {
		jc.SideBytes = rng.Int63n(512 << 10)
	}
	return jc
}

// recordFlow runs a small BTO-PK-BRJ self-join on a 4-node,
// replication-2 DFS, failing the first attempt of one Stage-1 map task,
// and returns the flow's recorded JobCosts.
func recordFlow(t *testing.T) []JobCost {
	t.Helper()
	fs := dfs.New(dfs.Options{BlockSize: 4 << 10, Nodes: 4, Replication: 2})
	recs := datagen.Generate(datagen.Spec{Records: 400, Seed: 26})
	if err := mapreduce.WriteTextFile(fs, "in", datagen.Lines(recs)); err != nil {
		t.Fatal(err)
	}
	res, err := core.SelfJoin(core.Config{
		FS: fs, Work: "w", NumReducers: 4,
		TokenOrder: core.BTO, Kernel: core.PK, RecordJoin: core.BRJ,
		Retry: mapreduce.RetryPolicy{MaxAttempts: 2},
		FaultInjector: mapreduce.FailAttempts(mapreduce.TaskRef{
			Job: "s1-bto-count", Phase: mapreduce.MapPhase, TaskID: 0, Attempt: 1}),
	}, "in")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []JobCost
	for _, m := range res.AllJobs() {
		jobs = append(jobs, FromMetrics(m))
	}
	return jobs
}

// goldenFlows returns the golden inputs: eight seeded four-job flows
// covering all 32 combinations of seededJob's mask, the fixed timeline
// flow, and the recorded flow.
func goldenFlows(recorded []JobCost) map[string][]JobCost {
	flows := map[string][]JobCost{"fixed": fixedSelfJoinFlow(), "recorded": recorded}
	for f := 0; f < 8; f++ {
		var jobs []JobCost
		for j := 0; j < 4; j++ {
			jobs = append(jobs, seededJob(4*f+j))
		}
		flows[fmt.Sprintf("seeded%d", f)] = jobs
	}
	return flows
}

// goldenSpecs are Default(1…10) and a one-node, no-network host spec.
func goldenSpecs() map[string]Spec {
	specs := map[string]Spec{"host": {Nodes: 1, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2}}
	for n := 1; n <= 10; n++ {
		specs[fmt.Sprintf("default%02d", n)] = Default(n)
	}
	return specs
}

// timelineDigest renders a Timeline as its event count and the SHA-256
// of every span's placement: job, phase, task, attempt, node, start,
// end and kind. Other trace.Event fields stay out, so a field added to
// or removed from the struct leaves the digests as they are.
func timelineDigest(events []trace.Event) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintf(h, "%s %s %d %d %d %d %d %s\n",
			e.Job, e.Phase, e.Task, e.Attempt, e.Node, e.Start, e.End, e.Kind)
	}
	return fmt.Sprintf("%d events, sha256 %s", len(events), hex.EncodeToString(h.Sum(nil)))
}

// runSimGolden computes the golden outputs for the given recorded flow.
func runSimGolden(recorded []JobCost) simGolden {
	g := simGolden{RecordedFlow: recorded, Cells: map[string]simCell{}}
	for fname, jobs := range goldenFlows(recorded) {
		for sname, s := range goldenSpecs() {
			c := simCell{Flow: int64(s.FlowMakespan(jobs)), Timeline: timelineDigest(s.Timeline(jobs))}
			for i, jc := range jobs {
				if i > 0 {
					c.Makespans += " "
				}
				c.Makespans += fmt.Sprint(int64(s.Makespan(jc)))
			}
			g.Cells[fname+"/"+sname] = c
		}
	}
	return g
}

func readSimGolden(t *testing.T) simGolden {
	t.Helper()
	var g simGolden
	data, err := os.ReadFile(simGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSimulatorGolden pins the cluster simulator: Makespan, FlowMakespan
// and every Timeline event for seeded and recorded flows on eleven
// specs. Regenerate with `go test ./internal/cluster -run
// TestSimulatorGolden -update` only for an intended change to simulated
// time, and say why in the commit. -update keeps the committed
// recorded_flow, the simulator's input; it records a new one (a real
// join timed on the current host) only when the file is absent.
func TestSimulatorGolden(t *testing.T) {
	var want simGolden
	if _, err := os.Stat(simGoldenPath); *update && os.IsNotExist(err) {
		want.RecordedFlow = recordFlow(t)
	} else {
		want = readSimGolden(t)
	}
	retried := 0
	for _, jc := range want.RecordedFlow {
		for _, ch := range append(jc.MapAttempts, jc.ReduceAttempts...) {
			if len(ch) > 1 {
				retried++
			}
		}
	}
	if retried != 1 {
		t.Fatalf("recorded flow has %d retried tasks, want 1", retried)
	}
	got := runSimGolden(want.RecordedFlow)
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got.Cells) != len(want.Cells) {
		t.Errorf("%d cells run, golden file has %d", len(got.Cells), len(want.Cells))
	}
	for name, w := range want.Cells {
		if g := got.Cells[name]; g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
