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
// Timeline event; Sim holds, per (chain-free flow, spec, failure model),
// every SimResult field. RecordedFlow is an input, not an output: the
// JobCosts of one small BTO-PK-BRJ self-join with one injected map
// retry, recorded once so the file does not depend on the host's speed.
type simGolden struct {
	RecordedFlow []JobCost          `json:"recorded_flow"`
	Cells        map[string]simCell `json:"cells"`
	Sim          map[string]string  `json:"sim"`
}

type simCell struct {
	Makespans string `json:"makespans_ns"`
	Flow      int64  `json:"flow_ns"`
	Timeline  string `json:"timeline"`
}

// seededJob draws one JobCost. The mask's bits switch on attempt chains
// (1), map locations (2), shuffle (4), side bytes (8) and reduce
// backups (16).
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
		if mask&16 != 0 {
			var b time.Duration
			if rng.Intn(3) == 0 {
				b = dur()
			}
			jc.ReduceBackups = append(jc.ReduceBackups, b)
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

// chainFree drops the recorded attempt chains: the failure models are
// pinned on inputs without them.
func chainFree(jobs []JobCost) []JobCost {
	out := make([]JobCost, len(jobs))
	for i, jc := range jobs {
		jc.MapAttempts, jc.ReduceAttempts = nil, nil
		out[i] = jc
	}
	return out
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

// goldenFailureModels are the failure models of nodefail_test.go and the
// node-failure ablation, with their instants taken relative to the
// flow's failure-free makespan (base) and its first job's (first).
func goldenFailureModels(s Spec, base, first time.Duration) map[string]FailureModel {
	mid := []NodeFailureEvent{{Node: 0, At: s.JobOverhead + 6*time.Millisecond}}
	fms := map[string]FailureModel{
		"none":             {},
		"mid/r2":           {Failures: mid, Replication: 2},
		"mid/r1":           {Failures: mid, Replication: 1},
		"mid/r2/slow":      {Failures: mid, Replication: 2, DetectTimeout: 200 * time.Millisecond},
		"mid/r2/slow/spec": {Failures: mid, Replication: 2, DetectTimeout: 200 * time.Millisecond, Speculative: true},
		"n2-at-0/r2":       {Failures: []NodeFailureEvent{{Node: 2, At: 0}}, Replication: 2},
		"all-at-0":         {Failures: []NodeFailureEvent{{Node: 0, At: 0}, {Node: 1, At: 0}}},
		"n1-first-half/r2": {Failures: []NodeFailureEvent{{Node: 1, At: first / 2}}, Replication: 2},
		"base-8th/r1":      {Failures: []NodeFailureEvent{{Node: 0, At: base / 8}}, Replication: 1},
		"base-half/r1":     {Failures: []NodeFailureEvent{{Node: 0, At: base / 2}}, Replication: 1},
	}
	for _, frac := range []int64{25, 50, 75} {
		for _, repl := range []int{1, 2} {
			for _, spec := range []bool{false, true} {
				fms[fmt.Sprintf("ablation%d/r%d/spec=%v", frac, repl, spec)] = FailureModel{
					Failures:      []NodeFailureEvent{{Node: 0, At: time.Duration(int64(base) * frac / 100)}},
					Replication:   repl,
					Speculative:   spec,
					DetectTimeout: base / 10,
				}
			}
		}
	}
	return fms
}

// timelineDigest renders a Timeline as its event count and the SHA-256
// of every event.
func timelineDigest(events []trace.Event) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	return fmt.Sprintf("%d events, sha256 %s", len(events), hex.EncodeToString(h.Sum(nil)))
}

func simString(r SimResult) string {
	return fmt.Sprintf("makespan=%d restarts=%d recomputed=%d killed=%d launched=%d wins=%d wasted=%d maxcommits=%d",
		r.Makespan, r.Restarts, r.RecomputedMaps, r.KilledAttempts,
		r.SpeculativeLaunched, r.SpeculativeWins, r.WastedWork, r.MaxCommits)
}

// runSimGolden computes the golden outputs for the given recorded flow.
func runSimGolden(recorded []JobCost) simGolden {
	g := simGolden{RecordedFlow: recorded, Cells: map[string]simCell{}, Sim: map[string]string{}}
	for fname, jobs := range goldenFlows(recorded) {
		// Node marks on the first and the last job exercise the
		// timeline's translation of engine events.
		engine := []trace.Event{
			{Type: trace.NodeDown, Job: jobs[0].Name, Node: 1, Detail: "after-map", T: 1},
			{Type: trace.NodeUp, Job: jobs[len(jobs)-1].Name, Node: 1, Detail: "before-map", T: 2},
		}
		for sname, s := range goldenSpecs() {
			c := simCell{Flow: int64(s.FlowMakespan(jobs)), Timeline: timelineDigest(s.Timeline(jobs, engine))}
			for i, jc := range jobs {
				if i > 0 {
					c.Makespans += " "
				}
				c.Makespans += fmt.Sprint(int64(s.Makespan(jc)))
			}
			g.Cells[fname+"/"+sname] = c
		}
		free := chainFree(jobs)
		for _, n := range []int{2, 4, 10} {
			s := Default(n)
			base, first := s.FlowMakespan(free), s.Makespan(free[0])
			for mname, fm := range goldenFailureModels(s, base, first) {
				g.Sim[fmt.Sprintf("%s/default%02d/%s", fname, n, mname)] = simString(s.SimulateFlow(free, fm))
			}
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
// specs, and every SimResult field of the chain-free flows under the
// failure models the node-failure tests and ablation use. Regenerate
// with `go test ./internal/cluster -run TestSimulatorGolden -update`
// only for an intended change to simulated time, and say why in the
// commit.
func TestSimulatorGolden(t *testing.T) {
	var want simGolden
	if *update {
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
	if len(got.Cells) != len(want.Cells) || len(got.Sim) != len(want.Sim) {
		t.Errorf("%d cells and %d simulations run, golden file has %d and %d",
			len(got.Cells), len(got.Sim), len(want.Cells), len(want.Sim))
	}
	for name, w := range want.Cells {
		if g := got.Cells[name]; g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name, w := range want.Sim {
		if g := got.Sim[name]; g != w {
			t.Errorf("%s:\n got %s\nwant %s", name, g, w)
		}
	}
}
