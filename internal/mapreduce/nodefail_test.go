package mapreduce

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fuzzyjoin/internal/dfs"
)

func newReplicatedFS(replication int) *dfs.FS {
	return dfs.New(dfs.Options{BlockSize: 256, Nodes: 4, Replication: replication})
}

// TestNodeFailureAfterMapRecoversLostOutputs: a node dying between the
// map and reduce phases loses the map outputs it held; the engine must
// re-execute exactly those map tasks and still produce byte-identical
// output and counters (replication 2 keeps the inputs readable).
func TestNodeFailureAfterMapRecoversLostOutputs(t *testing.T) {
	cleanFS := newReplicatedFS(2)
	writeFaultInput(t, cleanFS)
	clean, err := Run(faultJob(cleanFS, "out"))
	if err != nil {
		t.Fatal(err)
	}

	fs := newReplicatedFS(2)
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.NodeFailures = []NodeFailure{{Barrier: AfterMap, Node: 0}}
	faulty, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}

	if !sameStringMaps(outputBytes(t, cleanFS, "out"), outputBytes(t, fs, "out")) {
		t.Fatal("output after node death differs from fault-free output")
	}
	if !sameStringMaps(clean.Counters, faulty.Counters) {
		t.Fatalf("counters differ (recomputed maps double-counted?): clean %v faulty %v",
			clean.Counters, faulty.Counters)
	}
	if faulty.RecomputedMapTasks == 0 {
		t.Fatal("no map tasks recomputed despite their output node dying")
	}
	for i, mt := range faulty.MapTasks {
		if mt.Recomputed {
			if mt.Attempts < 2 {
				t.Fatalf("recomputed map task %d has Attempts = %d, want >= 2", i, mt.Attempts)
			}
			if !fs.NodeAlive(mt.OutputNode) {
				t.Fatalf("recomputed map task %d output re-placed on dead node %d", i, mt.OutputNode)
			}
		} else if mt.OutputNode == 0 {
			t.Fatalf("map task %d output on dead node 0 but not recomputed", i)
		}
	}
}

// TestNodeFailureBeforeMapReadsFromReplicas: a node dead before the map
// phase forces every read of its blocks onto surviving replicas; no map
// outputs are lost because none were placed on it.
func TestNodeFailureBeforeMapReadsFromReplicas(t *testing.T) {
	cleanFS := newReplicatedFS(2)
	writeFaultInput(t, cleanFS)
	if _, err := Run(faultJob(cleanFS, "out")); err != nil {
		t.Fatal(err)
	}

	fs := newReplicatedFS(2)
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.NodeFailures = []NodeFailure{{Barrier: BeforeMap, Node: 0}}
	m, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !sameStringMaps(outputBytes(t, cleanFS, "out"), outputBytes(t, fs, "out")) {
		t.Fatal("output with pre-map node death differs from fault-free output")
	}
	if m.RecomputedMapTasks != 0 {
		t.Fatalf("RecomputedMapTasks = %d, want 0 (node died before outputs existed)", m.RecomputedMapTasks)
	}
	for i, mt := range m.MapTasks {
		if mt.OutputNode == 0 {
			t.Fatalf("map task %d placed output on the dead node", i)
		}
	}
}

// TestReplicationOneNodeDeathFailsJobCleanly: with replication 1 a node
// death is unrecoverable — the job must fail with ErrBlockUnavailable
// and leave no partial output (the full-job-restart case of the paper's
// fault-tolerance argument for replication).
func TestReplicationOneNodeDeathFailsJobCleanly(t *testing.T) {
	fs := newReplicatedFS(1)
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.Retry = RetryPolicy{MaxAttempts: 3} // retries must not mask block loss
	job.NodeFailures = []NodeFailure{{Barrier: AfterMap, Node: 0}}
	_, err := Run(job)
	if !errors.Is(err, dfs.ErrBlockUnavailable) {
		t.Fatalf("err = %v, want ErrBlockUnavailable", err)
	}
	if names := fs.List("out"); len(names) != 0 {
		t.Fatalf("failed job left output files: %v", names)
	}
}

// TestNodeRecoverEventRestoresData: a Recover event at a later barrier
// brings a node (and its blocks) back — replication 1 data becomes
// readable again without re-replication.
func TestNodeRecoverEventRestoresData(t *testing.T) {
	fs := newReplicatedFS(2)
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.NodeFailures = []NodeFailure{
		{Barrier: BeforeMap, Node: 0},
		{Barrier: AfterMap, Node: 0, Recover: true},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	if !fs.NodeAlive(0) {
		t.Fatal("node 0 not recovered by the AfterMap recover event")
	}
}

// TestSpeculativeSingleWinner: with speculation on, every reduce task
// races two attempts but exactly one commits — part-file count, output
// bytes, and counters all match the non-speculative run.
func TestSpeculativeSingleWinner(t *testing.T) {
	cleanFS := newFS()
	writeFaultInput(t, cleanFS)
	clean, err := Run(faultJob(cleanFS, "out"))
	if err != nil {
		t.Fatal(err)
	}

	fs := newFS()
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.Speculative = true
	spec, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}

	if !sameStringMaps(outputBytes(t, cleanFS, "out"), outputBytes(t, fs, "out")) {
		t.Fatal("speculative output differs from non-speculative output")
	}
	if !sameStringMaps(clean.Counters, spec.Counters) {
		t.Fatalf("counters differ (loser's counters merged?): clean %v spec %v",
			clean.Counters, spec.Counters)
	}
	names := fs.List("out/")
	if len(names) != job.NumReducers {
		t.Fatalf("%d part files for %d reducers: %v", len(names), job.NumReducers, names)
	}
	for _, name := range names {
		if strings.Contains(name, "_temporary") {
			t.Fatalf("loser temp file survived: %s", name)
		}
	}
	for r, rt := range spec.ReduceTasks {
		if rt.Speculative != 1 {
			t.Fatalf("reduce task %d Speculative = %d, want 1", r, rt.Speculative)
		}
		if rt.Attempts != 1 {
			t.Fatalf("reduce task %d Attempts = %d, want 1 (one winner)", r, rt.Attempts)
		}
	}
}

// TestSpeculativeSurvivesOneFailedAttempt: the backup attempt makes the
// task survive a single attempt failure with no retry policy at all.
func TestSpeculativeSurvivesOneFailedAttempt(t *testing.T) {
	cleanFS := newFS()
	writeFaultInput(t, cleanFS)
	if _, err := Run(faultJob(cleanFS, "out")); err != nil {
		t.Fatal(err)
	}

	fs := newFS()
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.Speculative = true
	job.FaultInjector = FailAttempts(
		TaskRef{Phase: ReducePhase, TaskID: 0, Attempt: 1},
		TaskRef{Phase: ReducePhase, TaskID: 1, Attempt: 2},
	)
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	if !sameStringMaps(outputBytes(t, cleanFS, "out"), outputBytes(t, fs, "out")) {
		t.Fatal("output differs after losing one speculative attempt per task")
	}

	// Both attempts failing kills the task and the job.
	fs2 := newFS()
	writeFaultInput(t, fs2)
	job2 := faultJob(fs2, "out")
	job2.Speculative = true
	job2.FaultInjector = FailAttempts(
		TaskRef{Phase: ReducePhase, TaskID: 0, Attempt: 1},
		TaskRef{Phase: ReducePhase, TaskID: 0, Attempt: 2},
	)
	if _, err := Run(job2); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault", err)
	}
	if names := fs2.List("out"); len(names) != 0 {
		t.Fatalf("failed speculative job left output: %v", names)
	}
}

// TestJobSurvivesConcurrentNodeToggle runs a full job while another
// goroutine flaps a node's liveness (with re-replication in between) —
// the engine-level concurrency test for the liveness set; run under
// -race by make tier1. Replication 2 over 4 nodes guarantees every
// block keeps a live replica while a single node is down.
func TestJobSurvivesConcurrentNodeToggle(t *testing.T) {
	cleanFS := newReplicatedFS(2)
	writeFaultInput(t, cleanFS)
	if _, err := Run(faultJob(cleanFS, "out")); err != nil {
		t.Fatal(err)
	}

	fs := newReplicatedFS(2)
	writeFaultInput(t, fs)
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			fs.FailNode(3)
			fs.ReReplicate()
			fs.RecoverNode(3)
		}
	}()
	job := faultJob(fs, "out")
	job.Parallelism = 4
	_, err := Run(job)
	close(stop)
	toggler.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !sameStringMaps(outputBytes(t, cleanFS, "out"), outputBytes(t, fs, "out")) {
		t.Fatal("output under node flapping differs from fault-free output")
	}
}

// TestReadLinesFailsOver: ReadLines reads multi-block part files block by
// block through a dead node and a corrupt replica, and returns the lines
// the whole-file read returns; a block with no readable replica left
// fails the read with dfs.ErrBlockUnavailable.
func TestReadLinesFailsOver(t *testing.T) {
	fs := dfs.New(dfs.Options{BlockSize: 64, Nodes: 4, Replication: 2})
	var want []string
	for p := 0; p < 2; p++ {
		var lines []string
		for i := 0; i < 30; i++ {
			l := fmt.Sprintf("part%d line %d", p, i)
			if i%7 == 3 {
				l = "" // empty lines survive as empty strings
			}
			lines = append(lines, l)
		}
		if err := WriteTextFile(fs, fmt.Sprintf("out/part-%05d", p), lines); err != nil {
			t.Fatal(err)
		}
		want = append(want, lines...)
	}
	// wholeFile is the reference: every file read in one piece, then
	// split at newlines.
	wholeFile := func() []string {
		var out []string
		for _, name := range fs.List("out/") {
			b, err := fs.ReadAll(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")...)
		}
		return out
	}

	fs.FailNode(1)
	splits, err := fs.Splits("out/part-00001")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 3 {
		t.Fatalf("test premise broken: %d blocks", len(splits))
	}
	// Corrupt the live replica of a block whose other replica is live
	// too; remember a block that lost a replica to the dead node.
	corrupted, halfDead := -1, -1
	for _, s := range splits {
		switch {
		case corrupted < 0 && s.Locations[0] != 1 && s.Locations[1] != 1:
			if err := fs.CorruptReplica(s.File, s.Block, s.Locations[0]); err != nil {
				t.Fatal(err)
			}
			corrupted = s.Block
		case halfDead < 0 && (s.Locations[0] == 1 || s.Locations[1] == 1):
			halfDead = s.Block
		}
	}
	if corrupted < 0 || halfDead < 0 {
		t.Fatalf("test premise broken: placement %+v", splits)
	}
	got, err := ReadLines(fs, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, wholeFile()) {
		t.Fatalf("ReadLines through failover = %q, want %q", got, want)
	}

	// Kill the surviving replica of the half-dead block.
	s := splits[halfDead]
	live := s.Locations[0]
	if live == 1 {
		live = s.Locations[1]
	}
	fs.FailNode(live)
	if _, err := ReadLines(fs, "out/"); !errors.Is(err, dfs.ErrBlockUnavailable) {
		t.Fatalf("ReadLines with block %d unavailable: err %v, want dfs.ErrBlockUnavailable", halfDead, err)
	}
}
