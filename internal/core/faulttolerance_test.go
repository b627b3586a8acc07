package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
)

// ---- fault-tolerance: injected failures must not change any output ----

// ftRun runs a BTO-PK-BRJ self-join and captures every file in the DFS
// (stage outputs included) plus each job's final counters.
func ftRun(t *testing.T, lines []string, par int, inj mapreduce.FaultInjector) (map[string]string, []map[string]int64, *Result) {
	t.Helper()
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{
		FS: fs, Work: "w",
		TokenOrder: BTO, Kernel: PK, RecordJoin: BRJ,
		NumReducers: 3, Parallelism: par,
	}
	if inj != nil {
		cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
		cfg.FaultInjector = inj
	}
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, name := range fs.List("w") {
		b, err := fs.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = string(b)
	}
	var counters []map[string]int64
	for _, m := range res.AllJobs() {
		counters = append(counters, m.Counters)
	}
	return files, counters, res
}

func ftRetriedTasks(res *Result) int {
	n := 0
	for _, m := range res.AllJobs() {
		for _, tasks := range [][]mapreduce.TaskMetrics{m.MapTasks, m.ReduceTasks} {
			for _, task := range tasks {
				if task.Attempts > 1 {
					n++
				}
			}
		}
	}
	return n
}

// TestSelfJoinByteIdenticalUnderFaults: for the full BTO-PK-BRJ pipeline,
// every part file of every stage and every job's counters must be
// byte-identical across runs with no faults, a single injected task
// failure, and multiple failures across phases — at Parallelism 1 and 8.
func TestSelfJoinByteIdenticalUnderFaults(t *testing.T) {
	lines := makeLines(7, 36, 1)
	single := mapreduce.FailAttempts(
		mapreduce.TaskRef{Phase: mapreduce.MapPhase, TaskID: 0, Attempt: 1},
	)
	multi := mapreduce.FailAttempts(
		mapreduce.TaskRef{Phase: mapreduce.MapPhase, TaskID: 0, Attempt: 1},
		mapreduce.TaskRef{Phase: mapreduce.ReducePhase, TaskID: 1, Attempt: 1},
		mapreduce.TaskRef{Phase: mapreduce.ReducePhase, TaskID: 1, Attempt: 2},
	)
	for _, par := range []int{1, 8} {
		files, counters, base := ftRun(t, lines, par, nil)
		if ftRetriedTasks(base) != 0 {
			t.Fatalf("par=%d: fault-free run reports retried tasks", par)
		}
		if base.Pairs == 0 {
			t.Fatalf("par=%d: test premise broken, no joined pairs", par)
		}
		for _, sc := range []struct {
			name string
			inj  mapreduce.FaultInjector
			min  int // retried tasks expected at least
		}{
			{"single-fault", single, 1},
			{"multi-fault", multi, 2},
		} {
			gotFiles, gotCounters, res := ftRun(t, lines, par, sc.inj)
			if !reflect.DeepEqual(files, gotFiles) {
				for name, want := range files {
					if gotFiles[name] != want {
						t.Errorf("par=%d %s: file %s differs from fault-free run", par, sc.name, name)
					}
				}
				for name := range gotFiles {
					if _, ok := files[name]; !ok {
						t.Errorf("par=%d %s: extra file %s", par, sc.name, name)
					}
				}
				t.Fatalf("par=%d %s: output not byte-identical", par, sc.name)
			}
			if !reflect.DeepEqual(counters, gotCounters) {
				t.Fatalf("par=%d %s: counters differ:\nclean:  %v\nfaulty: %v",
					par, sc.name, counters, gotCounters)
			}
			if got := ftRetriedTasks(res); got < sc.min {
				t.Fatalf("par=%d %s: %d retried task(s), want >= %d — the injector missed",
					par, sc.name, got, sc.min)
			}
		}
	}
}

// failAfter passes pairs through until its budget is spent, then fails:
// a reducer sees the failure in the middle of a group.
type failAfter struct {
	out  mapreduce.Emitter
	left int
}

func (f *failAfter) Emit(k, v []byte) error {
	if f.left == 0 {
		return errors.New("injected mid-group emit failure")
	}
	f.left--
	return f.out.Emit(k, v)
}

// TestPKKernelStatePerAttempt: the PK reducer's join stream belongs to
// one task attempt, for a self-join and an R-S join under individual and
// grouped routing. A retry after an attempt died in the middle of a group
// with its indexes half built must leave the Stage 2 part files
// byte-identical to a clean run; every attempt gets a stream of its own,
// so a failed attempt's dirty indexes are never seen again.
func TestPKKernelStatePerAttempt(t *testing.T) {
	r, s := makeLines(7, 90, 1), makeLines(7, 90, 1001) // S: R's titles again
	for _, c := range []struct {
		name   string
		cfg    Config
		inputs []string
	}{
		{"self/individual", Config{}, []string{"r"}},
		{"self/grouped", Config{Routing: GroupedTokens, NumGroups: 16}, []string{"r"}},
		{"rs/individual", Config{}, []string{"r", "s"}},
		{"rs/grouped", Config{Routing: GroupedTokens, NumGroups: 16}, []string{"r", "s"}},
	} {
		run := func(name string, cfg Config, failTask int) (map[string]string, int) {
			fs := newTestFS(t)
			writeInput(t, fs, "r", r)
			writeInput(t, fs, "s", s)
			cfg.FS, cfg.Work, cfg.Kernel, cfg.NumReducers, cfg.Parallelism = fs, "w", PK, 3, 4
			var mu sync.Mutex
			streams := map[*ppjoin.Stream]bool{}
			failed := 0
			probe := &reduceProbe{
				instantiated: func(inner mapreduce.Reducer) {
					mu.Lock()
					defer mu.Unlock()
					pk := inner.(*pkReducer).pk
					if pk == nil || streams[pk] {
						t.Errorf("%s: task instance got stream %p, already another attempt's", name, pk)
					}
					streams[pk] = true
				},
				visit: func(ctx *mapreduce.Context, inner mapreduce.Reducer, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
					if ctx.TaskID == failTask && ctx.Attempt == 1 {
						// Let the group's first pair through, fail its
						// second: the attempt dies with items indexed.
						out = &failAfter{out: out, left: 1}
					}
					err := inner.Reduce(ctx, key, values, out)
					if err != nil {
						mu.Lock()
						failed++
						mu.Unlock()
					}
					return err
				},
			}
			if _, err := probeStage2(t, cfg, probe, c.inputs...); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if failTask >= 0 && failed == 0 {
				t.Fatalf("%s: test premise broken: no group of reduce task %d emits two pairs", name, failTask)
			}
			files := map[string]string{}
			for _, f := range fs.List("w/s2/") {
				b, err := fs.ReadAll(f)
				if err != nil {
					t.Fatal(err)
				}
				files[f] = string(b)
			}
			return files, len(streams)
		}
		clean, n := run(c.name+" clean", c.cfg, -1)
		if n != 3 || len(clean) != 3 {
			t.Fatalf("%s clean run: %d streams, %d part files, want 3 and 3", c.name, n, len(clean))
		}
		cfg := c.cfg
		cfg.Retry = mapreduce.RetryPolicy{MaxAttempts: 3}
		retried, n := run(c.name+" retry", cfg, 1)
		if n != 4 {
			t.Errorf("%s: retry run built %d streams, want 3 + 1 for the retried attempt", c.name, n)
		}
		if !reflect.DeepEqual(retried, clean) {
			t.Errorf("%s: retried run's Stage 2 output differs from the clean run's", c.name)
		}
	}
}
