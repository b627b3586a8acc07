package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
)

// Kernel state belongs to the reduce task and is reset per group. These
// tests run the Stage 2 reducers inside real reduce tasks — the only
// place a reducer has its engine Context, Values and memory budget —
// through a probe that sees every group. They use one reducer, so every
// group goes through one task instance.

// reduceProbe wraps a Stage 2 reducer's task instance: visit is handed
// the instance and the group and decides how to run it.
type reduceProbe struct {
	inner mapreduce.Reducer
	visit func(ctx *mapreduce.Context, inner mapreduce.Reducer, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error
	// instantiated, when set, sees every task instance the engine asks
	// for (one per attempt), possibly from several goroutines.
	instantiated func(inner mapreduce.Reducer)
}

func (p *reduceProbe) NewTaskInstance() any {
	inner := p.inner.(mapreduce.TaskLocal).NewTaskInstance().(mapreduce.Reducer)
	if p.instantiated != nil {
		p.instantiated(inner)
	}
	return &reduceProbe{inner: inner, visit: p.visit}
}

func (p *reduceProbe) Setup(ctx *mapreduce.Context) error {
	if s, ok := p.inner.(mapreduce.Setupper); ok {
		return s.Setup(ctx)
	}
	return nil
}

func (p *reduceProbe) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	return p.visit(ctx, p.inner, key, values, out)
}

// probeStage2 runs Stage 1 and then the Stage 2 kernel job with the job's
// reducer wrapped by a reduceProbe; inputs is the record file of a
// self-join or (R, S). The kernel output lands under cfg.Work + "/s2".
func probeStage2(t *testing.T, cfg Config, probe *reduceProbe, inputs ...string) (*mapreduce.Metrics, error) {
	t.Helper()
	s1 := cfg
	s1.Work, s1.MemoryLimit = cfg.Work+"/s1", 0 // the limit under test is Stage 2's
	tokenFile, _, err := Stage1(s1, inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	work := cfg.Work
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	ps := progSpec{Kind: "s2", TokenFile: tokenFile}
	if len(inputs) == 2 {
		ps.InputR = inputs[0]
	}
	job, err := coreJob(&cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	job.Name, job.Inputs, job.Output = "s2-probe", inputs, work+"/s2"
	job.SideFiles = []string{tokenFile}
	probe.inner = job.Reducer
	job.Reducer = probe
	job.Program, job.ProgramSpec = "", "" // the probe is not a registered program
	return mapreduce.Run(job)
}

var stage2Kernels = []struct {
	name   string
	kernel KernelAlg
}{
	{"PK", PK},
	{"BK", BK},
	{"FVT", FVT},
}

// TestReducerSteadyStateAllocs: once a task instance is warm, a reduce
// group costs a small constant number of heap allocations (closures, the
// sort of a bulk build) and none per decoded projection — no per-group
// index, map, node slab, item buffer, rank slice or pair encoding. BK and
// FVT decode into the task's arena; PK decodes into scratch and its
// indexes copy the ranks into rank chunks they reuse. PK runs self and
// R-S joins under individual and grouped routing.
func TestReducerSteadyStateAllocs(t *testing.T) {
	const perGroup = 2
	cases := []struct {
		name    string
		kernel  KernelAlg
		routing Routing
		rs      bool
	}{
		{"PK", PK, IndividualTokens, false},
		{"PK grouped", PK, GroupedTokens, false},
		{"PK R-S", PK, IndividualTokens, true},
		{"PK R-S grouped", PK, GroupedTokens, true},
		{"BK", BK, IndividualTokens, false},
		{"FVT", FVT, IndividualTokens, false},
	}
	for _, k := range cases {
		fs := newTestFS(t)
		inputs := []string{"in"}
		writeInput(t, fs, "in", makeLines(31, 240, 1))
		if k.rs {
			inputs = append(inputs, "s")
			writeInput(t, fs, "s", makeLines(31, 240, 1001)) // R's titles again
		}
		var worst, groups, pairs float64
		probe := &reduceProbe{visit: func(ctx *mapreduce.Context, inner mapreduce.Reducer, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
			saved := *values
			var v mapreduce.Values
			var err error
			count := countingEmitter{}
			call := func() {
				v = saved
				if e := inner.Reduce(ctx, key, &v, &count); e != nil {
					err = e
				}
			}
			call() // grow the task's storage, create the counters
			pairs += float64(count.n)
			n := testing.AllocsPerRun(5, call)
			if n > worst {
				worst = n
			}
			groups++
			return err
		}}
		cfg := Config{FS: fs, Work: "w", Kernel: k.kernel, Routing: k.routing, NumGroups: 24, Threshold: 0.6, NumReducers: 1, Parallelism: 1}
		if _, err := probeStage2(t, cfg, probe, inputs...); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if groups < 10 || pairs == 0 {
			t.Fatalf("%s: test premise broken: %v groups, %v pairs", k.name, groups, pairs)
		}
		if worst > perGroup {
			t.Errorf("%s: a warmed reduce group made %v heap allocations, want <= %d", k.name, worst, perGroup)
		}
	}
}

type countingEmitter struct{ n int }

func (c *countingEmitter) Emit(_, _ []byte) error { c.n++; return nil }

// failPoint is where a reduce task ran out of memory: the ordinal of the
// group, how many of its values the reducer had consumed, and the error.
type failPoint struct {
	group, consumed int
	err             string
}

// TestMemoryLimitPointUnchangedByReuse: under a MemoryLimit too tight
// for the largest groups, a reused task instance raises
// ErrInsufficientMemory at exactly the item — and with exactly the
// charge — at which a fresh instance per group does: Reset leaves no
// accounting behind.
func TestMemoryLimitPointUnchangedByReuse(t *testing.T) {
	for _, k := range stage2Kernels {
		lines := makeLines(32, 240, 1)
		// run reports where the reduce task failed (group -1: nowhere)
		// and the task's peak memory when it did not.
		run := func(limit int64, fresh bool) (failPoint, int64) {
			fs := newTestFS(t)
			writeInput(t, fs, "in", lines)
			fp := failPoint{group: -1}
			group := 0
			var probe *reduceProbe
			probe = &reduceProbe{visit: func(ctx *mapreduce.Context, inner mapreduce.Reducer, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
				if fresh {
					// The reference: a new task instance for every group,
					// made from the job's reducer as the engine makes them.
					inner = probe.inner.(mapreduce.TaskLocal).NewTaskInstance().(mapreduce.Reducer)
					if s, ok := inner.(mapreduce.Setupper); ok {
						if err := s.Setup(ctx); err != nil {
							return err
						}
					}
				}
				err := inner.Reduce(ctx, key, values, out)
				if err != nil {
					left := 0
					for _, ok := values.Next(); ok; _, ok = values.Next() {
						left++
					}
					fp = failPoint{group: group, consumed: values.Len() - left, err: err.Error()}
				}
				group++
				return err
			}}
			cfg := Config{FS: fs, Work: "w", Kernel: k.kernel, Threshold: 0.6, MemoryLimit: limit, NumReducers: 1, Parallelism: 1}
			m, err := probeStage2(t, cfg, probe, "in")
			if limit == 0 {
				if err != nil {
					t.Fatalf("%s: unlimited run: %v", k.name, err)
				}
				return fp, m.ReduceTasks[0].PeakMemory
			}
			if !errors.Is(err, mapreduce.ErrInsufficientMemory) {
				t.Fatalf("%s: limit %d fresh=%v: err = %v, want ErrInsufficientMemory", k.name, limit, fresh, err)
			}
			return fp, 0
		}
		_, peak := run(0, false)
		if peak == 0 {
			t.Fatalf("%s: test premise broken: no reducer memory charged", k.name)
		}
		limit := peak * 2 / 3
		reused, _ := run(limit, false)
		fresh, _ := run(limit, true)
		if reused.group < 2 {
			t.Fatalf("%s: test premise broken: failed in group %d, before any reuse", k.name, reused.group)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Errorf("%s: reused instance failed at %+v, fresh instances at %+v", k.name, reused, fresh)
		}
	}
}

// TestHotGroupStorageReleased: the item buffer a hot group grew past the
// retention cap is gone at the next group's reset, in a real reduce task,
// and the rank arena follows the same rule. (ppjoin.Block, ppjoin.Index
// and fvt.Tree pin their own caps in their packages.)
func TestHotGroupStorageReleased(t *testing.T) {
	// 4,200 R records "u<i> hot": at τ = 0.5 both tokens are prefix
	// tokens, and with three routing groups the group of "hot" (the most
	// frequent token: rank 4200, group 0) receives every record and comes
	// first; the two groups after it receive a third each.
	const hot = 4200
	var r []string
	for i := 0; i < hot; i++ {
		r = append(r, fmt.Sprintf("%d\tu%d hot\tx\trest", i+1, i))
	}
	s := []string{"1\tu0 hot\tx\trest"}
	for _, k := range []KernelAlg{FVT} {
		fs := newTestFS(t)
		writeInput(t, fs, "r", r)
		writeInput(t, fs, "s", s)
		type seen struct{ values, retained int }
		var log []seen
		pairs := countingEmitter{}
		probe := &reduceProbe{visit: func(ctx *mapreduce.Context, inner mapreduce.Reducer, key []byte, values *mapreduce.Values, _ mapreduce.Emitter) error {
			err := inner.Reduce(ctx, key, values, &pairs)
			log = append(log, seen{values.Len(), cap(inner.(*fvtReducer).items)})
			return err
		}}
		cfg := Config{FS: fs, Work: "w", Kernel: k, Threshold: 0.5, Routing: GroupedTokens, NumGroups: 3,
			NumReducers: 1, Parallelism: 1}
		if _, err := probeStage2(t, cfg, probe, "r", "s"); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if len(log) != 3 || log[0].values <= maxRetainedItems || log[0].retained <= maxRetainedItems || pairs.n == 0 {
			t.Fatalf("%s: test premise broken: groups %+v, %d pairs", k, log, pairs.n)
		}
		for _, g := range log[1:] {
			if g.retained > maxRetainedItems || g.retained < g.values-1 {
				t.Errorf("%s: a %d-value group after the hot one left a buffer of %d items (hot group's: %d)",
					k, g.values, g.retained, log[0].retained)
			}
		}
	}

	a := rankArena{buf: make([]uint32, 0, maxRankArena+1)}
	a.reset()
	if a.buf != nil {
		t.Errorf("rank arena of %d ranks outlived reset", maxRankArena+1)
	}
	a.buf = make([]uint32, 100, maxRankArena)
	a.reset()
	if cap(a.buf) != maxRankArena || len(a.buf) != 0 {
		t.Errorf("rank arena within the cap not kept empty: len %d cap %d", len(a.buf), cap(a.buf))
	}
	items := reuseItems(make([]ppjoin.Item, 3, maxRetainedItems+1))
	if items != nil {
		t.Errorf("item buffer of %d outlived reuseItems", maxRetainedItems+1)
	}
	items = make([]ppjoin.Item, 3, 8)
	items[1].Ranks = []uint32{1}
	if items = reuseItems(items); cap(items) != 8 || len(items) != 0 || items[:3][1].Ranks != nil {
		t.Errorf("reuseItems did not keep and clear a small buffer: %+v", items[:3])
	}
}
