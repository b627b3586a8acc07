package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/keys"
)

func newFS() *dfs.FS {
	return dfs.New(dfs.Options{BlockSize: 256, Nodes: 4})
}

// wordCountMapper emits (word, 1) per word.
var wordCountMapper = MapFunc(func(_ *Context, _, value []byte, out Emitter) error {
	for _, w := range strings.Fields(string(value)) {
		if err := out.Emit([]byte(w), []byte("1")); err != nil {
			return err
		}
	}
	return nil
})

// sumReducer sums integer values.
var sumReducer = ReduceFunc(func(_ *Context, key []byte, values *Values, out Emitter) error {
	total := 0
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		total += n
	}
	return out.Emit(key, []byte(strconv.Itoa(total)))
})

// aggWordCountMapper is wordCountMapper with in-mapper combining: each
// map task adds its words up and emits one (word, count) per distinct
// word from Cleanup.
type aggWordCountMapper struct{ counts map[string]int }

func (m *aggWordCountMapper) NewTaskInstance() any {
	return &aggWordCountMapper{counts: map[string]int{}}
}

func (m *aggWordCountMapper) Map(_ *Context, _, value []byte, _ Emitter) error {
	for _, w := range strings.Fields(string(value)) {
		m.counts[w]++
	}
	return nil
}

func (m *aggWordCountMapper) Cleanup(_ *Context, out Emitter) error {
	words := make([]string, 0, len(m.counts))
	for w := range m.counts {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		if err := out.Emit([]byte(w), []byte(strconv.Itoa(m.counts[w]))); err != nil {
			return err
		}
	}
	return nil
}

func runWordCount(t *testing.T, mapper Mapper, reducers int) (*dfs.FS, *Metrics) {
	t.Helper()
	fs := newFS()
	lines := []string{
		"a b c",
		"b c d",
		"c d e",
		"a a a",
	}
	if err := WriteTextFile(fs, "in", lines); err != nil {
		t.Fatal(err)
	}
	m, err := Run(Job{
		Name:        "wordcount",
		FS:          fs,
		Inputs:      []string{"in"},
		InputFormat: Text,
		Output:      "out",
		Mapper:      mapper,
		Reducer:     sumReducer,
		NumReducers: reducers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs, m
}

func collectCounts(t *testing.T, fs *dfs.FS) map[string]int {
	t.Helper()
	pairs, err := readOutputPairs(fs, "out/")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, p := range pairs {
		n, err := strconv.Atoi(string(p.Value))
		if err != nil {
			t.Fatal(err)
		}
		got[string(p.Key)] = n
	}
	return got
}

var wantCounts = map[string]int{"a": 4, "b": 2, "c": 3, "d": 2, "e": 1}

func TestWordCount(t *testing.T) {
	fs, _ := runWordCount(t, wordCountMapper, 3)
	if got := collectCounts(t, fs); !reflect.DeepEqual(got, wantCounts) {
		t.Fatalf("counts = %v, want %v", got, wantCounts)
	}
}

// TestRunForcesNoCollection: a job runs under the runtime's own pacer;
// the engine forces no garbage collection (a core pipeline forces one
// when it starts). Not parallel: the count is process-wide.
func TestRunForcesNoCollection(t *testing.T) {
	before := forcedGCs()
	runWordCount(t, wordCountMapper, 3)
	if n := forcedGCs() - before; n != 0 {
		t.Fatalf("Run forced %d collections, want 0", n)
	}
}

// forcedGCs is the number of collections the process has forced so far.
func forcedGCs() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumForcedGC
}

// TestWordCountInMapperCombining: a mapper that emits its task's counts
// from Cleanup computes the same counts over a smaller shuffle.
func TestWordCountInMapperCombining(t *testing.T) {
	fs, m := runWordCount(t, &aggWordCountMapper{}, 3)
	if got := collectCounts(t, fs); !reflect.DeepEqual(got, wantCounts) {
		t.Fatalf("counts = %v, want %v", got, wantCounts)
	}
	_, mNo := runWordCount(t, wordCountMapper, 3)
	if m.TotalShuffleBytes() >= mNo.TotalShuffleBytes() {
		t.Fatalf("aggregation did not shrink shuffle: with=%d without=%d",
			m.TotalShuffleBytes(), mNo.TotalShuffleBytes())
	}
}

func TestSingleReducerOutputSorted(t *testing.T) {
	fs, _ := runWordCount(t, wordCountMapper, 1)
	pairs, err := readOutputPairs(fs, "out/")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pairs); i++ {
		if bytes.Compare(pairs[i-1].Key, pairs[i].Key) > 0 {
			t.Fatalf("output not sorted at %d: %q > %q", i, pairs[i-1].Key, pairs[i].Key)
		}
	}
}

// TestSecondarySort exercises the partition-on-prefix / sort-on-full-key /
// group-on-prefix idiom Stage 2 PK depends on.
func TestSecondarySort(t *testing.T) {
	fs := newFS()
	// Pairs keyed by (group uint32, seq uint32); values record the seq.
	var in []Pair
	for g := uint32(0); g < 3; g++ {
		for s := uint32(10); s > 0; s-- {
			k := keys.AppendUint32(keys.AppendUint32(nil, g), s)
			in = append(in, Pair{Key: k, Value: []byte(fmt.Sprintf("g%d-s%d", g, s))})
		}
	}
	if err := WritePairsFile(fs, "in", in); err != nil {
		t.Fatal(err)
	}
	// Reducer asserts one call per group and values in increasing seq.
	red := ReduceFunc(func(_ *Context, key []byte, values *Values, out Emitter) error {
		g, _ := keys.MustUint32(key)
		prev := uint32(0)
		n := 0
		for _, ok := values.Next(); ok; _, ok = values.Next() {
			full := values.Key()
			kg, rest := keys.MustUint32(full)
			s, _ := keys.MustUint32(rest)
			if kg != g {
				return fmt.Errorf("group mixed: %d vs %d", kg, g)
			}
			if s <= prev {
				return fmt.Errorf("values not in seq order: %d after %d", s, prev)
			}
			prev = s
			n++
		}
		return out.Emit(keys.AppendUint32(nil, g), []byte(strconv.Itoa(n)))
	})
	m, err := Run(Job{
		Name:        "secondary-sort",
		FS:          fs,
		Inputs:      []string{"in"},
		InputFormat: Pairs,
		Output:      "out",
		Mapper:      IdentityMapper,
		Reducer:     red,
		NumReducers: 2,
		GroupPrefix: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := readOutputPairs(fs, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("reduce groups = %d, want 3", len(pairs))
	}
	for _, p := range pairs {
		if string(p.Value) != "10" {
			t.Fatalf("group size = %s, want 10", p.Value)
		}
	}
	if m.TotalShuffleBytes() == 0 {
		t.Fatal("no shuffle bytes recorded")
	}
}

// TestPartitionOnPrefixKeepsGroupsTogether: all pairs of one group land in
// one partition even when the full keys differ.
func TestPartitionOnPrefixKeepsGroupsTogether(t *testing.T) {
	for g := uint32(0); g < 100; g++ {
		base := partition(keys.AppendUint32(keys.AppendUint32(nil, g), 0), 4, 7)
		for s := uint32(1); s < 20; s++ {
			k := keys.AppendUint32(keys.AppendUint32(nil, g), s)
			if partition(k, 4, 7) != base {
				t.Fatalf("group %d split across partitions", g)
			}
		}
	}
}

func TestMultipleInputsAndInputFile(t *testing.T) {
	fs := newFS()
	if err := WriteTextFile(fs, "inA", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTextFile(fs, "inB", []string{"z"}); err != nil {
		t.Fatal(err)
	}
	tag := MapFunc(func(ctx *Context, _, value []byte, out Emitter) error {
		return out.Emit(value, []byte(ctx.InputFile))
	})
	_, err := Run(Job{
		Name: "multi", FS: fs, Inputs: []string{"inA", "inB"}, InputFormat: Text,
		Output: "out", Mapper: tag, Reducer: firstValueReducer, NumReducers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, _ := readOutputPairs(fs, "out/")
	got := map[string]string{}
	for _, p := range pairs {
		got[string(p.Key)] = string(p.Value)
	}
	want := map[string]string{"x": "inA", "y": "inA", "z": "inB"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

var firstValueReducer = ReduceFunc(func(_ *Context, key []byte, values *Values, out Emitter) error {
	v, _ := values.Next()
	return out.Emit(key, v)
})

func TestInputPrefixExpansion(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "stage1/part-r-00000", []string{"a"})
	WriteTextFile(fs, "stage1/part-r-00001", []string{"b"})
	_, err := Run(Job{
		Name: "expand", FS: fs, Inputs: []string{"stage1/"}, InputFormat: Text,
		Output: "out", Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, _ := readOutputPairs(fs, "out/")
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestSideFiles(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"hello"})
	WriteTextFile(fs, "cache", []string{"BROADCAST"})
	mapper := MapFunc(func(ctx *Context, _, value []byte, out Emitter) error {
		b, err := ctx.SideFile("cache")
		if err != nil {
			return err
		}
		return out.Emit(value, bytes.TrimSpace(b))
	})
	m, err := Run(Job{
		Name: "side", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: mapper, Reducer: firstValueReducer,
		SideFiles: []string{"cache"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.SideBytes == 0 {
		t.Fatal("SideBytes not recorded")
	}
	pairs, _ := readOutputPairs(fs, "out/")
	if len(pairs) != 1 || string(pairs[0].Value) != "BROADCAST" {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestSideFileMissingFromContext(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"hello"})
	mapper := MapFunc(func(ctx *Context, _, _ []byte, _ Emitter) error {
		_, err := ctx.SideFile("not-attached")
		if err == nil {
			return errors.New("expected error")
		}
		return nil
	})
	if _, err := Run(Job{
		Name: "side2", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: mapper, Reducer: firstValueReducer,
	}); err != nil {
		t.Fatal(err)
	}
}

// setupCleanupReducer counts via Setup and emits from Cleanup (the OPTO
// pattern).
type setupCleanupReducer struct {
	setups int
	seen   []string
}

func (r *setupCleanupReducer) Setup(_ *Context) error {
	r.setups++
	return nil
}

func (r *setupCleanupReducer) Reduce(_ *Context, key []byte, values *Values, _ Emitter) error {
	for _, ok := values.Next(); ok; _, ok = values.Next() {
	}
	r.seen = append(r.seen, string(key))
	return nil
}

func (r *setupCleanupReducer) Cleanup(_ *Context, out Emitter) error {
	sort.Strings(r.seen)
	return out.Emit([]byte("ALL"), []byte(strings.Join(r.seen, ",")))
}

func TestReducerSetupCleanupEmits(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"b a", "c"})
	red := &setupCleanupReducer{}
	_, err := Run(Job{
		Name: "cleanup", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: wordCountMapper, Reducer: red, NumReducers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if red.setups != 1 {
		t.Fatalf("setups = %d", red.setups)
	}
	pairs, _ := readOutputPairs(fs, "out/")
	if len(pairs) != 1 || string(pairs[0].Value) != "a,b,c" {
		t.Fatalf("pairs = %v", pairs)
	}
}

func TestMemoryLimitFailsJob(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"x"})
	hog := MapFunc(func(ctx *Context, _, value []byte, out Emitter) error {
		return ctx.Memory.Alloc(1 << 20)
	})
	_, err := Run(Job{
		Name: "oom", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: hog, Reducer: firstValueReducer,
		MemoryLimit: 1024,
	})
	if !errors.Is(err, ErrInsufficientMemory) {
		t.Fatalf("err = %v, want ErrInsufficientMemory", err)
	}
	if len(fs.List("out/")) != 0 {
		t.Fatal("partial output left behind after failure")
	}
}

func TestMemoryTracker(t *testing.T) {
	m := &Memory{limit: 100}
	if err := m.Alloc(60); err != nil {
		t.Fatal(err)
	}
	m.Free(30)
	if err := m.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 90 || m.Peak() != 90 || m.Limit() != 100 {
		t.Fatalf("used=%d peak=%d limit=%d", m.Used(), m.Peak(), m.Limit())
	}
	if err := m.Alloc(20); !errors.Is(err, ErrInsufficientMemory) {
		t.Fatalf("over-budget Alloc err = %v", err)
	}
	m.Free(1000)
	if m.Used() != 0 {
		t.Fatalf("Used after over-free = %d", m.Used())
	}
}

func TestCounters(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"a b", "c"})
	mapper := MapFunc(func(ctx *Context, _, value []byte, out Emitter) error {
		ctx.Count("lines", 1)
		return wordCountMapper(ctx, nil, value, out)
	})
	m, err := Run(Job{
		Name: "counters", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: mapper, Reducer: sumReducer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["lines"] != 2 {
		t.Fatalf("lines counter = %d", m.Counters["lines"])
	}
}

func TestJobValidation(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"x"})
	base := Job{Name: "v", FS: fs, Inputs: []string{"in"}, Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer}
	cases := []func(*Job){
		func(j *Job) { j.FS = nil },
		func(j *Job) { j.Mapper = nil },
		func(j *Job) { j.Reducer = nil },
		func(j *Job) { j.Inputs = nil },
		func(j *Job) { j.Output = "" },
		func(j *Job) { j.Inputs = []string{"missing"} },
		func(j *Job) { j.Inputs = []string{"empty-prefix/"} },
	}
	for i, mutate := range cases {
		j := base
		mutate(&j)
		if _, err := Run(j); err == nil {
			t.Fatalf("case %d: Run succeeded", i)
		}
	}
}

func TestMapErrorPropagates(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"x"})
	boom := MapFunc(func(_ *Context, _, _ []byte, _ Emitter) error {
		return errors.New("boom")
	})
	_, err := Run(Job{Name: "err", FS: fs, Inputs: []string{"in"}, Output: "out",
		Mapper: boom, Reducer: sumReducer})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"x"})
	boom := ReduceFunc(func(_ *Context, _ []byte, _ *Values, _ Emitter) error {
		return errors.New("reduce-boom")
	})
	_, err := Run(Job{Name: "err", FS: fs, Inputs: []string{"in"}, Output: "out",
		Mapper: wordCountMapper, Reducer: boom})
	if err == nil || !strings.Contains(err.Error(), "reduce-boom") {
		t.Fatalf("err = %v", err)
	}
	if len(fs.List("out/")) != 0 {
		t.Fatal("partial output left behind")
	}
}

// TestGroupHead pins the group-prefix contract: a job partitions and
// groups on the first w key bytes (a shorter key, or w = 0, counts
// whole), and the partition is FNV-1a-32 of that head mod the reducer
// count.
func TestGroupHead(t *testing.T) {
	a := keys.AppendUint32(keys.AppendUint32(nil, 7), 100)
	b := keys.AppendUint32(keys.AppendUint32(nil, 7), 200)
	c := keys.AppendUint32(keys.AppendUint32(nil, 8), 100)
	if !sameGroup(a, b, 4) || sameGroup(a, c, 4) {
		t.Fatal("group prefix 4 should group on the first component only")
	}
	if sameGroup(a, b, 0) || !sameGroup(a, a, 0) {
		t.Fatal("group prefix 0 should group on the whole key")
	}
	if sameGroup([]byte{1}, []byte{1, 0}, 4) || !sameGroup([]byte{1, 2}, []byte{1, 2}, 4) {
		t.Fatal("keys shorter than the prefix should count whole")
	}
	for _, key := range [][]byte{nil, {1}, a, b, c, []byte("a longer key than any prefix")} {
		for _, w := range []int{0, 1, 4, 8} {
			head := key
			if w > 0 && len(key) > w {
				head = key[:w]
			}
			h := fnv.New32a()
			h.Write(head)
			if got, want := partition(key, w, 7), int(h.Sum32()%7); got != want {
				t.Fatalf("partition(%q, %d, 7) = %d, want FNV-1a %d", key, w, got, want)
			}
		}
	}
}

// TestBadGroupPrefix: a negative group prefix is a job error.
func TestBadGroupPrefix(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"x"})
	_, err := Run(Job{Name: "badprefix", FS: fs, Inputs: []string{"in"}, Output: "out",
		Mapper: wordCountMapper, Reducer: sumReducer, GroupPrefix: -1})
	if err == nil || !strings.Contains(err.Error(), "GroupPrefix -1 is negative") {
		t.Fatalf("negative GroupPrefix: err = %v", err)
	}
}

// collectEmitter is the oracle's emitter: every pair copied into a plain
// slice (empty keys and values stay nil, as readOutputPairs returns them).
type collectEmitter struct{ pairs []Pair }

func (e *collectEmitter) Emit(key, value []byte) error {
	e.pairs = append(e.pairs, Pair{Key: append([]byte(nil), key...), Value: append([]byte(nil), value...)})
	return nil
}

// referenceRun is a trivial sequential MapReduce semantics oracle.
func referenceRun(t *testing.T, lines []string, mapper Mapper, reducer Reducer) []Pair {
	t.Helper()
	ctx := &Context{JobName: "ref", NumReducers: 1, Memory: &Memory{}, counters: &Counters{}}
	em := &collectEmitter{}
	for _, l := range lines {
		if err := mapper.Map(ctx, nil, []byte(l), em); err != nil {
			t.Fatal(err)
		}
	}
	sortPairs(em.pairs)
	out := &collectEmitter{}
	i := 0
	for i < len(em.pairs) {
		j := i + 1
		for j < len(em.pairs) && bytes.Equal(em.pairs[i].Key, em.pairs[j].Key) {
			j++
		}
		if err := reducer.Reduce(ctx, em.pairs[i].Key, &Values{pairs: em.pairs[i:j]}, out); err != nil {
			t.Fatal(err)
		}
		i = j
	}
	sortPairs(out.pairs)
	return out.pairs
}

// TestEquivalenceWithReference: the parallel engine computes exactly what
// the sequential reference computes, for any reducer count, parallelism,
// and with or without in-mapper combining.
func TestEquivalenceWithReference(t *testing.T) {
	lines := []string{
		"the quick brown fox", "jumps over the lazy dog",
		"the dog barks", "quick quick slow",
		"", "a", "fox dog the",
	}
	want := referenceRun(t, lines, wordCountMapper, sumReducer)
	for _, reducers := range []int{1, 2, 5, 8} {
		for _, par := range []int{1, 4} {
			for _, mapper := range []Mapper{wordCountMapper, &aggWordCountMapper{}} {
				fs := newFS()
				WriteTextFile(fs, "in", lines)
				job := Job{
					Name: "eq", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
					Output: "out", Mapper: mapper, Reducer: sumReducer,
					NumReducers: reducers, Parallelism: par,
				}
				if _, err := Run(job); err != nil {
					t.Fatal(err)
				}
				got, err := readOutputPairs(fs, "out/")
				if err != nil {
					t.Fatal(err)
				}
				sortPairs(got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("r=%d par=%d mapper=%T: got %v, want %v",
						reducers, par, mapper, got, want)
				}
			}
		}
	}
}

// TestDeterminism: two runs of the same job produce byte-identical part
// files.
func TestDeterminism(t *testing.T) {
	lines := []string{"z y x w", "x y z", "w w w"}
	var outs [2][]byte
	for run := 0; run < 2; run++ {
		fs := newFS()
		WriteTextFile(fs, "in", lines)
		if _, err := Run(Job{
			Name: "det", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
			Output: "out", Mapper: wordCountMapper, Reducer: sumReducer,
			NumReducers: 3, Parallelism: 4,
		}); err != nil {
			t.Fatal(err)
		}
		for _, name := range fs.List("out/") {
			b, _ := fs.ReadAll(name)
			outs[run] = append(outs[run], b...)
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("two identical runs produced different output bytes")
	}
}

func TestMetricsPopulated(t *testing.T) {
	_, m := runWordCount(t, wordCountMapper, 2)
	if len(m.MapTasks) == 0 || len(m.ReduceTasks) != 2 {
		t.Fatalf("tasks: %d map, %d reduce", len(m.MapTasks), len(m.ReduceTasks))
	}
	var inRecs int64
	for _, mt := range m.MapTasks {
		inRecs += mt.InputRecords
		if len(mt.PartitionBytes) != 2 {
			t.Fatalf("PartitionBytes = %v", mt.PartitionBytes)
		}
	}
	if inRecs != 4 {
		t.Fatalf("map input records = %d, want 4 lines", inRecs)
	}
	sh := m.ShufflePerReduce()
	if len(sh) != 2 || sh[0]+sh[1] != m.TotalShuffleBytes() {
		t.Fatalf("shuffle accounting inconsistent: %v vs %d", sh, m.TotalShuffleBytes())
	}
}

// TestTextInputKeyAndBytes: a Text mapper gets each line with an empty
// key, and a map task's InputBytes is its block's length.
func TestTextInputKeyAndBytes(t *testing.T) {
	fs := newFS()
	writeFaultInput(t, fs)
	splits, err := fs.Splits("in")
	if err != nil {
		t.Fatal(err)
	}
	job := faultJob(fs, "out")
	job.Mapper = MapFunc(func(ctx *Context, key, value []byte, out Emitter) error {
		if len(key) != 0 {
			return fmt.Errorf("line %q has key %q, want none", value, key)
		}
		return wordCountMapper.Map(ctx, key, value, out)
	})
	m, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 2 || len(m.MapTasks) != len(splits) {
		t.Fatalf("%d map tasks for %d splits, want several", len(m.MapTasks), len(splits))
	}
	for i, mt := range m.MapTasks {
		if mt.InputBytes != int64(splits[i].Bytes) {
			t.Fatalf("map task %d read %d bytes of a %d-byte block", i, mt.InputBytes, splits[i].Bytes)
		}
	}
}

func TestTextOutputFormat(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"b a"})
	_, err := Run(Job{
		Name: "text-out", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", OutputFormat: Text,
		Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines, err := readLines(fs, "out/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lines, []string{"a\t1", "b\t1"}) {
		t.Fatalf("lines = %v", lines)
	}
}

func TestValuesKeyBeforeNext(t *testing.T) {
	v := &Values{pairs: []Pair{{Key: []byte("k1")}, {Key: []byte("k2")}}}
	if string(v.Key()) != "k1" {
		t.Fatalf("Key before Next = %q", v.Key())
	}
	v.Next()
	v.Next()
	if string(v.Key()) != "k2" {
		t.Fatalf("Key after two Next = %q", v.Key())
	}
	empty := &Values{}
	if empty.Key() != nil || empty.Len() != 0 {
		t.Fatal("empty Values misbehaved")
	}
}

func TestPairsRoundTripViaFile(t *testing.T) {
	// The 300-byte pair exceeds newFS's 256-byte blocks: the DFS rejects
	// records larger than a block, so the write must surface that error.
	if err := WritePairsFile(newFS(), "f", []Pair{
		{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 300)},
	}); !errors.Is(err, dfs.ErrRecordTooLarge) {
		t.Fatalf("oversized pair: err = %v, want ErrRecordTooLarge", err)
	}

	fs := dfs.New(dfs.Options{BlockSize: 1024, Nodes: 4})
	in := []Pair{
		{Key: []byte{}, Value: []byte{}},
		{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 300)},
		{Key: []byte{0, 1, 2}, Value: nil},
	}
	if err := WritePairsFile(fs, "f", in); err != nil {
		t.Fatal(err)
	}
	got, err := readOutputPairs(fs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("got %d pairs", len(got))
	}
	for i := range in {
		if !bytes.Equal(got[i].Key, in[i].Key) || !bytes.Equal(got[i].Value, in[i].Value) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
}

// readOutputPairs copies every pair Walk hands over from the Pairs-format
// files under prefix (empty keys and values stay nil).
func readOutputPairs(fs dfs.Storage, prefix string) ([]Pair, error) {
	var out []Pair
	_, err := Walk(fs, prefix, Pairs, func(k, v []byte) error {
		out = append(out, Pair{Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
		return nil
	})
	return out, err
}

// readLines copies every line Walk hands over from the Text-format files
// under prefix.
func readLines(fs dfs.Storage, prefix string) ([]string, error) {
	var out []string
	_, err := Walk(fs, prefix, Text, func(_, l []byte) error {
		out = append(out, string(l))
		return nil
	})
	return out, err
}

// TestWalkBlockByBlock: Walk reads multi-block part files block by block,
// hands over the lines the whole-file read returns and reports every
// block byte; a block whose bytes changed after the write fails the walk
// with dfs.ErrChecksum until the byte is restored; an error from the
// callback stops the walk and comes back errors.Is-equal; a sibling
// prefix is not walked, and an empty output walks nothing.
func TestWalkBlockByBlock(t *testing.T) {
	fs := dfs.New(dfs.Options{BlockSize: 64, Nodes: 4})
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
	if err := WriteTextFile(fs, "out2/part-00000", []string{"sibling"}); err != nil {
		t.Fatal(err)
	}
	// wholeFile is the reference: every file read in one piece, then
	// split at newlines.
	var wholeFile []string
	var wholeBytes int64
	for _, name := range fs.List("out/") {
		b, err := fs.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		wholeBytes += int64(len(b))
		wholeFile = append(wholeFile, strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")...)
	}
	splits, err := fs.Splits("out/part-00001")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 3 {
		t.Fatalf("test premise broken: %d blocks", len(splits))
	}
	var got []string
	read, err := Walk(fs, "out/", Text, func(_, l []byte) error {
		got = append(got, string(l))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, wholeFile) {
		t.Fatalf("Walk = %q, want %q", got, want)
	}
	if read != wholeBytes {
		t.Fatalf("Walk read %d bytes, the files hold %d", read, wholeBytes)
	}

	block, err := fs.Block("out/part-00001", 1)
	if err != nil {
		t.Fatal(err)
	}
	block[0] ^= 0x01
	if _, err := readLines(fs, "out/"); !errors.Is(err, dfs.ErrChecksum) {
		t.Fatalf("Walk over a flipped byte: err %v, want dfs.ErrChecksum", err)
	}
	block[0] ^= 0x01
	if got, err := readLines(fs, "out/"); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Walk after restore = %q, %v", got, err)
	}

	stop := errors.New("stop")
	calls := 0
	_, err = Walk(fs, "out/", Text, func(_, l []byte) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || calls != 3 {
		t.Fatalf("callback error: err %v after %d calls, want stop after 3", err, calls)
	}
	if !strings.Contains(err.Error(), "out/part-00000") {
		t.Fatalf("callback error %q does not name its part file", err)
	}

	if got, err := readLines(fs, "out2/"); err != nil || !reflect.DeepEqual(got, []string{"sibling"}) {
		t.Fatalf("Walk(out2/) = %q, %v; want only the sibling's line", got, err)
	}
	read, err = Walk(fs, "none/", Text, func(_, l []byte) error {
		t.Fatalf("empty output handed over %q", l)
		return nil
	})
	if read != 0 || err != nil {
		t.Fatalf("empty output: read %d, err %v", read, err)
	}
}
