package mapreduce

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestFormatForResolution(t *testing.T) {
	j := Job{
		InputFormat: Text,
		InputFormatsByPrefix: map[string]Format{
			"pairs/":      Pairs,
			"pairs/deep/": Text,
			"exact":       Pairs,
		},
	}
	cases := []struct {
		file string
		want Format
	}{
		{"plain", Text},
		{"exact", Pairs},
		{"pairs/part-r-00000", Pairs},
		{"pairs/deep/part-r-00000", Text}, // longest prefix wins
		{"pairsX", Text},                  // prefix must match exactly
	}
	for _, c := range cases {
		if got := j.formatFor(c.file); got != c.want {
			t.Errorf("formatFor(%q) = %v, want %v", c.file, got, c.want)
		}
	}
}

// statefulMapper counts records per task instance; without TaskLocal the
// shared instance would observe every task's records.
type statefulMapper struct {
	instances *int64
	records   int
}

func (m *statefulMapper) NewTaskInstance() any {
	atomic.AddInt64(m.instances, 1)
	return &statefulMapper{instances: m.instances}
}

func (m *statefulMapper) Map(_ *Context, _, value []byte, out Emitter) error {
	m.records++
	return out.Emit(value, []byte(strconv.Itoa(m.records)))
}

func TestTaskLocalInstancesPerTask(t *testing.T) {
	fs := newFS()
	// Tiny blocks so several map tasks run.
	w, err := fs.Create("in")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		w.Append([]byte(fmt.Sprintf("line%d\n", i)))
	}
	w.Close()
	var instances int64
	_, err = Run(Job{
		Name: "tasklocal", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: &statefulMapper{instances: &instances},
		Reducer: firstValueReducer, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("in")
	if instances != int64(len(splits)) {
		t.Fatalf("instances = %d, want one per split (%d)", instances, len(splits))
	}
	// Every record must have been the first (and only counters reset per
	// task when blocks hold one line each).
	pairs, _ := readOutputPairs(fs, "out/")
	for _, p := range pairs {
		n, _ := strconv.Atoi(string(p.Value))
		if n < 1 {
			t.Fatalf("per-instance counter = %d", n)
		}
	}
}

func TestEmitterArenaLargeValues(t *testing.T) {
	// Records far larger than the arena's first allocation must
	// round-trip bit-exact beside small ones.
	var p partBuf
	big := bytes.Repeat([]byte("x"), 64<<10)
	small := []byte("small")
	emit := func(k, v []byte) {
		t.Helper()
		if !p.add(k, v, 0, maxArena, 0, 0) {
			t.Fatal("arena refused a record")
		}
	}
	emit(small, big)
	emit(big, small)
	// Force many arena regrowths.
	for i := 0; i < 10000; i++ {
		v := []byte(strconv.Itoa(i))
		emit(v, v)
	}
	if first := p.pair(p.idx[0]); !bytes.Equal(first.Key, small) || !bytes.Equal(first.Value, big) {
		t.Fatal("large value corrupted")
	}
	for i := 0; i < 10000; i++ {
		want := strconv.Itoa(i)
		if got := p.pair(p.idx[2+i]); string(got.Key) != want || string(got.Value) != want {
			t.Fatalf("pair %d corrupted: %q/%q", i, got.Key, got.Value)
		}
	}
}

// pair reads one buffered record back out of the arena.
func (p *partBuf) pair(e idxEntry) Pair {
	k, ke := p.key(e)
	v, _ := p.value(ke)
	return Pair{Key: k, Value: v}
}

func TestEmitterArenaStability(t *testing.T) {
	// Earlier records must stay addressable as later emissions regrow
	// the arena: index entries hold offsets, not pointers.
	var p partBuf
	var wants []string
	for i := 0; i < 50000; i++ {
		s := fmt.Sprintf("key-%d", i)
		wants = append(wants, s)
		if !p.add([]byte(s), nil, 0, maxArena, 0, 0) {
			t.Fatal("arena refused a record")
		}
	}
	for i, w := range wants {
		if got := p.pair(p.idx[i]); string(got.Key) != w || len(got.Value) != 0 {
			t.Fatalf("pair %d = %q/%q, want %q", i, got.Key, got.Value, w)
		}
	}
}

func TestEmptyInputFileRuns(t *testing.T) {
	fs := newFS()
	w, _ := fs.Create("empty")
	w.Close()
	m, err := Run(Job{
		Name: "empty", FS: fs, Inputs: []string{"empty"}, InputFormat: Text,
		Output: "out", Mapper: wordCountMapper, Reducer: sumReducer, NumReducers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.MapTasks) != 0 {
		t.Fatalf("map tasks = %d for empty input", len(m.MapTasks))
	}
	pairs, err := readOutputPairs(fs, "out/")
	if err != nil || len(pairs) != 0 {
		t.Fatalf("pairs = %v, %v", pairs, err)
	}
	// Part files still exist (reducers ran with no input).
	if got := len(fs.List("out/")); got != 2 {
		t.Fatalf("part files = %d", got)
	}
}

func TestReduceOnlyValuesSkippedAreDropped(t *testing.T) {
	// A reducer that never calls Next still advances to the next group.
	fs := newFS()
	WriteTextFile(fs, "in", []string{"a a b"})
	lazy := ReduceFunc(func(_ *Context, key []byte, _ *Values, out Emitter) error {
		return out.Emit(key, []byte("seen"))
	})
	_, err := Run(Job{
		Name: "lazy", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: wordCountMapper, Reducer: lazy, NumReducers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pairs, _ := readOutputPairs(fs, "out/")
	if len(pairs) != 2 {
		t.Fatalf("groups = %d, want 2", len(pairs))
	}
}

func BenchmarkEngineWordCount(b *testing.B) {
	lines := make([]string, 2000)
	for i := range lines {
		lines[i] = fmt.Sprintf("alpha beta gamma delta token%d epsilon zeta", i%97)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := newFS()
		if err := WriteTextFile(fs, "in", lines); err != nil {
			b.Fatal(err)
		}
		if _, err := Run(Job{
			Name: "bench", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
			Output: "out", Mapper: &aggWordCountMapper{},
			Reducer: sumReducer, NumReducers: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReportContent(t *testing.T) {
	fs := newFS()
	WriteTextFile(fs, "in", []string{"a b c a", "b c d"})
	WriteTextFile(fs, "cache", []string{"side"})
	m, err := Run(Job{
		Name: "report-job", FS: fs, Inputs: []string{"in"}, InputFormat: Text,
		Output: "out", Mapper: wordCountMapper,
		Reducer: sumReducer, NumReducers: 2,
		SideFiles: []string{"cache"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report()
	for _, want := range []string{
		"job report-job", "map:", "reduce:", "shuffle:",
		"side files broadcast",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestHumanUnits(t *testing.T) {
	if bytesH(512) != "512B" || bytesH(2048) != "2.0KiB" ||
		bytesH(3<<20) != "3.00MiB" || bytesH(5<<30) != "5.00GiB" {
		t.Fatalf("bytesH wrong: %s %s %s %s",
			bytesH(512), bytesH(2048), bytesH(3<<20), bytesH(5<<30))
	}
	if count(999) != "999" || count(25_000) != "25k" || count(3_200_000) != "3.2M" {
		t.Fatalf("count wrong: %s %s %s", count(999), count(25_000), count(3_200_000))
	}
}

func init() {
	RegisterProgram("spec-roundtrip", func(string) (*Program, error) {
		return &Program{Mapper: wordCountMapper, Reducer: sumReducer}, nil
	})
}

// TestJobSpecRoundTrip: a worker rebuilds from a JobSpec the job the
// coordinator serialized, the group prefix included.
func TestJobSpecRoundTrip(t *testing.T) {
	fs := newFS()
	job := Job{
		Name: "spec", FS: fs, Inputs: []string{"in", "dir/"}, InputFormat: Text,
		InputFormatsByPrefix: map[string]Format{"dir/": Pairs}, Output: "out", OutputFormat: Text,
		NumReducers: 3, GroupPrefix: 5, SideFiles: []string{"side"}, Conf: map[string]string{"k": "v"},
		MemoryLimit: 1 << 20,
		Program:     "spec-roundtrip", ProgramSpec: "{}",
	}
	got, err := JobFromSpec(job.Spec(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spec(), job.Spec()) {
		t.Fatalf("JobFromSpec(Spec()) = %+v, want %+v", got.Spec(), job.Spec())
	}
	if got.FS != fs || got.Mapper == nil || got.Reducer == nil {
		t.Fatalf("rebuilt job lacks its storage or task bodies: %+v", got)
	}
}
