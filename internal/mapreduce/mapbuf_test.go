package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// bufferPairs generates map output that reaches every comparison the
// index sort can make: empty keys and values, keys shorter than the
// 8-byte prefix, long keys sharing their first eight bytes, repeated
// keys with different values, and fully identical pairs.
func bufferPairs(rng *rand.Rand, n int) []Pair {
	out := randomPairs(rng, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i].Key = append([]byte("aaaaaaaa"), out[i].Key...)
		}
	}
	return out
}

// oracleMapOutput is the map side the buffer replaced, built from the
// reference pieces: partition into []Pair, sortPairs and encodeRun.
func oracleMapOutput(job *Job, emitted []Pair) ([][]byte, TaskMetrics) {
	var tm TaskMetrics
	parts := make([][]Pair, job.NumReducers)
	for _, p := range emitted {
		r := partition(p.Key, job.GroupPrefix, job.NumReducers)
		parts[r] = append(parts[r], p)
	}
	segs := make([][]byte, job.NumReducers)
	tm.PartitionBytes = make([]int64, job.NumReducers)
	for r, run := range parts {
		sortPairs(run)
		seg := encodeRun(run)
		segs[r] = seg
		tm.PartitionBytes[r] = int64(len(seg))
		tm.OutputRecords += int64(len(run))
		tm.OutputBytes += int64(len(seg))
	}
	return segs, tm
}

// bufferMapOutput runs the same emissions through the map buffer.
func bufferMapOutput(t *testing.T, job *Job, emitted []Pair) ([][]byte, TaskMetrics) {
	t.Helper()
	if job.Buffers == nil {
		job.Buffers = NewBuffers(1)
	}
	buf := newMapBuffer(job, 0)
	defer buf.release()
	for _, p := range emitted {
		if err := buf.Emit(p.Key, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	var tm TaskMetrics
	return buf.finish(&tm), tm
}

func sameMapOutput(t *testing.T, label string, got, want [][]byte, gotTM, wantTM TaskMetrics) {
	t.Helper()
	for r := range want {
		if !bytes.Equal(got[r], want[r]) {
			t.Fatalf("%s: partition %d segment differs:\n got %q\nwant %q", label, r, got[r], want[r])
		}
	}
	if !reflect.DeepEqual(gotTM, wantTM) {
		t.Fatalf("%s: metrics differ:\n got %+v\nwant %+v", label, gotTM, wantTM)
	}
}

// TestMapBufferMatchesOracle pins the buffer byte for byte — segments,
// PartitionBytes, OutputRecords — to the materialized map side it
// replaced, across group prefixes.
func TestMapBufferMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, w := range []int{0, 3} {
		job := &Job{NumReducers: 3, GroupPrefix: w}
		for trial := 0; trial < 36; trial++ {
			emitted := bufferPairs(rng, rng.Intn(60))
			want, wantTM := oracleMapOutput(job, emitted)
			got, gotTM := bufferMapOutput(t, job, emitted)
			sameMapOutput(t, fmt.Sprintf("w=%d trial %d", w, trial), got, want, gotTM, wantTM)
		}
	}
}

// TestMapBufferArenaLimit pins the offset guard: a record the partition
// arena cannot take is a typed error, not a wrapped uint32 offset, and
// the arena keeps what it held.
func TestMapBufferArenaLimit(t *testing.T) {
	job := &Job{NumReducers: 1, Buffers: NewBuffers(1)}
	buf := newMapBuffer(job, 0)
	defer buf.release()
	buf.limit = 256
	if err := buf.Emit([]byte("k"), make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	err := buf.Emit([]byte("k"), make([]byte, 100))
	if !errors.Is(err, ErrMapOutputTooLarge) {
		t.Fatalf("record past the arena limit: got %v, want ErrMapOutputTooLarge", err)
	}
	var tm TaskMetrics
	buf.finish(&tm)
	if tm.OutputRecords != 1 {
		t.Fatalf("arena holds %d records after the refused one, want 1", tm.OutputRecords)
	}
}

// arenaLimitMapper lowers its task's arena limit before the first Emit,
// so a few records overflow it.
type arenaLimitMapper struct{}

func (arenaLimitMapper) Map(ctx *Context, key, value []byte, out Emitter) error {
	out.(*mapBuffer).limit = 64
	return wordCountMapper.Map(ctx, key, value, out)
}

// TestMapOutputTooLargeFailsTask runs a job whose map output overflows a
// lowered arena limit: every attempt fails with ErrMapOutputTooLarge
// (wrapped), and the job leaves no temporary files, in the DFS or on
// local disk.
func TestMapOutputTooLargeFailsTask(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	fs := newFS()
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.Mapper = arenaLimitMapper{}
	job.Retry = RetryPolicy{MaxAttempts: 2}
	m, err := Run(job)
	if !errors.Is(err, ErrMapOutputTooLarge) {
		t.Fatalf("Run = %v, want an error wrapping ErrMapOutputTooLarge", err)
	}
	if m != nil && len(m.ReduceTasks) > 0 {
		t.Fatalf("%d reduce tasks ran after the map phase failed", len(m.ReduceTasks))
	}
	if files := fs.List(""); len(files) != 1 || files[0] != "in" {
		t.Fatalf("DFS holds %v after the failed job, want only the input", files)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
		t.Fatalf("local temporary directory holds %v (%v) after the failed job", left, err)
	}
}

// scribblePooledBuffers takes buffers out of the job's Buffers and
// overwrites the whole capacity of every arena — what the next map task
// does to a released buffer.
func scribblePooledBuffers(job *Job, n int) {
	fill := func(b []byte) {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xA5
		}
	}
	bufs := make([]*mapBuffer, n)
	for i := range bufs {
		b := job.Buffers.free.Get()
		for _, p := range b.parts[:cap(b.parts)] {
			fill(p.data)
		}
		bufs[i] = b
	}
	for _, b := range bufs {
		job.Buffers.free.Put(b)
	}
}

// TestMapBufferPoolNoAlias runs map attempts concurrently through the
// job's Buffers — each task twice, as a retry would — while
// released buffers are overwritten, and checks every committed result
// against the one computed before any buffer was recycled. Run under
// -race -count=10.
func TestMapBufferPoolNoAlias(t *testing.T) {
	fs := newFS()
	writeFaultInput(t, fs)
	job := faultJob(fs, "out")
	job.Mapper = &aggWordCountMapper{}
	job.Buffers = NewBuffers(runtime.GOMAXPROCS(0) + 2)
	if err := job.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits("in")
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]byte, len(splits))
	for i, s := range splits {
		res, _, err := runMapTask(&job, i, 1, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range res.parts {
			want[i] = append(want[i], bytes.Clone(seg))
		}
	}

	const attempts = 2
	got := make([][attempts]mapResult, len(splits))
	var wg sync.WaitGroup
	for i := range splits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for a := 0; a < attempts; a++ {
				res, _, err := runMapTask(&job, i, a+1, splits[i], nil)
				if err != nil {
					t.Error(err)
					return
				}
				got[i][a] = res
				scribblePooledBuffers(&job, 2)
			}
		}(i)
	}
	wg.Wait()
	scribblePooledBuffers(&job, runtime.GOMAXPROCS(0)+2)
	for i := range got {
		for a, res := range got[i] {
			if len(res.parts) != len(want[i]) {
				t.Fatalf("task %d attempt %d: %d segments, want %d", i, a+1, len(res.parts), len(want[i]))
			}
			for r, seg := range res.parts {
				if !bytes.Equal(seg, want[i][r]) {
					t.Fatalf("task %d attempt %d: segment %d changed after its buffer was recycled", i, a+1, r)
				}
			}
		}
	}
}

// TestMapOutputAllocationPerRecord is the allocation guard for the map
// side: one map task emitting Stage-1-shaped pairs (an 8-byte token, a
// one-byte count) on a cold buffer may allocate at most 112 bytes per
// emitted record, everything included — arena and index grown by
// doubling (about 2 × (16 B entry + 11 B record), plus the slack of the
// last doubling), the sort, and the committed segments. It measures
// 95 B/record; the []Pair path this replaced measured 700 B/record on
// the same task. A warm (recycled) buffer allocates the segments only.
func TestMapOutputAllocationPerRecord(t *testing.T) {
	const records = 200_000
	const bound = 112
	fs := newFS()
	if err := WriteTextFile(fs, "in", []string{"go"}); err != nil {
		t.Fatal(err)
	}
	job := Job{
		Name: "alloc-guard", FS: fs, Inputs: []string{"in"}, Output: "out",
		Mapper: MapFunc(func(_ *Context, _, _ []byte, out Emitter) error {
			k, one := []byte("tok00000"), []byte{1}
			for i := 0; i < records; i++ {
				for d, n := 7, i%50_000; d >= 3; d, n = d-1, n/10 {
					k[d] = byte('0' + n%10)
				}
				if err := out.Emit(k, one); err != nil {
					return err
				}
			}
			return nil
		}),
		Reducer:     sumReducer,
		NumReducers: 4,
	}
	if err := job.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits("in")
	if err != nil {
		t.Fatal(err)
	}
	// The job's Buffers are new: the task's buffer is cold.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, tm, err := runMapTask(&job, 0, 1, splits[0], nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if tm.OutputRecords != records {
		t.Fatalf("map task emitted %d records, want %d", tm.OutputRecords, records)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / records
	t.Logf("map side allocated %.1f B per emitted record (bound %d)", perRecord, bound)
	if perRecord > bound {
		t.Fatalf("map side allocated %.1f B per emitted record, bound %d", perRecord, bound)
	}
}

// bufferProbe is a mapper that emits the same 200 pairs per input record
// and notes, at the end of each task, which map buffer the task had and
// where that buffer's first partition arena lies. With gc set it collects
// garbage twice before each task: what empties a sync.Pool, victim cache
// included.
type bufferProbe struct {
	gc        bool
	mu        sync.Mutex
	arenas    []*byte
	seen      map[uintptr]bool // buffers, by address: a pointer would pin them
	finalized atomic.Int64
}

func (p *bufferProbe) Setup(*Context) error {
	if p.gc {
		runtime.GC()
		runtime.GC()
	}
	return nil
}

func (p *bufferProbe) Map(_ *Context, _, _ []byte, out Emitter) error {
	k := []byte("k0000")
	for i := 0; i < 200; i++ {
		k[3], k[4] = byte('0'+i/10%10), byte('0'+i%10)
		if err := out.Emit(k, []byte("1")); err != nil {
			return err
		}
	}
	return nil
}

func (p *bufferProbe) Cleanup(_ *Context, out Emitter) error {
	b := out.(*mapBuffer)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.arenas = append(p.arenas, unsafe.SliceData(b.parts[0].data))
	if addr := uintptr(unsafe.Pointer(b)); !p.seen[addr] {
		p.seen[addr] = true
		runtime.SetFinalizer(b, func(*mapBuffer) { p.finalized.Add(1) })
	}
	return nil
}

// runBufferProbe runs jobs jobs of several equal map tasks each through
// probe, at the given parallelism, sharing buffers (nil: each job its own).
func runBufferProbe(t *testing.T, probe *bufferProbe, parallelism, jobs int, buffers *Buffers) {
	t.Helper()
	probe.seen = map[uintptr]bool{}
	fs := newFS()
	lines := make([]string, 120)
	for i := range lines {
		lines[i] = "0123456789"
	}
	if err := WriteTextFile(fs, "in", lines); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < jobs; j++ {
		if _, err := Run(Job{Name: "probe", FS: fs, Inputs: []string{"in"}, Output: fmt.Sprintf("out%d", j),
			Mapper: probe, Reducer: sumReducer, NumReducers: 2, Parallelism: parallelism,
			Buffers: buffers}); err != nil {
			t.Fatal(err)
		}
	}
	if len(probe.arenas) < 4*jobs {
		t.Fatalf("%d map tasks in %d jobs, want at least 4 a job", len(probe.arenas), jobs)
	}
}

// waitCollected waits until every map buffer probe saw is garbage.
func waitCollected(t *testing.T, probe *bufferProbe) {
	t.Helper()
	made := int64(len(probe.seen))
	for deadline := time.Now().Add(5 * time.Second); probe.finalized.Load() < made; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d map buffers still reachable", made-probe.finalized.Load(), made)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestMapBufferWarmAcrossGC runs two jobs sharing Buffers, their map
// tasks one at a time with two garbage collections before each: every
// task after the first must get the first task's buffer with its arena as
// grown, not a new one.
func TestMapBufferWarmAcrossGC(t *testing.T) {
	probe := &bufferProbe{gc: true}
	runBufferProbe(t, probe, 1, 2, NewBuffers(1))
	for i, a := range probe.arenas {
		if a != probe.arenas[0] {
			t.Fatalf("map task %d of %d regrew its arena after a GC", i, len(probe.arenas))
		}
	}
	if len(probe.seen) != 1 {
		t.Fatalf("%d map buffers for jobs run one task at a time, want 1", len(probe.seen))
	}
}

// TestMapBufferRetention pins what map buffers outlive: a job makes at
// most Parallelism of them; a job with Buffers of its own leaves none
// reachable once Run returns; Buffers shared by two jobs keep at most
// their bound, and none after Release.
func TestMapBufferRetention(t *testing.T) {
	const parallelism = 3
	own := &bufferProbe{}
	runBufferProbe(t, own, parallelism, 1, nil)
	if len(own.seen) > parallelism {
		t.Fatalf("%d map buffers at Parallelism %d", len(own.seen), parallelism)
	}
	waitCollected(t, own)

	shared := &bufferProbe{}
	buffers := NewBuffers(parallelism)
	runBufferProbe(t, shared, parallelism, 2, buffers)
	if len(shared.seen) > parallelism {
		t.Fatalf("%d map buffers in two jobs at Parallelism %d", len(shared.seen), parallelism)
	}
	kept := 0
	for b := buffers.free.Get(); b.parts != nil; b = buffers.free.Get() {
		kept++
	}
	if kept == 0 || kept > parallelism {
		t.Fatalf("shared Buffers keep %d map buffers, want 1 to %d", kept, parallelism)
	}
	buffers.Release()
	waitCollected(t, shared)
}
