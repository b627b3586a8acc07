package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"fuzzyjoin/internal/dfs"
)

// randomPairs generates pairs with heavy key duplication (small alphabet,
// short keys) so sorts and merges exercise both tie-breaking paths: equal
// keys with different values and fully identical pairs.
func randomPairs(rng *rand.Rand, n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		k := make([]byte, rng.Intn(12))
		for j := range k {
			k[j] = byte('a' + rng.Intn(3))
		}
		v := make([]byte, rng.Intn(6))
		for j := range v {
			v[j] = byte('0' + rng.Intn(4))
		}
		out[i] = Pair{Key: k, Value: v}
	}
	return out
}

// referenceSort is the engine's order without the prefix cache: key
// bytes, then value bytes.
func referenceSort(pairs []Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if c := bytes.Compare(pairs[i].Key, pairs[j].Key); c != 0 {
			return c < 0
		}
		return bytes.Compare(pairs[i].Value, pairs[j].Value) < 0
	})
}

func samePairBytes(t *testing.T, got, want []Pair, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: pair %d: got (%q,%q), want (%q,%q)",
				label, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// TestPrefixSortMatchesPlainSort pins the prefix-cached sort to the
// plain byte order, including keys that tie on their eight-byte prefix
// and ties broken by value.
func TestPrefixSortMatchesPlainSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	t.Run("default-bytes-compare", func(t *testing.T) {
		for trial := 0; trial < 400; trial++ {
			pairs := bufferPairs(rng, rng.Intn(120))
			want := append([]Pair(nil), pairs...)
			referenceSort(want)
			sortPairs(pairs)
			samePairBytes(t, pairs, want, fmt.Sprintf("trial %d", trial))
		}
	})
}

// drainMergeStream collects a merge stream into a slice.
func drainMergeStream(t *testing.T, ms *mergeStream) []Pair {
	t.Helper()
	var out []Pair
	for {
		p, ok, err := ms.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, p)
	}
}

// TestMergeStreamMatchesMergeRuns pins the streaming loser-tree merge to
// the materialized reference merge on random sorted runs.
func TestMergeStreamMatchesMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		nRuns := rng.Intn(9) // includes 0-, 1-, and 2-run edge shapes
		runs := make([][]Pair, nRuns)
		for i := range runs {
			runs[i] = randomPairs(rng, rng.Intn(40))
			sortPairs(runs[i])
		}
		wantRuns := make([][]Pair, nRuns)
		for i := range runs {
			wantRuns[i] = append([]Pair(nil), runs[i]...)
		}
		want := mergeRuns(wantRuns)

		cursors := make([]*runCursor, nRuns)
		for i := range runs {
			cursors[i] = cursorForEncoded(encodeRun(runs[i]))
		}
		ms, err := newMergeStream(cursors)
		if err != nil {
			t.Fatal(err)
		}
		samePairBytes(t, drainMergeStream(t, ms), want, fmt.Sprintf("trial %d (%d runs)", trial, nRuns))
	}
}

// TestGroupStreamMatchesSlicing checks groupStream against the old
// grouped-slicing loop under a group prefix shorter than the keys.
func TestGroupStreamMatchesSlicing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		pairs := randomPairs(rng, rng.Intn(200))
		sortPairs(pairs)

		var want [][]Pair
		for i := 0; i < len(pairs); {
			j := i + 1
			for j < len(pairs) && bytes.Equal(groupHead(pairs[i].Key, 2), groupHead(pairs[j].Key, 2)) {
				j++
			}
			want = append(want, pairs[i:j])
			i = j
		}

		ms, err := newMergeStream([]*runCursor{cursorForEncoded(encodeRun(pairs))})
		if err != nil {
			t.Fatal(err)
		}
		gs := &groupStream{m: ms, prefix: 2}
		for gi := 0; ; gi++ {
			g, err := gs.next()
			if err != nil {
				t.Fatal(err)
			}
			if g == nil {
				if gi != len(want) {
					t.Fatalf("trial %d: got %d groups, want %d", trial, gi, len(want))
				}
				break
			}
			if gi >= len(want) {
				t.Fatalf("trial %d: extra group %d", trial, gi)
			}
			samePairBytes(t, g, want[gi], fmt.Sprintf("trial %d group %d", trial, gi))
		}
	}
}

// FuzzMergeStream feeds arbitrary bytes as up to four encoded runs
// (sorted after decode) and cross-checks the streaming merge against
// mergeRuns; undecodable inputs must error, not panic or diverge.
func FuzzMergeStream(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add(encodeRun([]Pair{{Key: []byte("a"), Value: []byte("1")}}), []byte{}, []byte{0xff})
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		var runs [][]Pair
		var cursors []*runCursor
		for _, data := range [][]byte{a, b, c} {
			run, err := decodeRun(data)
			if err != nil {
				return // undecodable input: nothing to cross-check
			}
			sortPairs(run)
			runs = append(runs, append([]Pair(nil), run...))
			cursors = append(cursors, cursorForEncoded(encodeRun(run)))
		}
		want := mergeRuns(runs)
		ms, err := newMergeStream(cursors)
		if err != nil {
			t.Fatal(err)
		}
		var got []Pair
		for {
			p, ok, err := ms.next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, p)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d pairs, want %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
				t.Fatalf("pair %d differs", i)
			}
		}
	})
}

// readParts returns the raw committed part files of an output prefix.
func readParts(t *testing.T, fs *dfs.FS, output string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range fs.List(output + "/") {
		b, err := fs.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	if len(out) == 0 {
		t.Fatalf("no part files under %s/", output)
	}
	return out
}

// TestParallelismByteIdenticalOutput pins the engine guarantee the new
// GOMAXPROCS default in the pipeline relies on: host parallelism affects
// wall-clock only, never output bytes. Run under -race via `make race`.
func TestParallelismByteIdenticalOutput(t *testing.T) {
	run := func(par int) map[string][]byte {
		fs := newFS()
		var lines []string
		for i := 0; i < 60; i++ {
			lines = append(lines, fmt.Sprintf("w%d w%d w%d", i%7, i%13, i%3))
		}
		if err := WriteTextFile(fs, "in", lines); err != nil {
			t.Fatal(err)
		}
		_, err := Run(Job{
			Name:        "par-identity",
			FS:          fs,
			Inputs:      []string{"in"},
			Output:      "out",
			Mapper:      &aggWordCountMapper{},
			Reducer:     sumReducer,
			NumReducers: 3,
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		return readParts(t, fs, "out")
	}
	want := run(1)
	for _, par := range []int{2, runtime.GOMAXPROCS(0) + 2} {
		got := run(par)
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d parts, want %d", par, len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("parallelism %d: %s differs from parallelism 1", par, name)
			}
		}
	}
}

// heapProbeReducer measures live heap mid-stream, after the shuffle
// machinery is fully set up and roughly half the groups have passed.
type heapProbeReducer struct {
	groups    int
	probeAt   int
	heapAlloc uint64
}

func (r *heapProbeReducer) Reduce(_ *Context, _ []byte, values *Values, out Emitter) error {
	for _, ok := values.Next(); ok; _, ok = values.Next() {
	}
	r.groups++
	if r.groups == r.probeAt {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		r.heapAlloc = ms.HeapAlloc
	}
	return nil
}

// TestReducePeakHeapBoundedByGroup pins the streaming-merge memory
// guarantee: reduce-side live heap scales with the largest key group,
// not the partition. The partition is ~150k pairs; materializing it as
// []Pair (the pre-streaming implementation: one slice per decoded run
// plus the merged copy) holds ≥2 × 150k × 48 B ≈ 14 MB of pair headers
// alone, while the streaming merge keeps only the encoded segment
// (~1.7 MB here) plus a group-sized buffer. The 8 MB bound sits between
// the two regimes with margin for GC slack on either side.
func TestReducePeakHeapBoundedByGroup(t *testing.T) {
	const pairs = 150_000
	fs := newFS()
	if err := WriteTextFile(fs, "in", []string{"go"}); err != nil {
		t.Fatal(err)
	}
	probe := &heapProbeReducer{probeAt: pairs / 4 / 2} // mid-stream (4 values per group)
	mapper := MapFunc(func(_ *Context, _, _ []byte, out Emitter) error {
		var k, v [8]byte
		for i := 0; i < pairs; i++ {
			kb := fmt.Appendf(k[:0], "%07d", i/4)
			vb := fmt.Appendf(v[:0], "%d", i%4)
			if err := out.Emit(kb, vb); err != nil {
				return err
			}
		}
		return nil
	})

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	if _, err := Run(Job{
		Name:        "heap-probe",
		FS:          fs,
		Inputs:      []string{"in"},
		Output:      "out",
		Mapper:      mapper,
		Reducer:     probe,
		NumReducers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if probe.heapAlloc == 0 {
		t.Fatal("probe never fired")
	}
	delta := int64(probe.heapAlloc) - int64(before.HeapAlloc)
	const bound = 8 << 20
	if delta > bound {
		t.Fatalf("reduce-side live heap grew %d bytes (> %d): merged partition is being materialized", delta, bound)
	}
	t.Logf("reduce-side live heap delta: %.2f MB", float64(delta)/(1<<20))
}
