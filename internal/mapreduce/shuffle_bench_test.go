package mapreduce

import (
	"fmt"
	"testing"
)

// Engine micro-benchmarks for the shuffle datapath (§4.8 of DESIGN.md):
// `go test -run '^$' -bench . -benchmem ./internal/mapreduce`. The
// repository's benchmark reports the live number as
// mapreduce.identity_mb_per_s.

// BenchmarkSortPairs sorts 100k buffered records whose keys discriminate
// in their first eight bytes — the shape of every stage's keys (binary
// counts, group ids, RIDs) — through the map buffer's index sort.
func BenchmarkSortPairs(b *testing.B) {
	const n = 100_000
	var p partBuf
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("%016x", uint64(i)*0x9E3779B97F4A7C15))
		p.add(key, []byte(fmt.Sprintf("%06d", i)), sortPrefix(key), maxArena, 0, 0)
	}
	emitted := append([]idxEntry(nil), p.idx...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(p.idx, emitted)
		p.sort()
	}
}

// benchRuns builds 16 sorted, encoded runs of 4000 pairs with interleaved
// keys, the merge shape of a spilling map task.
func benchRuns() [][]byte {
	const nRuns, perRun = 16, 4000
	runs := make([][]byte, nRuns)
	for s := range runs {
		run := make([]Pair, perRun)
		for i := range run {
			run[i] = Pair{Key: []byte(fmt.Sprintf("%010d", (i*31+s*7)%40000))}
		}
		sortPairs(run)
		runs[s] = encodeRun(run)
	}
	return runs
}

// BenchmarkMergeStream k-way merges 16 sorted encoded runs (64k pairs)
// through the streaming loser tree.
func BenchmarkMergeStream(b *testing.B) {
	runs := benchRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cursors := make([]*runCursor, len(runs))
		for j, run := range runs {
			cursors[j] = cursorForEncoded(run)
		}
		ms, err := newMergeStream(cursors)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := ms.next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != 16*4000 {
			b.Fatalf("merged %d pairs, want %d", n, 16*4000)
		}
	}
}

// benchEmissions is 16 map tasks' worth of output, 2000 pairs each in
// emission order, whose key groups interleave across tasks (~16 values
// per group) — the shuffle shape of one reducer's column.
func benchEmissions() [][]Pair {
	const nSeg, perSeg = 16, 2000
	tasks := make([][]Pair, nSeg)
	for s := range tasks {
		tasks[s] = make([]Pair, perSeg)
		for i := range tasks[s] {
			tasks[s][i] = Pair{
				Key:   []byte(fmt.Sprintf("%08d-%06d", (s*perSeg+i*7)%(nSeg*perSeg/16), s)),
				Value: []byte(fmt.Sprintf("%07d", i)),
			}
		}
	}
	return tasks
}

// benchSegments is the map half of the shuffle: each task's pairs go
// through the map buffer — emit, index sort, copy-out — and leave one
// segment for the reducer.
func benchSegments(b *testing.B, tasks [][]Pair) [][]byte {
	job := &Job{NumReducers: 1, Buffers: NewBuffers(1)}
	segs := make([][]byte, len(tasks))
	for s, pairs := range tasks {
		buf := newMapBuffer(job, 0)
		for _, p := range pairs {
			if err := buf.Emit(p.Key, p.Value); err != nil {
				b.Fatal(err)
			}
		}
		var tm TaskMetrics
		segs[s] = buf.finish(&tm)[0]
		buf.release()
	}
	return segs
}

// shuffleRoundTrip consumes one reducer's worth of encoded segments the
// way runReduceTask does: merge the encoded runs through the loser
// tree, and walk every key group.
func shuffleRoundTrip(b *testing.B, segs [][]byte, want int) {
	cursors := make([]*runCursor, 0, len(segs))
	for _, seg := range segs {
		cursors = append(cursors, cursorForEncoded(seg))
	}
	ms, err := newMergeStream(cursors)
	if err != nil {
		b.Fatal(err)
	}
	gs := &groupStream{m: ms}
	n := 0
	for {
		g, err := gs.next()
		if err != nil {
			b.Fatal(err)
		}
		if g == nil {
			break
		}
		n += len(g)
	}
	if n != want {
		b.Fatalf("consumed %d pairs, want %d", n, want)
	}
}

// BenchmarkShuffleRoundTrip is the shuffle end to end: 16 map outputs ×
// 2000 pairs buffered, sorted and encoded, then fetched, merged, and
// grouped by the reducer.
func BenchmarkShuffleRoundTrip(b *testing.B) {
	tasks := benchEmissions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shuffleRoundTrip(b, benchSegments(b, tasks), 16*2000)
	}
}
