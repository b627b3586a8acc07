package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// wideVocabLines returns n records whose titles draw from a 600-word
// vocabulary, skewed so that every split holds most of the words.
func wideVocabLines(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, n)
	for i := range lines {
		var title bytes.Buffer
		for w := 0; w < 12; w++ {
			fmt.Fprintf(&title, "w%d ", rng.Intn(1+rng.Intn(600)))
		}
		lines[i] = records.Record{
			RID:    uint64(i + 1),
			Fields: []string{title.String(), "some author", "rest"},
		}.Line()
	}
	return lines
}

// TestStage1BoundedTable: a map task whose budget cannot hold its token
// table emits the table when full and starts over, and Stage 1 still
// writes the unbounded run's token file byte for byte. No task goes over
// the budget.
func TestStage1BoundedTable(t *testing.T) {
	fs := dfs.New(dfs.Options{BlockSize: 32 << 10, Nodes: 2})
	if err := mapreduce.WriteTextFile(fs, "in", wideVocabLines(3, 2000)); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []TokenOrderAlg{BTO, OPTO} {
		run := func(work string, limit int64) ([]byte, []*mapreduce.Metrics) {
			t.Helper()
			cfg := Config{FS: fs, Work: work, NumReducers: 2, TokenOrder: alg, MemoryLimit: limit}
			tokenFile, ms, err := Stage1(cfg, "in")
			if err != nil {
				t.Fatalf("%v limit %d: %v", alg, limit, err)
			}
			data, err := fs.ReadAll(tokenFile)
			if err != nil {
				t.Fatal(err)
			}
			return data, ms
		}
		want, free := run(alg.String()+"-free", 0)
		var tablePeak, reducePeak int64
		for _, mt := range free[0].MapTasks {
			tablePeak = max(tablePeak, mt.PeakMemory)
		}
		for _, m := range free {
			for _, rt := range m.ReduceTasks {
				reducePeak = max(reducePeak, rt.PeakMemory)
			}
		}
		// OPTO's reducer holds the whole vocabulary, so the budget must
		// still cover that.
		limit := max(reducePeak, tablePeak*3/4)
		if len(free[0].MapTasks) < 2 || limit >= tablePeak {
			t.Fatalf("%v: %d map tasks, table peak %d, reduce peak %d: the corpus does not exercise a full table",
				alg, len(free[0].MapTasks), tablePeak, reducePeak)
		}
		got, bounded := run(alg.String()+"-bounded", limit)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: token file under a %d-byte budget differs from the unbounded one", alg, limit)
		}
		var freeRecs, boundedRecs int64
		for _, mt := range free[0].MapTasks {
			freeRecs += mt.OutputRecords
		}
		for _, mt := range bounded[0].MapTasks {
			boundedRecs += mt.OutputRecords
		}
		if boundedRecs <= freeRecs {
			t.Errorf("%v: %d map output records under the budget, %d without: the table never flushed", alg, boundedRecs, freeRecs)
		}
		for _, m := range bounded {
			for _, tasks := range [][]mapreduce.TaskMetrics{m.MapTasks, m.ReduceTasks} {
				for i, tm := range tasks {
					if tm.PeakMemory > limit {
						t.Errorf("%v %s task %d: peak memory %d over the %d-byte budget", alg, m.Job, i, tm.PeakMemory, limit)
					}
				}
			}
		}
	}
}

// TestStage1CountsIndependentOfBudget: the counting job's output — every
// token's total — is the same bytes whether the map tasks hold their
// whole table, flush it when a 4 KiB budget is full, or cannot hold a
// single token and pass each occurrence through as (token, 1).
func TestStage1CountsIndependentOfBudget(t *testing.T) {
	fs := dfs.New(dfs.Options{BlockSize: 16 << 10, Nodes: 2})
	if err := mapreduce.WriteTextFile(fs, "in", wideVocabLines(5, 600)); err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, limit := range []int64{0, 4096, 1} {
		work := fmt.Sprintf("w-%d", limit)
		cfg := Config{FS: fs, Work: work, NumReducers: 3, MemoryLimit: limit}
		if _, _, err := Stage1(cfg, "in"); err != nil {
			t.Fatalf("%s: %v", work, err)
		}
		got := make([][]byte, cfg.NumReducers)
		for r := range got {
			data, err := fs.ReadAll(fmt.Sprintf("%s/s1-count/part-r-%05d", work, r))
			if err != nil {
				t.Fatal(err)
			}
			got[r] = data
		}
		if want == nil {
			want = got
			continue
		}
		for r, data := range want {
			if !bytes.Equal(got[r], data) {
				t.Errorf("%s: count partition %d differs from the unlimited-budget run", work, r)
			}
		}
	}
}
