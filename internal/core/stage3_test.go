package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"strings"
	"sync"
	"testing"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
)

// writeRIDFile writes a paired-RID side file in BRJ phase 1's layout.
func writeRIDFile(t *testing.T, fs dfs.Storage, name string, rids ...uint64) {
	t.Helper()
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		if err := w.Append(keys.AppendUint64(nil, rid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBRJPhase1RejectsUnpairedRecord: a RID set that lists a record no
// pair names lets that record reach the phase-1 reducer alone, which is
// an error naming the RID, not a silent drop.
func TestBRJPhase1RejectsUnpairedRecord(t *testing.T) {
	fs := newTestFS(t)
	var lines []string
	for rid := uint64(1); rid <= 3; rid++ {
		lines = append(lines, records.Record{RID: rid, Fields: []string{"alpha beta gamma delta", "x", ""}}.Line())
	}
	writeInput(t, fs, "in", lines)
	pair := records.RIDPair{A: 1, B: 2, Sim: 1}
	if err := mapreduce.WritePairsFile(fs, "s2/part-00000", []mapreduce.Pair{{Key: pairGroupKey(pair), Value: pair.AppendBinary(nil)}}); err != nil {
		t.Fatal(err)
	}
	writeRIDFile(t, fs, "rids", 1, 2, 3)
	cfg := Config{FS: fs, Work: "w", NumReducers: 2}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	job, err := coreJob(&cfg, progSpec{Kind: "s3-brj1", PairsPrefix: "s2", RIDFiles: []string{"rids"}})
	if err != nil {
		t.Fatal(err)
	}
	job.Name, job.Inputs, job.Output = "s3-brj-1", []string{"in", "s2/"}, "half"
	job.InputFormat = mapreduce.Text
	job.InputFormatsByPrefix = map[string]mapreduce.Format{"s2/": mapreduce.Pairs}
	job.SideFiles = []string{"rids"}
	_, err = mapreduce.Run(job)
	if err == nil || !strings.Contains(err.Error(), "record 3 without a pair reached phase 1") {
		t.Fatalf("err = %v, want the unpaired record 3 named", err)
	}
}

// TestBRJNoPairs: a self-join and an R-S join whose Stage 2 finds no
// pair run BRJ over empty RID files and return empty output.
func TestBRJNoPairs(t *testing.T) {
	line := func(rid uint64, title string) string {
		return records.Record{RID: rid, Fields: []string{title, "x", ""}}.Line()
	}
	fs := newTestFS(t)
	writeInput(t, fs, "r", []string{line(1, "alpha beta gamma"), line(2, "delta epsilon zeta")})
	writeInput(t, fs, "s", []string{line(1, "eta theta iota"), line(2, "kappa lambda mu")})
	for _, tc := range []struct {
		name  string
		run   func(Config) (*Result, error)
		files []string
	}{
		{"self", func(c Config) (*Result, error) { return SelfJoin(c, "r") }, []string{"self/s3-rids"}},
		{"rs", func(c Config) (*Result, error) { return RSJoin(c, "r", "s") }, []string{"rs/s3-rids-r", "rs/s3-rids-s"}},
	} {
		res, err := tc.run(Config{FS: fs, Work: tc.name, Kernel: PK, RecordJoin: BRJ, NumReducers: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Pairs != 0 || len(readJoined(t, fs, res.Output)) != 0 {
			t.Errorf("%s: %d pairs, want none", tc.name, res.Pairs)
		}
		for _, name := range tc.files {
			if b, err := fs.ReadAll(name); err != nil || len(b) != 0 {
				t.Errorf("%s: RID file %s: %d bytes, err %v; want empty", tc.name, name, len(b), err)
			}
		}
		if got := res.Stages[2].Jobs[0].SideBytes; got != 0 {
			t.Errorf("%s: phase 1 side bytes %d, want 0", tc.name, got)
		}
	}
}

// TestBRJPhase1MapsPairedRecordsOnly: phase 1's map output is one record
// per distinct paired RID plus both halves of every pair. Its map tasks
// run concurrently over one shared view of the RID set.
func TestBRJPhase1MapsPairedRecordsOnly(t *testing.T) {
	fs := newTestFS(t)
	writeInput(t, fs, "in", makeLines(11, 60, 1))
	res, err := SelfJoin(Config{FS: fs, Work: "w", Kernel: PK, RecordJoin: BRJ, NumReducers: 3, Parallelism: 4}, "in")
	if err != nil {
		t.Fatal(err)
	}
	pairs := readJoined(t, fs, res.Output)
	rids := map[string]bool{}
	for k := range pairs {
		a, b, _ := strings.Cut(k, "-")
		rids[a], rids[b] = true, true
	}
	if len(pairs) == 0 || len(rids) == 60 {
		t.Fatalf("%d pairs over %d of 60 records: the corpus does not exercise the reduction", len(pairs), len(rids))
	}
	phase1 := res.Stages[2].Jobs[0]
	var mapOut int64
	for _, tm := range phase1.MapTasks {
		mapOut += tm.OutputRecords
	}
	if want := int64(len(rids) + 2*len(pairs)); mapOut != want {
		t.Errorf("phase 1 map output %d records, want %d distinct paired RIDs + 2 × %d pairs = %d",
			mapOut, len(rids), len(pairs), want)
	}
}

// TestBRJRIDSetMemoryBound: every phase-1 map task holds the RID set,
// charged at its size. A budget one byte short fails the job with
// ErrInsufficientMemory; the exact size passes.
func TestBRJRIDSetMemoryBound(t *testing.T) {
	fs := newTestFS(t)
	writeInput(t, fs, "in", makeLines(11, 60, 1))
	cfg := Config{FS: fs, Work: "s1", Kernel: PK, NumReducers: 3}
	tokenFile, _, err := Stage1(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Work = "s2"
	pairs, _, err := Stage2Self(cfg, "in", tokenFile)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Work = "sized"
	if _, _, err := Stage3Self(cfg, "in", pairs); err != nil {
		t.Fatal(err)
	}
	size, err := fs.Size("sized/s3-rids")
	if err != nil || size == 0 {
		t.Fatalf("RID file: %d bytes, err %v", size, err)
	}
	cfg.Work, cfg.MemoryLimit = "short", size-1
	if _, _, err := Stage3Self(cfg, "in", pairs); !errors.Is(err, mapreduce.ErrInsufficientMemory) {
		t.Fatalf("budget %d under a %d-byte RID set: err = %v, want ErrInsufficientMemory", size-1, size, err)
	}
	cfg.Work, cfg.MemoryLimit = "exact", size
	if _, _, err := Stage3Self(cfg, "in", pairs); err != nil {
		t.Fatalf("budget equal to the RID set: %v", err)
	}
}

// writeStage2Parts writes pairs as Stage 2 would, one part file per
// element of parts, under prefix.
func writeStage2Parts(t *testing.T, fs dfs.Storage, prefix string, parts ...[]records.RIDPair) {
	t.Helper()
	for i, part := range parts {
		kvs := make([]mapreduce.Pair, len(part))
		for j, p := range part {
			kvs[j] = mapreduce.Pair{Key: pairGroupKey(p), Value: p.AppendBinary(nil)}
		}
		if err := mapreduce.WritePairsFile(fs, fmt.Sprintf("%s/part-%05d", prefix, i), kvs); err != nil {
			t.Fatal(err)
		}
	}
}

// shortLine is a record small enough for a 128-byte block.
func shortLine(rid uint64) string {
	return records.Record{RID: rid, Fields: []string{fmt.Sprintf("t%d", rid%97), "a", ""}}.Line()
}

// TestOPRJMatchesBRJ: OPRJ's in-place lookup joins exactly the pairs
// Stage 2 wrote, as BRJ does on the same input — with RIDs in several
// pairs on both sides, pairs over several part files and DFS blocks, R-S
// RIDs far above R's, and no pairs at all.
func TestOPRJMatchesBRJ(t *testing.T) {
	const sBase = 100_000_000
	var hub, spread []records.RIDPair
	// RID 5 is the A of three pairs and the B of two; RID 9 likewise.
	for _, ab := range [][2]uint64{{5, 6}, {5, 9}, {5, 12}, {1, 5}, {3, 5}, {9, 10}, {9, 11}, {2, 9}, {7, 9}} {
		hub = append(hub, records.RIDPair{A: ab[0], B: ab[1], Sim: float64(ab[0]) / float64(ab[1])})
	}
	for a := uint64(1); a <= 30; a++ {
		spread = append(spread, records.RIDPair{A: a, B: a + 1 + a%3, Sim: 0.8}, records.RIDPair{A: a, B: a + 5, Sim: 0.123456789})
	}
	rsPairs := []records.RIDPair{{A: 1, B: sBase + 7, Sim: 0.9}, {A: 1, B: sBase + 2, Sim: 0.7}, {A: 4, B: sBase + 2, Sim: 0.75}, {A: 2, B: sBase + 1, Sim: 1}}
	for _, tc := range []struct {
		name  string
		rs    bool
		parts [][]records.RIDPair
	}{
		{"hub", false, [][]records.RIDPair{hub}},
		{"parts-and-blocks", false, [][]records.RIDPair{spread[:25], spread[25:40], spread[40:]}},
		{"rs-far-rids", true, [][]records.RIDPair{rsPairs[:2], rsPairs[2:]}},
		{"empty", false, [][]records.RIDPair{nil}},
		{"empty-rs", true, [][]records.RIDPair{nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := dfs.New(dfs.Options{BlockSize: 128, Nodes: 3})
			var r, s []string
			for rid := uint64(1); rid <= 40; rid++ {
				r = append(r, shortLine(rid))
				s = append(s, shortLine(sBase+rid))
			}
			writeInput(t, fs, "r", r)
			writeInput(t, fs, "s", s)
			writeStage2Parts(t, fs, "s2", tc.parts...)
			if n := len(fs.List("s2/")); n != len(tc.parts) {
				t.Fatalf("%d part files, want %d", n, len(tc.parts))
			}
			if sp, _ := fs.Splits("s2/part-00000"); len(tc.parts[0]) > 20 && len(sp) < 2 {
				t.Fatalf("part 0 has %d blocks: the case does not span blocks", len(sp))
			}
			want := map[string]float64{}
			for _, part := range tc.parts {
				for _, p := range part {
					want[fmt.Sprintf("%d-%d", p.A, p.B)] = p.Sim
				}
			}
			outs := map[RecordJoinAlg]map[string]float64{}
			for _, alg := range []RecordJoinAlg{OPRJ, BRJ} {
				cfg := Config{FS: fs, Work: "w-" + alg.String(), RecordJoin: alg, NumReducers: 3, Parallelism: 2}
				var out string
				var err error
				if tc.rs {
					out, _, err = Stage3RS(cfg, "r", "s", "s2")
				} else {
					out, _, err = Stage3Self(cfg, "r", "s2")
				}
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				outs[alg] = readJoined(t, fs, out)
			}
			if len(outs[OPRJ]) != len(want) {
				t.Fatalf("OPRJ joined %d pairs, want %d", len(outs[OPRJ]), len(want))
			}
			for k, sim := range want {
				if got, ok := outs[OPRJ][k]; !ok || math.Abs(got-sim) > 1e-6 {
					t.Errorf("OPRJ pair %s: sim %v (present %v), want %v", k, got, ok, sim)
				}
			}
			if !maps.Equal(outs[OPRJ], outs[BRJ]) {
				t.Errorf("OPRJ and BRJ disagree:\n%v\n%v", outs[OPRJ], outs[BRJ])
			}
		})
	}
}

// TestOPRJRejectsTruncatedPairFile: a pair file whose length is not a
// whole number of records fails the map task with an error, not a panic.
func TestOPRJRejectsTruncatedPairFile(t *testing.T) {
	fs := newTestFS(t)
	writeInput(t, fs, "in", []string{shortLine(1), shortLine(2)})
	whole := keys.AppendUint64(appendPairGroupKey(nil, records.RIDPair{A: 1, B: 2}), math.Float64bits(1))
	for name, data := range map[string][]byte{"by-a": whole, "by-b": whole[:pairWidth-1]} {
		w, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{FS: fs, Work: "w", NumReducers: 1}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	files := []string{"by-a", "by-b"}
	job, err := coreJob(&cfg, progSpec{Kind: "s3-oprj", PairFiles: files})
	if err != nil {
		t.Fatal(err)
	}
	job.Name, job.Inputs, job.Output, job.SideFiles = "s3-oprj", []string{"in"}, "out", files
	_, err = mapreduce.Run(job)
	if err == nil || !strings.Contains(err.Error(), "pair file by-b holds 23 bytes, not a multiple of 24") {
		t.Fatalf("err = %v, want the truncated pair file named", err)
	}
}

// sharedViewProbe records the pair-file views each OPRJ map task holds
// after its Setup.
type sharedViewProbe struct {
	*oprjMapper
	mu   *sync.Mutex
	seen *[][2][]byte
}

func (p *sharedViewProbe) NewTaskInstance() any {
	return &sharedViewProbe{oprjMapper: p.oprjMapper.NewTaskInstance().(*oprjMapper), mu: p.mu, seen: p.seen}
}

func (p *sharedViewProbe) Setup(ctx *mapreduce.Context) error {
	if err := p.oprjMapper.Setup(ctx); err != nil {
		return err
	}
	p.mu.Lock()
	*p.seen = append(*p.seen, p.views)
	p.mu.Unlock()
	return nil
}

// TestOPRJTasksSharePairViews: concurrent OPRJ map tasks look pairs up
// in one shared copy of each pair file and never write it. Under -race
// (make race runs it ten times) a write by one task while another reads
// is reported.
func TestOPRJTasksSharePairViews(t *testing.T) {
	fs := dfs.New(dfs.Options{BlockSize: 512, Nodes: 4})
	writeInput(t, fs, "in", makeLines(11, 120, 1))
	cfg := Config{FS: fs, Work: "s1", Kernel: PK, NumReducers: 3, Parallelism: 4}
	tokenFile, _, err := Stage1(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Work = "s2"
	pairsPrefix, _, err := Stage2Self(cfg, "in", tokenFile)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Work, cfg.RecordJoin = "s3", OPRJ
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	files, _, err := writePairFiles(&cfg, pairsPrefix, cfg.Work)
	if err != nil {
		t.Fatal(err)
	}
	job, err := coreJob(&cfg, progSpec{Kind: "s3-oprj", PairFiles: files})
	if err != nil {
		t.Fatal(err)
	}
	var views [][2][]byte
	job.Mapper = &sharedViewProbe{oprjMapper: job.Mapper.(*oprjMapper), mu: new(sync.Mutex), seen: &views}
	job.Name, job.Inputs, job.Output, job.SideFiles = "s3-oprj", []string{"in"}, "s3/out", files
	job.OutputFormat = mapreduce.Text
	m, err := mapreduce.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) < 4 || len(views) != len(m.MapTasks) {
		t.Fatalf("%d views over %d map tasks, want one per task and at least 4", len(views), len(m.MapTasks))
	}
	for side, name := range files {
		disk, err := fs.ReadAll(name)
		if err != nil || len(disk) == 0 {
			t.Fatalf("%s: %d bytes, err %v", name, len(disk), err)
		}
		for task, v := range views {
			if &v[side][0] != &views[0][side][0] {
				t.Errorf("task %d holds its own copy of %s", task, name)
			}
			if !bytes.Equal(v[side], disk) {
				t.Errorf("task %d's view of %s differs from the file after the job", task, name)
			}
		}
	}
	brj := cfg
	brj.Work, brj.RecordJoin = "brj", BRJ
	out, _, err := Stage3Self(brj, "in", pairsPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := readJoined(t, fs, "s3/out"), readJoined(t, fs, out); len(got) == 0 || !maps.Equal(got, want) {
		t.Errorf("OPRJ joined %d pairs, BRJ %d; want the same non-empty set", len(got), len(want))
	}
}
