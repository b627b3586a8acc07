package core

import (
	"errors"
	"strings"
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
