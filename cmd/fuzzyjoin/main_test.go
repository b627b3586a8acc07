package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fuzzyjoin"
	"fuzzyjoin/internal/core"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig(0.7, "cosine", "opto", "pk", "oprj", 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Fn != simfn.Cosine || cfg.Threshold != 0.7 {
		t.Fatalf("fn/threshold = %v/%v", cfg.Fn, cfg.Threshold)
	}
	if cfg.TokenOrder != core.OPTO || cfg.Kernel != core.PK || cfg.RecordJoin != core.OPRJ {
		t.Fatalf("algs = %v %v %v", cfg.TokenOrder, cfg.Kernel, cfg.RecordJoin)
	}
	if cfg.NumReducers != 6 || cfg.Parallelism != 2 {
		t.Fatalf("reducers/par = %d/%d", cfg.NumReducers, cfg.Parallelism)
	}
}

func TestBuildConfigErrors(t *testing.T) {
	cases := [][3]string{
		{"XTO", "PK", "BRJ"},
		{"BTO", "XX", "BRJ"},
		{"BTO", "PK", "XX"},
	}
	for _, c := range cases {
		if _, err := buildConfig(0.8, "jaccard", c[0], c[1], c[2], 4, 1); err == nil {
			t.Fatalf("buildConfig accepted %v", c)
		}
	}
	if _, err := buildConfig(0.8, "euclid", "BTO", "PK", "BRJ", 4, 1); err == nil {
		t.Fatal("buildConfig accepted unknown similarity function")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "recs.tsv")
	content := "1\ttitle one\tauthor\trest\n\n2\ttitle two\tauthor\trest\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := fuzzyjoin.NewFS(1)
	if err := loadFile(fs, "in", path); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadAll("in")
	if err != nil {
		t.Fatal(err)
	}
	want := "1\ttitle one\tauthor\trest\n2\ttitle two\tauthor\trest\n"
	if string(data) != want {
		t.Fatalf("loaded %q, want %q (blank line dropped)", data, want)
	}
	if err := loadFile(fs, "missing", filepath.Join(dir, "nope")); err == nil {
		t.Fatal("loadFile accepted missing path")
	}
}

// TestEndToEndViaCLIHelpers drives the same path main takes, minus
// flag parsing and stdout.
func TestEndToEndViaCLIHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pubs.tsv")
	content := "1\tparallel set similarity joins\tvernica carey li\t\n" +
		"2\tparallel set similarity joins\tvernica carey li\t\n" +
		"3\tsomething else entirely different\tnobody\t\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := buildConfig(0.8, "jaccard", "BTO", "PK", "BRJ", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs := fuzzyjoin.NewFS(1)
	cfg.FS, cfg.Work = fs, "job"
	if err := loadFile(fs, "R", path); err != nil {
		t.Fatal(err)
	}
	res, err := fuzzyjoin.Join(context.Background(),
		fuzzyjoin.JoinSpec{Config: cfg, Input: "R"})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := fuzzyjoin.ReadJoinedPairs(fs, res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].Left.RID != 1 || pairs[0].Right.RID != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
}

// TestPrintPairsPinsOutput: the CLI's default join of testdata/pubs.tsv
// prints exactly testdata/pubs.pairs.txt (make smoke compares its faulty
// run with the same file).
func TestPrintPairsPinsOutput(t *testing.T) {
	want, err := os.ReadFile("../../testdata/pubs.pairs.txt")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildConfig(0.8, "jaccard", "BTO", "PK", "BRJ", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := fuzzyjoin.NewFS(2)
	cfg.FS, cfg.Work = fs, "job"
	if err := loadFile(fs, "R", "../../testdata/pubs.tsv"); err != nil {
		t.Fatal(err)
	}
	res, err := fuzzyjoin.Join(context.Background(), fuzzyjoin.JoinSpec{Config: cfg, Input: "R"})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := printPairs(&got, fs, res.Output); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("printed:\n%s\nwant testdata/pubs.pairs.txt:\n%s", got.Bytes(), want)
	}
}

// TestMalformedOutputLineOneError: a malformed line in a part file stops
// the facade's walk, ReadJoinedPairs and the CLI's print with one error,
// and that error names the part file.
func TestMalformedOutputLineOneError(t *testing.T) {
	good := records.JoinedPair{
		Left:  records.Record{RID: 1, Fields: []string{"a b", "x"}},
		Right: records.Record{RID: 2, Fields: []string{"a b", "x"}},
		Sim:   1,
	}.String()
	for _, bad := range []string{
		"0.5\x1fonly one record",      // framing
		"high\x1f1\tt\x1f2\tt",        // similarity
		"0.5\x1fnot-a-record\x1f2\tt", // left record
		"0.5\x1f1\tt\x1fbad-rid\tt",   // right RID
		"0.5\x1f1\tt\x1f2\tt\x1f3\tt", // a third record
	} {
		fs := fuzzyjoin.NewFS(1)
		w, err := fs.Create("job/out/part-00001")
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []string{good, bad} {
			if err := w.Append([]byte(l + "\n")); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		walked := 0
		walkErr := fuzzyjoin.WalkJoinedPairs(fs, "job/out", func(fuzzyjoin.JoinedPair) error {
			walked++
			return nil
		})
		pairs, readErr := fuzzyjoin.ReadJoinedPairs(fs, "job/out")
		var printed bytes.Buffer
		printErr := printPairs(&printed, fs, "job/out")
		if walkErr == nil || readErr == nil || printErr == nil {
			t.Fatalf("%q: errors %v / %v / %v, want three", bad, walkErr, readErr, printErr)
		}
		if walkErr.Error() != readErr.Error() || walkErr.Error() != printErr.Error() {
			t.Fatalf("%q: the paths disagree:\nwalk:  %v\nread:  %v\nprint: %v", bad, walkErr, readErr, printErr)
		}
		if !strings.Contains(walkErr.Error(), "job/out/part-00001") {
			t.Fatalf("%q: error %q does not name the part file", bad, walkErr)
		}
		if walked != 1 || pairs != nil {
			t.Fatalf("%q: walk handed over %d pairs, ReadJoinedPairs returned %v", bad, walked, pairs)
		}
	}
}
