package core

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// TestStage2MapperCounters: every routing variant, self and R-S, reports
// the records it dropped for an empty projection and counts exactly the
// replicas it emitted.
func TestStage2MapperCounters(t *testing.T) {
	for _, v := range goldenVariants() {
		for _, rs := range []bool{false, true} {
			fs := newTestFS(t)
			cfg := v.cfg
			cfg.FS, cfg.Work = fs, "w"
			// goldenLines appends 4 records with no join attribute; the
			// extra S record has only tokens R never saw.
			wantEmpty := int64(4)
			var (
				ms   []*mapreduce.Metrics
				err  error
				name = "self/" + v.name
			)
			if rs {
				name = "rs/" + v.name
				wantEmpty = 9
				writeInput(t, fs, "R", goldenLines(5, 60, 1))
				writeInput(t, fs, "S", append(goldenLines(5, 50, 31),
					records.Record{RID: 9001, Fields: []string{"zzunseen", "xxunseen", ""}}.Line()))
				tokenFile, _, err1 := Stage1(cfg, "R")
				if err1 != nil {
					t.Fatal(err1)
				}
				_, ms, err = Stage2RS(cfg, "R", "S", tokenFile)
			} else {
				writeInput(t, fs, "in", goldenLines(5, 60, 1))
				tokenFile, _, err1 := Stage1(cfg, "in")
				if err1 != nil {
					t.Fatal(err1)
				}
				_, ms, err = Stage2Self(cfg, "in", tokenFile)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			kernel := ms[0]
			if got := kernel.Counters["stage2.empty_projections"]; got != wantEmpty {
				t.Errorf("%s: stage2.empty_projections = %d, want %d", name, got, wantEmpty)
			}
			var mapOut int64
			for _, mt := range kernel.MapTasks {
				mapOut += mt.OutputRecords
			}
			if got := kernel.Counters["stage2.replicas"]; got == 0 || got != mapOut {
				t.Errorf("%s: stage2.replicas = %d, map tasks emitted %d records", name, got, mapOut)
			}
		}
	}
}

// stage2Pairs decodes a Stage 2 output prefix into sorted "A-B" keys
// (duplicates kept: Stage 2 may find a pair in several groups).
func stage2Pairs(t *testing.T, fs *dfs.FS, prefix string) []string {
	t.Helper()
	var out []string
	if _, err := WalkRIDPairs(fs, prefix, func(p records.RIDPair) error {
		out = append(out, fmt.Sprintf("%d-%d", p.A, p.B))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestReduceBlocksStreamsSpilledPartition: reduce-based block processing
// of an R-S group whose S partition is more than 10× the memory budget
// succeeds, equals the unblocked join, and its replay charges the budget
// for the resident R block plus a single S projection at a time.
func TestReduceBlocksStreamsSpilledPartition(t *testing.T) {
	const (
		nR, nS, blocks = 40, 600, 8
		budget         = int64(2 << 10)
		projBytes      = 24 + 4*5 // five tokens per projection
	)
	// Every record shares four title tokens, so the group of the first of
	// them holds all of R and all of S; S record j carries R record
	// j%nR's author, so each S record joins exactly one R record.
	line := func(rid, author int) string {
		return records.Record{RID: uint64(rid),
			Fields: []string{"shared quad token set", fmt.Sprintf("author%d", author), "rest"}}.Line()
	}
	var rLines, sLines []string
	for i := 0; i < nR; i++ {
		rLines = append(rLines, line(i+1, i))
	}
	for j := 0; j < nS; j++ {
		sLines = append(sLines, line(j+1, j%nR))
	}
	if int64(nS*projBytes) < 10*budget {
		t.Fatal("S partition is not 10x the budget")
	}
	run := func(mode BlockMode, limit int64) ([]string, *mapreduce.Metrics) {
		fs := newTestFS(t)
		writeInput(t, fs, "R", rLines)
		writeInput(t, fs, "S", sLines)
		cfg := Config{FS: fs, Work: "w", Kernel: BK, NumReducers: 1}
		tokenFile, _, err := Stage1(cfg, "R")
		if err != nil {
			t.Fatal(err)
		}
		cfg.BlockMode, cfg.MemoryLimit = mode, limit
		if mode != NoBlocks {
			cfg.NumBlocks = blocks
		}
		out, ms, err := Stage2RS(cfg, "R", "S", tokenFile)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return stage2Pairs(t, fs, out), ms[0]
	}
	want, _ := run(NoBlocks, 0)
	got, m := run(ReduceBlocks, budget)
	if len(want) < nS || !reflect.DeepEqual(got, want) {
		t.Fatalf("reduce-blocks found %d pairs, unblocked %d", len(got), len(want))
	}
	if m.Counters["stage2.spill_bytes"] == 0 {
		t.Fatal("nothing was spilled")
	}
	// nR sequential RIDs over `blocks` blocks: nR/blocks resident R
	// projections, plus the one projection replay has in flight.
	if peak := m.ReduceTasks[0].PeakMemory; peak > (nR/blocks+1)*projBytes {
		t.Fatalf("reducer peak memory %d exceeds one R block plus one projection (%d)", peak, (nR/blocks+1)*projBytes)
	}
}

// TestReduceBlocksExactFit: a self-join group of two blocks runs in a
// budget of exactly one block — reloading a spilled block charges each
// projection once, not once for the replay and again for the buffer.
func TestReduceBlocksExactFit(t *testing.T) {
	const n, projBytes = 40, 24 + 4*5
	fs := newTestFS(t)
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, records.Record{RID: uint64(i + 1),
			Fields: []string{"shared quad token set", fmt.Sprintf("author%d", i/2), "rest"}}.Line())
	}
	writeInput(t, fs, "in", lines)
	cfg := Config{FS: fs, Work: "w", Kernel: BK, NumReducers: 1}
	tokenFile, _, err := Stage1(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Stage2Self(cfg, "in", tokenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := stage2Pairs(t, fs, out)
	cfg.Work, cfg.BlockMode, cfg.NumBlocks, cfg.MemoryLimit = "w2", ReduceBlocks, 2, n/2*projBytes
	out, ms, err := Stage2Self(cfg, "in", tokenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := stage2Pairs(t, fs, out); len(want) < n/2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("reduce-blocks found %d pairs, unblocked %d", len(got), len(want))
	}
	if ms[0].Counters["stage2.spill_bytes"] == 0 {
		t.Fatal("nothing was spilled")
	}
}

// TestSpillReplay: replay yields the spilled projections in order and
// rejects a truncated block file.
func TestSpillReplay(t *testing.T) {
	var sp spill
	if err := sp.open(); err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	const n = 500
	for i := 0; i < n; i++ {
		p := records.Projection{RID: uint64(i), Ranks: []uint32{uint32(i), uint32(i + 1), uint32(i + 7)}}
		if err := sp.add(3, p.AppendBinary(nil)); err != nil {
			t.Fatal(err)
		}
	}
	next := uint64(0)
	err := sp.replay(3, func(v []byte) error {
		p, err := records.DecodeProjection(v)
		if err != nil {
			return err
		}
		if p.RID != next || len(p.Ranks) != 3 || p.Ranks[2] != uint32(next+7) {
			t.Fatalf("projection %d replayed as %+v", next, p)
		}
		next++
		return nil
	})
	if err != nil || next != n {
		t.Fatalf("replayed %d of %d projections, err = %v", next, n, err)
	}
	if err := sp.replay(4, func([]byte) error { return fmt.Errorf("called") }); err != nil {
		t.Fatalf("never-spilled block: %v", err)
	}
	name := sp.files[3].f.Name()
	info, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(name, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	err = sp.replay(3, func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "corrupt spill block 3") {
		t.Fatalf("truncated block: err = %v", err)
	}
}

// setNonZero fills v with a non-zero value, or reports the kind it
// cannot.
func setNonZero(v reflect.Value, n int64) error {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(n)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.5 + float64(n)/100)
	case reflect.String:
		v.SetString(fmt.Sprint("v", n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			if err := setNonZero(v.Index(i), n+int64(i)); err != nil {
				return err
			}
		}
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		return setNonZero(v.Elem(), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := setNonZero(v.Field(i), n+int64(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("kind %s does not survive JSON", v.Kind())
	}
	return nil
}

// TestProgramSpecCarriesConfig walks core.Config by reflection: every
// field either round-trips through the program spec into the worker-side
// Config, or is explicitly tagged engine-side (json:"-") and stays zero
// there. A new field that is neither — an untagged func, interface, map
// or channel — fails here instead of silently not reaching workers.
func TestProgramSpecCarriesConfig(t *testing.T) {
	var cfg Config
	cv := reflect.ValueOf(&cfg).Elem()
	engineSide := map[string]bool{}
	for i := 0; i < cv.NumField(); i++ {
		f := cv.Type().Field(i)
		if !f.IsExported() {
			continue // never serialized, never read by task bodies (ctx)
		}
		if f.Tag.Get("json") == "-" {
			engineSide[f.Name] = true
			continue
		}
		if err := setNonZero(cv.Field(i), int64(i+2)); err != nil {
			t.Errorf("Config.%s: %v: tag it json:\"-\" and carry it in progSpec explicitly, as Tokenizer is", f.Name, err)
		}
	}
	// Engine-side values must not leak into the spec either.
	cfg.FS = dfs.New(dfs.Options{BlockSize: 1 << 10, Nodes: 1})
	cfg.Work, cfg.NumReducers, cfg.MemoryLimit = "work", 3, 1<<20
	cfg.Tokenizer = tokenize.QGram{Q: 4}
	if *cfg.Filters == (filter.Stack{}) || len(cfg.JoinFields) == 0 || cfg.NumGroups == 0 {
		t.Fatalf("fill left task-visible fields zero: %+v", cfg)
	}

	job, err := coreJob(&cfg, progSpec{Kind: "s2", TokenFile: "tok", InputR: "R"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Program != CoreProgram || job.ProgramSpec == "" {
		t.Fatalf("stock tokenizer: job carries no program (%q)", job.Program)
	}
	prog, err := buildCoreProgram(job.ProgramSpec)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Mapper.(*stage2Mapper)
	if m.tokenFile != "tok" || m.inputR != "R" {
		t.Fatalf("job parameters lost: %+v", m)
	}
	wv := reflect.ValueOf(m.cfg).Elem()
	for i := 0; i < cv.NumField(); i++ {
		f := cv.Type().Field(i)
		switch {
		case !f.IsExported():
		case f.Name == "Tokenizer":
			if !reflect.DeepEqual(m.cfg.Tokenizer, cfg.Tokenizer) {
				t.Errorf("Tokenizer = %#v, want %#v", m.cfg.Tokenizer, cfg.Tokenizer)
			}
		case engineSide[f.Name]:
			if !wv.Field(i).IsZero() {
				t.Errorf("engine-side Config.%s reached the worker: %v", f.Name, wv.Field(i))
			}
		case !reflect.DeepEqual(wv.Field(i).Interface(), cv.Field(i).Interface()):
			t.Errorf("Config.%s = %v on the worker, want %v", f.Name, wv.Field(i), cv.Field(i))
		}
	}

	// A custom tokenizer cannot travel: the job runs in-process only.
	cfg.Tokenizer = qgram3{}
	job, err = coreJob(&cfg, progSpec{Kind: "s2", TokenFile: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Program != "" || job.ProgramSpec != "" || job.Mapper == nil {
		t.Fatalf("custom tokenizer: job = program %q, spec %q", job.Program, job.ProgramSpec)
	}
	if _, err := buildCoreProgram(`{"kind":"s2","tok":{"kind":"word"}}`); err == nil {
		t.Fatal("spec without a config accepted")
	}
}
