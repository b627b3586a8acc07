package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// ---- test corpus -----------------------------------------------------

var vocab = strings.Fields(`
parallel efficient set similarity joins using mapreduce hadoop query
processing database systems large scale data cluster partition token
ordering prefix filter record join stage kernel index stream memory
analysis distributed performance speedup scaleup evaluation algorithm
`)

// makeLines builds record lines in clusters of near-duplicates so the
// join result is non-trivial. Deterministic for a given seed.
func makeLines(seed int64, n, startRID int) []string {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, 0, n)
	var baseTitle []string
	var baseAuthors []string
	for i := 0; i < n; i++ {
		if i%3 == 0 || baseTitle == nil {
			baseTitle = sampleWords(rng, 5+rng.Intn(4))
			baseAuthors = sampleWords(rng, 2+rng.Intn(2))
		}
		title := append([]string(nil), baseTitle...)
		authors := append([]string(nil), baseAuthors...)
		// Perturb non-cluster-head records slightly.
		if i%3 != 0 && rng.Intn(2) == 0 {
			title[rng.Intn(len(title))] = vocab[rng.Intn(len(vocab))]
		}
		rec := records.Record{
			RID:    uint64(startRID + i),
			Fields: []string{strings.Join(title, " "), strings.Join(authors, " "), "rest content"},
		}
		lines = append(lines, rec.Line())
	}
	return lines
}

func sampleWords(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = vocab[rng.Intn(len(vocab))]
	}
	return out
}

// ---- oracle ----------------------------------------------------------

func tokenSet(line string, t *testing.T) map[string]bool {
	rec, err := records.ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	toks := (tokenize.Word{}).Tokenize(rec.JoinAttr(records.FieldTitle, records.FieldAuthors))
	set := make(map[string]bool, len(toks))
	for _, tok := range toks {
		set[tok] = true
	}
	return set
}

func jaccardSets(a, b map[string]bool) float64 {
	inter := 0
	for t := range a {
		if b[t] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func ridOf(line string, t *testing.T) uint64 {
	rec, err := records.ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	return rec.RID
}

// oracleSelf returns every similar pair (A<B) with its similarity.
func oracleSelf(t *testing.T, lines []string, tau float64) map[string]float64 {
	out := map[string]float64{}
	sets := make([]map[string]bool, len(lines))
	rids := make([]uint64, len(lines))
	for i, l := range lines {
		sets[i] = tokenSet(l, t)
		rids[i] = ridOf(l, t)
	}
	for i := range lines {
		for j := i + 1; j < len(lines); j++ {
			if sim := jaccardSets(sets[i], sets[j]); sim >= tau-1e-9 {
				a, b := rids[i], rids[j]
				if a > b {
					a, b = b, a
				}
				out[fmt.Sprintf("%d-%d", a, b)] = sim
			}
		}
	}
	return out
}

// oracleRS mirrors the paper's §4 semantics: S tokens absent from R's
// token dictionary are discarded before similarity is computed.
func oracleRS(t *testing.T, rLines, sLines []string, tau float64) map[string]float64 {
	dict := map[string]bool{}
	for _, l := range rLines {
		for tok := range tokenSet(l, t) {
			dict[tok] = true
		}
	}
	out := map[string]float64{}
	for _, rl := range rLines {
		rs := tokenSet(rl, t)
		for _, sl := range sLines {
			ss := tokenSet(sl, t)
			kept := map[string]bool{}
			for tok := range ss {
				if dict[tok] {
					kept[tok] = true
				}
			}
			if len(kept) == 0 {
				continue
			}
			if sim := jaccardSets(rs, kept); sim >= tau-1e-9 {
				out[fmt.Sprintf("%d-%d", ridOf(rl, t), ridOf(sl, t))] = sim
			}
		}
	}
	return out
}

// ---- helpers ----------------------------------------------------------

func newTestFS(t *testing.T) *dfs.FS {
	t.Helper()
	return dfs.New(dfs.Options{BlockSize: 2 << 10, Nodes: 4})
}

func writeInput(t *testing.T, fs *dfs.FS, name string, lines []string) {
	t.Helper()
	if err := mapreduce.WriteTextFile(fs, name, lines); err != nil {
		t.Fatal(err)
	}
}

// readJoined parses the final output into pair-key → sim.
func readJoined(t *testing.T, fs *dfs.FS, prefix string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	if err := walkJoinedRIDs(fs, prefix, func(p records.RIDPair) error {
		k := fmt.Sprintf("%d-%d", p.A, p.B)
		if _, dup := out[k]; dup {
			return fmt.Errorf("pair %s appears twice in final output", k)
		}
		out[k] = p.Sim
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// walkJoinedRIDs calls fn with the RIDs and similarity of every pair of
// a join's final output.
func walkJoinedRIDs(fs *dfs.FS, prefix string, fn func(records.RIDPair) error) error {
	return WalkJoined(fs, prefix, func(sim float64, left, right []byte) error {
		a, err := records.RID(left)
		if err != nil {
			return err
		}
		b, err := records.RID(right)
		if err != nil {
			return err
		}
		return fn(records.RIDPair{A: a, B: b, Sim: sim})
	})
}

func assertPairsEqual(t *testing.T, got, want map[string]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for k, sim := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: missing pair %s", label, k)
		}
		if math.Abs(g-sim) > 1e-6 {
			t.Fatalf("%s: pair %s sim %v, want %v", label, k, g, sim)
		}
	}
}

// ---- end-to-end self-join over every algorithm combination ------------

func TestSelfJoinAllCombos(t *testing.T) {
	lines := makeLines(1, 45, 1)
	want := oracleSelf(t, lines, 0.8)
	if len(want) < 5 {
		t.Fatalf("test corpus too sparse: %d oracle pairs", len(want))
	}
	for _, to := range []TokenOrderAlg{BTO, OPTO} {
		for _, k := range []KernelAlg{BK, PK, FVT} {
			for _, rj := range []RecordJoinAlg{BRJ, OPRJ} {
				for _, routing := range []Routing{IndividualTokens, GroupedTokens} {
					name := fmt.Sprintf("%s-%s-%s-%s", to, k, rj, routing)
					t.Run(name, func(t *testing.T) {
						fs := newTestFS(t)
						writeInput(t, fs, "in", lines)
						cfg := Config{
							FS: fs, Work: "w",
							TokenOrder: to, Kernel: k, RecordJoin: rj,
							Routing: routing, NumGroups: 7,
							NumReducers: 3,
						}
						res, err := SelfJoin(cfg, "in")
						if err != nil {
							t.Fatal(err)
						}
						got := readJoined(t, fs, res.Output)
						assertPairsEqual(t, got, want, name)
						if res.Pairs != int64(len(want)) {
							t.Fatalf("Result.Pairs = %d, want %d", res.Pairs, len(want))
						}
					})
				}
			}
		}
	}
}

func TestSelfJoinThresholds(t *testing.T) {
	lines := makeLines(2, 36, 1)
	for _, tau := range []float64{0.5, 0.7, 0.9} {
		want := oracleSelf(t, lines, tau)
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{FS: fs, Work: "w", Threshold: tau, Kernel: PK, NumReducers: 2}
		res, err := SelfJoin(cfg, "in")
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEqual(t, readJoined(t, fs, res.Output), want, fmt.Sprintf("τ=%v", tau))
	}
}

// ---- end-to-end R-S join ----------------------------------------------

func TestRSJoinAllCombos(t *testing.T) {
	rLines := makeLines(3, 30, 1)
	// S overlaps R's clusters plus brings its own vocabulary.
	sLines := makeLines(3, 24, 101)
	for i := range sLines {
		if i%5 == 0 {
			rec, _ := records.ParseLine(sLines[i])
			rec.Fields[0] += " exotic unseen término"
			sLines[i] = rec.Line()
		}
	}
	want := oracleRS(t, rLines, sLines, 0.8)
	if len(want) < 3 {
		t.Fatalf("test corpus too sparse: %d oracle pairs", len(want))
	}
	for _, k := range []KernelAlg{BK, PK, FVT} {
		for _, rj := range []RecordJoinAlg{BRJ, OPRJ} {
			for _, routing := range []Routing{IndividualTokens, GroupedTokens} {
				name := fmt.Sprintf("BTO-%s-%s-%s", k, rj, routing)
				t.Run(name, func(t *testing.T) {
					fs := newTestFS(t)
					writeInput(t, fs, "R", rLines)
					writeInput(t, fs, "S", sLines)
					cfg := Config{
						FS: fs, Work: "w",
						Kernel: k, RecordJoin: rj,
						Routing: routing, NumGroups: 5,
						NumReducers: 3,
					}
					res, err := RSJoin(cfg, "R", "S")
					if err != nil {
						t.Fatal(err)
					}
					got := readJoined(t, fs, res.Output)
					assertPairsEqual(t, got, want, name)
					// Left record must always be the R-side record.
					if err := walkJoinedRIDs(fs, res.Output, func(p records.RIDPair) error {
						if p.A > 100 || p.B <= 100 {
							return fmt.Errorf("pair sides swapped: left=%d right=%d", p.A, p.B)
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestRSJoinOverlappingRIDSpaces: R and S may reuse the same RIDs; the
// relation tags must keep them apart.
func TestRSJoinOverlappingRIDSpaces(t *testing.T) {
	rLines := makeLines(4, 18, 1)
	sLines := makeLines(4, 18, 1) // same seed, same RIDs: S ≡ R
	want := oracleRS(t, rLines, sLines, 0.8)
	fs := newTestFS(t)
	writeInput(t, fs, "R", rLines)
	writeInput(t, fs, "S", sLines)
	cfg := Config{FS: fs, Work: "w", Kernel: PK, RecordJoin: BRJ, NumReducers: 2}
	res, err := RSJoin(cfg, "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, readJoined(t, fs, res.Output), want, "overlapping-rids")
}

// ---- block processing (§5) ---------------------------------------------

func TestBlockProcessingEquivalence(t *testing.T) {
	lines := makeLines(5, 45, 1)
	want := oracleSelf(t, lines, 0.8)
	for _, mode := range []BlockMode{MapBlocks, ReduceBlocks} {
		for _, blocks := range []int{2, 3, 5} {
			name := fmt.Sprintf("%s-m%d", mode, blocks)
			t.Run(name, func(t *testing.T) {
				fs := newTestFS(t)
				writeInput(t, fs, "in", lines)
				cfg := Config{
					FS: fs, Work: "w",
					Kernel: BK, RecordJoin: BRJ,
					BlockMode: mode, NumBlocks: blocks,
					NumReducers: 3,
				}
				res, err := SelfJoin(cfg, "in")
				if err != nil {
					t.Fatal(err)
				}
				assertPairsEqual(t, readJoined(t, fs, res.Output), want, name)
			})
		}
	}
}

func TestBlockProcessingRSEquivalence(t *testing.T) {
	rLines := makeLines(6, 24, 1)
	sLines := makeLines(6, 24, 101)
	want := oracleRS(t, rLines, sLines, 0.8)
	for _, mode := range []BlockMode{MapBlocks, ReduceBlocks} {
		t.Run(mode.String(), func(t *testing.T) {
			fs := newTestFS(t)
			writeInput(t, fs, "R", rLines)
			writeInput(t, fs, "S", sLines)
			cfg := Config{
				FS: fs, Work: "w",
				Kernel: BK, RecordJoin: BRJ,
				BlockMode: mode, NumBlocks: 3,
				NumReducers: 2,
			}
			res, err := RSJoin(cfg, "R", "S")
			if err != nil {
				t.Fatal(err)
			}
			assertPairsEqual(t, readJoined(t, fs, res.Output), want, mode.String())
		})
	}
}

// TestBlockProcessingBoundedMemory: with block processing, BK succeeds
// under a budget that the unblocked kernel exceeds.
func TestBlockProcessingBoundedMemory(t *testing.T) {
	// All records share four title tokens, so one shared-token group
	// holds all 60 projections (~44 bytes each ≈ 2.6 KiB), but each has a
	// unique author token keeping Jaccard at 4/6 < 0.8 — the reduce group
	// blows the budget while Stage 3 stays trivial.
	n := 60
	lines := make([]string, n)
	for i := range lines {
		rec := records.Record{
			RID:    uint64(i + 1),
			Fields: []string{"shared quad token set", fmt.Sprintf("author%d", i), "rest"},
		}
		lines[i] = rec.Line()
	}
	budget := int64(2 << 10)

	run := func(mode BlockMode, blocks int) error {
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{
			FS: fs, Work: "w", Kernel: BK, RecordJoin: BRJ,
			BlockMode: mode, NumBlocks: blocks,
			MemoryLimit: budget, NumReducers: 1,
		}
		_, err := SelfJoin(cfg, "in")
		return err
	}
	if err := run(NoBlocks, 0); !errors.Is(err, mapreduce.ErrInsufficientMemory) {
		t.Fatalf("unblocked BK under budget: err = %v, want ErrInsufficientMemory", err)
	}
	if err := run(MapBlocks, 8); err != nil {
		t.Fatalf("map-based blocks under budget failed: %v", err)
	}
	if err := run(ReduceBlocks, 8); err != nil {
		t.Fatalf("reduce-based blocks under budget failed: %v", err)
	}
}

// ---- memory failure injection ------------------------------------------

func TestOPRJRunsOutOfMemory(t *testing.T) {
	lines := makeLines(7, 45, 1)
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{
		FS: fs, Work: "w", Kernel: PK, RecordJoin: OPRJ,
		MemoryLimit: 512, // too small to index the RID-pair list
		NumReducers: 2,
	}
	_, err := SelfJoin(cfg, "in")
	if !errors.Is(err, mapreduce.ErrInsufficientMemory) {
		t.Fatalf("err = %v, want ErrInsufficientMemory", err)
	}
	// BRJ completes under the same budget — the paper's fallback
	// recommendation.
	fs2 := newTestFS(t)
	writeInput(t, fs2, "in", lines)
	cfg.FS = fs2
	cfg.RecordJoin = BRJ
	cfg.MemoryLimit = 64 << 10
	if _, err := SelfJoin(cfg, "in"); err != nil {
		t.Fatalf("BRJ under budget failed: %v", err)
	}

	// An s3-oprj task is charged 96 B per pair, the model of the paper's
	// per-task hash index that Figs. 12 and 14's OOM cells rest on: one
	// byte under 96·n fails, 96·n passes.
	cfg = Config{FS: fs2, Work: "s1", Kernel: PK, NumReducers: 2}
	tokenFile, _, err := Stage1(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Work = "s2"
	pairs, m, err := Stage2Self(cfg, "in", tokenFile)
	if err != nil {
		t.Fatal(err)
	}
	n := m[0].Counters["stage2.results"]
	if n < 10 {
		t.Fatalf("%d pairs: too few to pin the charge", n)
	}
	cfg.RecordJoin = OPRJ
	cfg.Work, cfg.MemoryLimit = "short", 96*n-1
	if _, _, err := Stage3Self(cfg, "in", pairs); !errors.Is(err, mapreduce.ErrInsufficientMemory) {
		t.Fatalf("budget %d under %d pairs × 96 B: err = %v, want ErrInsufficientMemory", 96*n-1, n, err)
	}
	cfg.Work, cfg.MemoryLimit = "exact", 96*n
	if _, _, err := Stage3Self(cfg, "in", pairs); err != nil {
		t.Fatalf("budget of %d pairs × 96 B: %v", n, err)
	}
}

// ---- stage-level checks -------------------------------------------------

func TestStage1OrdersByFrequency(t *testing.T) {
	lines := []string{
		records.Record{RID: 1, Fields: []string{"aa bb cc", "", ""}}.Line(),
		records.Record{RID: 2, Fields: []string{"bb cc", "", ""}}.Line(),
		records.Record{RID: 3, Fields: []string{"cc", "", ""}}.Line(),
	}
	for _, alg := range []TokenOrderAlg{BTO, OPTO} {
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{FS: fs, Work: "w", TokenOrder: alg}
		if err := cfg.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		tokenFile, _, err := runStage1(&cfg, "in", "w")
		if err != nil {
			t.Fatal(err)
		}
		data, err := fs.ReadAll(tokenFile)
		if err != nil {
			t.Fatal(err)
		}
		got := strings.Fields(string(data))
		want := []string{"aa", "bb", "cc"} // frequencies 1, 2, 3
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%v: token order = %v, want %v", alg, got, want)
		}
	}
}

func TestStage1BTOandOPTOAgree(t *testing.T) {
	lines := makeLines(8, 30, 1)
	read := func(alg TokenOrderAlg) string {
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{FS: fs, Work: "w", TokenOrder: alg}
		if err := cfg.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		tokenFile, _, err := runStage1(&cfg, "in", "w")
		if err != nil {
			t.Fatal(err)
		}
		data, err := fs.ReadAll(tokenFile)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if read(BTO) != read(OPTO) {
		t.Fatal("BTO and OPTO produced different token orders")
	}
}

func TestStage2EmitsEachPairOnce(t *testing.T) {
	// Two records sharing several rare prefix tokens meet in multiple
	// groups with individual routing; only the group of their minimal
	// common prefix token emits the pair.
	lines := []string{
		records.Record{RID: 1, Fields: []string{"alpha beta gamma delta", "x", ""}}.Line(),
		records.Record{RID: 2, Fields: []string{"alpha beta gamma delta", "x", ""}}.Line(),
	}
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{FS: fs, Work: "w", Kernel: BK, RecordJoin: BRJ, NumReducers: 2}
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	raw := 0
	if _, err := WalkRIDPairs(fs, res.RIDPairs, func(records.RIDPair) error {
		raw++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if raw != 1 {
		t.Fatalf("Stage 2 emitted %d RID pairs for one similar pair, want exactly 1", raw)
	}
	got := readJoined(t, fs, res.Output)
	if len(got) != 1 {
		t.Fatalf("final output has %d pairs, want 1", len(got))
	}
}

// TestRecordJoinRejectsRepeatedPair: Stage 3 joins, it no longer dedups. A
// Stage 2 part file that carries one pair twice fails both record joins
// with an error naming the pair and the halves it found.
func TestRecordJoinRejectsRepeatedPair(t *testing.T) {
	lines := []string{
		records.Record{RID: 1, Fields: []string{"alpha beta gamma delta", "x", ""}}.Line(),
		records.Record{RID: 2, Fields: []string{"alpha beta gamma delta", "x", ""}}.Line(),
	}
	pair := records.RIDPair{A: 1, B: 2, Sim: 1}
	twice := mapreduce.Pair{Key: pairGroupKey(pair), Value: pair.AppendBinary(nil)}
	for _, rj := range []RecordJoinAlg{BRJ, OPRJ} {
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		if err := mapreduce.WritePairsFile(fs, "s2/part-00000", []mapreduce.Pair{twice, twice}); err != nil {
			t.Fatal(err)
		}
		_, _, err := Stage3Self(Config{FS: fs, Work: "w", RecordJoin: rj, NumReducers: 2}, "in", "s2")
		if err == nil || !strings.Contains(err.Error(), "RID pair (1, 2) has 2 left and 2 right halves") {
			t.Errorf("%s over a repeated pair: err = %v, want the RID pair and its half counts", rj, err)
		}
	}
}

func TestSelfJoinDeterministic(t *testing.T) {
	lines := makeLines(9, 30, 1)
	run := func() map[string]float64 {
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{FS: fs, Work: "w", Kernel: PK, NumReducers: 3, Parallelism: 4}
		res, err := SelfJoin(cfg, "in")
		if err != nil {
			t.Fatal(err)
		}
		return readJoined(t, fs, res.Output)
	}
	a, b := run(), run()
	assertPairsEqual(t, a, b, "determinism")
}

func TestResultMetadata(t *testing.T) {
	lines := makeLines(10, 24, 1)
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{FS: fs, Work: "w", TokenOrder: BTO, Kernel: PK, RecordJoin: BRJ}
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages[0].Alg != "BTO" || res.Stages[1].Alg != "PK" || res.Stages[2].Alg != "BRJ" {
		t.Fatalf("stage algs = %v %v %v", res.Stages[0].Alg, res.Stages[1].Alg, res.Stages[2].Alg)
	}
	if len(res.Stages[0].Jobs) != 2 || len(res.Stages[1].Jobs) != 1 || len(res.Stages[2].Jobs) != 2 {
		t.Fatalf("job counts = %d %d %d, want 2 1 2",
			len(res.Stages[0].Jobs), len(res.Stages[1].Jobs), len(res.Stages[2].Jobs))
	}
	if len(res.AllJobs()) != 5 {
		t.Fatalf("AllJobs = %d, want 5", len(res.AllJobs()))
	}
	if cfg.Combo() != "BTO-PK-BRJ" {
		t.Fatalf("Combo = %q", cfg.Combo())
	}
}

// TestPipelineForcesOneCollection: a pipeline forces one garbage
// collection when it starts and none per job, whether it runs a whole
// join (five jobs here) or one stage. Not parallel: the count is
// process-wide.
func TestPipelineForcesOneCollection(t *testing.T) {
	fs := newTestFS(t)
	writeInput(t, fs, "in", makeLines(10, 24, 1))
	cfg := Config{FS: fs, Work: "w", TokenOrder: BTO, Kernel: PK, RecordJoin: BRJ}
	before := forcedGCs()
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	if jobs, n := len(res.AllJobs()), forcedGCs()-before; jobs != 5 || n != 1 {
		t.Fatalf("SelfJoin ran %d jobs and forced %d collections, want 5 and 1", jobs, n)
	}

	cfg.Work = "s1"
	tokenFile, _, err := Stage1(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Work = "s2"
	before = forcedGCs()
	if _, _, err := Stage2Self(cfg, "in", tokenFile); err != nil {
		t.Fatal(err)
	}
	if n := forcedGCs() - before; n != 1 {
		t.Fatalf("Stage2Self forced %d collections, want 1", n)
	}
}

// forcedGCs is the number of collections the process has forced so far.
func forcedGCs() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumForcedGC
}

func TestConfigValidation(t *testing.T) {
	fs := newTestFS(t)
	writeInput(t, fs, "in", makeLines(11, 6, 1))
	cases := []Config{
		{},                                  // no FS
		{FS: fs},                            // no Work
		{FS: fs, Work: "w", Threshold: 1.5}, // bad τ
		{FS: fs, Work: "w", Kernel: PK, BlockMode: MapBlocks, NumBlocks: 4}, // blocks need BK
		{FS: fs, Work: "w", Kernel: BK, BlockMode: MapBlocks, NumBlocks: 1}, // too few blocks
	}
	for i, cfg := range cases {
		if _, err := SelfJoin(cfg, "in"); err == nil {
			t.Fatalf("case %d: SelfJoin accepted invalid config", i)
		}
	}
	good := Config{FS: fs, Work: "w2"}
	if _, err := SelfJoin(good, "missing-input"); err == nil {
		t.Fatal("SelfJoin accepted missing input")
	}
	if _, err := RSJoin(Config{FS: fs, Work: "w3"}, "in", "in"); err == nil {
		t.Fatal("RSJoin accepted identical inputs")
	}
}

func TestGroupedRoutingFewerReplicas(t *testing.T) {
	lines := makeLines(12, 45, 1)
	replicas := func(routing Routing, groups int) int64 {
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{FS: fs, Work: "w", Kernel: PK, Routing: routing, NumGroups: groups,
			NumReducers: 2}
		res, err := SelfJoin(cfg, "in")
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages[1].Jobs[0].Counters["stage2.replicas"]
	}
	ind := replicas(IndividualTokens, 0)
	grp := replicas(GroupedTokens, 4)
	if grp >= ind {
		t.Fatalf("grouped routing (%d replicas) not fewer than individual (%d)", grp, ind)
	}
}
