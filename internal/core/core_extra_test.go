package core

import (
	"fmt"
	"strings"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
	"fuzzyjoin/internal/tokenize"
)

// TestSelfJoinRandomCorpora: pipeline-vs-oracle over several random
// corpora, exercising the default combo plus the fastest one.
func TestSelfJoinRandomCorpora(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		lines := makeLines(seed, 40, 1)
		want := oracleSelf(t, lines, 0.8)
		for _, cfgTpl := range []Config{
			{Kernel: BK, RecordJoin: BRJ},
			{Kernel: PK, RecordJoin: OPRJ, TokenOrder: OPTO},
		} {
			fs := newTestFS(t)
			writeInput(t, fs, "in", lines)
			cfg := cfgTpl
			cfg.FS, cfg.Work, cfg.NumReducers = fs, "w", 3
			res, err := SelfJoin(cfg, "in")
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, cfg.Combo(), err)
			}
			assertPairsEqual(t, readJoined(t, fs, res.Output), want,
				fmt.Sprintf("seed=%d %s", seed, cfg.Combo()))
		}
	}
}

// TestRSJoinOPRJOverlappingRIDs: OPRJ must keep colliding R and S RIDs
// apart via the relation checks in its pair indexes.
func TestRSJoinOPRJOverlappingRIDs(t *testing.T) {
	rLines := makeLines(4, 18, 1)
	sLines := makeLines(4, 18, 1) // identical RID space
	want := oracleRS(t, rLines, sLines, 0.8)
	fs := newTestFS(t)
	writeInput(t, fs, "R", rLines)
	writeInput(t, fs, "S", sLines)
	cfg := Config{FS: fs, Work: "w", Kernel: PK, RecordJoin: OPRJ, NumReducers: 2}
	res, err := RSJoin(cfg, "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, readJoined(t, fs, res.Output), want, "oprj-overlapping-rids")
}

// TestSelfJoinCosineAndDice: the whole pipeline under the other
// similarity functions from §2.
func TestSelfJoinCosineAndDice(t *testing.T) {
	lines := makeLines(15, 36, 1)
	for _, fn := range []simfn.Func{simfn.Cosine, simfn.Dice} {
		// Oracle via string token sets under fn.
		want := map[string]float64{}
		sets := make([][]string, len(lines))
		for i, l := range lines {
			for tok := range tokenSet(l, t) {
				sets[i] = append(sets[i], tok)
			}
		}
		for i := range lines {
			for j := i + 1; j < len(lines); j++ {
				sim := fnSim(fn, sets[i], sets[j])
				if sim >= 0.8-1e-9 {
					a, b := ridOf(lines[i], t), ridOf(lines[j], t)
					if a > b {
						a, b = b, a
					}
					want[fmt.Sprintf("%d-%d", a, b)] = sim
				}
			}
		}
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{FS: fs, Work: "w", Fn: fn, Kernel: PK, NumReducers: 2}
		res, err := SelfJoin(cfg, "in")
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEqual(t, readJoined(t, fs, res.Output), want, fn.String())
	}
}

func fnSim(fn simfn.Func, a, b []string) float64 {
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	inter := 0
	for _, y := range b {
		if set[y] {
			inter++
		}
	}
	switch fn {
	case simfn.Cosine:
		return float64(inter) / sqrtf(float64(len(a))*float64(len(b)))
	case simfn.Dice:
		return 2 * float64(inter) / float64(len(a)+len(b))
	default:
		return float64(inter) / float64(len(a)+len(b)-inter)
	}
}

func sqrtf(v float64) float64 {
	// Newton's method suffices for test-side math without importing math.
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

// TestSelfJoinPrefixOnlyFilters: the pipeline stays correct with every
// kernel filter disabled (prefix filter + verification alone).
func TestSelfJoinPrefixOnlyFilters(t *testing.T) {
	lines := makeLines(16, 36, 1)
	want := oracleSelf(t, lines, 0.8)
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	none := filter.Stack{}
	cfg := Config{FS: fs, Work: "w", Kernel: PK, Filters: &none, NumReducers: 2}
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, readJoined(t, fs, res.Output), want, "prefix-only")
}

// TestStage2RSOneLengthOrder: PK R-S keys stream both relations in one
// non-decreasing length order, and each pair is found by its later
// member probing the other relation's index. We check it end to end on
// R records of strongly varying lengths joined with S records that are
// the same titles with one token added — S always the longer side, so R
// is indexed and S probes — and with one token dropped, the mirror, where
// R probes S's index. Every S record has exactly one R partner.
func TestStage2RSOneLengthOrder(t *testing.T) {
	for _, c := range []struct {
		name  string
		delta int // tokens S has beyond R's
	}{{"S longer", 1}, {"S shorter", -1}} {
		var rLines, sLines []string
		for i := 0; i < 12; i++ {
			var r []string
			for k := 0; k <= 5+i; k++ {
				r = append(r, fmt.Sprintf("tok%d%d", i, k))
			}
			s := append(r[:len(r):len(r)], "extra")
			if c.delta < 0 {
				s = r[1:]
			}
			rLines = append(rLines, records.Record{RID: uint64(i + 1),
				Fields: []string{strings.Join(r, " "), "au", ""}}.Line())
			sLines = append(sLines, records.Record{RID: uint64(100 + i),
				Fields: []string{strings.Join(s, " "), "au", ""}}.Line())
		}
		want := oracleRS(t, rLines, sLines, 0.8)
		if len(want) != 12 {
			t.Fatalf("%s: test premise broken: the oracle has %d pairs, want 12", c.name, len(want))
		}
		fs := newTestFS(t)
		writeInput(t, fs, "R", rLines)
		writeInput(t, fs, "S", sLines)
		cfg := Config{FS: fs, Work: "w", Kernel: PK, NumReducers: 1}
		res, err := RSJoin(cfg, "R", "S")
		if err != nil {
			t.Fatal(err)
		}
		assertPairsEqual(t, readJoined(t, fs, res.Output), want, c.name)
	}
}

// TestQGramTokenizerEndToEnd: the pipeline with the q-gram tokenizer
// alternative from §2.
func TestQGramTokenizerEndToEnd(t *testing.T) {
	lines := []string{
		records.Record{RID: 1, Fields: []string{"similarity", "x", ""}}.Line(),
		records.Record{RID: 2, Fields: []string{"similaritx", "x", ""}}.Line(),
		records.Record{RID: 3, Fields: []string{"completely different", "y", ""}}.Line(),
		// Empty join attributes have no grams, so these two never pair.
		records.Record{RID: 4, Fields: []string{"", "z", ""}}.Line(),
		records.Record{RID: 5, Fields: []string{"", "z", ""}}.Line(),
	}
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{FS: fs, Work: "w", Tokenizer: qgram3{}, Threshold: 0.6, NumReducers: 2,
		JoinFields: []int{records.FieldTitle}}
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	got := readJoined(t, fs, res.Output)
	if len(got) != 1 {
		t.Fatalf("pairs = %v, want the 1-2 q-gram match only", got)
	}
	if _, ok := got["1-2"]; !ok {
		t.Fatalf("missing pair 1-2: %v", got)
	}
}

type qgram3 struct{}

func (qgram3) Tokenize(s string) []string {
	return tokenize.QGram{Q: 3}.Tokenize(s)
}

// TestJoinAttrSingleField: joining on the title alone.
func TestJoinAttrSingleField(t *testing.T) {
	lines := []string{
		records.Record{RID: 1, Fields: []string{"same title words here five", "author one", ""}}.Line(),
		records.Record{RID: 2, Fields: []string{"same title words here five", "completely different author", ""}}.Line(),
	}
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{FS: fs, Work: "w", JoinFields: []int{records.FieldTitle}, NumReducers: 1}
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	if got := readJoined(t, fs, res.Output); len(got) != 1 {
		t.Fatalf("pairs = %v, want exactly the title match", got)
	}
}

// TestWorkPrefixCollision: reusing a Work prefix must fail loudly (the
// DFS refuses to overwrite), not corrupt results.
func TestWorkPrefixCollision(t *testing.T) {
	lines := makeLines(17, 12, 1)
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{FS: fs, Work: "w"}
	if _, err := SelfJoin(cfg, "in"); err != nil {
		t.Fatal(err)
	}
	if _, err := SelfJoin(cfg, "in"); err == nil {
		t.Fatal("second run on the same Work prefix succeeded")
	}
}

// TestStage3PairsCounterMatchesOutput across both record-join algorithms.
func TestStage3PairsCounterMatchesOutput(t *testing.T) {
	lines := makeLines(18, 30, 1)
	for _, rj := range []RecordJoinAlg{BRJ, OPRJ} {
		fs := newTestFS(t)
		writeInput(t, fs, "in", lines)
		cfg := Config{FS: fs, Work: "w", RecordJoin: rj, NumReducers: 3}
		res, err := SelfJoin(cfg, "in")
		if err != nil {
			t.Fatal(err)
		}
		got := readJoined(t, fs, res.Output)
		if int64(len(got)) != res.Pairs {
			t.Fatalf("%v: counter %d vs output %d", rj, res.Pairs, len(got))
		}
	}
}

// TestEmptyJoinAttribute: records whose join attribute tokenizes to
// nothing flow through without error and never join.
func TestEmptyJoinAttribute(t *testing.T) {
	lines := []string{
		records.Record{RID: 1, Fields: []string{"", "", "rest only"}}.Line(),
		records.Record{RID: 2, Fields: []string{"...", "!!!", "rest"}}.Line(),
		records.Record{RID: 3, Fields: []string{"real title five words here", "auth", ""}}.Line(),
		records.Record{RID: 4, Fields: []string{"real title five words here", "auth", ""}}.Line(),
	}
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{FS: fs, Work: "w", NumReducers: 2}
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	got := readJoined(t, fs, res.Output)
	if len(got) != 1 {
		t.Fatalf("pairs = %v, want only 3-4", got)
	}
	m := res.Stages[1].Jobs[0].Counters["stage2.empty_projections"]
	if m != 2 {
		t.Fatalf("empty projections counter = %d, want 2", m)
	}
}

// TestFVTGroupedDefaultGroups: FVT under grouped routing with no
// explicit group count must derive one group per distinct token from
// the Stage 1 side file (the reducer mirrors the mapper's fallback).
func TestFVTGroupedDefaultGroups(t *testing.T) {
	lines := makeLines(9, 40, 1)
	want := oracleSelf(t, lines, 0.8)
	if len(want) == 0 {
		t.Fatal("test corpus produced no oracle pairs")
	}
	fs := newTestFS(t)
	writeInput(t, fs, "in", lines)
	cfg := Config{
		FS: fs, Work: "w",
		Kernel: FVT, Routing: GroupedTokens, // NumGroups deliberately unset
		NumReducers: 3,
	}
	res, err := SelfJoin(cfg, "in")
	if err != nil {
		t.Fatal(err)
	}
	assertPairsEqual(t, readJoined(t, fs, res.Output), want, "fvt-grouped-default")
}
