package ssjserve

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// genRecords builds a corpus biased toward near-duplicate clusters so
// similar pairs actually exist (the ppjoin test-corpus recipe, lifted to
// whole records).
func genRecords(rng *rand.Rand, n, vocab int) []records.Record {
	word := func(i int) string { return fmt.Sprintf("w%03d", i) }
	var base []string
	out := make([]records.Record, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 || base == nil {
			m := 4 + rng.Intn(8)
			base = base[:0]
			for len(base) < m {
				base = append(base, word(rng.Intn(vocab)))
			}
		}
		words := append([]string(nil), base...)
		for e := rng.Intn(3); e > 0 && len(words) > 1; e-- {
			switch rng.Intn(2) {
			case 0:
				j := rng.Intn(len(words))
				words = append(words[:j], words[j+1:]...)
			case 1:
				words = append(words, word(rng.Intn(vocab)))
			}
		}
		out = append(out, records.Record{RID: uint64(i + 1),
			Fields: []string{strings.Join(words, " "), "auth " + word(rng.Intn(vocab))}})
	}
	return out
}

// oracle is the brute-force reference: for each corpus record, verify
// the probe exactly over lexicographic token ranks (similarity is
// invariant under any rank bijection). Probe tokens outside the corpus
// vocabulary are dropped, mirroring the index's §4 semantics.
func oracle(opts Options, corpus []records.Record, probe records.Record) []records.JoinedPair {
	return bruteForce(opts, corpus)(probe)
}

// bruteForce ranks corpus once and returns the oracle over it.
func bruteForce(opts Options, corpus []records.Record) func(probe records.Record) []records.JoinedPair {
	vocabSet := map[string]bool{}
	toks := make([][]string, len(corpus))
	for i, r := range corpus {
		toks[i] = opts.Tokenizer.Tokenize(r.JoinAttr(opts.JoinFields...))
		for _, t := range toks[i] {
			vocabSet[t] = true
		}
	}
	vocab := make([]string, 0, len(vocabSet))
	for t := range vocabSet {
		vocab = append(vocab, t)
	}
	sort.Strings(vocab)
	ord := tokenize.NewOrder(vocab)

	ranksOf := func(ts []string) []uint32 {
		rs := ord.Ranks(ts) // drops unknown
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		return rs
	}
	ranks := make([][]uint32, len(corpus))
	for i := range corpus {
		ranks[i] = ranksOf(toks[i])
	}
	return func(probe records.Record) []records.JoinedPair {
		px := ranksOf(opts.Tokenizer.Tokenize(probe.JoinAttr(opts.JoinFields...)))
		if len(px) == 0 {
			return nil
		}
		var out []records.JoinedPair
		for i, r := range corpus {
			if r.RID == probe.RID || len(ranks[i]) == 0 {
				continue
			}
			if sim, ok := opts.Fn.Verify(px, ranks[i], opts.Threshold); ok {
				out = append(out, records.JoinedPair{Left: r, Right: probe, Sim: sim})
			}
		}
		return out
	}
}

func sortPairs(ps []records.JoinedPair) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Left.RID < ps[j].Left.RID })
}

func assertSameAnswers(t *testing.T, got, want []records.JoinedPair, label string) {
	t.Helper()
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d pairs, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), rids(got), rids(want))
	}
	for i := range want {
		if got[i].Left.RID != want[i].Left.RID || got[i].Sim != want[i].Sim {
			t.Fatalf("%s: pair %d: got (rid=%d sim=%v), want (rid=%d sim=%v)",
				label, i, got[i].Left.RID, got[i].Sim, want[i].Left.RID, want[i].Sim)
		}
	}
}

func rids(ps []records.JoinedPair) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = p.Left.RID
	}
	return out
}

// TestMatchMatchesOracle anchors the batch-built index: every corpus
// record probed against the full index equals brute force, at two
// thresholds and two shard counts.
func TestMatchMatchesOracle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tau := range []float64{0.6, 0.8} {
			rng := rand.New(rand.NewSource(7))
			corpus := genRecords(rng, 250, 60)
			opts := Options{Threshold: tau, Shards: shards}
			ix, err := NewIndex(opts, corpus)
			if err != nil {
				t.Fatal(err)
			}
			for _, probe := range corpus {
				got := ix.Match(probe)
				want := oracle(ix.opts, corpus, probe)
				assertSameAnswers(t, got, want,
					fmt.Sprintf("shards=%d tau=%v probe=%d", shards, tau, probe.RID))
			}
		}
	}
}

// TestIncrementalEqualsBatch is the ingestion property test: an index
// grown by N incremental Adds (crossing at least one drift re-order)
// answers every probe exactly like a fresh batch-built index over the
// same corpus.
func TestIncrementalEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := genRecords(rng, 300, 70)
	seed := corpus[:100]

	opts := Options{Threshold: 0.7, Shards: 4}
	inc, err := NewIndex(opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range corpus[100:] {
		inc.Add(r)
	}
	if inc.Reorders() == 0 {
		t.Fatalf("200 adds over a 100-record base crossed no drift re-order (threshold %v)",
			inc.opts.DriftThreshold)
	}
	batch, err := NewIndex(opts, corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range corpus {
		assertSameAnswers(t, inc.Match(probe), batch.Match(probe),
			fmt.Sprintf("probe=%d", probe.RID))
	}
}

// TestUnknownProbeTokensDropped: a probe with out-of-dictionary tokens
// is matched on its known tokens only, equal to the oracle under the
// same drop rule.
func TestUnknownProbeTokensDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	corpus := genRecords(rng, 120, 40)
	ix, err := NewIndex(Options{Threshold: 0.6}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	base := corpus[5]
	probe := records.Record{RID: 9999,
		Fields: []string{base.Fields[0] + " zzznovel zzzunseen", base.Fields[1]}}
	assertSameAnswers(t, ix.Match(probe), oracle(ix.opts, corpus, probe), "unknown-token probe")

	allUnknown := records.Record{RID: 9998, Fields: []string{"qqq www eee", "rrr"}}
	if got := ix.Match(allUnknown); len(got) != 0 {
		t.Fatalf("all-unknown probe matched %d records", len(got))
	}
}

// TestScratchJoinAttrMatchesRecord: the bytes a scratch tokenizes are
// Record.JoinAttr's, whichever fields are selected or missing.
func TestScratchJoinAttrMatchesRecord(t *testing.T) {
	var s probeScratch
	for _, r := range []records.Record{
		{RID: 1, Fields: []string{"title", "authors", "rest"}},
		{RID: 2, Fields: []string{"only"}},
		{RID: 3, Fields: []string{"", "b"}},
		{RID: 4},
	} {
		for _, fields := range [][]int{{0}, {1}, {9}, {0, 1}, {1, 0}, {2, 5, 0}, {5, 1}} {
			s.tokens(&Options{JoinFields: fields, Tokenizer: tokenize.Word{}}, r)
			if want := r.JoinAttr(fields...); string(s.attr) != want {
				t.Fatalf("record %d fields %v: scratch holds %q, JoinAttr is %q", r.RID, fields, s.attr, want)
			}
		}
	}
}

// TestHotTokenProbe: a probe whose prefix holds a token that is in every
// record meets the whole corpus as candidates — more than a probe's
// scratch keeps — and is still answered exactly, as are the probes that
// follow it on scratch that was dropped and regrown. At τ 0.5 a
// two-token record's prefix is both its tokens, so the shared token's
// posting lists hold every record.
func TestHotTokenProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	corpus := make([]records.Record, 3*maxCandScratch/2)
	for i := range corpus {
		title := "common"
		if i%8 != 0 {
			title += fmt.Sprintf(" w%03d", rng.Intn(300))
		}
		corpus[i] = records.Record{RID: uint64(i + 1), Fields: []string{title, ""}}
	}
	ix, err := NewIndex(Options{Threshold: 0.5, Shards: 2}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	probes := []struct {
		rec records.Record
		hot bool // the shared token is in the probe's prefix
	}{
		{corpus[1], true}, {corpus[0], true}, {corpus[2], true},
		{records.Record{RID: 1 << 40, Fields: []string{"common w007 w008", ""}}, false},
	}
	for round := 0; round < 2; round++ {
		for _, p := range probes {
			before := ix.Funnel().Length
			got := ix.Match(p.rec)
			if met := ix.Funnel().Length - before; p.hot && met <= maxCandScratch {
				t.Fatalf("probe %q met %d candidates, the test needs more than %d", p.rec.Fields[0], met, maxCandScratch)
			}
			assertSameAnswers(t, got, oracle(ix.opts, corpus, p.rec), fmt.Sprintf("round %d probe %q", round, p.rec.Fields[0]))
		}
	}
	if f := ix.Funnel(); !monotone(f) || f.Results == 0 {
		t.Fatalf("filter funnel %+v is not monotone down to a non-zero result count", f)
	}
}

// monotone reports whether each stage of the funnel let through at most
// what the stage before it did.
func monotone(f Funnel) bool {
	return f.Scanned >= f.Length && f.Length >= f.Positional && f.Positional >= f.Suffix &&
		f.Suffix >= f.Verified && f.Verified >= f.Results
}

// TestMatchAllocations pins the probe path's storage to its scratch: a
// Match with no result allocates nothing once a scratch has served a
// probe. (The parent allocated three times per candidate, 600 times a
// probe on the benchmark corpus.) Under the race detector sync.Pool
// drops a quarter of what is put back and a new scratch grows in some
// twenty allocations, so there the bound is ten.
func TestMatchAllocations(t *testing.T) {
	corpus := genRecords(rand.New(rand.NewSource(19)), 400, 60)
	ix, err := NewIndex(Options{Threshold: 0.8}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	var probe *records.Record
	for i := range corpus {
		before := ix.Funnel().Length
		if len(ix.Match(corpus[i])) == 0 && ix.Funnel().Length > before {
			probe = &corpus[i]
			break
		}
	}
	if probe == nil {
		t.Fatal("no corpus record has candidates and no neighbour")
	}
	bound := 0.0
	if raceEnabled {
		bound = 10
	}
	if n := testing.AllocsPerRun(200, func() { ix.Match(*probe) }); n > bound {
		t.Fatalf("a result-less Match allocates %v times", n)
	}
}

// TestConcurrentMatchAddReorder is the -race exercise: parallel Match
// traffic against concurrent Adds with an aggressive drift threshold
// (forcing many re-orders mid-flight), then a final differential check
// against a fresh batch index.
func TestConcurrentMatchAddReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	corpus := genRecords(rng, 400, 80)
	seed := corpus[:100]
	rest := corpus[100:]

	opts := Options{Threshold: 0.7, Shards: 4, DriftThreshold: 0.05}
	ix, err := NewIndex(opts, seed)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(rest); i += 4 {
				ix.Add(rest[i])
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				probe := corpus[(w*211+i*13)%len(corpus)]
				// Answers during ingestion depend on arrival timing; this
				// loop only has to be data-race-free and panic-free.
				ix.Match(probe)
			}
		}(w)
	}
	wg.Wait()

	if ix.Reorders() == 0 {
		t.Fatal("concurrent ingestion crossed no re-order at drift threshold 0.05")
	}
	if ix.Len() != len(corpus) {
		t.Fatalf("index holds %d records, want %d", ix.Len(), len(corpus))
	}
	batch, err := NewIndex(opts, corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range corpus[:100] {
		assertSameAnswers(t, ix.Match(probe), batch.Match(probe),
			fmt.Sprintf("post-ingest probe=%d", probe.RID))
	}
}
