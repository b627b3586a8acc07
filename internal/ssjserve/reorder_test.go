package ssjserve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fuzzyjoin/internal/records"
)

// TestReorderEqualsNewIndex is the permutation re-order's property test:
// an index grown by Adds until a drift re-order fires holds exactly the
// state NewIndex builds over the same records — the token order with its
// frequencies, every record's ranks, every posting list — and gives the
// same answer to every probe. Seeds vary the corpus, τ, the shard count
// and how much of the corpus arrives through Add.
func TestReorderEqualsNewIndex(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus := genRecords(rng, 200+rng.Intn(200), 30+rng.Intn(60))
		opts := Options{
			Threshold:      []float64{0.5, 0.6, 0.7, 0.8, 0.9}[rng.Intn(5)],
			Shards:         1 + rng.Intn(6),
			DriftThreshold: 0.05 + 0.4*rng.Float64(),
		}
		inc, err := NewIndex(opts, corpus[:20+rng.Intn(100)])
		if err != nil {
			t.Fatal(err)
		}
		// Stop at the Add that re-orders, so the re-order is the last
		// thing that happened to the index.
		n := inc.Len()
		for inc.Reorders() == 0 {
			if n == len(corpus) {
				t.Fatalf("seed %d: %d records crossed no re-order at drift %v", seed, n, opts.DriftThreshold)
			}
			inc.Add(corpus[n])
			n++
		}
		batch, err := NewIndex(opts, corpus[:n])
		if err != nil {
			t.Fatal(err)
		}

		label := fmt.Sprintf("seed %d (tau %v, %d shards, %d records)", seed, opts.Threshold, opts.Shards, n)
		a, b := inc.state.Load(), batch.state.Load()
		if inc.Generation() != 2 || batch.Generation() != 1 || a.baseRecords != n || b.baseRecords != n || a.added != 0 {
			t.Fatalf("%s: generations %d/%d, base %d/%d, added %d", label, inc.Generation(), batch.Generation(), a.baseRecords, b.baseRecords, a.added)
		}
		if !reflect.DeepEqual(a.ord.toks, b.ord.toks) || !reflect.DeepEqual(a.ord.freq, b.ord.freq) ||
			!reflect.DeepEqual(a.ord.rank, b.ord.rank) {
			t.Fatalf("%s: token orders differ", label)
		}
		for r, tok := range a.ord.toks {
			if a.ord.rank[tok] != uint32(r) {
				t.Fatalf("%s: rank[%q] = %d, the token sits at %d", label, tok, a.ord.rank[tok], r)
			}
		}
		if !reflect.DeepEqual(a.recs, b.recs) {
			t.Fatalf("%s: record logs differ", label)
		}
		for i := range a.shards {
			if !reflect.DeepEqual(a.shards[i].post, b.shards[i].post) {
				t.Fatalf("%s: shard %d postings differ", label, i)
			}
		}
		for _, probe := range corpus {
			got := inc.Match(probe)
			assertSameAnswers(t, got, batch.Match(probe), label+" re-ordered vs batch")
			assertSameAnswers(t, got, oracle(inc.opts, corpus[:n], probe), label+" vs oracle")
		}
	}
}

// TestConcurrentHistory checks every answer given while the index is
// changing: clients interleave Add and Match across several re-orders,
// and each Match is re-derived by brute force. It must hold every similar
// record of the base corpus and of the adds that had completed before it
// began, and nothing but similar records whose add had begun before it
// returned. The base corpus is the first record of every near-duplicate
// cluster genRecords makes and the adds are the rest, so the probes —
// drawn from the base, which keeps every probe token known and
// similarity independent of when the Match ran — have their neighbours
// among the adds.
func TestConcurrentHistory(t *testing.T) {
	const clients = 4
	all := genRecords(rand.New(rand.NewSource(29)), 540, 70)
	var base, fresh []records.Record
	addOf := map[uint64]int{} // RID → index in fresh
	for i, r := range all {
		if i%3 == 0 {
			base = append(base, r)
			continue
		}
		addOf[r.RID] = len(fresh)
		fresh = append(fresh, r)
	}
	opts := Options{Threshold: 0.7, Shards: 4, DriftThreshold: 0.3}
	ix, err := NewIndex(opts, base)
	if err != nil {
		t.Fatal(err)
	}

	// Client c adds fresh[c], fresh[c+clients], …; started[c] and done[c]
	// count the adds it has begun and finished.
	type sample struct {
		probe  records.Record
		got    []records.JoinedPair
		lo, hi [clients]int64
	}
	var started, done [clients]atomic.Int64
	counts := func(v *[clients]atomic.Int64) (out [clients]int64) {
		for c := range v {
			out[c] = v[c].Load()
		}
		return out
	}
	samples := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for j := c; j < len(fresh); j += clients {
				started[c].Add(1)
				ix.Add(fresh[j])
				done[c].Add(1)
				for k := 0; k < 3; k++ {
					s := sample{probe: base[rng.Intn(len(base))], lo: counts(&done)}
					s.got = ix.Match(s.probe)
					s.hi = counts(&started)
					samples[c] = append(samples[c], s)
				}
			}
		}(c)
	}
	wg.Wait()
	if ix.Reorders() < 2 {
		t.Fatalf("%d re-orders during the history, want several", ix.Reorders())
	}
	seen := 0 // answers that held an added record

	everMatches := bruteForce(ix.opts, all) // over every record a Match could have seen
	for c := range samples {
		for _, s := range samples[c] {
			want := everMatches(s.probe)
			got := map[uint64]float64{}
			for _, p := range s.got {
				got[p.Left.RID] = p.Sim
			}
			justified := 0
			for _, p := range want {
				rid := p.Left.RID
				sim, has := got[rid]
				if has && sim != p.Sim {
					t.Fatalf("probe %d: record %d at sim %v, brute force %v", s.probe.RID, rid, sim, p.Sim)
				}
				j, added := addOf[rid]
				switch {
				case !added && !has:
					t.Fatalf("probe %d: base record %d missing", s.probe.RID, rid)
				case !added:
					justified++
				case has && int64(j/clients) >= s.hi[j%clients]:
					t.Fatalf("probe %d: answer holds record %d, whose add had not begun", s.probe.RID, rid)
				case has:
					justified++
					seen++
				case int64(j/clients) < s.lo[j%clients]:
					t.Fatalf("probe %d: record %d missing, its add had completed", s.probe.RID, rid)
				}
			}
			if justified != len(s.got) {
				t.Fatalf("probe %d: %d of %d answers are not similar records", s.probe.RID, len(s.got)-justified, len(s.got))
			}
		}
	}
	if seen < 100 {
		t.Fatalf("only %d answers held an added record; the history does not exercise add visibility", seen)
	}
}
