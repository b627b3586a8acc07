package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"

	"fuzzyjoin"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// checker counts operations attempted and operations that errored or
// whose output differed from the reference.
type checker struct {
	attempted, failed int
}

// op records one operation; a failed one is explained on stderr.
func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if c.failed <= 10 {
		fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
	}
}

// joinFields is the join attribute every workload uses (title + authors,
// the paper's choice and the library default).
var joinFields = []int{records.FieldTitle, records.FieldAuthors}

// tokenizeAll tokenizes every record's join attribute.
func tokenizeAll(recs []records.Record) (toks [][]string, total int64) {
	toks = make([][]string, len(recs))
	for i, r := range recs {
		toks[i] = tokenize.Word{}.Tokenize(r.JoinAttr(joinFields...))
		total += int64(len(toks[i]))
	}
	return toks, total
}

// ownOrder is the benchmark's own increasing-frequency token order over
// R, computed without the program's Stage 1 so the reference does not
// inherit a Stage-1 defect.
func ownOrder(rToks [][]string) *tokenize.Order {
	freq := map[string]int{}
	for _, ts := range rToks {
		for _, t := range ts {
			freq[t]++
		}
	}
	order := make([]string, 0, len(freq))
	for t := range freq {
		order = append(order, t)
	}
	sort.Slice(order, func(i, j int) bool {
		if freq[order[i]] != freq[order[j]] {
			return freq[order[i]] < freq[order[j]]
		}
		return order[i] < order[j]
	})
	return tokenize.NewOrder(order)
}

// rankAll projects records onto their sorted token ranks. Tokens the
// order does not know are dropped, as §4 of the paper does for S-side
// tokens absent from R's dictionary. toks is reordered in place.
func rankAll(order *tokenize.Order, recs []records.Record, toks [][]string) []ppjoin.Item {
	items := make([]ppjoin.Item, len(recs))
	for i, r := range recs {
		_, ranks := order.SortByRank(toks[i])
		items[i] = ppjoin.Item{RID: r.RID, Ranks: ranks}
	}
	return items
}

// ranked is a workload's input as the single-node kernels consume it.
type ranked struct {
	r, s []ppjoin.Item // s is nil for a self-join
}

// all is R followed by S, in a fresh slice.
func (k ranked) all() []ppjoin.Item {
	return append(append([]ppjoin.Item(nil), k.r...), k.s...)
}

// rankDataset ranks the whole input under the benchmark's own order.
func rankDataset(d *dataset) ranked {
	rToks, _ := tokenizeAll(d.r)
	order := ownOrder(rToks)
	k := ranked{r: rankAll(order, d.r, rToks)}
	if d.s != nil {
		sToks, _ := tokenizeAll(d.s)
		k.s = rankAll(order, d.s, sToks)
	}
	return k
}

func kernelOptions(cfg fuzzyjoin.Config) ppjoin.Options {
	return ppjoin.Options{Fn: cfg.Fn, Threshold: cfg.Threshold, Filters: filter.AllFilters, Bitmap: cfg.BitmapFilter}
}

// referenceJoin is the single-node PPJoin+ answer over the whole input:
// the pair set every join's output must equal.
func referenceJoin(k ranked, cfg fuzzyjoin.Config) ([]records.RIDPair, ppjoin.Stats) {
	var pairs []records.RIDPair
	emit := func(p records.RIDPair) { pairs = append(pairs, p) }
	if k.s != nil {
		return pairs, ppjoin.RSJoin(k.r, k.s, kernelOptions(cfg), emit)
	}
	st := ppjoin.SelfJoin(k.r, kernelOptions(cfg), emit)
	return pairs, st
}

// ridPairs reduces a join's output to RID pairs.
func ridPairs(joined []fuzzyjoin.JoinedPair) []records.RIDPair {
	out := make([]records.RIDPair, len(joined))
	for i, jp := range joined {
		out[i] = records.RIDPair{A: jp.Left.RID, B: jp.Right.RID, Sim: jp.Sim}
	}
	return out
}

// pairDigest is a pair set reduced to its size and a hash of its sorted
// RID pairs.
type pairDigest struct {
	count int
	hash  uint64
}

// digest sorts pairs in place and hashes them. A self-join's pair is
// unordered, so its RIDs are put smaller first.
func digest(pairs []records.RIDPair, self bool) pairDigest {
	if self {
		for i, p := range pairs {
			if p.A > p.B {
				pairs[i].A, pairs[i].B = p.B, p.A
			}
		}
	}
	ppjoin.SortPairs(pairs)
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint64(buf[:8], p.A)
		binary.LittleEndian.PutUint64(buf[8:], p.B)
		h.Write(buf[:])
	}
	return pairDigest{count: len(pairs), hash: h.Sum64()}
}

// bruteForceSamples is how many records the brute-force check verifies
// against the entire other side.
const bruteForceSamples = 200

// bruteForceCheck verifies bruteForceSamples seeded sample records; see
// bruteForce. For an R-S join the samples come from S.
func bruteForceCheck(c *checker, k ranked, cfg fuzzyjoin.Config, pairs []records.RIDPair, seed int64) {
	probes := k.s
	if probes == nil {
		probes = k.r
	}
	rng := rand.New(rand.NewSource(seed))
	samples := make([]int, min(bruteForceSamples, len(probes)))
	for i := range samples {
		samples[i] = rng.Intn(len(probes))
	}
	bruteForce(c, k, cfg, pairs, samples)
}

// bruteForce is independent of every index and filter: each sampled
// probe-side record is verified against the whole other side with simfn
// alone, and its neighbour set must equal what pairs, the join's output,
// says about it. One checker operation per sample.
func bruteForce(c *checker, k ranked, cfg fuzzyjoin.Config, pairs []records.RIDPair, samples []int) {
	probes, others := k.s, k.r
	self := k.s == nil
	if self {
		probes = k.r
	}
	// neighbours[rid] is what the join says about a probe-side record.
	neighbours := map[uint64][]uint64{}
	for _, p := range pairs {
		neighbours[p.B] = append(neighbours[p.B], p.A)
		if self {
			neighbours[p.A] = append(neighbours[p.A], p.B)
		}
	}
	want := make([][]uint64, len(samples))
	parallelFor(len(samples), func(i int) {
		x := probes[samples[i]]
		for _, y := range others {
			if y.RID == x.RID && self {
				continue
			}
			if _, ok := cfg.Fn.Verify(y.Ranks, x.Ranks, cfg.Threshold); ok {
				want[i] = append(want[i], y.RID)
			}
		}
	})
	for i, s := range samples {
		rid := probes[s].RID
		c.op(sameSet(want[i], neighbours[rid]), "brute force: record %d has neighbours %v, join says %v", rid, want[i], neighbours[rid])
	}
}

func sameSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]uint64(nil), a...), append([]uint64(nil), b...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parallelFor runs fn(0..n-1) on GOMAXPROCS goroutines and waits.
func parallelFor(n int, fn func(i int)) {
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
