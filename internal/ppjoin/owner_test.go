package ppjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// partition replicates items the way the Stage 2 mapper does: one copy to
// the group of every prefix token, once per group.
func partition(items []Item, th simfn.Threshold, group func(uint32) uint32) map[uint32][]Item {
	groups := map[uint32][]Item{}
	for _, it := range items {
		sent := map[uint32]bool{}
		for _, w := range it.Ranks[:th.PrefixLength(len(it.Ranks))] {
			if g := group(w); !sent[g] {
				sent[g] = true
				groups[g] = append(groups[g], it)
			}
		}
	}
	return groups
}

// TestOwnerPartition pins the emit-once ownership argument for BK and PK
// (fvt's TestFVTOwnerPartition is the model): partition any item set by
// its prefix tokens' groups, run a kernel per group under the owner rule
// "this group's tokens", and the concatenated output is the brute-force
// result pair for pair — nothing lost, nothing repeated. PK runs both
// join kinds as one Stream per group: the self-join over one relation,
// the R-S join over R and S merged into one length order, each item
// probing the other relation's index. Individual routing is the
// one-token case of the rule; every routing runs under every filter
// subset.
func TestOwnerPartition(t *testing.T) {
	routings := map[string]func(uint32) uint32{
		"individual": func(w uint32) uint32 { return w },
		"grouped/1":  func(w uint32) uint32 { return 0 },
		"grouped/3":  func(w uint32) uint32 { return w % 3 },
		"grouped/7":  func(w uint32) uint32 { return w % 7 },
	}
	found := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rItems := corpus(rng, 90, 40, 12)
		sItems := make([]Item, len(rItems))
		for i, it := range rItems {
			sItems[i] = Item{RID: uint64(2000 + i), Ranks: mutate(rng, 40, it.Ranks)}
		}
		for _, fn := range []simfn.Func{simfn.Jaccard, simfn.Cosine, simfn.Dice} {
			for _, tau := range []float64{0.5, 0.8, 0.95} {
				th := fn.At(tau)
				oracle := Options{Fn: fn, Threshold: tau}
				wantSelf := BruteForceSelf(rItems, oracle)
				wantRS := BruteForceRS(rItems, sItems, oracle)
				found += len(wantSelf) + len(wantRS)
				for name, group := range routings {
					rGroups, sGroups := partition(rItems, th, group), partition(sItems, th, group)
					for mask := 0; mask < 8; mask++ {
						opts := oracle
						opts.Filters = filter.Stack{Length: mask&1 != 0, Positional: mask&2 != 0, Suffix: mask&4 != 0}
						label := fmt.Sprintf("seed %d %s τ=%g %s filters %+v", seed, fn, tau, name, opts.Filters)
						var nlSelf, pkSelf, nlRS, pkRS []records.RIDPair
						self, rs := NewStream(opts, 1), NewStream(opts, 2)
						for g, rg := range rGroups {
							g := g
							owner := func(w uint32) bool { return group(w) == g }
							sg := sGroups[g]
							sortByLen(rg)
							sortByLen(sg)
							NestedLoopSelf(rg, opts, owner, func(p records.RIDPair) { nlSelf = append(nlSelf, p) })
							NestedLoopRS(rg, sg, opts, owner, func(p records.RIDPair) { nlRS = append(nlRS, p) })
							self.Reset(owner)
							for _, it := range rg {
								self.Next(0, it, func(p records.RIDPair) { pkSelf = append(pkSelf, p) })
							}
							rs.Reset(owner)
							mergeByLen(rg, sg, func(rel int, x Item) {
								rs.Next(rel, x, func(p records.RIDPair) { pkRS = append(pkRS, p) })
							})
						}
						for _, c := range []struct {
							kernel    string
							got, want []records.RIDPair
						}{
							{"NestedLoopSelf", nlSelf, wantSelf}, {"Stream self", pkSelf, wantSelf},
							{"NestedLoopRS", nlRS, wantRS}, {"Stream R-S", pkRS, wantRS},
						} {
							if len(c.got) != len(c.want) {
								t.Fatalf("%s %s: %d pairs emitted over all groups, want %d (each exactly once)",
									label, c.kernel, len(c.got), len(c.want))
							}
							assertSamePairs(t, c.got, c.want, label+" "+c.kernel)
						}
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("test premise broken: oracle results empty")
	}
}

// TestBlockResetEqualsFresh: a reused Block is indistinguishable from a
// new one per stream — same pairs in the same order, same Stats — through
// multi-round streams with and without an owner rule, and the buffer a hot
// stream grew past the retention cap is gone at the next Reset while an
// ordinary one is kept and then runs a stream without allocating.
func TestBlockResetEqualsFresh(t *testing.T) {
	type trace struct {
		pairs []records.RIDPair
		stats Stats
	}
	// A stream is two rounds: load half, self-join, probe with the rest.
	drive := func(b *Block, items []Item) trace {
		var tr trace
		emit := func(p records.RIDPair) { tr.pairs = append(tr.pairs, p) }
		for round := 0; round < 2; round++ {
			b.Clear()
			for _, it := range items[:len(items)/2] {
				b.Add(it)
			}
			b.Self(emit)
			for _, it := range items[len(items)/2:] {
				b.Probe(it, emit)
			}
		}
		tr.stats = b.Stats()
		return tr
	}
	pairs := 0
	for mask := 0; mask < 8; mask++ {
		opts := Options{Fn: simfn.Jaccard, Threshold: 0.8,
			Filters: filter.Stack{Length: mask&1 != 0, Positional: mask&2 != 0, Suffix: mask&4 != 0}}
		rng := rand.New(rand.NewSource(int64(300 + mask)))
		reused := NewBlock(opts)
		for g := 0; g < 40; g++ {
			items := corpus(rng, rng.Intn(60), 60, 12)
			var owner func(uint32) bool
			if g%3 != 0 {
				m, r := uint32(2+g%3), uint32(g%2)
				owner = func(w uint32) bool { return w%m == r }
			}
			fresh := NewBlock(opts)
			fresh.Reset(owner)
			want := drive(fresh, items)
			reused.Reset(owner)
			if got := drive(reused, items); !reflect.DeepEqual(got, want) {
				t.Fatalf("opts %+v stream %d: reused block diverged from a fresh one\n got: %d pairs, stats %+v\nwant: %d pairs, stats %+v",
					opts, g, len(got.pairs), got.stats, len(want.pairs), want.stats)
			}
			pairs += len(want.pairs)
		}
	}
	if pairs == 0 {
		t.Fatal("test premise broken: no pairs in any stream")
	}

	b := NewBlock(Options{Fn: simfn.Jaccard, Threshold: 0.8, Filters: filter.AllFilters})
	b.Grow(maxRetainedItems + 1)
	b.Reset(nil)
	if b.items != nil || b.prefix != nil {
		t.Fatalf("a buffer of %d items outlived Reset", maxRetainedItems+1)
	}
	small := corpus(rand.New(rand.NewSource(7)), 40, 60, 12)
	drive(b, small)
	b.Reset(nil)
	if cap(b.items) == 0 || len(b.items) != 0 {
		t.Fatal("an ordinary stream's buffer was not kept empty across Reset")
	}
	for i, it := range b.items[:cap(b.items)] {
		if it.Ranks != nil {
			t.Fatalf("retained item slot %d still pins a rank slice", i)
		}
	}
	emit := func(records.RIDPair) {}
	if n := testing.AllocsPerRun(50, func() {
		b.Reset(nil)
		for _, it := range small {
			b.Add(it)
		}
		b.Self(emit)
		b.Probe(small[0], emit)
	}); n != 0 {
		t.Errorf("%v allocations per stream on a warmed block, want 0", n)
	}
}
