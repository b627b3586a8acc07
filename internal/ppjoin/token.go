package ppjoin

import (
	"slices"

	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
)

// TokenIndex is the PK self-join kernel of one token's reduce group under
// individual routing: the group owns exactly the pairs whose first common
// token is its token t, so one posting list — t's, the items that hold t
// in their index prefix, in stream order — is the whole index. Where an
// Index walks every prefix token's list and drops, at first sight, the
// pairs another token owns, TokenIndex checks the owner rule directly on
// the at most p − 1 prefix ranks before t, and bounds the overlap of an
// owned pair exactly: with no common token before t at positions i and j,
// it is at most 1 + min(lx − i − 1, ly − j − 1), the positional filter at
// first sight.
//
// Like an Index, a TokenIndex expects items in non-decreasing length
// order, evicts by the length filter, and serves a reduce task's groups:
// Reset starts a stream and keeps the storage up to the same retention
// caps. Pairs leave in the order an Index emits them.
type TokenIndex struct {
	opts Options
	th   simfn.Threshold
	tok  uint32
	// list is t's posting list in stream order; list[head:] is live.
	list []tokenEntry
	head int
	rankChunks
	bytes int64
	stats Stats
	need  simfn.NeedTable
}

// tokenEntry is one indexed item and the position of t within it.
type tokenEntry struct {
	Item
	pos int32
}

// NewTokenIndex creates an empty per-token index.
func NewTokenIndex(opts Options) *TokenIndex {
	return &TokenIndex{opts: opts, th: opts.Fn.At(opts.Threshold)}
}

// Reset empties the index for the stream of token t's group, keeping its
// storage up to the retention caps. A reset TokenIndex is
// indistinguishable from a new one.
func (tx *TokenIndex) Reset(t uint32) {
	tx.tok = t
	tx.release(len(tx.list))
	clear(tx.list) // let go of the stream's rank storage
	tx.list = tx.list[:0]
	if cap(tx.list) > maxRetainedItems {
		tx.list, tx.chunks = nil, nil
	}
	tx.head, tx.bytes, tx.stats = 0, 0, Stats{}
}

// Stats returns the kernel work counters accumulated since Reset.
func (tx *TokenIndex) Stats() Stats { return tx.stats }

// Bytes estimates the index's live memory footprint: rank storage plus one
// posting entry per non-evicted item.
func (tx *TokenIndex) Bytes() int64 { return tx.bytes }

// evictBelow drops the listed items shorter than minLen (the length
// filter's lower bound for the current probe) and releases their rank
// chunks as those empty.
func (tx *TokenIndex) evictBelow(minLen int) {
	for tx.head < len(tx.list) && len(tx.list[tx.head].Ranks) < minLen {
		e := &tx.list[tx.head]
		tx.bytes -= itemBytes(e.Item, 1)
		e.Item = Item{}
		tx.head++
	}
	tx.release(tx.head)
}

// ProbeAndAdd probes t's list with x and then lists x if t lies in x's
// index prefix. Every item of the group carries t in its prefix; one that
// does not is ignored. Emitted pairs are normalized to A < B by RID.
func (tx *TokenIndex) ProbeAndAdd(x Item, emit func(records.RIDPair)) {
	lx := len(x.Ranks)
	i := slices.Index(x.Ranks[:tx.th.PrefixLength(lx)], tx.tok)
	if i < 0 {
		return
	}
	lo := 0
	if tx.opts.Filters.Length {
		lo, _ = tx.th.LengthBounds(lx)
		tx.evictBelow(lo)
	}
	fs := tx.opts.Filters
	for k := tx.head; k < len(tx.list); k++ {
		e := &tx.list[k]
		tx.stats.Candidates++
		ly, j := len(e.Ranks), int(e.pos)
		need := tx.need.Need(tx.th, lx, lo, ly)
		if fs.Positional && !filter.Positional(lx, ly, i, j, 1, need) {
			continue
		}
		if _, _, shared := firstPrefixMatch(x.Ranks, e.Ranks, i, j); shared {
			continue // an earlier common token owns the pair
		}
		if fs.Suffix && !filter.Suffix(x.Ranks, e.Ranks, i, j, need) {
			continue
		}
		if sim, ok := tx.stats.Verify(tx.opts.Fn, &x, &e.Item, x.Sig(), need); ok {
			p := records.RIDPair{A: e.RID, B: x.RID, Sim: sim}
			if p.A > p.B {
				p.A, p.B = p.B, p.A
			}
			emit(p)
		}
	}
	if i < indexPrefix(tx.th, lx) {
		x.Ranks = tx.keep(x.Ranks, len(tx.list))
		tx.list = append(tx.list, tokenEntry{Item: x, pos: int32(i)})
		tx.bytes += itemBytes(x, 1)
	}
}
