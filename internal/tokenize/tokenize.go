// Package tokenize maps strings into token multisets for set-similarity
// joins.
//
// The paper tokenizes the join attribute by word after cleaning
// (lower-casing and stripping punctuation is done "inside our algorithms",
// §6). A q-gram tokenizer is provided as the alternative the paper
// mentions in §2. Tokenizers deduplicate: the set-similarity functions in
// this system are defined over sets, so repeated tokens within one record
// are distinguished by an occurrence suffix, following the standard
// convention of the set-similarity join literature (a token appearing k
// times becomes k distinct elements "t", "t~2", ..., "t~k"). This keeps
// Jaccard well-defined on sets while not discarding duplicate evidence.
package tokenize

import (
	"slices"
	"strings"
)

// Tokenizer converts a string into a slice of set elements.
type Tokenizer interface {
	// Tokenize returns the token set of s. The result contains no
	// duplicates and no empty tokens; order is the order of first
	// occurrence in s.
	Tokenize(s string) []string
}

// Word tokenizes on non-alphanumeric boundaries after lower-casing. It is
// the tokenizer used for all experiments in the paper ("we tokenized the
// data by word").
type Word struct{}

// Tokenize implements Tokenizer.
func (w Word) Tokenize(s string) []string {
	b := borrow(s)
	w.fill(b, b.in)
	if out := b.giveBack(); out != nil {
		return out
	}
	return []string{}
}

// QGram produces overlapping substrings of length Q over the cleaned
// string, padding the ends with '#' so every character participates in Q
// grams, as is conventional for q-gram similarity. The empty string has
// no grams.
type QGram struct {
	Q int
}

// Tokenize implements Tokenizer.
func (g QGram) Tokenize(s string) []string {
	b := borrow(s)
	g.fill(b, b.in)
	return b.giveBack()
}

// Order is a global token ordering: a bijection from tokens to dense ranks
// where rank 0 is the least frequent token. Stage 2 mappers sort each
// record's tokens by rank before extracting the prefix, so infrequent
// tokens land in prefixes (the prefix-filter optimization of §2.3).
type Order struct {
	rank map[string]uint32
	toks []string
}

// NewOrder builds an Order from tokens listed in increasing frequency
// order (the output of Stage 1).
func NewOrder(tokensByFrequency []string) *Order {
	return newOrder(append([]string(nil), tokensByFrequency...))
}

// newOrder ranks toks, which it keeps.
func newOrder(toks []string) *Order {
	o := &Order{rank: make(map[string]uint32, len(toks)), toks: toks}
	for i, t := range toks {
		o.rank[t] = uint32(i)
	}
	return o
}

// ParseOrder builds an Order from the text of a Stage 1 output file: one
// token per line in increasing frequency order, empty lines skipped. The
// Order's tokens are substrings of src.
func ParseOrder(src string) *Order {
	toks := make([]string, 0, strings.Count(src, "\n")+1)
	for len(src) > 0 {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		if line != "" {
			toks = append(toks, line)
		}
	}
	return newOrder(toks)
}

// Rank returns the rank of tok and whether it is present in the ordering.
// Tokens absent from the ordering (possible in the R-S join case, where
// the ordering is built from the smaller relation only) report ok=false;
// §4 of the paper discards them because they cannot produce candidates.
func (o *Order) Rank(tok string) (uint32, bool) {
	r, ok := o.rank[tok]
	return r, ok
}

// Token returns the token with the given rank.
func (o *Order) Token(rank uint32) string { return o.toks[rank] }

// Len returns the number of tokens in the ordering.
func (o *Order) Len() int { return len(o.toks) }

// SortByRank reorders toks in place into increasing global-frequency rank
// and returns the ranks. Tokens missing from the ordering are dropped
// (R-S case) — the returned slices are the kept tokens and their ranks,
// aligned.
func (o *Order) SortByRank(toks []string) ([]string, []uint32) {
	kept := toks[:0]
	ranks := make([]uint32, 0, len(toks))
	for _, t := range toks {
		if r, ok := o.rank[t]; ok {
			kept = append(kept, t)
			ranks = append(ranks, r)
		}
	}
	// Insertion sort on ranks, mirrored on kept: token sets are short
	// (tens of tokens), and insertion sort avoids an indirect sort.Slice
	// in the hottest mapper loop.
	for i := 1; i < len(ranks); i++ {
		r, t := ranks[i], kept[i]
		j := i - 1
		for j >= 0 && ranks[j] > r {
			ranks[j+1], kept[j+1] = ranks[j], kept[j]
			j--
		}
		ranks[j+1], kept[j+1] = r, t
	}
	return kept, ranks
}

// AppendRanks appends the ranks of b's tokens to dst in increasing
// order, dropping tokens missing from the ordering — what SortByRank
// returns for the same token set, without the strings.
func (o *Order) AppendRanks(dst []uint32, b *Buffer) []uint32 {
	n := len(dst)
	for i := 0; i < b.Len(); i++ {
		if r, ok := o.rank[string(b.Token(i))]; ok {
			dst = append(dst, r)
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// Ranks converts toks to their ranks, dropping unknown tokens, without
// sorting.
func (o *Order) Ranks(toks []string) []uint32 {
	out := make([]uint32, 0, len(toks))
	for _, t := range toks {
		if r, ok := o.rank[t]; ok {
			out = append(out, r)
		}
	}
	return out
}
