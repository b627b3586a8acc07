package tokenize

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzTokenize checks the tokenizer contract on arbitrary input: token
// sets contain no empty tokens and no duplicates, tokenization is
// deterministic, both tokenizers accept any string without panicking,
// and an Order built from a token set round-trips every token.
func FuzzTokenize(f *testing.F) {
	f.Add("Efficient Parallel Set-Similarity Joins Using MapReduce", 3)
	f.Add("a a a A\tbéé b", 2)
	f.Add("", 1)
	f.Add("\x00\xff\xfe punctuation!!! only???", 4)
	f.Add("ascii and 世界 mixed \U0001f600", 0)
	f.Fuzz(func(t *testing.T, s string, q int) {
		if q < 0 {
			q = -q
		}
		q %= 8

		checkSet := func(name string, toks []string) {
			seen := make(map[string]bool, len(toks))
			for _, tok := range toks {
				if tok == "" {
					t.Fatalf("%s produced an empty token for %q", name, s)
				}
				if seen[tok] {
					t.Fatalf("%s produced duplicate token %q for %q", name, tok, s)
				}
				seen[tok] = true
			}
		}

		words := Word{}.Tokenize(s)
		checkSet("Word", words)
		again := Word{}.Tokenize(s)
		if len(again) != len(words) {
			t.Fatalf("Word not deterministic on %q: %d vs %d tokens", s, len(words), len(again))
		}
		for i := range words {
			if words[i] != again[i] {
				t.Fatalf("Word not deterministic on %q at %d: %q vs %q", s, i, words[i], again[i])
			}
		}
		for _, tok := range words {
			base := tok
			if i := strings.LastIndexByte(tok, '~'); i > 0 {
				base = tok[:i]
			}
			if base != strings.ToLower(base) {
				t.Fatalf("Word token %q not lower-cased (input %q)", tok, s)
			}
		}

		grams := QGram{Q: q}.Tokenize(s)
		checkSet("QGram", grams)
		if utf8.ValidString(s) {
			eq := q
			if eq <= 0 {
				eq = 3
			}
			for _, g := range grams {
				base := g
				if i := strings.LastIndexByte(g, '~'); i > 0 {
					base = g[:i]
				}
				if n := utf8.RuneCountInString(base); n > eq {
					t.Fatalf("QGram q=%d produced %d-rune gram %q for %q", eq, n, g, s)
				}
			}
		}

		// Orders are bijections over their token list.
		o := NewOrder(words)
		if o.Len() != len(words) {
			t.Fatalf("Order dropped tokens: %d vs %d", o.Len(), len(words))
		}
		for i, tok := range words {
			r, ok := o.Rank(tok)
			if !ok || int(r) != i {
				t.Fatalf("Rank(%q) = (%d,%v), want (%d,true)", tok, r, ok, i)
			}
			if o.Token(r) != tok {
				t.Fatalf("Token(Rank(%q)) = %q", tok, o.Token(r))
			}
		}
		// SortByRank over the reversed set returns the same set sorted.
		rev := make([]string, len(words))
		for i, tok := range words {
			rev[len(words)-1-i] = tok
		}
		kept, ranks := o.SortByRank(rev)
		if len(kept) != len(words) || len(ranks) != len(words) {
			t.Fatalf("SortByRank dropped known tokens: %d/%d kept", len(kept), len(words))
		}
		for i := range ranks {
			if int(ranks[i]) != i || kept[i] != words[i] {
				t.Fatalf("SortByRank out of order at %d: rank %d token %q", i, ranks[i], kept[i])
			}
		}
	})
}
