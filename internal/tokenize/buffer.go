package tokenize

import (
	"bytes"
	"hash/maphash"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// maxRetained bounds the storage a Buffer carries from one record to
// the next: a backing array grown beyond this many bytes (a
// pathological record with hundreds of thousands of tokens) is dropped
// by the next Reset rather than pinned for the rest of the task.
const maxRetained = 1 << 20

// Buffer holds one record's token set in caller-owned, reusable
// storage: the tokens' bytes back to back plus their end offsets, and
// the table that renames repeats ("t", "t~2", ...). It is the byte-level
// form of what Tokenize returns — Tokens of a filled Buffer are exactly
// the strings Tokenize yields for the same input, in the same order —
// and it allocates nothing once its storage has grown to the largest
// record seen. The zero value is ready to use; a Buffer must not be
// shared between goroutines.
type Buffer struct {
	data []byte // token bytes, concatenated in emission order
	ends []int  // ends[i] is the end of token i in data

	// slots is an open-addressing table over the distinct base tokens of
	// the current record, keyed by their bytes in data. An entry is live
	// only when its gen matches, so Reset is O(1).
	slots []slot
	gen   uint32

	// text and starts are QGram's cleaned, padded input and the offset
	// of each of its runes; in is the string wrappers' copy of their
	// argument.
	text   []byte
	starts []int
	in     []byte
}

type slot struct {
	gen uint32
	tok uint32 // index of the base token's first occurrence
	n   uint32 // occurrences so far
}

var hashSeed = maphash.MakeSeed()

// Len returns the number of tokens.
func (b *Buffer) Len() int { return len(b.ends) }

// Token returns token i. The slice aliases the Buffer and is valid
// until the next Reset or Fill.
func (b *Buffer) Token(i int) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.data[start:b.ends[i]]
}

// Strings copies the tokens out as strings sharing one allocation (nil
// for an empty set).
func (b *Buffer) Strings() []string {
	if len(b.ends) == 0 {
		return nil
	}
	all := string(b.data)
	out := make([]string, len(b.ends))
	start := 0
	for i, end := range b.ends {
		out[i] = all[start:end]
		start = end
	}
	return out
}

// Reset empties the Buffer, keeping its storage for the next record
// unless that storage outgrew maxRetained.
func (b *Buffer) Reset() {
	if b.retained() > maxRetained {
		*b = Buffer{}
		return
	}
	b.data, b.ends = b.data[:0], b.ends[:0]
}

// retained is the size in bytes of the Buffer's backing arrays.
func (b *Buffer) retained() int {
	return cap(b.data) + cap(b.text) + cap(b.in) + 8*(cap(b.ends)+cap(b.starts)) + 12*cap(b.slots)
}

// Fill replaces the Buffer's contents with the token set of attr under
// t. The stock tokenizers scan the bytes directly; any other Tokenizer
// is adapted through its string method, its tokens taken as the set
// they already are.
func (b *Buffer) Fill(t Tokenizer, attr []byte) {
	b.Reset()
	switch t := t.(type) {
	case Word:
		t.fill(b, attr)
	case QGram:
		t.fill(b, attr)
	default:
		for _, tok := range t.Tokenize(string(attr)) {
			b.data = append(b.data, tok...)
			b.ends = append(b.ends, len(b.data))
		}
	}
}

// expect prepares the repeat table for a record of at most n tokens:
// at least 2n slots, so probes stay short, and a fresh generation.
func (b *Buffer) expect(n int) {
	if 2*n > len(b.slots) {
		size := 16
		for size < 2*n {
			size <<= 1
		}
		b.slots, b.gen = make([]slot, size), 0
	}
	if b.gen++; b.gen == 0 {
		clear(b.slots)
		b.gen = 1
	}
}

// endToken closes the token appended to data since the last one, if
// any, renaming a repeat of an earlier token "t" to "t~k" for its k-th
// occurrence.
func (b *Buffer) endToken() {
	start := 0
	if n := len(b.ends); n > 0 {
		start = b.ends[n-1]
	}
	tok := b.data[start:]
	if len(tok) == 0 {
		return
	}
	mask := uint64(len(b.slots) - 1)
	for i := maphash.Bytes(hashSeed, tok) & mask; ; i = (i + 1) & mask {
		s := &b.slots[i]
		if s.gen != b.gen {
			*s = slot{gen: b.gen, tok: uint32(len(b.ends)), n: 1}
			break
		}
		if bytes.Equal(b.Token(int(s.tok)), tok) {
			s.n++
			b.data = strconv.AppendUint(append(b.data, '~'), uint64(s.n), 10)
			break
		}
	}
	b.ends = append(b.ends, len(b.data))
}

// asciiLower maps an ASCII letter or digit to its lower-case form and
// every other ASCII byte to 0 (a token separator).
var asciiLower = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			t[c] = byte(c)
		case 'A' <= c && c <= 'Z':
			t[c] = byte(c) + 'a' - 'A'
		}
	}
	return t
}()

// fill appends s's word tokens: maximal runs of letters and digits,
// lower-cased rune by rune. Invalid UTF-8 separates.
func (Word) fill(b *Buffer, s []byte) {
	b.expect(len(s)/2 + 1)
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			if l := asciiLower[c]; l == 0 {
				b.endToken()
			} else {
				b.data = append(b.data, l)
			}
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		i += size
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			b.endToken()
		} else {
			b.data = utf8.AppendRune(b.data, unicode.ToLower(r))
		}
	}
	b.endToken()
}

// fill appends s's q-grams: every window of Q runes over the
// lower-cased string, '#'-padded at both ends with Q-1 marks. The empty
// string has no grams. Invalid UTF-8 bytes read as U+FFFD.
func (g QGram) fill(b *Buffer, s []byte) {
	if len(s) == 0 {
		return
	}
	q := g.Q
	if q <= 0 {
		q = 3
	}
	pad := q - 1
	text, starts := b.text[:0], b.starts[:0]
	for i := 0; i < pad; i++ {
		starts = append(starts, len(text))
		text = append(text, '#')
	}
	for i := 0; i < len(s); {
		starts = append(starts, len(text))
		if c := s[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			text = append(text, c)
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		i += size
		text = utf8.AppendRune(text, unicode.ToLower(r))
	}
	for i := 0; i < pad; i++ {
		starts = append(starts, len(text))
		text = append(text, '#')
	}
	n := len(starts) // runes, at least 2q-1
	starts = append(starts, len(text))
	b.text, b.starts = text, starts
	b.expect(n - q + 1)
	for i := 0; i+q <= n; i++ {
		b.data = append(b.data, text[starts[i]:starts[i+q]]...)
		b.endToken()
	}
}

// buffers serves the string wrappers, which have no caller-owned
// scratch to tokenize into.
var buffers = sync.Pool{New: func() any { return new(Buffer) }}

// borrow returns an empty pooled Buffer holding a copy of s in b.in.
func borrow(s string) *Buffer {
	b := buffers.Get().(*Buffer)
	b.in = append(b.in[:0], s...)
	return b
}

// giveBack returns a borrowed Buffer to the pool, emptied and trimmed,
// and its tokens as strings.
func (b *Buffer) giveBack() []string {
	out := b.Strings()
	b.Reset()
	buffers.Put(b)
	return out
}
