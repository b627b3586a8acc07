package mapreduce

import (
	"bytes"
	"testing"
)

// FuzzDecodePairs: the Pairs block decoder must never panic and must
// round-trip everything the encoder produces.
func FuzzDecodePairs(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendPair(appendPair(nil, []byte("k1"), []byte("v1")), []byte("k2"), nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pairs []Pair
		err := decodePairs(data, func(k, v []byte) error {
			pairs = append(pairs, Pair{
				Key:   append([]byte(nil), k...),
				Value: append([]byte(nil), v...),
			})
			return nil
		})
		if err != nil {
			return
		}
		// Re-encode and compare: a fully-consumed valid block is
		// canonical.
		var enc []byte
		for _, p := range pairs {
			enc = appendPair(enc, p.Key, p.Value)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode mismatch: %x vs %x", enc, data)
		}
	})
}

// FuzzDecodeRun mirrors FuzzDecodePairs for the shuffle-run codec.
func FuzzDecodeRun(f *testing.F) {
	f.Add(encodeRun([]Pair{{Key: []byte("a"), Value: []byte("b")}}))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := decodeRun(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeRun(run), data) {
			t.Fatal("re-encode mismatch")
		}
	})
}

// FuzzDecodeText: the line decoder preserves content byte-for-byte and
// passes every line with an empty key.
func FuzzDecodeText(f *testing.F) {
	f.Add([]byte("line1\nline2\n"))
	f.Add([]byte("no trailing newline"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var lines [][]byte
		if err := decodeText(data, func(k, v []byte) error {
			if len(k) != 0 {
				t.Fatalf("line %q has key %q, want none", v, k)
			}
			lines = append(lines, append([]byte(nil), v...))
			return nil
		}); err != nil {
			t.Fatalf("decodeText errored: %v", err)
		}
		joined := bytes.Join(lines, []byte{'\n'})
		trimmed := bytes.TrimSuffix(data, []byte{'\n'})
		if len(data) > 0 && !bytes.Equal(joined, trimmed) {
			t.Fatalf("content changed: %q vs %q", joined, trimmed)
		}
	})
}
