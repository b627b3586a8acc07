package keys

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestUint32RoundTrip(t *testing.T) {
	for _, v := range []uint32{0, 1, 255, 256, 1 << 16, 1<<32 - 1} {
		enc := AppendUint32(nil, v)
		if len(enc) != 4 {
			t.Fatalf("AppendUint32(%d) length = %d, want 4", v, len(enc))
		}
		got, rest, err := Uint32(enc)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("Uint32 round trip of %d: got %d, rest %v, err %v", v, got, rest, err)
		}
	}
}

func TestUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 40, 1<<64 - 1} {
		enc := AppendUint64(nil, v)
		got, rest, err := Uint64(enc)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("Uint64 round trip of %d: got %d, rest %v, err %v", v, got, rest, err)
		}
	}
}

func TestCompositeRoundTrip(t *testing.T) {
	var k []byte
	k = AppendUint64(k, 1<<40+7)
	k = AppendUint32(k, 42)
	k = AppendUint32(k, 1)
	a, rest, err := Uint64(k)
	if err != nil || a != 1<<40+7 {
		t.Fatalf("first component: %d, %v", a, err)
	}
	b, rest, err := Uint32(rest)
	if err != nil || b != 42 {
		t.Fatalf("second component: %d, %v", b, err)
	}
	c, rest, err := Uint32(rest)
	if err != nil || c != 1 || len(rest) != 0 {
		t.Fatalf("third component: %d, rest %v, err %v", c, rest, err)
	}
}

func TestUint32OrderPreserved(t *testing.T) {
	f := func(a, b uint32) bool {
		ea, eb := AppendUint32(nil, a), AppendUint32(nil, b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64OrderPreserved(t *testing.T) {
	f := func(a, b uint64) bool {
		cmp := bytes.Compare(AppendUint64(nil, a), AppendUint64(nil, b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCompositeOrderPreserved checks the central property: lexicographic
// comparison of (uint32, uint64) tuples equals bytes.Compare of their
// encodings. This is what Stage 2's partition-on-group/sort-on-length
// routing relies on.
func TestCompositeOrderPreserved(t *testing.T) {
	f := func(g1 uint32, n1 uint64, g2 uint32, n2 uint64) bool {
		// Half the cases share the leading component, so the second decides.
		if n1%2 == 0 {
			g2 = g1
		}
		cmp := bytes.Compare(AppendUint64(AppendUint32(nil, g1), n1), AppendUint64(AppendUint32(nil, g2), n2))
		want := 0
		switch {
		case g1 != g2 && g1 < g2, g1 == g2 && n1 < n2:
			want = -1
		case g1 != g2, n1 > n2:
			want = 1
		}
		return (cmp < 0 && want < 0) || (cmp > 0 && want > 0) || (cmp == 0 && want == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Uint32([]byte{1, 2}); err != ErrShortKey {
		t.Fatalf("Uint32 on short buffer: err = %v, want ErrShortKey", err)
	}
	if _, _, err := Uint64(make([]byte, 7)); err != ErrShortKey {
		t.Fatalf("Uint64 on short buffer: err = %v, want ErrShortKey", err)
	}
}

func TestMustHelpers(t *testing.T) {
	k := AppendUint32(AppendUint32(nil, 3), 9)
	g, rest := MustUint32(k)
	v, rest := MustUint32(rest)
	if g != 3 || v != 9 || len(rest) != 0 {
		t.Fatalf("MustUint32 = %d, %d, rest %v", g, v, rest)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustUint32 did not panic on short key")
		}
	}()
	MustUint32([]byte{1})
}

func BenchmarkCompositeEncode(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendUint32(AppendUint32(buf[:0], uint32(i%256)), uint32(i))
	}
}
