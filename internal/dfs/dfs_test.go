package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCreateWriteRead(t *testing.T) {
	fs := New(Options{BlockSize: 64, Nodes: 3})
	w, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("hello "))
	w.Append([]byte("world"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("ReadAll = %q", got)
	}
	sz, err := fs.Size("a")
	if err != nil || sz != 11 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	fs := New(Options{})
	if _, err := fs.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("a"); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
}

func TestBlockAlignment(t *testing.T) {
	fs := New(Options{BlockSize: 10, Nodes: 2})
	w, _ := fs.Create("f")
	// Each record is 6 bytes: two can't share a 10-byte block.
	for i := 0; i < 5; i++ {
		w.Append([]byte(fmt.Sprintf("rec%02d ", i)))
	}
	w.Close()
	splits, err := fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 5 {
		t.Fatalf("splits = %d, want 5 (one per record)", len(splits))
	}
	for i, s := range splits {
		if s.Records != 1 {
			t.Fatalf("split %d has %d records", i, s.Records)
		}
		blk, err := fs.Block("f", s.Block)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("rec%02d ", i)
		if string(blk) != want {
			t.Fatalf("block %d = %q, want %q", i, blk, want)
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	fs := New(Options{BlockSize: 4})
	w, _ := fs.Create("f")
	if err := w.Append([]byte("tiny")); err != nil {
		t.Fatal(err)
	}
	// A record larger than the block size can never be stored without
	// producing an oversized block that split-oblivious readers would
	// mis-parse; it must be rejected, not silently written.
	err := w.Append([]byte("this-record-exceeds-block-size"))
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Append oversize err = %v, want ErrRecordTooLarge", err)
	}
	// The writer stays usable for fitting records.
	if err := w.Append([]byte("more")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("f")
	if err != nil || string(got) != "tinymore" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	splits, _ := fs.Splits("f")
	for _, s := range splits {
		if s.Bytes > 4 {
			t.Fatalf("oversized block of %d bytes leaked through", s.Bytes)
		}
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	fs := New(Options{BlockSize: 1, Nodes: 4})
	w, _ := fs.Create("f")
	for i := 0; i < 8; i++ {
		w.Append([]byte{byte('a' + i)})
	}
	w.Close()
	splits, _ := fs.Splits("f")
	counts := map[int]int{}
	for _, s := range splits {
		if len(s.Locations) != 1 {
			t.Fatalf("replication = %d, want 1", len(s.Locations))
		}
		counts[s.Locations[0]]++
	}
	for node := 0; node < 4; node++ {
		if counts[node] != 2 {
			t.Fatalf("node %d holds %d blocks, want 2 (placement %v)", node, counts[node], counts)
		}
	}
}

func TestReplication(t *testing.T) {
	fs := New(Options{BlockSize: 1, Nodes: 3, Replication: 2})
	w, _ := fs.Create("f")
	w.Append([]byte("x"))
	w.Close()
	splits, _ := fs.Splits("f")
	if len(splits[0].Locations) != 2 {
		t.Fatalf("locations = %v, want 2 replicas", splits[0].Locations)
	}
	if splits[0].Locations[0] == splits[0].Locations[1] {
		t.Fatalf("replicas on the same node: %v", splits[0].Locations)
	}
}

func TestReplicationCappedAtNodes(t *testing.T) {
	fs := New(Options{Nodes: 2, Replication: 5})
	w, _ := fs.Create("f")
	w.Append([]byte("x"))
	w.Close()
	splits, _ := fs.Splits("f")
	if len(splits[0].Locations) != 2 {
		t.Fatalf("locations = %v, want capped at 2", splits[0].Locations)
	}
}

func TestListRemove(t *testing.T) {
	fs := New(Options{})
	for _, n := range []string{"out/part-0", "out/part-1", "in/data"} {
		w, _ := fs.Create(n)
		w.Append([]byte("x"))
		w.Close()
	}
	got := fs.List("out/")
	if len(got) != 2 || got[0] != "out/part-0" || got[1] != "out/part-1" {
		t.Fatalf("List = %v", got)
	}
	if !fs.Exists("in/data") {
		t.Fatal("Exists(in/data) = false")
	}
	if err := fs.Remove("in/data"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("in/data") {
		t.Fatal("file still exists after Remove")
	}
	if err := fs.Remove("in/data"); err == nil {
		t.Fatal("Remove of missing file succeeded")
	}
	if n := fs.RemovePrefix("out/"); n != 2 {
		t.Fatalf("RemovePrefix removed %d, want 2", n)
	}
}

// TestListSegmentAware: prefix matching is path-segment aware — "out"
// must not match the sibling "outX/part-0" (the raw-prefix bug that made
// cleanup delete foreign files).
func TestListSegmentAware(t *testing.T) {
	fs := New(Options{})
	for _, n := range []string{"out", "out/part-0", "outX/part-0", "ou"} {
		w, _ := fs.Create(n)
		w.Append([]byte("x"))
		w.Close()
	}
	got := fs.List("out")
	if len(got) != 2 || got[0] != "out" || got[1] != "out/part-0" {
		t.Fatalf("List(out) = %v, want [out out/part-0]", got)
	}
	if got := fs.List("out/"); len(got) != 1 || got[0] != "out/part-0" {
		t.Fatalf("List(out/) = %v", got)
	}
	if n := fs.RemovePrefix("out"); n != 2 {
		t.Fatalf("RemovePrefix(out) removed %d, want 2", n)
	}
	if !fs.Exists("outX/part-0") || !fs.Exists("ou") {
		t.Fatal("RemovePrefix(out) deleted a sibling file")
	}
}

func TestMissingFileErrors(t *testing.T) {
	fs := New(Options{})
	if _, err := fs.ReadAll("nope"); err == nil {
		t.Fatal("ReadAll of missing file succeeded")
	}
	if _, err := fs.Splits("nope"); err == nil {
		t.Fatal("Splits of missing file succeeded")
	}
	if _, err := fs.Block("nope", 0); err == nil {
		t.Fatal("Block of missing file succeeded")
	}
	if _, err := fs.Size("nope"); err == nil {
		t.Fatal("Size of missing file succeeded")
	}
}

func TestBlockOutOfRange(t *testing.T) {
	fs := New(Options{})
	w, _ := fs.Create("f")
	w.Append([]byte("x"))
	w.Close()
	if _, err := fs.Block("f", 5); err == nil {
		t.Fatal("Block(5) succeeded")
	}
}

func TestEmptyFile(t *testing.T) {
	fs := New(Options{})
	w, _ := fs.Create("empty")
	w.Close()
	got, err := fs.ReadAll("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
	splits, err := fs.Splits("empty")
	if err != nil || len(splits) != 0 {
		t.Fatalf("Splits = %v, %v", splits, err)
	}
}

// TestContentPreservedProperty: concatenating all blocks always equals the
// concatenation of appended records, for every record that fits in a
// block (larger ones are rejected with ErrRecordTooLarge and must leave
// the stored contents untouched).
func TestContentPreservedProperty(t *testing.T) {
	f := func(recs [][]byte, blockSize uint8) bool {
		bs := int(blockSize%64) + 1
		fs := New(Options{BlockSize: bs, Nodes: 3})
		w, _ := fs.Create("f")
		var want []byte
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				if len(r) <= bs || !errors.Is(err, ErrRecordTooLarge) {
					return false
				}
				continue
			}
			want = append(want, r...)
		}
		w.Close()
		got, err := fs.ReadAll("f")
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalBytes(t *testing.T) {
	fs := New(Options{})
	w, _ := fs.Create("a")
	w.Append(make([]byte, 100))
	w.Close()
	w, _ = fs.Create("b")
	w.Append(make([]byte, 50))
	w.Close()
	if got := fs.TotalBytes(); got != 150 {
		t.Fatalf("TotalBytes = %d", got)
	}
}

// TestConcurrentAccess: concurrent writers to distinct files plus
// concurrent readers — reading the files while their blocks are cut —
// must be safe (the engine's parallel tasks do this).
func TestConcurrentAccess(t *testing.T) {
	fs := New(Options{BlockSize: 64, Nodes: 4})
	done := make(chan error, 16)
	for w := 0; w < 8; w++ {
		go func(w int) {
			wr, err := fs.Create(fmt.Sprintf("f%d", w))
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 100; i++ {
				wr.Append([]byte(fmt.Sprintf("w%d-rec%d\n", w, i)))
			}
			done <- wr.Close()
		}(w)
	}
	for r := 0; r < 8; r++ {
		go func() {
			for i := 0; i < 50; i++ {
				for _, name := range fs.List("") {
					fs.ReadAll(name)
				}
				fs.TotalBytes()
			}
			done <- nil
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 8; w++ {
		data, err := fs.ReadAll(fmt.Sprintf("f%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if len(bytes.Split(bytes.TrimSpace(data), []byte{'\n'})) != 100 {
			t.Fatalf("writer %d lost records", w)
		}
	}
}

// TestWriterFillPoolNoAlias runs writers concurrently through the FS's
// free list of fill buffers: files of every size (none, part of a block, several
// blocks), some writers closed twice, each file checked byte for byte
// against what was appended. Run under -race -count=10.
func TestWriterFillPoolNoAlias(t *testing.T) {
	fs := New(Options{BlockSize: 64, Nodes: 2})
	want := func(g, f int) []byte {
		var b []byte
		for i := 0; i < (g*7+f)%40; i++ {
			b = append(b, fmt.Sprintf("g%d-f%d-r%d\n", g, f, i)...)
		}
		return b
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for f := 0; f < 25; f++ {
				w, err := fs.Create(fmt.Sprintf("g%d/f%d", g, f))
				if err != nil {
					t.Error(err)
					return
				}
				for _, rec := range bytes.SplitAfter(want(g, f), []byte{'\n'}) {
					if len(rec) > 0 {
						if err := w.Append(rec); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if err := w.Close(); err != nil {
					t.Error(err)
				}
				if f%5 == 0 {
					w.Close() // a second Close must not return the buffer twice
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		for f := 0; f < 25; f++ {
			got, err := fs.ReadAll(fmt.Sprintf("g%d/f%d", g, f))
			if err != nil {
				t.Fatal(err)
			}
			if w := want(g, f); !bytes.Equal(got, w) {
				t.Fatalf("g%d/f%d holds %q, want %q", g, f, got, w)
			}
		}
	}
}

// TestWriterFillWarmAcrossGC closes a writer that grew its fill buffer
// to a whole block, collects garbage twice (what empties a sync.Pool,
// victim cache included) and checks that the next writer fills the same
// buffer instead of regrowing one.
func TestWriterFillWarmAcrossGC(t *testing.T) {
	fs := New(Options{BlockSize: 64 << 10})
	record := bytes.Repeat([]byte("x"), 1000)
	write := func(name string) *byte {
		w, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ { // a full block and part of another
			if err := w.Append(record); err != nil {
				t.Fatal(err)
			}
		}
		fill := unsafe.SliceData(w.(*Writer).cur)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return fill
	}
	first := write("a")
	runtime.GC()
	runtime.GC()
	if write("b") != first {
		t.Fatal("a writer regrew its fill buffer after a GC")
	}
}

// TestWriterFillRetention pins what an FS retains of its writers' fill
// buffers once they are closed: at most one per processor, none longer
// than a block.
func TestWriterFillRetention(t *testing.T) {
	const blockSize = 1000
	fs := New(Options{BlockSize: blockSize})
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w, err := fs.Create(fmt.Sprintf("f%d", g))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20*(g+1); i++ { // records of 7 to 999 bytes
				if err := w.Append(bytes.Repeat([]byte("y"), 7+i*13%993)); err != nil {
					t.Error(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	retained := 0
	for {
		b := fs.fills.Get()
		if *b == nil {
			break
		}
		if cap(*b) > blockSize {
			t.Errorf("a retained fill buffer holds %d bytes, more than the %d-byte block", cap(*b), blockSize)
		}
		retained++
	}
	if retained == 0 || retained > runtime.GOMAXPROCS(0) {
		t.Fatalf("FS retains %d fill buffers, want 1 to GOMAXPROCS (%d)", retained, runtime.GOMAXPROCS(0))
	}
}

// writeFile creates a file of n single-record blocks "rec00".."recNN".
func writeFile(t *testing.T, fs *FS, name string, n int) {
	t.Helper()
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaPlacementDistinctNodes(t *testing.T) {
	fs := New(Options{BlockSize: 5, Nodes: 4, Replication: 3})
	writeFile(t, fs, "f", 8)
	splits, err := fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 8 {
		t.Fatalf("splits = %d, want 8", len(splits))
	}
	perNode := map[int]int{}
	for _, s := range splits {
		if len(s.Locations) != 3 {
			t.Fatalf("block %d has %d replicas, want 3 (%v)", s.Block, len(s.Locations), s.Locations)
		}
		seen := map[int]bool{}
		for _, n := range s.Locations {
			if seen[n] {
				t.Fatalf("block %d places two replicas on node %d: %v", s.Block, n, s.Locations)
			}
			seen[n] = true
			perNode[n]++
		}
	}
	// Round-robin placement keeps replicas balanced: 8 blocks × 3 replicas
	// over 4 nodes = 6 per node.
	for n := 0; n < 4; n++ {
		if perNode[n] != 6 {
			t.Fatalf("node %d holds %d replicas, want 6 (%v)", n, perNode[n], perNode)
		}
	}
}

func TestRenamePreservesReplicaLocations(t *testing.T) {
	fs := New(Options{BlockSize: 5, Nodes: 3, Replication: 2})
	writeFile(t, fs, "tmp", 4)
	before, _ := fs.Splits("tmp")
	if err := fs.Rename("tmp", "final"); err != nil {
		t.Fatal(err)
	}
	after, err := fs.Splits("final")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("blocks changed across Rename: %d -> %d", len(before), len(after))
	}
	for i := range after {
		if fmt.Sprint(after[i].Locations) != fmt.Sprint(before[i].Locations) {
			t.Fatalf("block %d locations changed: %v -> %v", i, before[i].Locations, after[i].Locations)
		}
	}
}

// TestChecksumDetectsFlippedByte: a block whose stored bytes change after
// the write fails every read path with ErrChecksum, and reads cleanly
// again once the byte is restored.
func TestChecksumDetectsFlippedByte(t *testing.T) {
	fs := New(Options{BlockSize: 5, Nodes: 2})
	writeFile(t, fs, "f", 3)
	block, err := fs.Block("f", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Block hands out the stored bytes; flip one in place to stand in
	// for bit rot on the disk holding them.
	block[2] ^= 0x40
	if _, err := fs.Block("f", 1); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Block of a flipped block: err %v, want ErrChecksum", err)
	}
	if _, err := fs.ReadAll("f"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadAll of a file with a flipped block: err %v, want ErrChecksum", err)
	}
	if _, err := fs.Block("f", 0); err != nil {
		t.Fatalf("Block of an intact block: %v", err)
	}
	block[2] ^= 0x40
	got, err := fs.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if want := "rec00rec01rec02"; string(got) != want {
		t.Fatalf("ReadAll after restore = %q, want %q", got, want)
	}
}
