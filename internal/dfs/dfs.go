// Package dfs simulates the distributed file system under the MapReduce
// engine (the HDFS substitute).
//
// Files are sequences of blocks. Records are appended record-at-a-time
// and never span a block boundary: a block is closed once it reaches the
// configured block size, so every block parses independently and one
// input split per block needs no boundary stitching. (Hadoop lets records
// straddle blocks and stitches them in the input format; block-aligned
// records are an equivalent simplification for this system because all
// producers write through this API.) Each block is assigned replica
// locations round-robin across the virtual cluster nodes, mirroring the
// balanced initial placement the paper arranges before each experiment;
// the cluster simulator's locality rule reads them from Split.Locations.
// The bytes are stored once whatever the replication factor.
//
// Every block carries a CRC32 checksum computed at write time and
// verified on every read; a mismatch fails the read with ErrChecksum.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"fuzzyjoin/internal/freelist"
)

// DefaultBlockSize is the block size, and so the size of one map task's
// input split: 1 MiB. The rule is the paper's Hadoop one, a split large
// enough that a map task's fixed costs (one dispatch, a net/rpc round
// trip under the distributed backend; one sorted segment per reducer;
// one more run in every reducer's merge) are small next to its records,
// with several tasks per slot left to balance. 1 MiB holds about 5,800
// DBLP-like records: 17 map tasks per job at 10⁵ records and 169 at 10⁶,
// where 128 KiB gave 135 and 1,349; 4 MiB read no faster at 10⁵.
// Experiments that simulate the paper's cluster on a few thousand
// records set a smaller block of their own.
const DefaultBlockSize = 1 << 20

// Options configures a file system.
type Options struct {
	// BlockSize is the maximum block payload in bytes. Defaults to
	// DefaultBlockSize.
	BlockSize int
	// Nodes is the number of virtual cluster nodes blocks are placed on.
	// Defaults to 1.
	Nodes int
	// Replication is the number of replica locations per block, capped at
	// Nodes. Defaults to 1 (the paper sets dfs.replication=1).
	Replication int
}

// FS is an in-memory simulated distributed file system. All methods are
// safe for concurrent use.
type FS struct {
	mu    sync.RWMutex
	opts  Options
	files map[string]*file
	next  int // round-robin placement cursor
	// fills holds closed writers' fill buffers, one per processor at
	// most, each at most a block long.
	fills *freelist.List[[]byte]
}

type file struct {
	id     uint64 // Split.FileID
	blocks [][]byte
	sums   []uint32 // CRC32 (IEEE) per block, computed at write
	locs   [][]int  // replica node IDs per block
	nrecs  []int    // records per block
	size   int64
}

// New creates an empty file system.
func New(opts Options) *FS {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.Replication <= 0 {
		opts.Replication = 1
	}
	if opts.Replication > opts.Nodes {
		opts.Replication = opts.Nodes
	}
	return &FS{opts: opts, files: make(map[string]*file),
		fills: freelist.New[[]byte](runtime.GOMAXPROCS(0))}
}

// Nodes returns the number of virtual nodes.
func (fs *FS) Nodes() int { return fs.opts.Nodes }

// BlockSize returns the configured block size.
func (fs *FS) BlockSize() int { return fs.opts.BlockSize }

// Replication returns the configured replication factor.
func (fs *FS) Replication() int { return fs.opts.Replication }

// ErrNotExist is returned when a named file is absent.
var ErrNotExist = errors.New("dfs: file does not exist")

// ErrExist is returned when creating a file that already exists.
var ErrExist = errors.New("dfs: file already exists")

// ErrRecordTooLarge is returned by Writer.Append for a record larger
// than the block size: such a record could never be stored without
// producing an oversized block that split-oblivious readers would
// mis-parse as a split bigger than the block size.
var ErrRecordTooLarge = errors.New("dfs: record larger than block size")

// ErrChecksum marks a block whose stored bytes no longer match its
// write-time CRC32.
var ErrChecksum = errors.New("dfs: block checksum mismatch")

// ---- Writing -------------------------------------------------------------

// Writer appends records to a file. Writers are not safe for concurrent
// use; create one writer per producing task (tasks write distinct files,
// as in Hadoop).
type Writer struct {
	fs   *FS
	name string
	f    *file
	// cur is the block being filled, in *fill: taken from the FS's
	// fill buffers on the first Append, returned by Close, so a job's
	// part files do not each regrow one from nil by doubling. No block
	// aliases it (flushBlock copies).
	cur  []byte
	fill *[]byte
	recs int
}

// Create creates a new file and returns a writer for it. The result is
// typed as the Storage-interface RecordWriter so *FS satisfies Storage
// directly; the concrete writer is always a *Writer.
func (fs *FS) Create(name string) (RecordWriter, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	}
	f := &file{id: nextFileID.Add(1)}
	fs.files[name] = f
	return &Writer{fs: fs, name: name, f: f}, nil
}

// Append adds one record to the file. The record bytes are copied. A
// record larger than the block size is rejected with ErrRecordTooLarge
// (it could never be stored without breaking the one-split-per-block
// invariant).
func (w *Writer) Append(record []byte) error {
	if len(record) > w.fs.opts.BlockSize {
		return fmt.Errorf("%w: %d bytes in %q (block size %d)",
			ErrRecordTooLarge, len(record), w.name, w.fs.opts.BlockSize)
	}
	if len(w.cur) > 0 && len(w.cur)+len(record) > w.fs.opts.BlockSize {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	if w.fill == nil {
		w.fill = w.fs.fills.Get()
		w.cur = (*w.fill)[:0]
	}
	if n := len(w.cur) + len(record); n > cap(w.cur) {
		// Grow by doubling, but never past a block: what the FS retains
		// stays within its stated bound.
		grown := make([]byte, len(w.cur), min(max(2*cap(w.cur), n, 1<<10), w.fs.opts.BlockSize))
		copy(grown, w.cur)
		w.cur = grown
	}
	w.cur = append(w.cur, record...)
	w.recs++
	return nil
}

func (w *Writer) flushBlock() error {
	if len(w.cur) == 0 {
		return nil
	}
	block := make([]byte, len(w.cur))
	copy(block, w.cur)
	w.cur = w.cur[:0]
	recs := w.recs
	w.recs = 0

	// The placement cursor and the file metadata are shared with
	// concurrent readers (and other writers), so the whole commit holds
	// the FS lock.
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	// Replicas go to distinct nodes starting at the round-robin cursor.
	locs := make([]int, w.fs.opts.Replication)
	for i := range locs {
		locs[i] = (w.fs.next + i) % w.fs.opts.Nodes
	}
	w.fs.next = (w.fs.next + 1) % w.fs.opts.Nodes
	w.f.blocks = append(w.f.blocks, block)
	w.f.sums = append(w.f.sums, crc32.ChecksumIEEE(block))
	w.f.locs = append(w.f.locs, locs)
	w.f.nrecs = append(w.f.nrecs, recs)
	w.f.size += int64(len(block))
	return nil
}

// Close flushes the final partial block and returns the fill buffer to
// the FS. The writer must not be used afterwards.
func (w *Writer) Close() error {
	err := w.flushBlock()
	if w.fill != nil {
		*w.fill, w.cur = w.cur[:0], nil
		w.fs.fills.Put(w.fill)
		w.fill = nil
	}
	return err
}

// ---- Reading -------------------------------------------------------------

// nextFileID numbers created files process-wide, so no two files of any
// FS share an ID.
var nextFileID atomic.Uint64

// Split identifies one input split: a (file, block) pair plus its replica
// locations.
type Split struct {
	File string
	// FileID names the file's contents: Create assigns a new one (never
	// 0) and Rename keeps it, so a name removed and created again gets a
	// new ID. A file's blocks never change once written; caches of them
	// key on FileID, never on File.
	FileID    uint64
	Block     int
	Bytes     int
	Records   int
	Locations []int
}

// Splits returns one split per block of the named file.
func (fs *FS) Splits(name string) ([]Split, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	out := make([]Split, len(f.blocks))
	for i := range f.blocks {
		out[i] = Split{
			File:      name,
			FileID:    f.id,
			Block:     i,
			Bytes:     len(f.blocks[i]),
			Records:   f.nrecs[i],
			Locations: append([]int(nil), f.locs[i]...),
		}
	}
	return out, nil
}

// readBlockLocked returns block idx of f after verifying its checksum.
// Callers hold at least the read lock.
func readBlockLocked(f *file, name string, idx int) ([]byte, error) {
	block := f.blocks[idx]
	if crc32.ChecksumIEEE(block) != f.sums[idx] {
		return nil, fmt.Errorf("%w: %s block %d", ErrChecksum, name, idx)
	}
	return block, nil
}

// Block returns the raw bytes of one block after verifying its
// checksum. The returned slice must not be modified.
func (fs *FS) Block(name string, idx int) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if idx < 0 || idx >= len(f.blocks) {
		return nil, fmt.Errorf("dfs: %s has no block %d", name, idx)
	}
	return readBlockLocked(f, name, idx)
}

// ReadAll returns the whole contents of a file, verifying every block.
func (fs *FS) ReadAll(name string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	out := make([]byte, 0, f.size)
	for i := range f.blocks {
		b, err := readBlockLocked(f, name, i)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// Size returns a file's total byte size.
func (fs *FS) Size(name string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f.size, nil
}

// Exists reports whether the named file exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

// matchPrefix reports whether name falls under prefix, path-segment
// aware: a prefix ending in "/" matches names underneath it, and a bare
// prefix matches itself and names underneath "prefix/" — never a
// sibling like "prefixX" (the raw string-prefix match this replaces
// deleted foreign files sharing a name prefix).
func matchPrefix(name, prefix string) bool {
	if prefix == "" {
		return true
	}
	if strings.HasSuffix(prefix, "/") {
		return strings.HasPrefix(name, prefix)
	}
	return name == prefix || strings.HasPrefix(name, prefix+"/")
}

// List returns the names of all files under the given prefix, sorted.
// Matching is path-segment aware: "out" matches "out" and "out/...",
// never "outX/...".
func (fs *FS) List(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []string
	for name := range fs.files {
		if matchPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Rename moves a file to a new name, keeping its blocks and their
// replica locations. It is the commit step of a task attempt: output is
// written under a temporary attempt name and renamed into place only
// once the attempt succeeds. Renaming a missing file or onto an
// existing name is an error.
func (fs *FS) Rename(oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldName)
	}
	if _, ok := fs.files[newName]; ok {
		return fmt.Errorf("%w: %s", ErrExist, newName)
	}
	fs.files[newName] = f
	delete(fs.files, oldName)
	return nil
}

// Remove deletes a file. Removing a missing file is an error.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	delete(fs.files, name)
	return nil
}

// RemovePrefix deletes every file under the given prefix (path-segment
// aware, like List) and returns how many were removed.
func (fs *FS) RemovePrefix(prefix string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for name := range fs.files {
		if matchPrefix(name, prefix) {
			delete(fs.files, name)
			n++
		}
	}
	return n
}

// TotalBytes returns the sum of all file sizes (used by experiment
// reporting).
func (fs *FS) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n int64
	for _, f := range fs.files {
		n += f.size
	}
	return n
}
