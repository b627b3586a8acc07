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
// balanced initial placement the paper arranges before each experiment.
//
// The node-level failure model mirrors HDFS's: every block carries a
// CRC32 checksum computed at write time and verified on every read;
// nodes can fail (FailNode) and recover (RecoverNode); reads fail over
// to any live, uncorrupted replica and return ErrBlockUnavailable only
// when none is left; and ReReplicate restores the replication factor of
// under-replicated blocks from a surviving replica, the way the HDFS
// namenode re-replicates after a datanode death. Writes place replicas
// on live nodes only.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
)

// DefaultBlockSize mirrors the paper's Hadoop configuration (128 MB)
// scaled down 1000× to suit the scaled-down datasets: splits per file stay
// in the same ballpark as the paper's runs.
const DefaultBlockSize = 128 << 10

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
	// AutoReReplicate runs ReReplicate whenever a node fails or
	// recovers — the deterministic stand-in for the HDFS namenode's
	// background re-replication thread, which in a simulated file
	// system can complete "instantly" at the failure event.
	AutoReReplicate bool
}

// FS is an in-memory simulated distributed file system. All methods are
// safe for concurrent use.
type FS struct {
	mu    sync.RWMutex
	opts  Options
	files map[string]*file
	next  int          // round-robin placement cursor
	down  map[int]bool // failed (dead) nodes
}

type file struct {
	blocks  [][]byte
	sums    []uint32       // CRC32 (IEEE) per block, computed at write
	locs    [][]int        // replica node IDs per block
	corrupt []map[int]bool // per block: replica nodes whose copy is corrupt
	nrecs   []int          // records per block
	size    int64
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
	return &FS{opts: opts, files: make(map[string]*file), down: make(map[int]bool)}
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

// ErrBlockUnavailable is returned by reads when every replica of a block
// is on a dead node or corrupt — the HDFS "could not obtain block"
// condition. With replication 1 a single node death makes its blocks
// unavailable; with replication ≥ 2 reads fail over to a surviving
// replica instead.
var ErrBlockUnavailable = errors.New("dfs: block unavailable: all replicas dead or corrupt")

// ErrChecksum marks a replica whose stored bytes no longer match the
// block's write-time CRC32.
var ErrChecksum = errors.New("dfs: block checksum mismatch")

// ErrNoLiveNodes is returned by writes when every node is dead.
var ErrNoLiveNodes = errors.New("dfs: no live nodes to place block on")

// ---- Node liveness -------------------------------------------------------

// FailNode marks a node dead: reads fail over to replicas on other
// nodes, and writes stop placing blocks on it. Failing an already-dead
// or out-of-range node is a no-op.
func (fs *FS) FailNode(id int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if id < 0 || id >= fs.opts.Nodes {
		return
	}
	fs.down[id] = true
	if fs.opts.AutoReReplicate {
		fs.reReplicateLocked()
	}
}

// RecoverNode marks a dead node live again. Its replicas become readable
// once more (their data survived, as a restarted datanode's disks do).
func (fs *FS) RecoverNode(id int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if id < 0 || id >= fs.opts.Nodes {
		return
	}
	delete(fs.down, id)
	if fs.opts.AutoReReplicate {
		fs.reReplicateLocked()
	}
}

// NodeAlive reports whether the node is live.
func (fs *FS) NodeAlive(id int) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return !fs.down[id]
}

// LiveNodes returns the IDs of all live nodes, ascending.
func (fs *FS) LiveNodes() []int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]int, 0, fs.opts.Nodes)
	for n := 0; n < fs.opts.Nodes; n++ {
		if !fs.down[n] {
			out = append(out, n)
		}
	}
	return out
}

// CorruptReplica marks one replica of a block as corrupt: reads through
// that replica fail checksum verification and fail over to another
// replica. It is the test hook standing in for disk bit rot.
func (fs *FS) CorruptReplica(name string, block, node int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if block < 0 || block >= len(f.blocks) {
		return fmt.Errorf("dfs: %s has no block %d", name, block)
	}
	held := false
	for _, n := range f.locs[block] {
		if n == node {
			held = true
			break
		}
	}
	if !held {
		return fmt.Errorf("dfs: %s block %d has no replica on node %d", name, block, node)
	}
	if f.corrupt == nil {
		f.corrupt = make([]map[int]bool, len(f.blocks))
	}
	for len(f.corrupt) < len(f.blocks) {
		f.corrupt = append(f.corrupt, nil)
	}
	if f.corrupt[block] == nil {
		f.corrupt[block] = make(map[int]bool)
	}
	f.corrupt[block][node] = true
	return nil
}

// ReReplicate restores the replication factor of under-replicated
// blocks: for every block with fewer live, uncorrupted replicas than the
// configured factor (or than the live-node count, whichever is smaller)
// it copies the block from a surviving replica onto live nodes that
// don't already hold one. Corrupt replicas are dropped from the location
// list (their data is gone); dead-node replicas are kept — a recovered
// node serves its old blocks again. It returns the number of new
// replicas placed. Deterministic: files are processed in name order and
// target nodes ascending.
func (fs *FS) ReReplicate() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.reReplicateLocked()
}

func (fs *FS) reReplicateLocked() int {
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	placed := 0
	liveCount := 0
	for n := 0; n < fs.opts.Nodes; n++ {
		if !fs.down[n] {
			liveCount++
		}
	}
	want := fs.opts.Replication
	if want > liveCount {
		want = liveCount
	}
	for _, name := range names {
		f := fs.files[name]
		for b := range f.blocks {
			// Drop corrupt replicas (clearing the corruption mark: the
			// bad copy is discarded, so a fresh replica may land on the
			// same node later), then count live healthy ones.
			locs := f.locs[b][:0]
			for _, n := range f.locs[b] {
				if f.replicaCorrupt(b, n) {
					delete(f.corrupt[b], n)
					continue
				}
				locs = append(locs, n)
			}
			f.locs[b] = locs
			liveHealthy := 0
			held := make(map[int]bool, len(locs))
			for _, n := range locs {
				held[n] = true
				if !fs.down[n] {
					liveHealthy++
				}
			}
			if liveHealthy == 0 || liveHealthy >= want {
				// Nothing to copy from, or already sufficiently
				// replicated.
				continue
			}
			for n := 0; n < fs.opts.Nodes && liveHealthy < want; n++ {
				if fs.down[n] || held[n] {
					continue
				}
				f.locs[b] = append(f.locs[b], n)
				held[n] = true
				liveHealthy++
				placed++
			}
		}
	}
	return placed
}

func (f *file) replicaCorrupt(block, node int) bool {
	return f.corrupt != nil && block < len(f.corrupt) && f.corrupt[block][node]
}

// ---- Writing -------------------------------------------------------------

// Writer appends records to a file. Writers are not safe for concurrent
// use; create one writer per producing task (tasks write distinct files,
// as in Hadoop).
type Writer struct {
	fs   *FS
	name string
	f    *file
	// cur is the block being filled: taken from fillPool on the first
	// Append, returned by Close. No block aliases it (flushBlock copies).
	cur  []byte
	recs int
}

// fillPool holds the fill buffers of closed writers (*[]byte), so a job's
// part files do not each regrow one from nil by doubling.
var fillPool sync.Pool

// Create creates a new file and returns a writer for it. The result is
// typed as the Storage-interface RecordWriter so *FS satisfies Storage
// directly; the concrete writer is always a *Writer.
func (fs *FS) Create(name string) (RecordWriter, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	}
	f := &file{}
	fs.files[name] = f
	return &Writer{fs: fs, name: name, f: f}, nil
}

// Append adds one record to the file. The record bytes are copied. A
// record larger than the block size is rejected with ErrRecordTooLarge
// (it could never be stored without breaking the one-split-per-block
// invariant); writing with every node dead fails with ErrNoLiveNodes.
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
	if w.cur == nil {
		if b, ok := fillPool.Get().(*[]byte); ok {
			w.cur = (*b)[:0]
		}
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

	// The placement cursor, the liveness set, and the file metadata are
	// all shared with concurrent readers (and other writers), so the
	// whole commit holds the FS lock.
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	live := make([]int, 0, w.fs.opts.Nodes)
	for n := 0; n < w.fs.opts.Nodes; n++ {
		if !w.fs.down[n] {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("%w: %s", ErrNoLiveNodes, w.name)
	}
	// Replicas go to distinct live nodes starting at the round-robin
	// cursor (skipping dead nodes keeps placement balanced across the
	// survivors).
	reps := w.fs.opts.Replication
	if reps > len(live) {
		reps = len(live)
	}
	start := w.fs.next % len(live)
	locs := make([]int, reps)
	for i := range locs {
		locs[i] = live[(start+i)%len(live)]
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
// the pool. The writer must not be used afterwards.
func (w *Writer) Close() error {
	err := w.flushBlock()
	if w.cur != nil {
		b := w.cur[:0]
		w.cur = nil
		fillPool.Put(&b)
	}
	return err
}

// ---- Reading -------------------------------------------------------------

// Split identifies one input split: a (file, block) pair plus its replica
// locations.
type Split struct {
	File      string
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
			Block:     i,
			Bytes:     len(f.blocks[i]),
			Records:   f.nrecs[i],
			Locations: append([]int(nil), f.locs[i]...),
		}
	}
	return out, nil
}

// readBlockLocked returns block idx of f through the first replica that
// is both on a live node and passes checksum verification, failing over
// replica by replica. Callers hold at least the read lock.
func (fs *FS) readBlockLocked(f *file, name string, idx int) ([]byte, error) {
	for _, n := range f.locs[idx] {
		if fs.down[n] {
			continue
		}
		if f.replicaCorrupt(idx, n) {
			// This replica's bytes no longer hash to the write-time
			// sum; skip it exactly as a real checksum failure would.
			continue
		}
		block := f.blocks[idx]
		if crc32.ChecksumIEEE(block) != f.sums[idx] {
			return nil, fmt.Errorf("%w: %s block %d on node %d", ErrChecksum, name, idx, n)
		}
		return block, nil
	}
	return nil, fmt.Errorf("%w: %s block %d (replicas on nodes %v)",
		ErrBlockUnavailable, name, idx, f.locs[idx])
}

// Block returns the raw bytes of one block, read through any live,
// checksum-clean replica. The returned slice must not be modified.
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
	return fs.readBlockLocked(f, name, idx)
}

// ReadAll returns the whole contents of a file, failing over per block.
func (fs *FS) ReadAll(name string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	out := make([]byte, 0, f.size)
	for i := range f.blocks {
		b, err := fs.readBlockLocked(f, name, i)
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
