package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"

	"fuzzyjoin/internal/freelist"
)

// This file is the map-output buffer (§4.8 of DESIGN.md): Emit picks the
// partition and appends the record, already in Pairs encoding, to that
// partition's byte arena, remembering it in a compact index entry. A
// partition is finished by sorting its index under the engine's total
// order and copying the records out in index order.

// ErrMapOutputTooLarge is returned (wrapped) when a map task's output
// cannot be addressed by the buffer's 32-bit arena offsets even after
// spilling: one record over 4 GiB.
var ErrMapOutputTooLarge = errors.New("mapreduce: map output exceeds the 4 GiB partition arena")

// maxArena bounds one partition arena, so every record offset and length
// fits an index entry's uint32 fields.
const maxArena = math.MaxUint32

// idxEntry locates one buffered record in its partition arena and caches
// the key's sort prefix, so most comparisons of a sort resolve on one
// integer without touching the arena. Sixteen bytes: the value length is
// read back from the arena when needed.
type idxEntry struct {
	prefix uint64
	off    uint32 // record start: the key-length varint
	klen   uint32
}

func uvarintLen(x uint32) int { return (bits.Len32(x|1) + 6) / 7 }

// partBuf is one run of buffered records: data holds them in Pairs
// encoding in emission order, idx holds one entry per record in the
// order the run is read out (emission order until sort is called).
type partBuf struct {
	data []byte
	idx  []idxEntry
}

func (p *partBuf) reset() {
	p.data = p.data[:0]
	p.idx = p.idx[:0]
}

// add appends one record, or reports false and appends nothing when the
// arena would grow past limit. A full arena or index grows as grown says,
// from the task's progress through its split: read of split input bytes.
func (p *partBuf) add(key, value []byte, prefix, limit uint64, read, split int64) bool {
	n := len(key) + len(value) + 2*binary.MaxVarintLen32
	if uint64(len(p.data))+uint64(n) > limit {
		return false
	}
	if cap(p.data)-len(p.data) < n {
		p.data = grown(p.data, max(n, 1<<10), read, split)
	}
	if len(p.idx) == cap(p.idx) {
		p.idx = grown(p.idx, 64, read, split)
	}
	off := len(p.data)
	p.data = appendPair(p.data, key, value)
	p.idx = append(p.idx, idxEntry{prefix: prefix, off: uint32(off), klen: uint32(len(key))})
	return true
}

// grown returns s moved to a new array with room for at least n more
// elements, at least twice its capacity and, once the task has read a
// sixteenth or more of its split, what the task is projected to need by
// the end of the split plus an eighth. A cold run of 2,000 to 200,000
// uniform records then allocates 1.3 to 1.7 times what it ends up
// holding, where doubling alone allocated 2.1 to 3.3 times. It is an
// explicit make rather than slices.Grow so that growth costs the same
// under the race detector, where the compiler does not fuse Grow's
// append(s, make(...)...) and the allocation guard test would count the
// temporary.
func grown[E any](s []E, n int, read, split int64) []E {
	c := len(s) + max(n, cap(s))
	if read > 0 && 16*read >= split {
		c = max(c, int(int64(len(s)+n)*split/read)*9/8)
	}
	g := make([]E, len(s), c)
	copy(g, s)
	return g
}

// key returns the record's key, aliasing the arena (capacity clipped, so
// an append by user code cannot reach the bytes that follow), and the
// offset just past it, where the value-length varint starts.
func (p *partBuf) key(e idxEntry) ([]byte, int) {
	ks := int(e.off) + uvarintLen(e.klen)
	ke := ks + int(e.klen)
	return p.data[ks:ke:ke], ke
}

// value returns the value of the record whose key ends at ke, and the
// offset just past it: the record's end.
func (p *partBuf) value(ke int) ([]byte, int) {
	vlen, n := binary.Uvarint(p.data[ke:])
	vs := ke + n
	ve := vs + int(vlen)
	return p.data[vs:ve:ve], ve
}

// compare is the engine's total order (comparePairs) over two index
// entries: cached prefix, key bytes, value bytes.
func (p *partBuf) compare(a, b idxEntry) int {
	if a.prefix != b.prefix {
		if a.prefix < b.prefix {
			return -1
		}
		return 1
	}
	ka, ea := p.key(a)
	kb, eb := p.key(b)
	if c := bytes.Compare(ka, kb); c != 0 {
		return c
	}
	va, _ := p.value(ea)
	vb, _ := p.value(eb)
	return bytes.Compare(va, vb)
}

func (p *partBuf) sort() { slices.SortFunc(p.idx, p.compare) }

// appendRun appends the records to dst in index order — after sort, the
// run's Pairs encoding. It adds exactly len(p.data) bytes.
func (p *partBuf) appendRun(dst []byte) []byte {
	dst = slices.Grow(dst, len(p.data))
	for _, e := range p.idx {
		_, ke := p.key(e)
		_, end := p.value(ke)
		dst = append(dst, p.data[e.off:end]...)
	}
	return dst
}

// mapBuffer collects one map task's output. The arenas, indexes and
// scratch are recycled across map tasks through the job's Buffers;
// everything a task hands on (its segments) is copied out first.
type mapBuffer struct {
	job         *Job
	limit       uint64    // arena bound (maxArena; lowered by tests)
	parts       []partBuf // one per reducer
	n           int       // records buffered across parts since the last spill
	spills      *mapSpills
	run         []byte // one sorted run in Pairs encoding (spill / merge input)
	read, split int64  // input bytes the task has read, of its split's
}

// Buffers lends map tasks their output buffers and takes them back when
// the tasks end, keeping at most a set number. A garbage collection does
// not empty it, as it empties a sync.Pool, so jobs that share one (the
// jobs of a pipeline) find the buffers as the last task left them. Its
// owner calls Release when the jobs are done.
type Buffers struct{ free *freelist.List[mapBuffer] }

// NewBuffers returns Buffers that keep at most max buffers: the number
// of map tasks its jobs run at once.
func NewBuffers(max int) *Buffers { return &Buffers{freelist.New[mapBuffer](max)} }

// Release drops the buffers b keeps.
func (b *Buffers) Release() { b.free.Clear() }

func newMapBuffer(job *Job, split int64) *mapBuffer {
	b := job.Buffers.free.Get()
	b.job, b.limit, b.split = job, maxArena, split
	b.parts = slices.Grow(b.parts[:0], job.NumReducers)[:job.NumReducers]
	return b
}

// release returns the buffer to the job's Buffers. Nothing reachable
// from a task's result may alias it: the next task overwrites every arena.
func (b *mapBuffer) release() {
	if b.spills != nil {
		b.spills.close()
	}
	for i := range b.parts {
		b.parts[i].reset()
	}
	job := b.job
	*b = mapBuffer{parts: b.parts, run: b.run[:0]}
	job.Buffers.free.Put(b)
}

// Emit implements Emitter for the mapper: one partition choice and one
// append per pair. The buffer spills when it holds Job.SpillPairs records
// or when the partition's arena is full.
func (b *mapBuffer) Emit(key, value []byte) error {
	r := partition(key, b.job.GroupPrefix, len(b.parts))
	prefix := sortPrefix(key)
	if !b.parts[r].add(key, value, prefix, b.limit, b.read, b.split) {
		if err := b.spill(); err != nil {
			return err
		}
		if !b.parts[r].add(key, value, prefix, b.limit, b.read, b.split) {
			return ErrMapOutputTooLarge
		}
	}
	b.n++
	if b.job.SpillPairs > 0 && b.n >= b.job.SpillPairs {
		return b.spill()
	}
	return nil
}

// spill writes every partition's sorted run to local disk as one spill
// file and empties the buffer (Hadoop's io.sort.mb behaviour).
func (b *mapBuffer) spill() error {
	if b.spills == nil {
		var err error
		if b.spills, err = newMapSpills(len(b.parts)); err != nil {
			return err
		}
	}
	err := b.spills.add(func(r int) ([]byte, error) {
		p := &b.parts[r]
		p.sort()
		b.run = p.appendRun(b.run[:0])
		return b.run, nil
	})
	for i := range b.parts {
		b.parts[i].reset()
	}
	b.n = 0
	return err
}

// finish sorts and encodes the final per-reducer segments, recording
// their sizes in tm. Without spills a segment is the partition's records
// copied out in index order. With spills the in-memory remainder joins
// the spilled runs as one more encoded run in a streaming merge. Either
// way a segment is a fresh, exactly sized allocation.
func (b *mapBuffer) finish(tm *TaskMetrics) ([][]byte, error) {
	out := make([][]byte, len(b.parts))
	tm.PartitionBytes = make([]int64, len(b.parts))
	for r := range b.parts {
		run := &b.parts[r]
		run.sort()
		var (
			seg  []byte
			recs = len(run.idx)
			err  error
		)
		if b.spills == nil {
			seg = run.appendRun(make([]byte, 0, len(run.data)))
		} else if seg, recs, err = b.mergeSpills(r, run); err != nil {
			return nil, err
		}
		out[r] = seg
		tm.PartitionBytes[r] = int64(len(seg))
		tm.OutputRecords += int64(recs)
		tm.OutputBytes += int64(len(seg))
	}
	if b.spills != nil {
		tm.SpillCount = b.spills.spills
		tm.SpillBytes = b.spills.bytes
	}
	return out, nil
}

// mergeSpills merges partition r's spilled runs with the in-memory
// remainder into one segment, returning it with its record count.
func (b *mapBuffer) mergeSpills(r int, remainder *partBuf) ([]byte, int, error) {
	b.run = remainder.appendRun(b.run[:0])
	spilled, err := b.spills.load(r)
	if err != nil {
		return nil, 0, err
	}
	cursors := []*runCursor{cursorForEncoded(b.run)}
	total := len(b.run)
	for _, enc := range spilled {
		cursors = append(cursors, cursorForEncoded(enc))
		total += len(enc)
	}
	ms, err := newMergeStream(cursors)
	if err != nil {
		return nil, 0, err
	}
	// A merge only permutes records, so the segment is as long as its runs.
	seg := make([]byte, 0, total)
	recs := 0
	for {
		p, ok, err := ms.next()
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return seg, recs, nil
		}
		seg = appendPair(seg, p.Key, p.Value)
		recs++
	}
}
