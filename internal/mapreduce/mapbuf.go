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

// ErrMapOutputTooLarge is returned (wrapped) when a map task's output for
// one partition cannot be addressed by the buffer's 32-bit arena offsets:
// more than 4 GiB. Map output stays in memory until the reduce phase, so
// the task fails rather than spill.
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

// partBuf is one partition's buffered records: data holds them in Pairs
// encoding in emission order, idx holds one entry per record in the
// order they are read out (emission order until sort is called).
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

// segment returns the records in index order — after sort, the
// partition's Pairs encoding — in a fresh, exactly sized allocation.
func (p *partBuf) segment() []byte {
	seg := make([]byte, 0, len(p.data))
	for _, e := range p.idx {
		_, ke := p.key(e)
		_, end := p.value(ke)
		seg = append(seg, p.data[e.off:end]...)
	}
	return seg
}

// mapBuffer collects one map task's output. The arenas, indexes and
// scratch are recycled across map tasks through the job's Buffers;
// everything a task hands on (its segments) is copied out first.
type mapBuffer struct {
	job         *Job
	limit       uint64    // arena bound (maxArena; lowered by tests)
	parts       []partBuf // one per reducer
	read, split int64     // input bytes the task has read, of its split's
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
	for i := range b.parts {
		b.parts[i].reset()
	}
	job := b.job
	*b = mapBuffer{parts: b.parts}
	job.Buffers.free.Put(b)
}

// Emit implements Emitter for the mapper: one partition choice and one
// append per pair.
func (b *mapBuffer) Emit(key, value []byte) error {
	r := partition(key, b.job.GroupPrefix, len(b.parts))
	if !b.parts[r].add(key, value, sortPrefix(key), b.limit, b.read, b.split) {
		return ErrMapOutputTooLarge
	}
	return nil
}

// finish sorts and encodes the per-reducer segments, recording their
// sizes in tm.
func (b *mapBuffer) finish(tm *TaskMetrics) [][]byte {
	out := make([][]byte, len(b.parts))
	tm.PartitionBytes = make([]int64, len(b.parts))
	for r := range b.parts {
		p := &b.parts[r]
		p.sort()
		seg := p.segment()
		out[r] = seg
		tm.PartitionBytes[r] = int64(len(seg))
		tm.OutputRecords += int64(len(p.idx))
		tm.OutputBytes += int64(len(seg))
	}
	return out
}
