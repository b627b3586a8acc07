package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
)

// rounds is the BK kernel's reduce loop (§3.2.1, §4, §5). A reduce group
// is a sequence of rounds. Within a round, load items are buffered under
// the task's memory budget — only they must fit, which is what block
// processing and length routing shrink — and each stream item is probed
// against the buffer as it arrives; a self-join additionally cross-pairs
// the buffer once, before the round's first stream item. The plain
// kernels are the one-round case: a self-join loads everything, an R-S
// join loads R and streams S.
type rounds struct {
	own *owner

	// The task owns the storage, each group resets it (begin): bk buffers
	// the current round's items and ranks is the arena their ranks are
	// decoded into — a round's items live and die together.
	bk    *ppjoin.Block
	ranks rankArena

	ctx        *mapreduce.Context
	held       int64
	selfJoined bool
}

// newRounds returns a task's loop state; begin starts each reduce group.
func newRounds(own *owner) rounds {
	return rounds{own: own, bk: ppjoin.NewBlock(kernelOptions(own.cfg))}
}

// begin resets the loop for the reduce group of key, keeping the buffer
// and the rank arena of the previous group up to their retention caps.
func (r *rounds) begin(ctx *mapreduce.Context, key []byte, out mapreduce.Emitter) {
	r.ctx = ctx
	r.own.begin(key, out)
	r.bk.Reset(r.own.token)
	r.ranks.reset()
	r.held, r.selfJoined = 0, false
}

// maxRetainedItems and maxRankArena bound what a reduce task's kernel
// state keeps from one group to the next (ppjoin.Block, ppjoin.Index and
// fvt.Tree cap their own storage the same way): a buffer or arena one hot
// group grew past them is dropped at the next group's reset, so a task
// retains at most about 1.3 MB of them.
const (
	maxRetainedItems = 1 << 12 // buffered ppjoin.Items (72 bytes each)
	maxRankArena     = 1 << 18 // uint32 ranks (1 MiB)
)

// reuseItems empties a per-task item buffer for the next group, dropping
// its references to the last group's ranks and letting go of a buffer
// that outgrew maxRetainedItems.
func reuseItems(items []ppjoin.Item) []ppjoin.Item {
	if cap(items) > maxRetainedItems {
		return nil
	}
	clear(items)
	return items[:0]
}

// rankArena is the rank storage of projections whose lifetime is a whole
// round or group (BK's buffer, the FVT tree's items): they are decoded
// back to back into one slice instead of one heap slice each. PK decodes
// each projection into an arena emptied per value: its index copies what
// it keeps into rank chunks of its own, which eviction releases chunk by
// chunk as the stream advances (§4).
type rankArena struct {
	buf []uint32
}

func (a *rankArena) reset() {
	if cap(a.buf) > maxRankArena {
		a.buf = nil
	}
	a.buf = a.buf[:0]
}

// decode decodes one projection into the arena.
func (a *rankArena) decode(v []byte) (p records.Projection, err error) {
	p, a.buf, _, err = records.DecodeProjectionInto(a.buf, v)
	return p, err
}

func (r *rounds) flushSelf() {
	if r.own.self && !r.selfJoined {
		r.bk.Self(r.own.pair)
		r.selfJoined = true
	}
}

// next closes the current round and starts an empty one.
func (r *rounds) next() {
	r.flushSelf()
	r.release()
	r.bk.Clear() // nothing may keep pointing into the arena
	r.ranks.buf = r.ranks.buf[:0]
	r.selfJoined = false
}

// load buffers one encoded projection in the current round.
func (r *rounds) load(v []byte) error {
	p, err := r.ranks.decode(v)
	if err != nil {
		return err
	}
	b := projectionBytes(p)
	if err := r.ctx.Memory.Alloc(b); err != nil {
		return err
	}
	r.held += b
	r.bk.Add(ppjoin.Item{RID: p.RID, Ranks: p.Ranks})
	return nil
}

// stream probes one encoded projection against the buffer; its ranks
// leave the arena with it. charge holds the projection against the memory
// budget while it is in flight — a spill replay's stream projection is
// the one thing in memory besides the resident block.
func (r *rounds) stream(v []byte, charge bool) error {
	mark := len(r.ranks.buf)
	p, err := r.ranks.decode(v)
	if err != nil {
		return err
	}
	if charge {
		b := projectionBytes(p)
		if err := r.ctx.Memory.Alloc(b); err != nil {
			return err
		}
		defer r.ctx.Memory.Free(b)
	}
	r.flushSelf()
	r.bk.Probe(ppjoin.Item{RID: p.RID, Ranks: p.Ranks}, r.own.pair)
	r.ranks.buf = r.ranks.buf[:mark]
	return r.own.err
}

// finish closes the last round and adds the group's kernel counters to
// the task's.
func (r *rounds) finish() error {
	r.flushSelf()
	r.own.count(r.bk.Stats())
	return r.own.err
}

// release returns the buffered items' charge to the memory budget.
func (r *rounds) release() {
	r.ctx.Memory.Free(r.held)
	r.held = 0
}

// roundReducer runs the BK kernel over every layout whose keys say which
// round and role each projection plays: plain, map-blocks (Figure 7(a):
// mappers interleaved the block copies into rounds) and length-routed.
type roundReducer struct {
	owner
	layout keyLayout
	rd     rounds
}

// NewTaskInstance gives each reduce task its own loop state.
func (r *roundReducer) NewTaskInstance() any {
	t := &roundReducer{owner: r.owner, layout: r.layout}
	t.rd = newRounds(&t.owner)
	return t
}

func (r *roundReducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	rd := &r.rd
	rd.begin(ctx, key, out)
	defer rd.release()
	if r.layout.roleAt < 0 {
		// Every item of the group is a load: the buffer's size is known.
		rd.bk.Grow(values.Len())
	}
	cur := int64(-1)
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		round, role, err := r.layout.classify(values.Key())
		if err != nil {
			return err
		}
		if int64(round) != cur {
			rd.next()
			cur = int64(round)
		}
		if role == roleLoad {
			err = rd.load(v)
		} else {
			err = rd.stream(v, false)
		}
		if err != nil {
			return err
		}
	}
	return rd.finish()
}

// spillReducer implements reduce-based block processing (§5,
// Figure 7(b)) on top of the same rounds: mappers sent each projection
// once, so the reducer makes the rounds itself. The first block stays
// resident; everything else is probed against it where it must be and
// spilled to local disk; then each spilled block becomes resident in turn
// and the blocks it still has to meet are replayed against it, one
// projection at a time. In a self-join block b meets the blocks after it;
// in an R-S join only R is blocked and every R block meets the whole S
// partition.
type spillReducer struct {
	owner
	layout keyLayout
	rd     rounds
	sp     spill
}

// NewTaskInstance gives each reduce task its own loop state and spill
// bookkeeping.
func (r *spillReducer) NewTaskInstance() any {
	t := &spillReducer{owner: r.owner, layout: r.layout}
	t.rd = newRounds(&t.owner)
	return t
}

// sBlock is the spill id of an R-S group's S partition: R blocks keep
// their own ids, all below it.
const sBlock = ^uint32(0)

func (r *spillReducer) Reduce(ctx *mapreduce.Context, group []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	sp := &r.sp
	if err := sp.open(); err != nil {
		return err
	}
	defer sp.close()
	rd := &r.rd
	rd.begin(ctx, group, out)
	defer rd.release()

	first := int64(-1)
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		key := values.Key()
		if _, _, err := r.layout.classify(key); err != nil {
			return err
		}
		var block uint32
		switch {
		case r.self:
			block, _ = keys.MustUint32(key[4:])
		case key[4] == relR:
			block, _ = keys.MustUint32(key[5:])
		default:
			block = sBlock
		}
		if block != sBlock {
			if first < 0 {
				first = int64(block)
			}
			if int64(block) == first {
				if err := rd.load(v); err != nil {
					return err
				}
				continue
			}
		}
		// Not resident: whatever must meet the resident block probes it
		// now (a later R block need not — R never joins R), and
		// everything waits on disk for the replay rounds.
		if r.self || block == sBlock {
			if err := rd.stream(v, false); err != nil {
				return err
			}
		}
		if err := sp.add(block, v); err != nil {
			return err
		}
	}

	// A replayed load projection is charged by rd.load itself; a replayed
	// stream projection while it is in flight.
	stream := func(v []byte) error { return rd.stream(v, true) }
	blocks := sp.blocks()
	for i, b := range blocks {
		if b == sBlock {
			continue
		}
		rd.next()
		if err := sp.replay(b, rd.load); err != nil {
			return err
		}
		rest := blocks[i+1:]
		if !r.self {
			rest = []uint32{sBlock}
		}
		for _, b2 := range rest {
			if err := sp.replay(b2, stream); err != nil {
				return err
			}
		}
	}
	ctx.Count("stage2.spill_bytes", sp.writes)
	return rd.finish()
}

// spill is a local-disk block store for reduce-based processing: one
// append-only file of length-prefixed encoded projections per block.
type spill struct {
	dir    string
	files  map[uint32]*spillFile
	writes int64
	// hdr is the reused length-prefix scratch of add.
	hdr [binary.MaxVarintLen64]byte
}

type spillFile struct {
	f *os.File
	w *bufio.Writer
}

// open starts one reduce group's spill in a fresh temporary directory;
// close removes it. The block table is the task's, emptied by close.
func (s *spill) open() error {
	dir, err := os.MkdirTemp("", "fuzzyjoin-spill-")
	if err != nil {
		return err
	}
	if s.files == nil {
		s.files = make(map[uint32]*spillFile)
	}
	s.dir, s.writes = dir, 0
	return nil
}

func (s *spill) add(block uint32, encoded []byte) error {
	sf, ok := s.files[block]
	if !ok {
		f, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("block-%d", block)))
		if err != nil {
			return err
		}
		sf = &spillFile{f: f, w: bufio.NewWriter(f)}
		s.files[block] = sf
	}
	n := binary.PutUvarint(s.hdr[:], uint64(len(encoded)))
	if _, err := sf.w.Write(s.hdr[:n]); err != nil {
		return err
	}
	_, err := sf.w.Write(encoded)
	s.writes += int64(n + len(encoded))
	return err
}

// replay streams one spilled block's encoded projections back through fn
// in spill order. It holds one projection at a time, so replaying a
// partition of any size costs a single projection beyond what fn keeps:
// §5's promise that only the resident block must fit. Decoding and
// charging are fn's business; the bytes are valid until fn returns. A
// block that was never spilled replays as empty.
func (s *spill) replay(block uint32, fn func(encoded []byte) error) error {
	sf, ok := s.files[block]
	if !ok {
		return nil
	}
	if err := sf.w.Flush(); err != nil {
		return err
	}
	f, err := os.Open(sf.f.Name())
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	corrupt := fmt.Errorf("core: corrupt spill block %d", block)
	br := bufio.NewReader(f)
	var buf []byte
	for {
		sz, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return nil
		}
		// A length beyond the file is corrupt (and would otherwise size
		// the read buffer).
		if err != nil || sz > uint64(info.Size()) {
			return corrupt
		}
		if uint64(cap(buf)) < sz {
			buf = make([]byte, sz)
		}
		if _, err := io.ReadFull(br, buf[:sz]); err != nil {
			return corrupt
		}
		if err := fn(buf[:sz]); err != nil {
			return err
		}
	}
}

// blocks lists the spilled block ids in ascending order.
func (s *spill) blocks() []uint32 {
	out := make([]uint32, 0, len(s.files))
	for b := range s.files {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *spill) close() {
	for _, sf := range s.files {
		sf.f.Close()
	}
	clear(s.files)
	os.RemoveAll(s.dir)
}

// pkReducer streams a group's projections through a PPJoin+ join
// stream (§3.2.2), one index per relation: a self-join has one, an R-S
// join two. The [length u32][rel u8] key suffix delivers the group in one
// non-decreasing length order, and each projection probes the other
// relation's index (its own in a self-join), then joins its own
// relation's index under its index prefix. The indexes evict by length as
// the stream advances (§4, Figure 6), and the owner rule decides the
// tokens they post and probe under: one token under individual routing,
// the tokens of the group under grouped routing (DESIGN §4.4).
type pkReducer struct {
	owner
	layout keyLayout
	// pk is the task's join stream, reset for every reduce group; ranks
	// is the scratch each projection is decoded into before the index
	// copies it.
	pk    *ppjoin.Stream
	ranks rankArena
}

// NewTaskInstance gives each reduce task its own join stream.
func (r *pkReducer) NewTaskInstance() any {
	relations := 2
	if r.self {
		relations = 1
	}
	return &pkReducer{owner: r.owner, layout: r.layout, pk: ppjoin.NewStream(kernelOptions(r.cfg), relations)}
}

func (r *pkReducer) Reduce(ctx *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
	r.begin(key, out)
	r.pk.Reset(r.token)
	var held int64
	defer func() { ctx.Memory.Free(held) }()
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		_, rel, err := r.layout.classify(values.Key())
		if err != nil {
			return err
		}
		r.ranks.reset()
		p, err := r.ranks.decode(v)
		if err != nil {
			return err
		}
		r.pk.Next(int(rel), ppjoin.Item{RID: p.RID, Ranks: p.Ranks}, r.pair)
		if r.err != nil {
			return r.err
		}
		// Track the indexes' live footprint: charge growth, credit
		// eviction.
		if delta := r.pk.Bytes() - held; delta > 0 {
			if err := ctx.Memory.Alloc(delta); err != nil {
				return err
			}
			held = r.pk.Bytes()
		} else if delta < 0 {
			ctx.Memory.Free(-delta)
			held = r.pk.Bytes()
		}
	}
	r.count(r.pk.Stats())
	return nil
}
