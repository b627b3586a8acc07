package core

import (
	"fmt"

	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
)

// Stage-2 key layouts. Every variant of Stage 2 is a mapping schema: it
// differs from the others only in which reducer keys a projection is
// replicated to. A key is the routing prefix the mapper builds, [group
// u32], followed by the suffix the layout's route appends. All integers
// are big-endian; jobs partition and group on the first `group on` bytes
// and sort on the full key.
//
//	layout              suffix after [group]              group on  reducer
//	plain, self BK/FVT  —                                 4         round / FVT
//	plain, self PK      [length u32]                      4         PK
//	plain, R-S BK/FVT   [rel u8]                          4         round / FVT
//	plain, R-S PK       [length u32][rel u8]              4         PK
//	map-blocks, self    [round u32][role u8][block u32]   4         round
//	map-blocks, R-S     [round u32][role u8]              4         round
//	reduce-blocks, self [block u32]                       4         spill
//	reduce-blocks, R-S  [side u8][block u32]              4         spill
//	length-routed, self [bucket u32][role u8]             8         round
//	length-routed, R-S  [bucket u32][rel u8]              8         round
//
// rel and side: 0 = R, 1 = S. role: 0 = load (buffered), 1 = stream
// (probed against the buffer) — the same two values, so an R-S layout's
// rel byte is its role byte: R is the side that must fit in memory (§5).
// PK's length suffix streams a group in one non-decreasing length order,
// R before S among equal lengths in an R-S join, which PPJoin's index
// prefix and the index-eviction optimization rest on (§4, Figure 6).

const (
	roleLoad   = 0
	roleStream = 1
	// maxKeyLen bounds every layout's key (map-blocks self: 13 bytes);
	// the mapper's reused key buffer is allocated once at this capacity.
	maxKeyLen = 16
)

// routed is what a route knows about the projection it replicates.
type routed struct {
	rid    uint64
	length int
	rel    byte
}

// replicaSink receives one record's replicas: every key a route
// completes is emitted with the record's encoded projection and counted
// in *n, which Map adds to stage2.replicas once the record is routed.
type replicaSink struct {
	out mapreduce.Emitter
	val []byte
	n   *int64
}

func (s replicaSink) emit(key []byte) error {
	if err := s.out.Emit(key, s.val); err != nil {
		return err
	}
	*s.n++
	return nil
}

// keyLayout is one row of the table: the route the mapper extends a
// routing prefix with, and the geometry the engine and the reducers read
// the resulting keys back by — kept in one value so the two sides cannot
// drift apart.
type keyLayout struct {
	// name labels the layout in malformed-key errors.
	name string
	// groupWidth is the key prefix the job partitions and groups on.
	groupWidth int
	// keyLen is the full key length; reducers reject any other.
	keyLen int
	// roundAt and roleAt are the offsets of the [round u32] and
	// [role u8] fields, or -1: without a round field the group is one
	// round, without a role field every item is a load.
	roundAt, roleAt int
	// route appends each replica's suffix to key (the routing prefix, in
	// the mapper's reused buffer) and emits it.
	route func(m *stage2Mapper, p routed, key []byte, sink replicaSink) error
}

// layoutFor picks the table row a Config runs with.
func layoutFor(cfg *Config, rs bool) keyLayout {
	switch {
	case cfg.BlockMode == MapBlocks && !rs:
		return keyLayout{"map-blocked", 4, 13, 4, 8, (*stage2Mapper).routeMapBlocksSelf}
	case cfg.BlockMode == MapBlocks:
		return keyLayout{"map-blocked R-S", 4, 9, 4, 8, (*stage2Mapper).routeMapBlocksRS}
	case cfg.BlockMode == ReduceBlocks && !rs:
		return keyLayout{"reduce-blocked", 4, 8, -1, -1, (*stage2Mapper).routeReduceBlocksSelf}
	case cfg.BlockMode == ReduceBlocks:
		return keyLayout{"reduce-blocked R-S", 4, 9, -1, -1, (*stage2Mapper).routeReduceBlocksRS}
	case cfg.LengthRouting && !rs:
		return keyLayout{"length-routed", 8, 9, 4, 8, (*stage2Mapper).routeLengthSelf}
	case cfg.LengthRouting:
		return keyLayout{"length-routed R-S", 8, 9, 4, 8, (*stage2Mapper).routeLengthRS}
	}
	l := keyLayout{name: cfg.Kernel.String(), groupWidth: 4, keyLen: 4, roundAt: -1, roleAt: -1,
		route: (*stage2Mapper).routePlain}
	if cfg.Kernel == PK {
		l.keyLen += 4
	}
	if rs {
		l.name += " R-S"
		l.roleAt = l.keyLen
		l.keyLen++
	}
	return l
}

// classify validates a key against the layout and reads its round and
// role (round 0 and roleLoad where the layout has no such field).
func (l keyLayout) classify(key []byte) (round uint32, role byte, err error) {
	if len(key) != l.keyLen {
		return 0, 0, fmt.Errorf("core: malformed %s key of %d bytes", l.name, len(key))
	}
	if l.roundAt >= 0 {
		round, _ = keys.MustUint32(key[l.roundAt:])
	}
	if l.roleAt >= 0 {
		role = key[l.roleAt]
	}
	return round, role, nil
}

// blockOf assigns a record to a §5 block. RIDs are well-spread
// (sequential across the dataset), so modular assignment balances block
// sizes.
func blockOf(rid uint64, numBlocks int) uint32 {
	return uint32(rid % uint64(numBlocks))
}

// lengthBucketWidth is the width, in tokens, of a length-routing bucket.
const lengthBucketWidth = 2

// lengthBucket coarsens a projection length into its routing bucket.
func lengthBucket(l int) uint32 { return uint32(l / lengthBucketWidth) }

func (m *stage2Mapper) routePlain(p routed, key []byte, sink replicaSink) error {
	if m.cfg.Kernel == PK {
		key = keys.AppendUint32(key, uint32(p.length))
	}
	if m.rs {
		key = append(key, p.rel)
	}
	return sink.emit(key)
}

// Map-based block processing (§5, Figure 7(a)): mappers replicate and
// interleave block copies so the reducer consumes, for each round r,
// block r once as a resident load copy followed by blocks r+1.. as
// streamed copies. Block b is loaded in round b and streamed in every
// earlier round: b+1 copies.
func (m *stage2Mapper) routeMapBlocksSelf(p routed, key []byte, sink replicaSink) error {
	b := blockOf(p.rid, m.cfg.NumBlocks)
	for r := uint32(0); r <= b; r++ {
		role := byte(roleStream)
		if r == b {
			role = roleLoad
		}
		k := append(keys.AppendUint32(key, r), role)
		if err := sink.emit(keys.AppendUint32(k, b)); err != nil {
			return err
		}
	}
	return nil
}

// For R-S joins only the R partition is sub-partitioned (§5, "Handling
// R-S Joins"): an R projection loads in its own block's round; an S
// projection streams in every round, after that round's R block.
func (m *stage2Mapper) routeMapBlocksRS(p routed, key []byte, sink replicaSink) error {
	if p.rel == relR {
		return sink.emit(append(keys.AppendUint32(key, blockOf(p.rid, m.cfg.NumBlocks)), roleLoad))
	}
	for r := uint32(0); r < uint32(m.cfg.NumBlocks); r++ {
		if err := sink.emit(append(keys.AppendUint32(key, r), roleStream)); err != nil {
			return err
		}
	}
	return nil
}

// Reduce-based block processing (§5, Figure 7(b)): each projection is
// sent once, keyed by block, and the reducer spills non-resident blocks
// to local disk (spillReducer).
func (m *stage2Mapper) routeReduceBlocksSelf(p routed, key []byte, sink replicaSink) error {
	return sink.emit(keys.AppendUint32(key, blockOf(p.rid, m.cfg.NumBlocks)))
}

// The side byte sorts all R blocks before the (unblocked) S partition.
func (m *stage2Mapper) routeReduceBlocksRS(p routed, key []byte, sink replicaSink) error {
	block := uint32(0)
	if p.rel == relR {
		block = blockOf(p.rid, m.cfg.NumBlocks)
	}
	return sink.emit(keys.AppendUint32(append(key, p.rel), block))
}

// Length routing (§5): "we can exploit the length filter even in the BK
// algorithm, by using the length filter as a secondary record-routing
// criterion ... The additional routing criterion partitions the data
// even further, decreasing the amount of data that needs to fit in
// memory." Lengths are coarsened into buckets. A projection of length l
// is routed to its home bucket once as a load and, as a streamed visitor,
// to every lower bucket down to that of lengthLowerBound(l) — the buckets
// that may hold shorter join partners. A reduce group is one (token,
// bucket): it buffers only the home projections (the memory win), and
// every admissible pair meets exactly once, in the lower of its two home
// buckets.
func (m *stage2Mapper) routeLengthSelf(p routed, key []byte, sink replicaSink) error {
	home := lengthBucket(p.length)
	lo, _ := m.cfg.Fn.LengthBounds(p.length, m.cfg.Threshold)
	for b := lengthBucket(lo); b <= home; b++ {
		role := byte(roleStream)
		if b == home {
			role = roleLoad
		}
		if err := sink.emit(append(keys.AppendUint32(key, b), role)); err != nil {
			return err
		}
	}
	return nil
}

// R-S length routing: every R projection sits in its single home bucket
// (R is the buffered side); every S projection visits each bucket its
// length-filter window [lo(l), hi(l)] covers, so each admissible (R, S)
// pair meets exactly once, in R's home bucket.
func (m *stage2Mapper) routeLengthRS(p routed, key []byte, sink replicaSink) error {
	loB := lengthBucket(p.length)
	hiB := loB
	if p.rel == relS {
		lo, hi := m.cfg.Fn.LengthBounds(p.length, m.cfg.Threshold)
		loB, hiB = lengthBucket(lo), lengthBucket(hi)
	}
	for b := loB; b <= hiB; b++ {
		if err := sink.emit(append(keys.AppendUint32(key, b), p.rel)); err != nil {
			return err
		}
	}
	return nil
}
