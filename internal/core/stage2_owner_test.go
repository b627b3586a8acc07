package core

import (
	"encoding/binary"
	"testing"

	"fuzzyjoin/internal/records"
)

// ridWithSalt returns a RID of salt class s.
func ridWithSalt(s, k int) uint64 {
	for rid := uint64(1); ; rid++ {
		if splitSalt(rid, k) == s {
			return rid
		}
	}
}

// TestOwnerRuleHasOneOwner checks the rule as a pure function, against the
// mapper's own arithmetic: for every fan-out, every salt pair and a cold
// and a hot minimal common prefix token, of all the (group, cell) reduce
// groups both records are routed to on account of their shared prefix
// tokens, exactly one accepts the token and emits the pair — the cell of
// the two salts (the diagonal one for equal salts) in the token's group.
func TestOwnerRuleHasOneOwner(t *testing.T) {
	const vocab, hotCount, numGroups = 20, 6, 4
	for _, k := range []int{2, 3, 4, 15} {
		for _, grouped := range []bool{false, true} {
			tg := tokenGroups{grouped: grouped, numGroups: numGroups, splitK: k, hotMin: vocab - hotCount}
			// The records share these prefix tokens; w is the minimal one.
			for _, shared := range [][]uint32{{3, 7, 16}, {2, 18}, {15, 19}, {2}, {18}} {
				w := shared[0]
				for s1 := 0; s1 < k; s1++ {
					for s2 := 0; s2 < k; s2++ {
						a, b := ridWithSalt(s1, k), ridWithSalt(s2, k)
						// cellsOf is the mapper's replication of a record with salt s
						// (stage2Mapper.Map): cell 0 of a cold token's group, the k
						// triangle cells of a hot one's.
						cellsOf := func(s int) map[[2]uint32]bool {
							out := map[[2]uint32]bool{}
							for _, tok := range shared {
								if !tg.hot(tok) {
									out[[2]uint32{tg.group(tok), 0}] = true
									continue
								}
								for j := 0; j < k; j++ {
									out[[2]uint32{tg.group(tok), uint32(splitCell(s, j, k))}] = true
								}
							}
							return out
						}
						ca, cb := cellsOf(s1), cellsOf(s2)
						owners := 0
						for gc := range ca {
							if !cb[gc] {
								continue
							}
							o := owner{tokenGroups: tg}
							key := append(binary.BigEndian.AppendUint32(nil, gc[0]), byte(gc[1]))
							var out countingEmitter
							o.begin(key, &out)
							if !o.ownsToken(w) {
								continue
							}
							o.emit(records.RIDPair{A: a, B: b, Sim: 1})
							owners += out.n
							if out.n == 1 && (gc[0] != tg.group(w) || (gc[1] != 0) != tg.hot(w)) {
								t.Fatalf("k=%d grouped=%v: token %d emitted from group %d cell %d", k, grouped, w, gc[0], gc[1])
							}
						}
						if owners != 1 {
							t.Fatalf("k=%d grouped=%v shared=%v salts (%d,%d): %d owners among the %d cells both records meet in, want 1",
								k, grouped, shared, s1, s2, owners, len(ca))
						}
					}
				}
			}
		}
	}
}
