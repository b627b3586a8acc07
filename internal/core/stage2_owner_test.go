package core

import (
	"encoding/binary"
	"testing"

	"fuzzyjoin/internal/records"
)

// TestOwnerRuleHasOneOwner checks the token rule as a pure function,
// against the mapper's own arithmetic: of all the groups two records are
// both routed to on account of their shared prefix tokens, exactly one
// accepts the minimal shared token and emits the pair — that token's group.
// Grouped routing folds several tokens into one group, so the shared
// groups can be fewer than the shared tokens.
func TestOwnerRuleHasOneOwner(t *testing.T) {
	const numGroups = 4
	for _, grouped := range []bool{false, true} {
		tg := tokenGroups{grouped: grouped, numGroups: numGroups}
		// The records share these prefix tokens; w is the minimal one.
		for _, shared := range [][]uint32{{3, 7, 16}, {2, 18}, {15, 19}, {2}, {1, 5, 9}} {
			w := shared[0]
			groups := map[uint32]bool{}
			for _, tok := range shared {
				groups[tg.group(tok)] = true
			}
			owners := 0
			for g := range groups {
				o := owner{tokenGroups: tg}
				var out countingEmitter
				o.begin(binary.BigEndian.AppendUint32(nil, g), &out)
				if !o.ownsToken(w) {
					continue
				}
				o.emit(records.RIDPair{A: 1, B: 2, Sim: 1})
				owners += out.n
				if g != tg.group(w) {
					t.Fatalf("grouped=%v: token %d emitted from group %d", grouped, w, g)
				}
			}
			if owners != 1 {
				t.Fatalf("grouped=%v shared=%v: %d owners among the %d groups both records meet in, want 1",
					grouped, shared, owners, len(groups))
			}
		}
	}
}
