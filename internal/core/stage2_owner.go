package core

import (
	"encoding/binary"
	"math"

	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// Emit-once ownership (DESIGN §4.4). Prefix routing replicates a τ-pair
// to every reduce group one of its shared prefix tokens routes to, and
// hot-token splitting to every cell the two records' salt classes share.
// Stage 2 output is nevertheless a set: of all the (group, cell) reduce
// groups a pair meets in, exactly one owns and emits it — the group of the
// pair's minimal common prefix token w (every kernel finds w anyway: the
// first prefix match), and within it cell 0 when w is cold, the cell
// splitCell(salt(A), salt(B)) when w is hot (the diagonal cell for equal
// salts). The mapper sent both records there on account of w.

// tokenGroups is the rank → (routing group, hot?) arithmetic of one
// Stage 2 job. The mapper routes by it and the reducers' owner rule reads
// it back, so the two sides cannot drift apart.
type tokenGroups struct {
	// order is the global token order (mappers only).
	order     *tokenize.Order
	numGroups int
	grouped   bool
	// splitK is cfg.SplitK when splitting and 0 otherwise; hotMin is the
	// lowest token rank treated as hot (ranks are frequency-ascending, so
	// the hottest tokens occupy the top SplitHotCount ranks), above every
	// rank when not splitting.
	splitK, hotMin int
}

// loadTokenGroups derives a task's tokenGroups from the Stage 1 side
// file. A mapper keeps the token order; a reducer (keepOrder false) needs
// the vocabulary size alone, and only when grouped routing has no explicit
// group count or splitting is on.
func loadTokenGroups(ctx *mapreduce.Context, cfg *Config, tokenFile string, keepOrder bool) (tokenGroups, error) {
	t := tokenGroups{grouped: cfg.Routing == GroupedTokens, hotMin: math.MaxInt}
	vocab := 0
	if keepOrder || cfg.SplitK >= 2 || (t.grouped && cfg.NumGroups < 1) {
		data, err := ctx.SideFile(tokenFile)
		if err != nil {
			return tokenGroups{}, err
		}
		// The token list is assumed to fit in task memory (§3.2); the
		// budget check keeps the assumption honest.
		if err := ctx.Memory.Alloc(int64(len(data))); err != nil {
			return tokenGroups{}, err
		}
		order := loadTokenOrder(data)
		vocab = order.Len()
		if keepOrder {
			t.order = order
		} else {
			ctx.Memory.Free(int64(len(data))) // only the count is kept; the order is the job's
		}
	}
	// With no explicit group count, grouped routing uses one group per
	// distinct token.
	t.numGroups = max(vocab, 1)
	if t.grouped && cfg.NumGroups > 0 {
		t.numGroups = cfg.NumGroups
	}
	if cfg.SplitK >= 2 {
		t.splitK, t.hotMin = cfg.SplitK, vocab-cfg.SplitHotCount
	}
	return t, nil
}

// group maps a token rank to its routing group: the rank itself for
// individual-token routing, or round-robin over NumGroups for grouped
// routing (round-robin by frequency rank balances the sum of token
// frequencies across groups, §3.2).
func (t *tokenGroups) group(rank uint32) uint32 {
	if t.grouped {
		return rank % uint32(t.numGroups)
	}
	return rank
}

// hot reports whether a token rank is in the split-hot frequency head.
func (t *tokenGroups) hot(rank uint32) bool {
	return int(rank) >= t.hotMin
}

// owner is a Stage 2 reduce task's half of the rule and the one way its
// pairs leave: which pairs of the current reduce group are this group's to
// emit, and the emission itself. Every Stage 2 reducer embeds one; Setup
// loads it once per task and begin points it at each group.
type owner struct {
	cfg       *Config
	tokenFile string
	// self marks a self-join: its pairs leave normalized to A < B.
	self bool
	tokenGroups
	// curGroup and curCell identify the current reduce group, out is where
	// its pairs go and err the first error writing one.
	curGroup uint32
	curCell  uint8
	out      mapreduce.Emitter
	err      error
	// token and pair are ownsToken and emit bound once per task: the
	// kernels' owner hook and result callback.
	token func(w uint32) bool
	pair  func(records.RIDPair)
	// foreign counts the pairs the current group verified and the cell
	// rule left to another cell.
	foreign int64
	// key and val are reused for every pair: a reduce emitter copies what
	// it is handed before it returns (fileWriter.write).
	key, val []byte
}

func (o *owner) Setup(ctx *mapreduce.Context) (err error) {
	o.token, o.pair = o.ownsToken, o.emit
	o.tokenGroups, err = loadTokenGroups(ctx, o.cfg, o.tokenFile, false)
	return err
}

// begin reads the reduce group's identity off its key: [group u32], then
// [cell u8] when splitting (only the plain layout splits).
func (o *owner) begin(key []byte, out mapreduce.Emitter) {
	o.curGroup, o.curCell, o.out, o.err, o.foreign = binary.BigEndian.Uint32(key), 0, out, nil, 0
	if o.splitK >= 2 {
		o.curCell = key[4]
	}
}

// ownsToken is the token half: w routes to this group, and through this
// cell's class — cold tokens own through cell 0, hot ones through the
// salted cells.
func (o *owner) ownsToken(w uint32) bool {
	return o.group(w) == o.curGroup && o.hot(w) == (o.curCell != 0)
}

// emit writes a verified pair whose minimal common prefix token this group
// owns in the Stage 2 output format — key = [A u64][B u64], value = the
// RIDPair binary encoding — unless the salt half of the rule gives it to
// another cell of the token.
func (o *owner) emit(p records.RIDPair) {
	if o.err != nil {
		return
	}
	if o.curCell != 0 && o.curCell != splitCell(splitSalt(p.A, o.splitK), splitSalt(p.B, o.splitK), o.splitK) {
		o.foreign++
		return
	}
	// A kernel that probes a self-join's later item against earlier ones
	// reports (earlier, later).
	if o.self && p.A > p.B {
		p.A, p.B = p.B, p.A
	}
	o.key = appendPairGroupKey(o.key[:0], p)
	o.val = p.AppendBinary(o.val[:0])
	o.err = o.out.Emit(o.key, o.val)
}
