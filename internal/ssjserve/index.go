// Package ssjserve is the online similarity-join service: the paper's
// batch pipeline split into an offline index-build phase and a cheap
// online lookup phase (the V-SMART-Join decomposition), served from one
// long-lived process.
//
// The heart is Index, the internal/ppjoin streaming index generalized to
// be persistent and concurrent: instead of consuming one length-sorted
// stream and evicting behind it, it keeps every record, shards its
// length-segmented inverted prefix index across the token space (one
// RWMutex per shard, shared-nothing between shards), and answers
// Match(probe) with the prefix filter + length filter + exact
// verification — the same admissible stack as Stage 2, so answers equal
// the brute-force oracle's exactly (internal/conformance gates this).
//
// Ingestion is incremental: Add extends the token order in place (new
// tokens are appended past the current tail, which keeps every indexed
// record's ranks valid — any total order is correct for prefix
// filtering, frequency order is only the performance-optimal one) and
// tracks drift; past Options.DriftThreshold the index rebuilds the
// Stage-1 BTO order (frequency ascending, token ascending) from its own
// corpus and swaps the rebuilt state in atomically. Queries load the
// state pointer once and never block on ingestion or re-ordering.
package ssjserve

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
	"fuzzyjoin/internal/tokenize"
)

// Options configures the service and its index.
type Options struct {
	// Tokenizer converts join-attribute strings into token sets
	// (default word tokenization, the paper's choice).
	Tokenizer tokenize.Tokenizer
	// JoinFields are the record fields concatenated into the join
	// attribute (default title + authors).
	JoinFields []int
	// Fn is the similarity function; Threshold its τ (default Jaccard
	// at 0.80, the paper's evaluation setting).
	Fn        simfn.Func
	Threshold float64
	// Shards is the number of index shards; the token space is
	// partitioned across them round-robin by rank (interleaved token
	// ranges), one RWMutex each. Default 8.
	Shards int
	// DriftThreshold triggers the lazy re-order: when the records added
	// since the last (re)build exceed this fraction of the corpus at
	// that build, the Stage-1 frequency order is recomputed. Default
	// 0.25. Correctness never depends on it — only probe cost does.
	DriftThreshold float64
	// CacheSize is the verification LRU capacity in cached pair
	// verdicts (default 4096; negative disables the cache).
	CacheSize int
	// Workers is the query worker-pool size (default GOMAXPROCS);
	// QueueDepth the admission queue bound (default 4×Workers).
	Workers    int
	QueueDepth int
}

func (o *Options) fillDefaults() error {
	if o.Threshold == 0 {
		o.Threshold = 0.8
	}
	if o.Threshold <= 0 || o.Threshold > 1 {
		return fmt.Errorf("ssjserve: threshold %v out of (0, 1]", o.Threshold)
	}
	if o.Tokenizer == nil {
		o.Tokenizer = tokenize.Word{}
	}
	if len(o.JoinFields) == 0 {
		o.JoinFields = []int{records.FieldTitle, records.FieldAuthors}
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = 0.25
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	return nil
}

// lenBucketWidth is the length-segment granularity of posting keys: a
// posting list holds only entries whose set length falls in one bucket,
// so a probe touches just the buckets its length filter admits.
const lenBucketWidth = 8

func lenBucket(l int) uint64 {
	b := uint64(l) / lenBucketWidth
	if b > 0xffff {
		b = 0xffff
	}
	return b
}

// pkey packs (token rank, length bucket) into one posting key.
func pkey(tok uint32, bucket uint64) uint64 {
	return uint64(tok)<<16 | bucket
}

// pentry is one posting entry: which record, and its exact set length
// (checked against the probe's length bounds without loading the record).
type pentry struct {
	id     int32
	length int32
}

// shard is one shared-nothing slice of the inverted prefix index.
type shard struct {
	mu   sync.RWMutex
	post map[uint64][]pentry
}

// irec is one indexed record with its ranks under the current order,
// sorted ascending (rarest first).
type irec struct {
	rec   records.Record
	ranks []uint32
}

// recstore is the append-only record log one index generation reads.
type recstore struct {
	mu   sync.RWMutex
	recs []irec
}

func (rs *recstore) len() int {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return len(rs.recs)
}

func (rs *recstore) get(id int32) irec {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.recs[id]
}

// liveOrder is the token order of one index generation. Between
// re-orders it only ever grows at the tail (new tokens get the next
// ranks), so ranks held by indexed records stay valid; freq counts feed
// the next re-order.
type liveOrder struct {
	mu   sync.RWMutex
	rank map[string]uint32
	toks []string
	freq []int64
}

// ranks maps toks to sorted ranks, dropping unknown tokens — the §4
// discipline for probe attributes whose tokens the dictionary has never
// seen (they cannot produce candidates; the oracle mirrors the drop).
func (lo *liveOrder) ranks(toks []string) []uint32 {
	out := make([]uint32, 0, len(toks))
	lo.mu.RLock()
	for _, t := range toks {
		if r, ok := lo.rank[t]; ok {
			out = append(out, r)
		}
	}
	lo.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (lo *liveOrder) len() int {
	lo.mu.RLock()
	defer lo.mu.RUnlock()
	return len(lo.toks)
}

// istate is one immutable-identity generation of the index: queries load
// the state pointer once and see a consistent (order, records, shards)
// triple even if a re-order swaps the next generation in mid-probe.
type istate struct {
	gen         uint64
	ord         *liveOrder
	recs        *recstore
	shards      []*shard
	baseRecords int          // corpus size at this generation's build
	added       atomic.Int64 // records added since, for drift tracking
}

// Index is the persistent concurrent prefix index. All methods are safe
// for concurrent use: Match never blocks on Add or re-order beyond brief
// per-shard read locks.
type Index struct {
	opts Options
	th   simfn.Threshold // opts.Fn at opts.Threshold, rationalized once
	// ingest serializes Add and re-order; queries never take it.
	ingest   sync.Mutex
	state    atomic.Pointer[istate]
	cache    *verifyCache
	reorders atomic.Int64
}

// NewIndex builds an index over corpus (batch path: one Stage-1 BTO
// order computation, then the full inverted prefix index). An empty
// corpus is fine — the dictionary then grows entirely through Add.
func NewIndex(opts Options, corpus []records.Record) (*Index, error) {
	if err := opts.fillDefaults(); err != nil {
		return nil, err
	}
	ix := &Index{opts: opts, th: opts.Fn.At(opts.Threshold), cache: newVerifyCache(opts.CacheSize)}
	ix.state.Store(ix.build(1, corpusTokens(opts, corpus)))
	return ix, nil
}

// trec pairs a record with its token set (tokenized once per build).
type trec struct {
	rec  records.Record
	toks []string
}

func corpusTokens(opts Options, corpus []records.Record) []trec {
	out := make([]trec, len(corpus))
	for i, r := range corpus {
		out[i] = trec{rec: r, toks: opts.Tokenizer.Tokenize(r.JoinAttr(opts.JoinFields...))}
	}
	return out
}

// build computes the Stage-1 BTO order of the given corpus — tokens
// sorted by (frequency ascending, token bytes ascending), exactly the
// batch pipeline's sort-job key — and constructs the full generation.
func (ix *Index) build(gen uint64, corpus []trec) *istate {
	freq := make(map[string]int64)
	for _, tr := range corpus {
		for _, t := range tr.toks {
			freq[t]++
		}
	}
	toks := make([]string, 0, len(freq))
	for t := range freq {
		toks = append(toks, t)
	}
	sort.Slice(toks, func(i, j int) bool {
		if freq[toks[i]] != freq[toks[j]] {
			return freq[toks[i]] < freq[toks[j]]
		}
		return toks[i] < toks[j]
	})
	ord := &liveOrder{rank: make(map[string]uint32, len(toks)), toks: toks,
		freq: make([]int64, len(toks))}
	for i, t := range toks {
		ord.rank[t] = uint32(i)
		ord.freq[i] = freq[t]
	}

	st := &istate{gen: gen, ord: ord, recs: &recstore{}, baseRecords: len(corpus),
		shards: make([]*shard, ix.opts.Shards)}
	for i := range st.shards {
		st.shards[i] = &shard{post: make(map[uint64][]pentry)}
	}
	for _, tr := range corpus {
		ranks := ord.ranks(tr.toks)
		id := int32(len(st.recs.recs))
		st.recs.recs = append(st.recs.recs, irec{rec: tr.rec, ranks: ranks})
		ix.insertPostings(st, id, ranks)
	}
	return st
}

// insertPostings indexes one record's prefix tokens. Callers must hold
// the ingest lock (or own the state exclusively, as build does).
func (ix *Index) insertPostings(st *istate, id int32, ranks []uint32) {
	l := len(ranks)
	p := ix.th.PrefixLength(l)
	b := lenBucket(l)
	for i := 0; i < p; i++ {
		sh := st.shards[int(ranks[i])%len(st.shards)]
		sh.mu.Lock()
		k := pkey(ranks[i], b)
		sh.post[k] = append(sh.post[k], pentry{id: id, length: int32(l)})
		sh.mu.Unlock()
	}
}

// Add ingests one record incrementally: no Stage-1 rebuild — unknown
// tokens are appended past the order's tail (any total order is
// admissible), the record and its prefix postings become visible to the
// next Match, and once enough records have arrived to drift the
// frequency order past Options.DriftThreshold the whole index is
// rebuilt under the fresh BTO order and swapped in atomically.
func (ix *Index) Add(rec records.Record) {
	ix.ingest.Lock()
	defer ix.ingest.Unlock()

	st := ix.state.Load()
	toks := ix.opts.Tokenizer.Tokenize(rec.JoinAttr(ix.opts.JoinFields...))

	// Extend the order first: every token must have a rank before the
	// record is ranked.
	st.ord.mu.Lock()
	for _, t := range toks {
		if r, ok := st.ord.rank[t]; ok {
			st.ord.freq[r]++
			continue
		}
		r := uint32(len(st.ord.toks))
		st.ord.rank[t] = r
		st.ord.toks = append(st.ord.toks, t)
		st.ord.freq = append(st.ord.freq, 1)
	}
	st.ord.mu.Unlock()

	ranks := st.ord.ranks(toks)

	// Append the record before inserting its postings: a probe that sees
	// a posting entry (under the shard lock it acquires after our
	// unlock) must find the record behind it.
	st.recs.mu.Lock()
	id := int32(len(st.recs.recs))
	st.recs.recs = append(st.recs.recs, irec{rec: rec, ranks: ranks})
	st.recs.mu.Unlock()
	ix.insertPostings(st, id, ranks)

	// Lazy re-order on drift. The rebuild runs under the ingest lock —
	// concurrent Adds wait, queries keep answering from the old
	// generation until the swap.
	added := st.added.Add(1)
	base := st.baseRecords
	if base < 1 {
		base = 1
	}
	if float64(added) > ix.opts.DriftThreshold*float64(base) {
		corpus := make([]trec, 0, st.recs.len())
		st.recs.mu.RLock()
		for _, ir := range st.recs.recs {
			corpus = append(corpus, trec{rec: ir.rec,
				toks: ix.opts.Tokenizer.Tokenize(ir.rec.JoinAttr(ix.opts.JoinFields...))})
		}
		st.recs.mu.RUnlock()
		ix.state.Store(ix.build(st.gen+1, corpus))
		ix.reorders.Add(1)
	}
}

// Match returns every indexed record similar to probe (similarity ≥ τ),
// as JoinedPairs with the indexed record on the left and the probe on
// the right, in index insertion order. A record whose RID equals the
// probe's is skipped, so probing with an already-ingested record
// returns its true neighbors rather than itself. Probe tokens unknown
// to the index dictionary are discarded (§4): they cannot produce
// candidates, and the similarity is computed over the remaining tokens.
func (ix *Index) Match(probe records.Record) []records.JoinedPair {
	st := ix.state.Load()
	toks := ix.opts.Tokenizer.Tokenize(probe.JoinAttr(ix.opts.JoinFields...))
	ranks := st.ord.ranks(toks)
	lx := len(ranks)
	if lx == 0 {
		return nil
	}
	p := ix.th.PrefixLength(lx)
	lo, hi := ix.th.LengthBounds(lx)
	if lo < 1 {
		lo = 1
	}

	// Gather candidates: for each probe prefix token, scan only the
	// posting lists of length buckets the length filter admits, under a
	// brief per-shard read lock.
	var ids []int32
	bLo, bHi := lenBucket(lo), lenBucket(hi)
	for i := 0; i < p; i++ {
		tok := ranks[i]
		sh := st.shards[int(tok)%len(st.shards)]
		sh.mu.RLock()
		for b := bLo; b <= bHi; b++ {
			for _, e := range sh.post[pkey(tok, b)] {
				if int(e.length) >= lo && int(e.length) <= hi {
					ids = append(ids, e.id)
				}
			}
		}
		sh.mu.RUnlock()
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	// Verify deduped candidates in insertion order (deterministic
	// output), through the pair-verdict LRU.
	var out []records.JoinedPair
	var prev int32 = -1
	for _, id := range ids {
		if id == prev {
			continue
		}
		prev = id
		ir := st.recs.get(id)
		if ir.rec.RID == probe.RID {
			continue
		}
		sim, ok := ix.verify(st.gen, id, ranks, ir.ranks)
		if ok {
			out = append(out, records.JoinedPair{Left: ir.rec, Right: probe, Sim: sim})
		}
	}
	return out
}

// verify computes (or recalls) the exact similarity verdict for one
// (probe, candidate) pair. Cache keys bind the generation, the candidate
// id, and the probe's exact rank sequence, so a hit can only ever return
// the verdict a fresh verification would — entries from past generations
// or different probes cannot collide, they just age out of the LRU.
func (ix *Index) verify(gen uint64, id int32, probeRanks, candRanks []uint32) (float64, bool) {
	if ix.cache == nil {
		return ix.th.Verify(probeRanks, candRanks)
	}
	key := pairKey(gen, id, probeRanks)
	if v, hit := ix.cache.get(key); hit {
		return v.sim, v.ok
	}
	sim, ok := ix.th.Verify(probeRanks, candRanks)
	ix.cache.put(key, verdict{sim: sim, ok: ok})
	return sim, ok
}

// pairKey is the record-pair signature the verification LRU is keyed by.
func pairKey(gen uint64, id int32, probeRanks []uint32) string {
	b := make([]byte, 0, 12+4*len(probeRanks))
	b = append(b, byte(gen), byte(gen>>8), byte(gen>>16), byte(gen>>24),
		byte(gen>>32), byte(gen>>40), byte(gen>>48), byte(gen>>56))
	b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	for _, r := range probeRanks {
		b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return string(b)
}

// Len reports the number of indexed records.
func (ix *Index) Len() int { return ix.state.Load().recs.len() }

// Tokens reports the current dictionary size.
func (ix *Index) Tokens() int { return ix.state.Load().ord.len() }

// Reorders reports how many drift-triggered re-orders have run.
func (ix *Index) Reorders() int64 { return ix.reorders.Load() }

// Generation reports the current index generation (1 for the initial
// build, +1 per re-order).
func (ix *Index) Generation() uint64 { return ix.state.Load().gen }
