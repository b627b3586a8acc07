package main

import (
	"runtime"
	"time"

	"fuzzyjoin"
	"fuzzyjoin/internal/bitsig"
	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/dfs"
	"fuzzyjoin/internal/filter"
	"fuzzyjoin/internal/fvt"
	"fuzzyjoin/internal/keys"
	"fuzzyjoin/internal/mapreduce"
	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/tokenize"
)

// layers replays each module alone on one workload's data and records
// its per-layer metrics. Every replay is a span under the workload root.
type layers struct {
	w   *workload
	d   *dataset
	o   options
	c   *checker
	rec *recorder
	m   metrics
	// lines is the input as the program reads it, R then S.
	lines      []string
	inputBytes int64
	// joins are the comparison joins' outputs, checked against the
	// reference once the ppjoin replay has produced it.
	joins []labelledDigest
}

type labelledDigest struct {
	label string
	got   pairDigest
}

// keep records a comparison join's output for the verify step.
func (l *layers) keep(label string, pairs []fuzzyjoin.JoinedPair) {
	l.joins = append(l.joins, labelledDigest{label, digest(ridPairs(pairs), l.d.s == nil)})
}

func perItemNs(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }

func mbPerS(bytes int64, d time.Duration) float64 { return ratio(float64(bytes)/1e6, d.Seconds()) }

// replayData walks the input the way the map side does — parse each
// line, tokenize the join attribute, sort by the rank Stage 1 assigned,
// encode the projection — and then joins the ranked corpus on one node
// with ppjoin. That join is also the reference answer it returns.
func (l *layers) replayData(parent int, order *tokenize.Order) (ranked, []records.RIDPair) {
	l.lines = append(datagen.Lines(l.d.r), datagen.Lines(l.d.s)...)
	for _, line := range l.lines {
		l.inputBytes += int64(len(line)) + 1
	}
	parse := l.rec.timed(parent, "replay.records", func(int) {
		for _, line := range l.lines {
			if _, err := records.ParseLine(line); err != nil {
				l.c.op(false, "ParseLine: %v", err)
			}
		}
	})
	l.m.put("datagen.input_mb", float64(l.inputBytes)/1e6, "MB")
	l.m.put("records.parse_s", parse.Seconds(), "s")
	l.m.put("records.parse_mb_per_s", mbPerS(l.inputBytes, parse), "MB/s")

	var k ranked
	var rToks, sToks [][]string
	var tokens int64
	id := l.rec.begin(parent, "replay.tokenize")
	word := l.rec.timed(id, "tokenize.word", func(int) {
		var nr, ns int64
		rToks, nr = tokenizeAll(l.d.r)
		sToks, ns = tokenizeAll(l.d.s)
		tokens = nr + ns
	})
	rankSort := l.rec.timed(id, "tokenize.rank_sort", func(int) {
		k.r = rankAll(order, l.d.r, rToks)
		if l.d.s != nil {
			k.s = rankAll(order, l.d.s, sToks)
		}
	})
	l.rec.end(id)
	l.m.put("tokenize.word_s", word.Seconds(), "s")
	l.m.put("tokenize.tokens", float64(tokens), "count")
	l.m.put("tokenize.rank_sort_s", rankSort.Seconds(), "s")

	items := k.all()
	codec := l.rec.timed(parent, "replay.projection_codec", func(int) {
		var buf []byte
		for _, it := range items {
			buf = records.Projection{RID: it.RID, Ranks: it.Ranks}.AppendBinary(buf[:0])
			if _, err := records.DecodeProjection(buf); err != nil {
				l.c.op(false, "DecodeProjection: %v", err)
			}
		}
	})
	l.m.put("records.projection_codec_ns", perItemNs(codec, len(items)), "ns")

	// The Stage-2 map side emits one (token, length) key per prefix token.
	nKeys := 0
	encode := l.rec.timed(parent, "replay.keys", func(int) {
		var buf []byte
		for _, it := range items {
			for _, rank := range l.prefix(it) {
				buf = keys.AppendUint32(keys.AppendUint32(buf[:0], rank), uint32(len(it.Ranks)))
				nKeys++
			}
		}
	})
	l.m.put("keys.encode_ns_per_key", perItemNs(encode, nKeys), "ns")

	var ref []records.RIDPair
	var st ppjoin.Stats
	join := l.rec.timed(parent, "replay.ppjoin", func(int) { ref, st = referenceJoin(k, l.w.cfg) })
	l.m.put("ppjoin.join_s", join.Seconds(), "s")
	l.m.put("ppjoin.candidates", float64(st.Candidates), "count")
	l.m.put("ppjoin.verified", float64(st.Verified), "count")
	l.m.put("ppjoin.results", float64(st.Results), "count")
	l.m.put("ppjoin.verified_per_result", ratio(float64(st.Verified), float64(st.Results)), "ratio")
	return k, ref
}

// prefix is the item's prefix tokens under the workload's threshold.
func (l *layers) prefix(it ppjoin.Item) []uint32 {
	return it.Ranks[:l.w.cfg.Fn.PrefixLength(len(it.Ranks), l.w.cfg.Threshold)]
}

// neighbours is how many following records, in length order, each record
// is paired with for the kernel-part sample.
const neighbours = 8

// replayKernelParts times the pieces a Stage-2 kernel is made of —
// verification, the length and suffix filters, bitmap signatures — over
// a deterministic pair sample: each record against its next 8
// neighbours in length order, the pairs a length-sorted kernel meets.
func (l *layers) replayKernelParts(parent int, k ranked) {
	id := l.rec.begin(parent, "replay.kernel_parts")
	defer l.rec.end(id)
	fn, tau := l.w.cfg.Fn, l.w.cfg.Threshold
	items := k.all()
	fvt.SortItems(items)
	// A pair is two positions in items, so signatures line up with it.
	type pair struct {
		i, n int
		x, y []uint32
	}
	var pairs []pair
	for i := range items {
		for n := i + 1; n <= i+neighbours && n < len(items); n++ {
			pairs = append(pairs, pair{i, n, items[i].Ranks, items[n].Ranks})
		}
	}

	accepted := 0
	verify := l.rec.timed(id, "simfn.verify", func(int) {
		for _, p := range pairs {
			if _, ok := fn.Verify(p.x, p.y, tau); ok {
				accepted++
			}
		}
	})
	l.m.put("simfn.verify_ns_per_pair", perItemNs(verify, len(pairs)), "ns")
	l.m.put("simfn.accept_share", ratio(float64(accepted), float64(len(pairs))), "ratio")

	sigs := make([]bitsig.Sig, len(items))
	makeSigs := l.rec.timed(id, "bitsig.make", func(int) {
		for i, it := range items {
			sigs[i] = bitsig.Make(it.Ranks)
		}
	})
	l.m.put("bitsig.make_ns_per_item", perItemNs(makeSigs, len(items)), "ns")

	// The suffix filter runs at a pair's first common token; find those
	// positions outside its timed loop.
	type match struct {
		x, y       []uint32
		i, j, need int
	}
	var matches []match
	lengthPassed, bitmapRejected := 0, 0
	for _, p := range pairs {
		if !filter.Length(fn, len(p.x), len(p.y), tau) {
			continue
		}
		lengthPassed++
		need := fn.OverlapThreshold(len(p.x), len(p.y), tau)
		if !bitsig.Admits(len(p.x), len(p.y), sigs[p.i].HammingXor(sigs[p.n]), need) {
			bitmapRejected++
		}
		if a, b, ok := firstCommon(p.x, p.y); ok {
			matches = append(matches, match{p.x, p.y, a, b, need})
		}
	}
	suffix := l.rec.timed(id, "filter.suffix", func(int) {
		for _, p := range matches {
			filter.Suffix(p.x, p.y, p.i, p.j, p.need)
		}
	})
	l.m.put("filter.suffix_ns_per_pair", perItemNs(suffix, len(matches)), "ns")
	l.m.put("filter.length_pass_share", ratio(float64(lengthPassed), float64(len(pairs))), "ratio")
	l.m.put("bitsig.reject_share", ratio(float64(bitmapRejected), float64(lengthPassed)), "ratio")
}

// firstCommon finds the first token two sorted rank slices share.
func firstCommon(x, y []uint32) (i, j int, ok bool) {
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			return i, j, true
		}
	}
	return 0, 0, false
}

// fvtSample is how many records of each relation the single-node FVT
// replay joins. The bulk tree visits most of its nodes per probe, so the
// whole corpus is out of reach: 1e5 records took 500 s on the recording
// host, where ppjoin took 1.3 s.
const fvtSample = 4000

// replayFVT joins a prefix sample of the ranked corpus on one node with
// the FVT kernel; it must find as many pairs as ppjoin does on the same
// sample.
func (l *layers) replayFVT(parent int, k ranked) {
	n := scaled(fvtSample, l.o.scale, 200)
	sample := ranked{r: k.r[:min(n, len(k.r))]}
	if k.s != nil {
		sample.s = k.s[:min(n, len(k.s))]
	}
	want, _ := referenceJoin(sample, l.w.cfg)
	opts := fvt.Options{Fn: l.w.cfg.Fn, Threshold: l.w.cfg.Threshold, Filters: filter.AllFilters, Bitmap: l.w.cfg.BitmapFilter}
	var st fvt.Stats
	join := l.rec.timed(parent, "replay.fvt", func(int) {
		discard := func(records.RIDPair) {}
		if sample.s != nil {
			st = fvt.RSJoinBulk(sample.r, sample.s, opts, discard)
		} else {
			st = fvt.SelfJoinBulk(sample.r, opts, discard)
		}
	})
	l.c.op(int(st.Results) == len(want), "fvt found %d pairs on the sample, ppjoin %d", st.Results, len(want))
	l.m.put("fvt.join_s", join.Seconds(), "s")
	l.m.put("fvt.nodes_visited", float64(st.NodesVisited), "count")
	l.m.put("fvt.verified", float64(st.Verified), "count")
	l.m.put("fvt.results", float64(st.Results), "count")
	l.m.put("fvt.candidates_avoided", float64(st.CandidatesAvoided), "count")
}

// replayDFS writes the input lines record by record into a fresh DFS and
// reads them back; dfsBytes is the DFS size the staged join left.
func (l *layers) replayDFS(parent int, dfsBytes int64) {
	id := l.rec.begin(parent, "replay.dfs")
	defer l.rec.end(id)
	fs := fuzzyjoin.NewFS(dfsNodes)
	write := l.rec.timed(id, "dfs.write", func(int) {
		w, err := fs.Create("in")
		for i := 0; err == nil && i < len(l.lines); i++ {
			err = w.Append(append([]byte(l.lines[i]), '\n'))
		}
		if err == nil {
			err = w.Close()
		}
		l.c.op(err == nil, "dfs write: %v", err)
	})
	read := l.rec.timed(id, "dfs.read", func(int) {
		data, err := fs.ReadAll("in")
		l.c.op(err == nil && int64(len(data)) == l.inputBytes, "dfs read back %d bytes of %d: %v", len(data), l.inputBytes, err)
	})
	l.m.put("dfs.write_s", write.Seconds(), "s")
	l.m.put("dfs.write_mb_per_s", mbPerS(l.inputBytes, write), "MB/s")
	l.m.put("dfs.read_mb_per_s", mbPerS(l.inputBytes, read), "MB/s")
	l.m.put("dfs.total_mb", float64(dfsBytes)/1e6, "MB")
	l.m.put("dfs.bytes_per_input_byte", ratio(float64(dfsBytes), float64(l.inputBytes)), "ratio")
}

// replayMapReduce runs an identity map and reduce over a pair file shaped
// like this workload's Stage-2 map output (one projection per prefix
// token): the engine's sort, shuffle, merge and write and nothing else.
func (l *layers) replayMapReduce(parent int, k ranked) error {
	id := l.rec.begin(parent, "replay.mapreduce")
	defer l.rec.end(id)
	var pairs []mapreduce.Pair
	var bytes int64
	for _, it := range k.all() {
		value := records.Projection{RID: it.RID, Ranks: it.Ranks}.AppendBinary(nil)
		for _, rank := range l.prefix(it) {
			key := keys.AppendUint32(keys.AppendUint32(nil, rank), uint32(len(it.Ranks)))
			pairs = append(pairs, mapreduce.Pair{Key: key, Value: value})
			bytes += int64(len(key) + len(value))
		}
	}
	fs := dfs.New(dfs.Options{Nodes: dfsNodes})
	if err := mapreduce.WritePairsFile(fs, "in", pairs); err != nil {
		return err
	}
	identity := mapreduce.ReduceFunc(func(_ *mapreduce.Context, key []byte, values *mapreduce.Values, out mapreduce.Emitter) error {
		for v, ok := values.Next(); ok; v, ok = values.Next() {
			if err := out.Emit(key, v); err != nil {
				return err
			}
		}
		return nil
	})
	var met *mapreduce.Metrics
	var err error
	runtime.GC()
	job := l.rec.timed(id, "mapreduce.identity_job", func(int) {
		met, err = mapreduce.Run(mapreduce.Job{
			Name: "identity", FS: fs, Inputs: []string{"in"}, InputFormat: mapreduce.Pairs,
			Output: "out", Mapper: mapreduce.IdentityMapper, Reducer: identity,
			NumReducers: 4, Parallelism: runtime.GOMAXPROCS(0),
		})
	})
	if err != nil {
		return err
	}
	var out int64
	for _, t := range met.ReduceTasks {
		out += t.OutputRecords
	}
	l.c.op(out == int64(len(pairs)), "identity job wrote %d of %d pairs", out, len(pairs))
	l.m.put("mapreduce.identity_job_s", job.Seconds(), "s")
	l.m.put("mapreduce.identity_mb_per_s", mbPerS(bytes, job), "MB/s")
	return nil
}
