// Package plan is the sampling-based cost planner: it reads a bounded,
// deterministic sample of the input, measures the statistics the
// paper's evaluation shows the knob choices are sensitive to (the
// per-token prefix loads, the record-length histogram, and — for R-S
// joins — the dictionary overlap between the relations), synthesizes
// per-task costs for every candidate configuration from a fixed
// analytic cost model, schedules them onto the virtual cluster
// (internal/cluster), and picks the full knob vector: Stage 1 BTO/OPTO,
// Stage 2 kernel BK/PK/FVT, Stage 3 BRJ/OPRJ, individual/grouped
// routing, and the reducer count.
//
// The planner is deliberately a pure function of (sample, options): it
// never measures wall-clock time, never consults a clock or RNG, and
// never reads global state, so identical inputs yield byte-identical
// plans (FuzzPlannerDeterministic pins this). Every knob it sets is
// admissible — the join output is byte-identical whatever it picks (the
// conformance matrix certifies each setting against the exact oracle) —
// so a bad prediction can cost time but never correctness.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
	"fuzzyjoin/internal/tokenize"
)

// Options bounds and parameterizes sampling. The zero value is the
// paper's configuration: word tokens over title+authors, Jaccard at
// τ = 0.80, at most 256 analyzed records per relation.
type Options struct {
	// MaxRecords bounds the records analyzed per relation; larger
	// inputs are stride-sampled down to this many. Defaults to 256.
	MaxRecords int
	// Fn and Threshold define prefixes the way the join will (defaults:
	// Jaccard, 0.80).
	Fn        simfn.Func
	Threshold float64
	// Tokenizer and JoinFields must match the join's (defaults: word
	// tokens, title+authors).
	Tokenizer  tokenize.Tokenizer
	JoinFields []int
	// Seed phases the sampling stride. Sampling is deterministic in
	// (input, Seed): the same seed always selects the same records.
	Seed int64
}

func (o Options) fill() Options {
	if o.MaxRecords <= 0 {
		o.MaxRecords = 256
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.8
	}
	if o.Tokenizer == nil {
		o.Tokenizer = tokenize.Word{}
	}
	if len(o.JoinFields) == 0 {
		o.JoinFields = []int{records.FieldTitle, records.FieldAuthors}
	}
	return o
}

// lengthBuckets is the record-length histogram resolution: bucket i
// counts records with token count in [4i, 4i+4), the last bucket open.
const lengthBuckets = 16

// Sample holds the deterministic statistics the planner decides from.
// All counts are measured on the sampled records; Scale converts them
// to full-input estimates.
type Sample struct {
	// RS marks an R-S sample (two relations, dictionary from R).
	RS bool
	// Threshold is the τ prefixes were extracted under.
	Threshold float64
	// SampledR/TotalR (and S) are the analyzed and full record counts.
	SampledR, TotalR int
	SampledS, TotalS int
	// AvgTokens is the mean token-set size of the sampled records.
	AvgTokens float64
	// LengthHist is the token-count histogram (bucket width 4).
	LengthHist [lengthBuckets]int
	// Vocab is the distinct-token count of the sample dictionary (built
	// from R only for R-S joins, as Stage 1 does).
	Vocab int
	// RankLoads[r] is the prefix replica load of the token with sample
	// frequency rank r (rank ascending by frequency, so the last entry
	// is the hottest token): the number of sampled records — from both
	// relations for R-S — whose prefix contains that token. This is the
	// per-token Stage 2 reduce-group load, measured exactly on the
	// sample.
	RankLoads []int
	// TotalReplicas is the sum of RankLoads: the sampled Stage 2 map
	// output volume in projections.
	TotalReplicas int
	// DictOverlap is, for R-S samples, the fraction of S-side token
	// occurrences present in the R dictionary (tokens outside it are
	// discarded by Stage 2, §4). 1 for self-joins.
	DictOverlap float64
}

// Scale is the sample→full extrapolation factor for record-linear
// quantities (group loads, replica counts).
func (s *Sample) Scale() float64 {
	sampled := s.SampledR + s.SampledS
	if sampled == 0 {
		return 1
	}
	return float64(s.TotalR+s.TotalS) / float64(sampled)
}

// strideSample deterministically picks at most max lines: every
// stride-th line starting at a seed-chosen phase. The same (lines, max,
// seed) always selects the same subset.
func strideSample(lines []string, max int, seed int64) []string {
	if len(lines) <= max {
		return lines
	}
	stride := (len(lines) + max - 1) / max
	offset := int(uint64(seed) % uint64(stride))
	out := make([]string, 0, max)
	for i := offset; i < len(lines) && len(out) < max; i += stride {
		out = append(out, lines[i])
	}
	return out
}

// maxTokensPerRecord bounds the token set analyzed per sampled record:
// together with Options.MaxRecords it makes the planner's total work
// input-size independent. Degenerate records beyond it contribute their
// head; real bibliographic records are far below it.
const maxTokensPerRecord = 256

// parseSample parses sampled lines into token sets, skipping blank and
// malformed lines (the planner advises; it must not fail on what the
// join itself would reject later with a better error).
func parseSample(lines []string, o Options) [][]string {
	var out [][]string
	for _, l := range lines {
		if strings.TrimSpace(l) == "" {
			continue
		}
		rec, err := records.ParseLine(l)
		if err != nil {
			continue
		}
		toks := o.Tokenizer.Tokenize(rec.JoinAttr(o.JoinFields...))
		if len(toks) > maxTokensPerRecord {
			toks = toks[:maxTokensPerRecord]
		}
		out = append(out, toks)
	}
	return out
}

// New builds a Sample from record lines. sLines nil means a self-join
// sample; non-nil makes it an R-S sample with the dictionary built from
// rLines (pass the smaller relation as R, as the join requires).
func New(rLines, sLines []string, opts Options) (*Sample, error) {
	o := opts.fill()
	rSets := parseSample(strideSample(rLines, o.MaxRecords, o.Seed), o)
	if len(rSets) == 0 {
		return nil, fmt.Errorf("plan: no parseable records in the input sample")
	}
	var sSets [][]string
	if sLines != nil {
		sSets = parseSample(strideSample(sLines, o.MaxRecords, o.Seed), o)
	}

	s := &Sample{
		RS:        sLines != nil,
		Threshold: o.Threshold,
		SampledR:  len(rSets),
		TotalR:    len(rLines),
		SampledS:  len(sSets),
		TotalS:    len(sLines),
	}

	// Sample dictionary: frequency-ascending token order over R, ties
	// broken by token text so the order is a pure function of the
	// sample.
	freq := map[string]int{}
	for _, toks := range rSets {
		for _, t := range toks {
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
	rank := make(map[string]int, len(toks))
	for i, t := range toks {
		rank[t] = i
	}
	s.Vocab = len(toks)
	s.RankLoads = make([]int, len(toks))

	// Prefix replica loads, measured exactly the way Stage 2 routes:
	// sort each record's ranks ascending, take the τ prefix, and charge
	// each prefix token's group one replica.
	totalTokens := 0
	charge := func(toks []string) (known, total int) {
		ranks := make([]int, 0, len(toks))
		for _, t := range toks {
			total++
			if r, ok := rank[t]; ok {
				known++
				ranks = append(ranks, r)
			}
		}
		sort.Ints(ranks)
		p := o.Fn.PrefixLength(len(ranks), o.Threshold)
		for _, r := range ranks[:p] {
			s.RankLoads[r]++
			s.TotalReplicas++
		}
		return known, total
	}
	for _, toks := range rSets {
		totalTokens += len(toks)
		bucket := len(toks) / 4
		if bucket >= lengthBuckets {
			bucket = lengthBuckets - 1
		}
		s.LengthHist[bucket]++
		charge(toks)
	}
	s.DictOverlap = 1
	if s.RS {
		knownS, totalS := 0, 0
		for _, toks := range sSets {
			totalTokens += len(toks)
			bucket := len(toks) / 4
			if bucket >= lengthBuckets {
				bucket = lengthBuckets - 1
			}
			s.LengthHist[bucket]++
			k, n := charge(toks)
			knownS += k
			totalS += n
		}
		if totalS > 0 {
			s.DictOverlap = float64(knownS) / float64(totalS)
		} else {
			s.DictOverlap = 0
		}
	}
	s.AvgTokens = float64(totalTokens) / float64(len(rSets)+len(sSets))
	return s, nil
}

// Summary renders the sample statistics compactly for logs.
func (s *Sample) Summary() string {
	kind := "self"
	sizes := fmt.Sprintf("%d sampled of %d", s.SampledR, s.TotalR)
	if s.RS {
		kind = "rs"
		sizes = fmt.Sprintf("R %d/%d, S %d/%d, dict overlap %.2f",
			s.SampledR, s.TotalR, s.SampledS, s.TotalS, s.DictOverlap)
	}
	max := 0
	for _, l := range s.RankLoads {
		if l > max {
			max = l
		}
	}
	return fmt.Sprintf("%s sample: %s; τ=%.2f, avg %.1f tokens, vocab %d, %d prefix replicas, max group load %d",
		kind, sizes, s.Threshold, s.AvgTokens, s.Vocab, s.TotalReplicas, max)
}
