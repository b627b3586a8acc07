package conformance

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/ssjserve"
)

// This file is the online service's differential gate: every Match
// answer of internal/ssjserve must equal the brute-force oracle's
// answer set for that probe — before ingestion, mid-ingestion (probes
// carrying tokens the index has never seen), after incremental
// ingestion that crossed a drift re-order, and again on a repeat pass —
// and the service's filter funnel must be monotone. `ssjcheck -serve`
// runs ServeCheck over seeded workloads in CI.

// ServeOracle computes the exact answer set for one online query: every
// corpus record (other than the probe's own RID) whose similarity to
// the probe is ≥ τ, verified brute-force under lexicographic token
// ranks. Probe tokens outside the corpus vocabulary are discarded
// before similarity is computed — the same §4 discipline the service's
// dictionary applies, and the same rule ItemsRS uses for S-side
// records.
func ServeOracle(corpus []records.Record, probe records.Record, p Params) []records.JoinedPair {
	p = p.fill()
	dict := lexDict(corpus, p)
	ranksOf := func(r records.Record) []uint32 {
		toks := p.Tokenizer.Tokenize(r.JoinAttr(p.JoinFields...))
		ranks := make([]uint32, 0, len(toks))
		for _, t := range toks {
			if rank, ok := dict[t]; ok {
				ranks = append(ranks, rank)
			}
		}
		sort.Slice(ranks, func(a, b int) bool { return ranks[a] < ranks[b] })
		return ranks
	}
	px := ranksOf(probe)
	if len(px) == 0 {
		return nil
	}
	var out []records.JoinedPair
	for _, r := range corpus {
		if r.RID == probe.RID {
			continue
		}
		ry := ranksOf(r)
		if len(ry) == 0 {
			continue
		}
		if sim, ok := p.Fn.Verify(px, ry, p.Threshold); ok {
			out = append(out, records.JoinedPair{Left: r, Right: probe, Sim: sim})
		}
	}
	return out
}

// diffServe compares one probe's service answers against the oracle's.
// Both sides are exact — same integer overlap, same float computation —
// so similarities must be identical, not merely close.
func diffServe(got, want []records.JoinedPair) string {
	byRID := func(ps []records.JoinedPair) map[uint64]float64 {
		m := make(map[uint64]float64, len(ps))
		for _, p := range ps {
			m[p.Left.RID] = p.Sim
		}
		return m
	}
	gm, wm := byRID(got), byRID(want)
	for rid, sim := range wm {
		g, ok := gm[rid]
		if !ok {
			return fmt.Sprintf("missing pair rid=%d (sim %v)", rid, sim)
		}
		if g != sim {
			return fmt.Sprintf("pair rid=%d: sim %v, oracle %v", rid, g, sim)
		}
	}
	for rid := range gm {
		if _, ok := wm[rid]; !ok {
			return fmt.Sprintf("spurious pair rid=%d (sim %v)", rid, gm[rid])
		}
	}
	return ""
}

// ServeCheck differentially verifies the online service over one seeded
// workload: build the service on the first ⅔ of the corpus, probe every
// workload record (the unseen ⅓ exercises unknown-token dropping),
// ingest the remaining ⅓ incrementally — the drift threshold is set so
// this must cross at least one lazy re-order — then probe everything
// again against the full-corpus oracle, twice (the repeat pass runs on
// probe scratch every worker has already used), and last checks that
// each count of the filter funnel is at most the one before it. Any
// divergence fails with a reproducer message naming the seed and probe.
func ServeCheck(w Workload, p Params, shards int) error {
	p = p.fill()
	w = w.fill()
	recs := w.SelfRecords()
	split := len(recs) * 2 / 3
	if split < 1 {
		split = 1
	}
	base, rest := recs[:split], recs[split:]

	svc, err := ssjserve.NewService(ssjserve.Options{
		Tokenizer:  p.Tokenizer,
		JoinFields: p.JoinFields,
		Fn:         p.Fn,
		Threshold:  p.Threshold,
		Shards:     shards,
		// Must guarantee ≥1 re-order while ingesting the final third.
		DriftThreshold: 0.10,
		Workers:        4,
	}, base)
	if err != nil {
		return fmt.Errorf("serve: seed %d: %v", w.Seed, err)
	}
	defer svc.Close()
	ctx := context.Background()

	check := func(corpus []records.Record, phase string) error {
		for _, probe := range recs {
			got, err := svc.Match(ctx, probe)
			if err != nil {
				return fmt.Errorf("serve: seed %d %s probe %d: %v", w.Seed, phase, probe.RID, err)
			}
			if d := diffServe(got, ServeOracle(corpus, probe, p)); d != "" {
				return fmt.Errorf("serve: seed %d %s probe %d: %s", w.Seed, phase, probe.RID, d)
			}
		}
		return nil
	}

	if err := check(base, "pre-ingest"); err != nil {
		return err
	}
	for _, r := range rest {
		if err := svc.Add(r); err != nil {
			return fmt.Errorf("serve: seed %d add %d: %v", w.Seed, r.RID, err)
		}
	}
	if len(rest) > 0 && svc.Index().Reorders() == 0 {
		return fmt.Errorf("serve: seed %d: ingesting %d records over a %d-record base crossed no drift re-order",
			w.Seed, len(rest), len(base))
	}
	if err := check(recs, "post-ingest"); err != nil {
		return err
	}
	if err := check(recs, "repeat"); err != nil {
		return err
	}
	f := svc.Stats().Funnel
	stages := []int64{f.Scanned, f.Length, f.Positional, f.Suffix, f.Verified, f.Results}
	if f.Results == 0 || !slices.IsSortedFunc(stages, func(a, b int64) int { return cmp.Compare(b, a) }) {
		return fmt.Errorf("serve: seed %d: filter funnel %+v is not monotone down to a non-zero result count", w.Seed, f)
	}
	return nil
}
