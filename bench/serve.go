package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fuzzyjoin/internal/ppjoin"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/ssjserve"
)

// serveOptions configures the service for a round of ops operations over
// a corpus of n records. The drift threshold is set so that the re-order
// fires once, three quarters of the way through the round's adds: after
// it the corpus is larger and the remaining quarter cannot reach the
// threshold again.
func serveOptions(w *workload, n, ops int) ssjserve.Options {
	return ssjserve.Options{
		Fn: w.cfg.Fn, Threshold: w.cfg.Threshold,
		Workers:        clients(),
		DriftThreshold: 0.75 * float64(ops/10) / float64(n),
	}
}

// matchSample is one Match answer kept for the brute-force check, with
// the bounds on which added records it could and had to see: client k's
// first lo[k] adds had completed before the Match began, and only its
// first hi[k] had begun when the Match returned.
type matchSample struct {
	probe  records.Record
	got    []uint64
	lo, hi []int
}

// roundResult is what the load generator observed over one round.
type roundResult struct {
	wall             time.Duration
	matchMs, addMs   []float64 // client-observed latency, queue wait included
	stallMs          float64   // longest Add that overlapped a re-order
	errors, attempts int
	samples          []matchSample
}

// serveRound drives one closed-loop round: each client goroutine blocks
// on every call, issues nine Match in ten with probes drawn uniformly
// from the corpus and one Add of a fresh record, and keeps every
// samplesPerClientRound of its Match answers for checking.
func serveRound(svc *ssjserve.Service, d *dataset, ops int, seed int64, rec *recorder, parent int) roundResult {
	k := clients()
	sampleEvery := max(1, ops*9/10/k/samplesPerClientRound)
	type clientResult struct {
		matchMs, addMs []float64
		stallMs        float64
		errors         int
		samples        []matchSample
	}
	results := make([]clientResult, k)
	started := make([]atomic.Int64, k)
	done := make([]atomic.Int64, k)
	snapshot := func(v []atomic.Int64) []int {
		out := make([]int, k)
		for i := range v {
			out[i] = int(v[i].Load())
		}
		return out
	}
	ix := svc.Index()
	ctx := context.Background()

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < k; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := rec.begin(parent, fmt.Sprintf("serve.client%d", c))
			defer rec.end(id)
			res := &results[c]
			rng := rand.New(rand.NewSource(seed*int64(k) + int64(c)))
			adds, matches := 0, 0
			for i := 0; i < ops/k; i++ {
				if i%10 == 9 {
					fresh := d.fresh[(c+k*adds)%len(d.fresh)]
					before := ix.Reorders()
					started[c].Add(1)
					t0 := time.Now()
					err := svc.Add(fresh)
					ms := float64(time.Since(t0)) / 1e6
					done[c].Add(1)
					adds++
					if err != nil {
						res.errors++
						continue
					}
					res.addMs = append(res.addMs, ms)
					if ix.Reorders() != before {
						res.stallMs = max(res.stallMs, ms)
					}
					continue
				}
				probe := d.r[rng.Intn(len(d.r))]
				sampled := matches%sampleEvery == 0
				matches++
				var lo []int
				if sampled {
					lo = snapshot(done)
				}
				t0 := time.Now()
				pairs, err := svc.Match(ctx, probe)
				ms := float64(time.Since(t0)) / 1e6
				if err != nil {
					res.errors++
					continue
				}
				res.matchMs = append(res.matchMs, ms)
				if sampled {
					s := matchSample{probe: probe, lo: lo, hi: snapshot(started)}
					for _, p := range pairs {
						s.got = append(s.got, p.Left.RID)
					}
					res.samples = append(res.samples, s)
				}
			}
		}(c)
	}
	wg.Wait()
	rr := roundResult{wall: time.Since(start), attempts: ops / k * k}
	for _, res := range results {
		rr.matchMs = append(rr.matchMs, res.matchMs...)
		rr.addMs = append(rr.addMs, res.addMs...)
		rr.stallMs = max(rr.stallMs, res.stallMs)
		rr.errors += res.errors
		rr.samples = append(rr.samples, res.samples...)
	}
	return rr
}

// checkMatchSamples re-derives each sampled Match answer by brute force:
// the probe against every corpus record and every fresh record, with
// simfn alone. The answer must hold every neighbour in the corpus and in
// the adds that had completed, and nothing outside the adds that had
// begun.
func checkMatchSamples(c *checker, w *workload, d *dataset, samples []matchSample) {
	rToks, _ := tokenizeAll(d.r)
	fToks, _ := tokenizeAll(d.fresh)
	order := ownOrder(append(append([][]string(nil), rToks...), fToks...))
	corpus := rankAll(order, d.r, rToks)
	fresh := rankAll(order, d.fresh, fToks)
	byRID := make(map[uint64]int, len(corpus))
	for i, it := range corpus {
		byRID[it.RID] = i
	}
	similar := func(x, y ppjoin.Item) bool {
		_, ok := w.cfg.Fn.Verify(y.Ranks, x.Ranks, w.cfg.Threshold)
		return ok
	}
	k := clients()
	ok := make([]bool, len(samples))
	parallelFor(len(samples), func(i int) {
		s := samples[i]
		x := corpus[byRID[s.probe.RID]]
		got := map[uint64]bool{}
		for _, rid := range s.got {
			got[rid] = true
		}
		good, justified := true, 0
		for _, y := range corpus {
			if y.RID == x.RID || !similar(x, y) {
				continue
			}
			if got[y.RID] {
				justified++
			} else {
				good = false
			}
		}
		for j, y := range fresh {
			if !similar(x, y) {
				continue
			}
			client, nth := j%k, j/k
			switch {
			case got[y.RID] && nth < s.hi[client]: // had begun when the Match returned
				justified++
			case !got[y.RID] && nth < s.lo[client]: // had completed before the Match began
				good = false
			}
		}
		ok[i] = good && justified == len(s.got)
	})
	for i, s := range samples {
		c.op(ok[i], "match: probe %d answered %v, brute force disagrees", s.probe.RID, s.got)
	}
}

// samplesPerClientRound is how many Match answers each client keeps per
// round for the brute-force check: with two clients and at least five
// rounds, a run re-checks 1,000 or more.
const samplesPerClientRound = 100

// runServe is the untraced end-to-end run of serve_mixed: every round
// builds a fresh service (one set-up sample), then drives the closed-loop
// mix against it. Latencies are pooled over the rounds. There is no
// warm-up round: each round starts from a cold, newly built index, so a
// warm-up would warm nothing the next round keeps.
func runServe(w *workload, d *dataset, o options, c *checker) (metrics, error) {
	ops := scaled(w.serveOps, o.scale, 100)

	var setups, walls, allocs, kernels, matchMs, addMs []float64
	var samples []matchSample
	stall := 0.0
	measured := time.Duration(0)
	for round := 0; round < minTimedJoins || measured.Seconds() < o.seconds; round++ {
		runtime.GC()
		kernels = append(kernels, referenceKernel().Seconds())
		start := time.Now()
		svc, err := ssjserve.NewService(serveOptions(w, len(d.r), ops), d.r)
		if err != nil {
			return nil, err
		}
		setup := time.Since(start).Seconds()
		before := totalAllocMB()
		rr := serveRound(svc, d, ops, o.seed+int64(round), nil, -1)
		alloc := totalAllocMB() - before
		reorders := svc.Index().Reorders()
		if err := svc.Close(); err != nil {
			return nil, err
		}
		c.attempted += rr.attempts
		c.failed += rr.errors
		c.op(reorders == 1, "round %d: %d drift re-orders, the workload is built to have exactly 1", round, reorders)
		samples = append(samples, rr.samples...)
		measured += rr.wall
		setups = append(setups, setup)
		walls = append(walls, rr.wall.Seconds())
		allocs = append(allocs, alloc)
		matchMs = append(matchMs, rr.matchMs...)
		addMs = append(addMs, rr.addMs...)
		stall = max(stall, rr.stallMs)
	}
	peak := peakRSSMB()
	checkMatchSamples(c, w, d, samples)

	// wall_s and setup_s are relative to the reference kernel (see
	// hostspeed.go); tail_ms, the Match p99, is as measured: it does not
	// follow host speed, so scaling it only adds the kernel's own noise.
	factor := hostFactor(kernels)
	m := metrics{}
	m.put("setup_s", median(setups)*factor, "s")
	m.put("wall_s", median(walls)*factor, "s")
	m.put("alloc_mb", median(allocs), "MB")
	m.put("peak_rss_mb", peak, "MB")
	t, pct := tail(matchMs)
	m.put("tail_ms", t, "ms")
	addTail, addPct := tail(addMs)
	fmt.Printf("# %d timed rounds of %d ops, raw wall each %.4f s, raw median %.4f s = %.1f ops/s; raw median build %.4f s\n",
		len(walls), ops, walls, median(walls), float64(ops)/median(walls), median(setups))
	fmt.Printf("# Match p50 %.4f ms, tail_ms is Match p%g over %d samples; Add p%g %.4f ms over %d samples; longest re-order stall %.1f ms\n",
		median(matchMs), pct, len(matchMs), addPct, addTail, len(addMs), stall)
	fmt.Printf("# reference kernel median %.4f s (nominal %.3f): host factor %.3f\n", median(kernels), nominalKernelSeconds, factor)
	return m, nil
}

// serveReplay is the traced pass over the service: one build, one round,
// then the same probes through the bare index, the service queue and the
// HTTP handler, one caller each, to split a Match into its layers.
func serveReplay(w *workload, d *dataset, o options, c *checker, rec *recorder, parent int, m metrics) error {
	ops := scaled(w.serveOps, o.scale, 100)
	var svc *ssjserve.Service
	var err error
	build := rec.timed(parent, "ssjserve.build", func(int) {
		svc, err = ssjserve.NewService(serveOptions(w, len(d.r), ops), d.r)
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	var rr roundResult
	rec.timed(parent, "serve.round", func(id int) {
		rr = serveRound(svc, d, ops, o.seed, rec, id)
	})
	st := svc.Stats()
	c.attempted += rr.attempts
	c.failed += rr.errors
	checkMatchSamples(c, w, d, rr.samples)

	m.put("ssjserve.build_s", build.Seconds(), "s")
	m.put("ssjserve.ops_per_s", float64(ops)/rr.wall.Seconds(), "1/s")
	m.put("ssjserve.match_p50_ms", median(rr.matchMs), "ms")
	p99, _ := tail(rr.matchMs)
	m.put("ssjserve.match_tail_ms", p99, "ms")
	addTail, _ := tail(rr.addMs)
	m.put("ssjserve.add_tail_ms", addTail, "ms")
	m.put("ssjserve.add_us", median(rr.addMs)*1000, "us")
	m.put("ssjserve.cache_hit_share", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)), "ratio")
	m.put("ssjserve.pairs_per_match", ratio(float64(st.Pairs), float64(st.Queries)), "count")
	m.put("ssjserve.reorders", float64(st.Reorders), "count")
	m.put("ssjserve.reorder_stall_ms", rr.stallMs, "ms")

	// The same probes, one caller, through each layer of a Match.
	rng := rand.New(rand.NewSource(o.seed))
	probes := make([]records.Record, scaled(2000, o.scale, 50))
	for i := range probes {
		probes[i] = d.r[rng.Intn(len(d.r))]
	}
	perProbeUs := func(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(n) }
	ix := svc.Index()
	direct := rec.timed(parent, "ssjserve.index_match", func(int) {
		for _, p := range probes {
			ix.Match(p)
		}
	})
	queued := rec.timed(parent, "ssjserve.service_match", func(int) {
		for _, p := range probes {
			if _, err := svc.Match(context.Background(), p); err != nil {
				c.op(false, "service match: %v", err)
			}
		}
	})
	srv := httptest.NewServer(ssjserve.NewHandler(svc))
	defer srv.Close()
	httpProbes := probes[:len(probes)/4]
	overHTTP := rec.timed(parent, "ssjserve.http_match", func(int) {
		for _, p := range httpProbes {
			if err := httpMatch(srv, p); err != nil {
				c.op(false, "http match: %v", err)
			}
		}
	})
	m.put("ssjserve.index_match_us", perProbeUs(direct, len(probes)), "us")
	m.put("ssjserve.service_match_us", perProbeUs(queued, len(probes)), "us")
	m.put("ssjserve.queue_overhead_us", perProbeUs(queued-direct, len(probes)), "us")
	m.put("ssjserve.http_match_us", perProbeUs(overHTTP, len(httpProbes)), "us")
	return nil
}

// httpMatch posts one probe to /match over the server's keep-alive client.
func httpMatch(srv *httptest.Server, probe records.Record) error {
	body, err := json.Marshal(ssjserve.RecordJSON{RID: probe.RID, Fields: probe.Fields})
	if err != nil {
		return err
	}
	resp, err := srv.Client().Post(srv.URL+"/match", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /match: %s", resp.Status)
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
