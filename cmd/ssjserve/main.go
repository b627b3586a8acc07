// Command ssjserve runs the online similarity-join service: it builds
// the token order and the length-segmented prefix index over a corpus,
// then serves similarity queries and incremental ingestion over HTTP
// (see internal/ssjserve for the API and design).
//
// Serve a corpus file (tab-separated record lines, like the batch CLI):
//
//	ssjserve -corpus pubs.tsv -addr :8080
//
// With no -corpus a seeded synthetic corpus is generated (-seed,
// -records), which is how the smoke gate runs it.
//
// Query it:
//
//	curl -s localhost:8080/match -d '{"rid":99,"fields":["parallel set similarity joins","vernica carey li",""]}'
//	curl -s localhost:8080/add   -d '{"rid":100,"fields":["a new publication","somebody",""]}'
//	curl -s localhost:8080/stats
//
// Self-check mode (-selfcheck N) is the CI smoke gate: the server
// listens on an ephemeral port, a client drives N queries — interleaved
// with incremental /add ingestion — through real HTTP, every answer is
// diffed against the brute-force oracle, the metrics document lands at
// -metrics-out, and the server shuts down cleanly. Exit status 0 only
// if every answer matched.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fuzzyjoin/internal/conformance"
	"fuzzyjoin/internal/records"
	"fuzzyjoin/internal/simfn"
	"fuzzyjoin/internal/ssjserve"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		corpus  = flag.String("corpus", "", "record file to index (tab-separated lines; empty = seeded synthetic corpus)")
		seed    = flag.Int64("seed", 1, "synthetic corpus seed (when -corpus is empty)")
		nrec    = flag.Int("records", 200, "synthetic corpus size (when -corpus is empty)")
		fnName  = flag.String("fn", "jaccard", "similarity function: jaccard, cosine, dice")
		tau     = flag.Float64("threshold", 0.8, "similarity threshold")
		shards  = flag.Int("shards", 0, "index shard count (0 = default 8)")
		workers = flag.Int("workers", 0, "query worker pool size (0 = GOMAXPROCS)")
		drift   = flag.Float64("drift", 0, "token-frequency drift fraction that triggers a lazy re-order (0 = default 0.25)")

		selfcheck  = flag.Int("selfcheck", 0, "smoke mode: serve on an ephemeral port, run N queries over HTTP, diff each against the oracle, then exit")
		metricsOut = flag.String("metrics-out", "", "write the final Stats document as JSON to this file on shutdown")
	)
	flag.Parse()

	fn, err := simfn.ParseFunc(*fnName)
	if err != nil {
		fatal(err)
	}
	opts := ssjserve.Options{
		Fn:             fn,
		Threshold:      *tau,
		Shards:         *shards,
		Workers:        *workers,
		DriftThreshold: *drift,
	}

	var recs []records.Record
	if *corpus != "" {
		if recs, err = loadCorpus(*corpus); err != nil {
			fatal(err)
		}
	} else {
		w := conformance.Workload{Records: *nrec, Seed: *seed}
		recs = w.SelfRecords()
	}

	if *selfcheck > 0 {
		if err := runSelfcheck(recs, opts, *selfcheck, *metricsOut); err != nil {
			fatal(err)
		}
		return
	}

	svc, err := ssjserve.NewService(opts, recs)
	if err != nil {
		fatal(err)
	}
	st := svc.Stats()
	fmt.Fprintf(os.Stderr, "ssjserve: %d records, %d tokens, %d shards, tau %.2f, serving on %s\n",
		st.Records, st.Tokens, st.Shards, *tau, *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := newServer(svc)
	srv.Addr = *addr
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// stop the worker pool and flush the metrics document.
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "ssjserve: shutdown:", err)
	}
	final := svc.Stats()
	svc.Close()
	if err := writeStats(*metricsOut, final); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ssjserve: served %d queries (%d pairs), stopped cleanly\n",
		final.Queries, final.Pairs)
}

// newServer is the HTTP server over svc. The timeouts bound how long one
// connection may take to send its headers and its request and to be
// sent its reply (a record is small and a Match takes microseconds), so
// a stalled client cannot hold a connection open forever.
func newServer(svc *ssjserve.Service) *http.Server {
	return &http.Server{
		Handler:           ssjserve.NewHandler(svc),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
	}
}

// runSelfcheck is the smoke gate: a real HTTP server on an ephemeral
// port, n queries driven through it, every answer diffed against the
// brute-force oracle. The first third of the queries runs against the
// initial corpus; then the remaining workload records are ingested
// through POST /add and the rest of the queries check the grown corpus.
func runSelfcheck(recs []records.Record, opts ssjserve.Options, n int, metricsOut string) error {
	split := len(recs) * 2 / 3
	if split < 1 {
		split = 1
	}
	base, rest := recs[:split], recs[split:]

	svc, err := ssjserve.NewService(opts, base)
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := newServer(svc)
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()
	fmt.Printf("selfcheck: serving %d records on %s\n", len(base), url)

	p := conformance.Params{Fn: opts.Fn, Threshold: opts.Threshold}

	query := func(i int, corpus []records.Record) error {
		probe := recs[i%len(recs)]
		got, err := httpMatch(url, probe)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		want := conformance.ServeOracle(corpus, probe, p)
		if d := diffPairs(got, want); d != "" {
			return fmt.Errorf("query %d (probe rid=%d): %s", i, probe.RID, d)
		}
		return nil
	}

	// Phase 1: a third of the budget against the initial corpus.
	phase1 := n / 3
	for i := 0; i < phase1; i++ {
		if err := query(i, base); err != nil {
			return err
		}
	}
	// Ingest the held-out records through the HTTP API.
	for _, r := range rest {
		if err := httpAdd(url, r); err != nil {
			return fmt.Errorf("add rid=%d: %w", r.RID, err)
		}
	}
	// Phase 2: the rest of the budget against the grown corpus.
	for i := phase1; i < n; i++ {
		if err := query(i, recs); err != nil {
			return err
		}
	}

	st := svc.Stats()
	if err := writeStats(metricsOut, st); err != nil {
		return err
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Printf("selfcheck: %d queries matched the oracle (%d added via HTTP, %d reorders, %d pairs verified)\n",
		n, len(rest), st.Reorders, st.Funnel.Verified)
	return nil
}

// httpMatch runs one POST /match round trip.
func httpMatch(url string, probe records.Record) ([]records.JoinedPair, error) {
	body, err := postJSON(url+"/match", ssjserve.RecordJSON{RID: probe.RID, Fields: probe.Fields})
	if err != nil {
		return nil, err
	}
	var reply ssjserve.MatchReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, err
	}
	pairs := make([]records.JoinedPair, len(reply.Pairs))
	for i, p := range reply.Pairs {
		pairs[i] = records.JoinedPair{
			Left:  records.Record{RID: p.Left.RID, Fields: p.Left.Fields},
			Right: records.Record{RID: p.Right.RID, Fields: p.Right.Fields},
			Sim:   p.Sim,
		}
	}
	return pairs, nil
}

// httpAdd runs one POST /add round trip.
func httpAdd(url string, rec records.Record) error {
	_, err := postJSON(url+"/add", ssjserve.RecordJSON{RID: rec.RID, Fields: rec.Fields})
	return err
}

func postJSON(url string, v any) ([]byte, error) {
	doc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(buf.String()))
	}
	return buf.Bytes(), nil
}

// diffPairs compares an HTTP answer against the oracle's answer set;
// both compute similarity from identical integer overlaps, so the
// floats must match exactly even across the JSON round trip.
func diffPairs(got, want []records.JoinedPair) string {
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
			return fmt.Sprintf("spurious pair rid=%d", rid)
		}
	}
	return ""
}

// loadCorpus reads tab-separated record lines from a local file.
func loadCorpus(path string) ([]records.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []records.Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		r, err := records.ParseLine(line)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// writeStats records the metrics document (stdout-adjacent artifact for
// CI; skipped when no path is given).
func writeStats(path string, st ssjserve.Stats) error {
	if path == "" {
		return nil
	}
	doc, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssjserve:", err)
	os.Exit(1)
}
