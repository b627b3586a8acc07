package ssjserve

import (
	"context"
	"flag"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fuzzyjoin/internal/datagen"
	"fuzzyjoin/internal/records"
)

var serveRecords = flag.Int("serve-records", 100000, "corpus size of BenchmarkServeRound (make serveprofile W=N)")

// benchCorpus is the benchmark's serve_mixed corpus: a quarter of
// -serve-records DBLP-shaped datagen records, Increased ×4.
func benchCorpus() []records.Record {
	return datagen.Increase(datagen.Generate(datagen.Spec{Records: *serveRecords / 4, Seed: 3}), 4)
}

// BenchmarkServeRound is the round `make serveprofile` profiles: the
// benchmark's serve_mixed recipe over benchCorpus at τ 0.8. Each
// iteration builds a fresh service (untimed, reported as build-ms) and
// drives one closed-loop round through it from two clients: records/10
// operations, nine Match in ten with probes drawn uniformly from the
// corpus and one Add of a fresh record, the drift threshold set so that
// the re-order fires once, three quarters of the way through the adds.
func BenchmarkServeRound(b *testing.B) {
	const clients = 2
	corpus := benchCorpus()
	ops := len(corpus) / 10
	fresh := datagen.Generate(datagen.Spec{Records: ops / 10, Seed: 5, StartRID: 200_000_000})
	opts := Options{Threshold: 0.8, Workers: clients,
		DriftThreshold: 0.75 * float64(ops/10) / float64(len(corpus))}
	ctx := context.Background()
	var build time.Duration

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		start := time.Now()
		svc, err := NewService(opts, corpus)
		if err != nil {
			b.Fatal(err)
		}
		build += time.Since(start)
		b.StartTimer()

		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i*clients + c)))
				adds := 0
				for op := 0; op < ops/clients; op++ {
					if op%10 == 9 {
						if err := svc.Add(fresh[(c+clients*adds)%len(fresh)]); err != nil {
							b.Error(err)
						}
						adds++
						continue
					}
					if _, err := svc.Match(ctx, corpus[rng.Intn(len(corpus))]); err != nil {
						b.Error(err)
					}
				}
			}(c)
		}
		wg.Wait()
		b.StopTimer()
		if got := svc.Index().Reorders(); got != 1 {
			b.Errorf("%d drift re-orders in the round, the recipe is built to have exactly 1", got)
		}
		svc.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(build.Milliseconds())/float64(b.N), "build-ms")
}

var matchSink []records.JoinedPair

// BenchmarkMatch is one caller against the bare index over the same
// corpus: what a Match costs with no queue and no ingestion beside it.
func BenchmarkMatch(b *testing.B) {
	corpus := benchCorpus()
	ix, err := NewIndex(Options{Threshold: 0.8}, corpus)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matchSink = ix.Match(corpus[rng.Intn(len(corpus))])
	}
}
