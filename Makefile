# Developer entry points. `make tier1` is the gate every change must
# pass: build, gofmt, full test suite, vet, staticcheck (when installed), and
# the race detector over the module's packages (the engine and DFS run
# user code across goroutines; the pipeline's mapper instances, reducers
# and the reduce-side block spill files in internal/core are that user
# code, and each reduce task attempt owns one internal/ppjoin or
# internal/fvt kernel).

GO ?= go
GOFMT ?= gofmt

.PHONY: all build fmt test vet staticcheck race tier1 smoke exact pairs serve-smoke bench bench-compare bench-test bench-micro bench-planner allocprofile cpuprofile serveprofile conformance conformance-dist cover fuzz-smoke experiments

all: tier1

build:
	$(GO) build ./...

# fmt lists every Go file gofmt would change and fails if there is one.
fmt:
	@files=$$($(GOFMT) -l .); \
	if [ -n "$$files" ]; then echo "gofmt -l: not formatted:"; echo "$$files"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is on PATH (CI installs it; local
# environments without it skip with a note rather than failing).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# race covers every package of the module but two. experiments stays
# out: its shape tests run whole simulated experiments over measured task
# costs, too slow under -race until they get a counted cost source
# (ROADMAP 9(a)). conformance stays out: make conformance already sweeps
# it.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v -e /internal/experiments -e /internal/conformance)
	$(GO) test -race -count=10 -run 'TestMapBufferPoolNoAlias|TestMapBufferWarmAcrossGC|TestMapBufferRetention' ./internal/mapreduce
	$(GO) test -race -count=10 -run 'TestWriterFillPoolNoAlias|TestWriterFillWarmAcrossGC|TestWriterFillRetention' ./internal/dfs
	$(GO) test -race -count=10 ./internal/freelist
	$(GO) test -race -count=10 -run TestOPRJTasksSharePairViews ./internal/core
	$(GO) test -race -count=10 -run TestPKKernelStatePerAttempt ./internal/core
	$(GO) test -race -count=10 -run 'TestConcurrentHistory|TestConcurrentMatchAddReorder' ./internal/ssjserve
	$(GO) test -race -count=10 -run 'TestFetchServedWhileTasksRun|TestPipelinedWriter|TestWorkersFreeMapOutputs' ./internal/distrib

tier1: build fmt test vet staticcheck race

# smoke runs the CLI end to end with tracing on the bundled example
# data, a fifth of the tasks failing their first attempt, leaving
# trace.jsonl / timeline.svg / metrics.json in smoke-out/. It fails
# unless the trace records a failed attempt, the timeline draws its
# retry as a rerun span, and the printed pairs are byte-equal to
# testdata/pubs.pairs.txt (so retried attempts print what a clean run
# prints; cmd/fuzzyjoin's TestPrintPairsPinsOutput pins the same file).
smoke:
	@mkdir -p smoke-out
	$(GO) run ./cmd/fuzzyjoin -in testdata/pubs.tsv -nodes 2 -max-attempts 3 \
		-fault-rate 0.2 -trace -trace-out smoke-out -out smoke-out/pairs.txt
	@test -s smoke-out/trace.jsonl && test -s smoke-out/timeline.svg && test -s smoke-out/metrics.json
	@grep -q '"type":"attempt-fail"' smoke-out/trace.jsonl || { echo "smoke: no attempt-fail event in smoke-out/trace.jsonl"; exit 1; }
	@grep -q '(rerun)</title>' smoke-out/timeline.svg || { echo "smoke: no rerun span in smoke-out/timeline.svg"; exit 1; }
	@cmp smoke-out/pairs.txt testdata/pubs.pairs.txt || { echo "smoke: smoke-out/pairs.txt differs from testdata/pubs.pairs.txt"; exit 1; }
	@echo "smoke artifacts in smoke-out/"

# exact runs 24 fuzzyjoin joins (4 inputs x 3 combos x in process and
# -workers 2) at PARENT and at the working tree and compares outputs
# (cmp), counter lines and job-report lines (map:/reduce:/shuffle:/side
# files) of -stats, timings cut. scripts/exact.sh exits 1 if an output or
# a counter line differs and 2 if only job-report lines differ. The
# parent is built in a git worktree under .bench_build/exact/.
exact:
	@test -n "$(PARENT)" || { echo "usage: make exact PARENT=<rev>"; exit 2; }
	GO=$(GO) sh scripts/exact.sh $(PARENT)

# pairs runs N alternating pairs of fuzzyjoin -stats joins, PARENT
# against the working tree, on a seeded corpus of SCALE (1e5 or 1e6)
# records, JOIN=self or rs, ARGS passed to both sides; every pair's
# outputs must be cmp-equal. It prints the median, quartiles, Δ and won
# of process wall, each stage's wall, Stage 2's map and reduce cost, map
# tasks per job and every -stats counter (scripts/pairs.sh).
pairs:
	@test -n "$(PARENT)" || { echo "usage: make pairs PARENT=<rev> [N=5] [SCALE=1e5|1e6] [JOIN=self|rs] [ARGS=...]"; exit 2; }
	GO=$(GO) N=$(N) SCALE=$(SCALE) JOIN=$(JOIN) ARGS="$(ARGS)" sh scripts/pairs.sh $(PARENT)

# conformance sweeps the full pipeline-variant matrix (384 cells: stage
# combos × self/R-S × routing × §5 strategy (block processing or length
# routing) × plain/faulty/parallel/dist execution) against the exact
# oracle, then runs the metamorphic invariant suite, on a handful of
# seeded workloads. Any divergence prints a minimized `ssjcheck` reproducer and
# fails. The bare target covers the in-process modes; dist cells (forked
# worker processes over RPC) run in conformance-dist. The -seed 9 line is
# the workload where one pair shares many prefix tokens (692 self / 1,152
# R-S oracle pairs against 7-60 on the others): Stage 3 does not dedup
# and the diff reports a repeated pair, so it gates exact-once emission.
# The line before it has no oracle pair at all (no near-duplicates, S
# next to disjoint from R), so BRJ runs over empty paired-RID sets.
# The last line is there for the bitmap filter. Every line before it
# that runs BK draws at most 188 distinct tokens, fewer than the 256
# signature bits, so a bit (rank mod 256) names one token and the
# bitmap bound is exact. The -vocab 1024 line draws about 700, so
# signatures collide and the bound is loose where BK tests it, ahead of
# the prefix filter on every pair of a group (118 self / 289 R-S oracle
# pairs).
conformance:
	$(GO) run ./cmd/ssjcheck -seed 1 -records 40 -serve
	$(GO) run ./cmd/ssjcheck -seed 2 -records 50 -tau 0.7 -serve
	$(GO) run ./cmd/ssjcheck -seed 3 -records 60 -vocab 64 -skew 2.0 -tau 0.6 -serve
	$(GO) run ./cmd/ssjcheck -seed 1 -records 40 -vocab 4096 -tau 0.95 -neardup -1 -overlap 0.001 \
		-combo BTO-PK-BRJ,BTO-FVT-BRJ -invariants=false
	$(GO) run ./cmd/ssjcheck -seed 9 -records 200 -vocab 48 -skew 2.0 -tau 0.5 -neardup 0.4 -exec plain -invariants=false
	$(GO) run ./cmd/ssjcheck -seed 11 -records 300 -vocab 1024 -skew 1.05 -tau 0.6 \
		-combo OPTO-BK-OPRJ,BTO-BK-BRJ -exec plain -invariants=false

# serve-smoke is the online-service CI gate: the server comes up on an
# ephemeral port, 100 queries run through real HTTP — interleaved with
# incremental /add ingestion that crosses a drift re-order — every
# answer is diffed against the brute-force oracle, the metrics document
# lands in serve-out/metrics.json, and the server shuts down cleanly.
serve-smoke:
	@mkdir -p serve-out
	$(GO) run ./cmd/ssjserve -selfcheck 100 -records 150 -seed 5 \
		-metrics-out serve-out/metrics.json
	@test -s serve-out/metrics.json
	@echo "serve metrics in serve-out/metrics.json"

# conformance-dist exercises the distributed backend: a dist-only sweep
# on two forked worker processes, two chaos sweeps that SIGKILL workers
# mid-task on a seeded schedule (output must still match the oracle
# exactly; kills that land on workers holding committed map outputs make
# the coordinator recompute them; two kill schedules, because which
# worker holds what depends on timing, so one schedule can miss every
# holder), and an end-to-end traced CLI run whose per-attempt worker
# ids land in dist-out/trace.jsonl.
conformance-dist:
	$(GO) run ./cmd/ssjcheck -seed 1 -records 40 -exec dist -workers 2 -invariants=false
	$(GO) run ./cmd/ssjcheck -seed 2 -records 40 -exec dist -workers 3 \
		-chaos 0.4 -chaos-seed 7 -combo BTO-PK-BRJ,OPTO-BK-OPRJ,BTO-FVT-BRJ -invariants=false
	$(GO) run ./cmd/ssjcheck -seed 2 -records 40 -exec dist -workers 3 \
		-chaos 0.4 -chaos-seed 1 -combo BTO-PK-BRJ,OPTO-BK-OPRJ,BTO-FVT-BRJ -invariants=false
	@mkdir -p dist-out
	$(GO) run ./cmd/fuzzyjoin -in testdata/pubs.tsv -workers 2 \
		-trace -trace-out dist-out -out dist-out/pairs.txt
	@test -s dist-out/trace.jsonl && test -s dist-out/pairs.txt
	@echo "distributed run artifacts in dist-out/"

# cover runs the full test suite with a cross-package coverage profile,
# renders cover.html, and enforces the ratchet: total statement coverage
# must not drop below COVERAGE_BASELINE (raise the baseline when
# coverage durably improves; never lower it to make a change pass).
cover:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=./internal/...,./cmd/... ./...
	$(GO) tool cover -html=cover.out -o cover.html
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$NF); print $$NF}'); \
	base=$$(cat COVERAGE_BASELINE); \
	echo "total statement coverage: $$total% (baseline $$base%)"; \
	if [ "$$(awk -v t=$$total -v b=$$base 'BEGIN{print (t+0 >= b+0) ? "ok" : "low"}')" != ok ]; then \
		echo "FAIL: coverage $$total% fell below the $$base% baseline"; exit 1; \
	fi

# fuzz-smoke runs each fuzz target briefly with the committed seed
# corpora plus a short randomized exploration — a regression net, not a
# bug hunt (leave -fuzztime high and unattended for that).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzTokenize$$' -fuzztime=$(FUZZTIME) ./internal/tokenize
	$(GO) test -run='^$$' -fuzz=FuzzTokenizeBytes -fuzztime=$(FUZZTIME) ./internal/tokenize
	$(GO) test -run='^$$' -fuzz=FuzzRecordCodec -fuzztime=$(FUZZTIME) ./internal/records
	$(GO) test -run='^$$' -fuzz=FuzzReadLine -fuzztime=$(FUZZTIME) ./internal/records
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRun -fuzztime=$(FUZZTIME) ./internal/mapreduce
	$(GO) test -run='^$$' -fuzz=FuzzVerifyExact -fuzztime=$(FUZZTIME) ./internal/simfn
	$(GO) test -run='^$$' -fuzz=FuzzBitsigAdmissible -fuzztime=$(FUZZTIME) ./internal/bitsig
	$(GO) test -run='^$$' -fuzz=FuzzTailVerify -fuzztime=$(FUZZTIME) ./internal/ppjoin
	$(GO) test -run='^$$' -fuzz=FuzzFVTTraversal -fuzztime=$(FUZZTIME) ./internal/fvt
	$(GO) test -run='^$$' -fuzz=FuzzPlannerDeterministic -fuzztime=$(FUZZTIME) \
		-fuzzminimizetime=5s ./internal/plan

# bench runs the repository's benchmark (bench/README.md): every workload
# in BENCHMARK.json, the end-to-end pass and the traced per-layer pass,
# each output checked against the reference. BENCH_OUT names the result
# file; bench-compare checks two result files against the bounds in
# BENCHMARK.json (make bench-compare A=parent.json B=change.json) and
# exits 1 on a regression. bench-test is the benchmark's own 1/50-scale
# test suite (bench/ is a module of its own, outside `go test ./...`).
BENCH_OUT ?= bench/out/run.json
bench:
	sh bench/run.sh -trace 1 -out $(BENCH_OUT)

bench-compare:
	@test -n "$(A)" && test -n "$(B)" || { echo "usage: make bench-compare A=old.json B=new.json"; exit 2; }
	sh bench/run.sh -compare $(A) $(B)

bench-test:
	cd bench && $(GO) test ./...

# bench-micro runs the root package's testing.B benchmarks, one per paper
# figure and table (DESIGN.md §3).
bench-micro:
	$(GO) test -bench=. -benchmem -run=^$$ .

# allocprofile prints where a join allocates: BenchmarkJoinAllocProfile
# (internal/core; the self_dblp recipe at W records — W/4 DBLP-shaped
# records increased ×4 — or with R=rs the rs_citeseer recipe — FVT, R-S,
# W/4 records a side increased ×2 — or with R=dense the self_dense
# recipe — OPTO-BK-OPRJ at τ 0.6, W/4 records over a Zipf-1.05,
# 1,024-token vocabulary increased ×4, the workload whose Stage 2 kernel
# dominates; each join's output read back) under a 4 KiB memory-profile
# rate, then pprof's alloc_space table. The profile holds four joins (the
# benchmark's one-iteration probe, then three) and two corpus set-ups.
# The test binary and profile land in .bench_build/.
W ?= 20000
R ?= self
allocprofile:
	@mkdir -p .bench_build
	$(GO) test -run='^$$' -bench=BenchmarkJoinAllocProfile -benchtime=3x \
		-memprofilerate=4096 -memprofile=alloc.prof -outputdir=$(CURDIR)/.bench_build \
		-o .bench_build/core.test ./internal/core -args -alloc-records=$(W) -alloc-recipe=$(R)
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 .bench_build/core.test .bench_build/alloc.prof

# cpuprofile prints where a join spends its CPU: the same
# BenchmarkJoinAllocProfile run (W records, recipe R) under a CPU
# profile, then pprof's flat table. It includes the corpus generator
# (datagen.*); the test binary and profile land in .bench_build/.
cpuprofile:
	@mkdir -p .bench_build
	$(GO) test -run='^$$' -bench=BenchmarkJoinAllocProfile -benchtime=3x \
		-cpuprofile=cpu.prof -outputdir=$(CURDIR)/.bench_build \
		-o .bench_build/core.test ./internal/core -args -alloc-records=$(W) -alloc-recipe=$(R)
	$(GO) tool pprof -top -nodecount=25 .bench_build/core.test .bench_build/cpu.prof

# serveprofile prints where a serve round spends its time and its
# allocations: BenchmarkServeRound (internal/ssjserve; the serve_mixed
# recipe over W DBLP-shaped records — a fresh service, then W/10
# operations from two clients, 90 % Match and 10 % Add with one drift
# re-order; three rounds) under a CPU profile and a 4 KiB memory-profile
# rate, then pprof's CPU and alloc_space tables. Both include the builds
# and the corpus generator (datagen.*).
serveprofile: W = 100000
serveprofile:
	@mkdir -p .bench_build
	$(GO) test -run='^$$' -bench=BenchmarkServeRound -benchtime=3x \
		-cpuprofile=serve_cpu.prof -memprofilerate=4096 -memprofile=serve_alloc.prof \
		-outputdir=$(CURDIR)/.bench_build -o .bench_build/ssjserve.test \
		./internal/ssjserve -args -serve-records=$(W)
	$(GO) tool pprof -top -nodecount=25 .bench_build/ssjserve.test .bench_build/serve_cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 .bench_build/ssjserve.test .bench_build/serve_alloc.prof

# bench-planner runs the cost-planner ablation: three Zipf-skewed
# workloads, each joined for real under every hand-grid cell (stage
# combos × reducer counts) and under the planner's sampled choice;
# simulated makespans, the planner-vs-best ratio, and the worst-cell
# margin are recorded to BENCH_planner.json.
bench-planner:
	$(GO) run ./cmd/ssjexp -only planner -planner-out BENCH_planner.json

# experiments regenerates experiments_output.txt, the full suite's text
# output (untracked: it is a build artifact; regenerate it locally when
# you want the complete table set in one file).
experiments:
	$(GO) run ./cmd/ssjexp | tee experiments_output.txt
