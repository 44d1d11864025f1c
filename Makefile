GO ?= go

.PHONY: build test check race bench bench-scale bench-standing bench-json bench-planner bench-herd bench-store obs-smoke metrics-lint chaos-smoke resilience-smoke durability-smoke fuzz-smoke conformance clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the full verification gate: formatting, static analysis, the
# whole test suite under the race detector (the parallel evaluator paths
# run with Parallelism > 1 in tests, so races surface here), the telemetry
# and chaos smoke tests against live servers, and a fuzz smoke pass over
# the three parsers.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) conformance
	$(MAKE) obs-smoke
	$(MAKE) metrics-lint
	$(MAKE) chaos-smoke
	$(MAKE) resilience-smoke
	$(MAKE) durability-smoke
	$(MAKE) fuzz-smoke

# conformance lints the corpus layout and runs the SPARQL-semantics harness:
# the W3C-style testdata corpus, the metamorphic oracles and the HIFUN
# differential oracle (see internal/conformance). -v so the per-category
# pass/fail table is printed.
conformance:
	sh scripts/corpus-lint.sh
	$(GO) test -v -run 'TestCorpus|TestMetamorphic|TestHIFUNDifferential' ./internal/conformance/

# obs-smoke starts the server and asserts /metrics, /api/trace and pprof
# respond with the expected content (see scripts/obs-smoke.sh).
obs-smoke:
	sh scripts/obs-smoke.sh

# chaos-smoke boots the server with fault injection armed and asserts the
# governance layer holds: query timeout -> structured 504, handler panic ->
# 500 with the process still up, oversized body -> 413, SIGTERM -> clean
# drain (see scripts/chaos-smoke.sh).
# metrics-lint asserts every /metrics family follows the naming
# conventions (rdfa_ prefix, _total counters, _seconds histograms) — see
# scripts/metrics-lint.sh.
metrics-lint:
	sh scripts/metrics-lint.sh

chaos-smoke:
	sh scripts/chaos-smoke.sh

# resilience-smoke boots live servers and drives the overload-resilience
# layer end to end: herd collapse (identical queries share one execution),
# queue-overflow shedding (structured 503 + Retry-After while cached
# fingerprints keep serving), and degraded-mode stale serving under a paging
# latency SLO (see scripts/resilience-smoke.sh).
resilience-smoke:
	sh scripts/resilience-smoke.sh

# durability-smoke boots the server with -data-dir, applies acknowledged
# updates, kills it with SIGKILL (twice — once against the WAL tail, once
# past a checkpoint) and asserts the reboot serves byte-identical answers
# (see scripts/durability-smoke.sh).
durability-smoke:
	sh scripts/durability-smoke.sh

# fuzz-smoke runs each fuzz target for a short burst — the parsers, the
# results serializer's string escaper against encoding/json, and the graph's
# sorted permutations against the map-of-maps oracle; a discovered panic or
# mismatch fails the build and leaves its input in testdata/fuzz/.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -run XXX ./internal/sparql/
	$(GO) test -fuzz '^FuzzParseUpdate$$' -fuzztime $(FUZZTIME) -run XXX ./internal/sparql/
	$(GO) test -fuzz '^FuzzJSONString$$' -fuzztime $(FUZZTIME) -run XXX ./internal/sparql/
	$(GO) test -fuzz '^FuzzParseTurtle$$' -fuzztime $(FUZZTIME) -run XXX ./internal/rdf/
	$(GO) test -fuzz '^FuzzParseTemporal$$' -fuzztime $(FUZZTIME) -run XXX ./internal/rdf/
	$(GO) test -fuzz '^FuzzGraphOps$$' -fuzztime $(FUZZTIME) -run XXX ./internal/rdf/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -run XXX ./internal/hifun/

race:
	$(GO) test -race ./...

# bench runs the efficiency cells, rdf's match micro-benches and the engine's
# BenchmarkJoinStep: one query of each sparql-cold shape on that workload's
# graph, in process, so B/op is what the engine allocates for the shape.
bench:
	$(GO) test -bench . -benchtime 5x -run XXX .
	$(GO) test -bench '^BenchmarkMatch(IDs)?$$' -run XXX ./internal/rdf/
	$(GO) test -bench '^BenchmarkJoinStep$$' -benchmem -run XXX ./internal/sparql/

# bench-scale loads the products graph once at 200k, 1M and 2M triples and
# reports load seconds, bytes per triple, match, add/remove and snapshot I/O
# (internal/rdf/scale_test.go; ≈15 s, 400 MB at the 2M step). Outside the
# standing benchmark: compare it across commits as alternating loads.
bench-scale:
	$(GO) test ./internal/rdf -run '^$$' -bench GraphScale -benchtime 1x

# bench-standing runs the standing benchmark (benchmark/README.md): each of
# its four workloads once — or just WORKLOAD — end to end over HTTP with
# tracing off, printing p50/p90/ops_per_s and the result line with the four
# bounded metrics. These are the numbers README's performance section quotes;
# SEED picks the op order, never what an op asks.
SEED ?= 1
WORKLOAD ?= facet-sessions sparql-cold sparql-hot mixed-rw
bench-standing:
	@for w in $(WORKLOAD); do \
		$(GO) run ./benchmark -workload $$w -seed $(SEED) -trace 0 || exit 1; done

# bench-json regenerates the machine-readable BENCH_results.json via the
# experiment runner (quick scales; drop -quick for the full sweep) and
# appends the run — timestamped, with its configuration and git describe —
# to the cumulative BENCH_history.json, so successive runs build a
# performance timeline to diff regressions against (-history "" disables).
bench-json:
	$(GO) run ./cmd/benchrunner -exp E6 -quick

# bench-planner runs the adaptive-planner feedback-convergence experiment
# (E12): the workload replays twice over one feedback store and the per-pass
# worst q-error and latency quantiles are appended to BENCH_history.json —
# the acceptance evidence that the second pass plans strictly better.
bench-planner:
	$(GO) run ./cmd/benchrunner -exp E12

# bench-herd runs the hot-fingerprint herd experiment (E13): concurrent
# clients replay a hot query set against an uncached server and against the
# answer-cache + singleflight stack; the throughput ratio is appended to
# BENCH_history.json — acceptance is cached >= 5x uncached.
bench-herd:
	$(GO) run ./cmd/benchrunner -exp E13

# bench-store runs the durable-store restart experiment (E14): cold-start by
# Turtle re-parse + materialize versus segment + WAL-replay restore of the
# same graph; both means land in BENCH_history.json — acceptance is restore
# >= 5x faster.
bench-store:
	$(GO) run ./cmd/benchrunner -exp E14

clean:
	rm -f BENCH_results.json spiral.svg city.svg city.json
