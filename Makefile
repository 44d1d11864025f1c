GO ?= go

.PHONY: build test check race paper bench bench-scale bench-standing obs-smoke metrics-lint chaos-smoke resilience-smoke durability-smoke fuzz-smoke conformance clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the full verification gate: formatting, static analysis, the
# whole test suite under the race detector in a shuffled test order (the
# parallel evaluator paths run with Parallelism > 1 in tests, so races
# surface here; a test that depends on its neighbours fails and prints its
# seed), the telemetry and chaos smoke tests against live servers, and a
# fuzz smoke pass over the three parsers.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./...
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
	$(GO) test -race -shuffle=on ./...

# paper prints the paper's tables and figures that need no participants
# (E1–E7, E10, E11 of EXPERIMENTS.md; ≈7 s at full scale). It records
# nothing: E11's SVG/JSON artifacts go to a fresh temp directory it names.
paper:
	$(GO) run ./cmd/papertables -all

# bench runs the in-process micro-benchmarks, each next to the code it
# measures: rdf's match micro-benches, the answer-cache cube ablation, the
# tracing on/off cost, and the engine's BenchmarkJoinStep — one query of each
# sparql-cold shape on that workload's graph, so B/op is what the engine
# allocates for the shape.
bench:
	$(GO) test -bench '^BenchmarkMatch(IDs)?$$' -run XXX ./internal/rdf/
	$(GO) test -bench '^BenchmarkCubeReuse$$' -run XXX ./internal/core/
	$(GO) test -bench '^BenchmarkTraceOverhead$$' -run XXX ./internal/sparql/
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

# clean removes what the standing benchmark leaves behind (.gitignore).
clean:
	rm -rf .bench_out .bench_build
