GO ?= go

.PHONY: build test check race paper bench bench-scale bench-standing obs-smoke metrics-lint chaos-smoke resilience-smoke durability-smoke fuzz-smoke conformance clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the full verification gate: formatting, static analysis, the
# whole test suite under the race detector in a shuffled test order (the
# tests run concurrent queries over one shared graph and the facet layer's
# per-property fan-out, so races surface here; a test that depends on its
# neighbours fails and prints its seed), the allocation budgets three times
# without the race detector (they are written for its absence), one pass of
# every BenchmarkJoinStep shape, of BenchmarkParse and
# BenchmarkProfileOverhead (TestQueryAllocBudgets holds both to budgets), of BenchmarkDictionary, BenchmarkObjectLookup
# and BenchmarkLoadTurtle at 11 200 laptops (the second pattern level keeps every named sub-benchmark and drops 112 000),
# of BenchmarkStateWrite, BenchmarkPropertyFacets, BenchmarkCachedRead, BenchmarkColdRead, BenchmarkTraceRetentionOverhead,
# BenchmarkTailSamplerDecision and BenchmarkClickScale's shapes at 11 200 laptops (so none can rot;
# TestCachedReadAllocs holds a cache hit to its allocation budget, TestColdReadAllocatesNoBody a refused miss
# to its bytes budget), the telemetry and chaos smoke tests against
# live servers, and a fuzz smoke pass over the three parsers.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./...
	$(GO) test -count=3 -run 'Allocs|AllocBudget' ./internal/...
	$(GO) test -race -count=10 -run 'TermViewDuringWrites|DictMatchesReference|CloneIsIndependent' ./internal/rdf
	$(GO) test -run '^$$' -bench 'JoinStep|Parse$$|ProfileOverhead' -benchmem -benchtime 1x ./internal/sparql
	$(GO) test -run '^$$' -bench 'Dictionary|ObjectLookup|LoadTurtle/(^[a-z]|^11200-)' -benchmem -benchtime 1x ./internal/rdf
	$(GO) test -run '^$$' -bench 'StateWrite|CachedRead|ColdRead|TraceRetentionOverhead' -benchmem -benchtime 1x ./internal/server
	$(GO) test -run '^$$' -bench PropertyFacets -benchmem -benchtime 1x ./internal/facet
	$(GO) test -run '^$$' -bench 'ClickScale/^11200$$' -benchmem -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench TailSamplerDecision -benchmem -benchtime 1x ./internal/obs
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

# obs-smoke starts the server and asserts /metrics, /api/traces/{id},
# /api/workload and pprof respond with the expected content (see
# scripts/obs-smoke.sh).
obs-smoke:
	sh scripts/obs-smoke.sh

# metrics-lint asserts every /metrics family follows the naming
# conventions (rdfa_ prefix, _total counters, _seconds histograms) — see
# scripts/metrics-lint.sh.
metrics-lint:
	sh scripts/metrics-lint.sh

# chaos-smoke boots the server with fault injection armed and asserts the
# governance layer holds: query timeout -> structured 504, handler panic ->
# 500 with the process still up, oversized body -> 413, SIGTERM -> clean
# drain (see scripts/chaos-smoke.sh).
chaos-smoke:
	sh scripts/chaos-smoke.sh

# resilience-smoke boots live servers and drives the overload-resilience
# layer end to end: herd collapse (identical queries share one execution),
# queue-overflow shedding (structured 503 + Retry-After while cached
# fingerprints keep serving), and stale serving only on request (after an
# update, Cache-Control: max-stale gets the outdated answer marked stale
# with an Age, a plain request a fresh miss, and /readyz stays 200) — see
# scripts/resilience-smoke.sh.
resilience-smoke:
	sh scripts/resilience-smoke.sh

# durability-smoke boots the server with -data-dir, applies acknowledged
# updates, kills it with SIGKILL (twice — once against the WAL tail, once
# past a checkpoint) and asserts the reboot serves byte-identical answers
# (see scripts/durability-smoke.sh).
durability-smoke:
	sh scripts/durability-smoke.sh

# fuzz-smoke runs each fuzz target for a short burst — the parsers, the lexer
# against the rune lexer it replaced, the Turtle loader against the parser it
# replaced (acceptance, every ID's term, the triples), the JSON
# string escaper and the state writer's float formatter against encoding/json,
# a SELECT's JSON streamed through a chunk against the same body rendered
# whole, the graph's sorted permutations against the map-of-maps oracle, the term
# dictionary against the map-and-slice one, the answer cache's key
# injectivity, and the segment loader (CRC before decode, and a re-checkpoint
# of what it accepts loads back to the same triples and IDs); a
# discovered panic or mismatch fails the build and leaves its input in
# testdata/fuzz/.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -run XXX ./internal/sparql/
	$(GO) test -fuzz '^FuzzParseUpdate$$' -fuzztime $(FUZZTIME) -run XXX ./internal/sparql/
	$(GO) test -fuzz '^FuzzLex$$' -fuzztime $(FUZZTIME) -run XXX ./internal/sparql/
	$(GO) test -fuzz '^FuzzJSONString$$' -fuzztime $(FUZZTIME) -run XXX ./internal/sparql/
	$(GO) test -fuzz '^FuzzSelectJSONStream$$' -fuzztime $(FUZZTIME) -run XXX ./internal/sparql/
	$(GO) test -fuzz '^FuzzJSONFloat$$' -fuzztime $(FUZZTIME) -run XXX ./internal/server/
	$(GO) test -fuzz '^FuzzParseTurtle$$' -fuzztime $(FUZZTIME) -run XXX ./internal/rdf/
	$(GO) test -fuzz '^FuzzParseTemporal$$' -fuzztime $(FUZZTIME) -run XXX ./internal/rdf/
	$(GO) test -fuzz '^FuzzGraphOps$$' -fuzztime $(FUZZTIME) -run XXX ./internal/rdf/
	$(GO) test -fuzz '^FuzzDict$$' -fuzztime $(FUZZTIME) -run XXX ./internal/rdf/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -run XXX ./internal/hifun/
	$(GO) test -fuzz '^FuzzCacheKey$$' -fuzztime $(FUZZTIME) -run XXX ./internal/resilience/
	$(GO) test -fuzz '^FuzzLoadSegment$$' -fuzztime $(FUZZTIME) -run XXX ./internal/store/

race:
	$(GO) test -race -shuffle=on ./...

# paper prints the paper's tables and figures that need no participants
# (E1–E7, E10, E11 of EXPERIMENTS.md; ≈7 s at full scale). It records
# nothing: E11's SVG/JSON artifacts go to a fresh temp directory it names.
paper:
	$(GO) run ./cmd/rdfa-cli paper

# bench runs the in-process micro-benchmarks, each next to the code it
# measures: rdf's match micro-benches and the engine's BenchmarkJoinStep — one query of each
# sparql-cold shape (chain, star-filter, group-by, big-select, optional,
# bind-year), a SUM by manufacturer, an ORDER BY date and the HIFUN semi-join
# on that workload's graph, so B/op is what
# the engine allocates for the shape.
bench:
	$(GO) test -bench '^BenchmarkMatch(IDs)?$$' -run XXX ./internal/rdf/
	$(GO) test -bench '^BenchmarkJoinStep$$' -benchmem -run XXX ./internal/sparql/

# bench-scale loads the products graph once at 200k, 1M and 2M triples and
# reports load seconds, bytes per triple, match, add/remove, the p99 and the
# slowest of 5 120 single Adds (a delta merge) and snapshot I/O
# (internal/rdf/scale_test.go; ≈12 s in all, 240 MB at the 2M step), then what a
# durable store's checkpoint and Open allocate and take at the same sizes
# (internal/store/scale_test.go), then what a click costs at 11 200, 112 000
# and 224 000 laptops: the start and Laptop states and four Σ runs, AVG(price)
# by manufacturer at the start state, over all laptops and over those with
# price ≥ 1000 and three USB ports, and COUNT by the origin of the hard
# drive's manufacturer, ns/op,
# B/op and allocs/op (internal/core/scale_test.go; ≈25 s, one graph a
# scale). Outside the standing benchmark: compare it across commits as
# alternating loads.
bench-scale:
	$(GO) test ./internal/rdf -run '^$$' -bench GraphScale -benchtime 1x
	$(GO) test ./internal/store -run '^$$' -bench StoreScale -benchtime 1x
	$(GO) test ./internal/core -run '^$$' -bench ClickScale -benchmem -benchtime 5x

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
