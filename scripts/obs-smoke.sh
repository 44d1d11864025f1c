#!/bin/sh
# obs-smoke: end-to-end check of the telemetry surface. Builds and starts the
# server on a scratch port, drives SPARQL queries, one analytic query (sent
# twice: the repeat must be an answer-cache hit) and one update through it,
# then asserts /metrics exposes the promised metric families, the run's
# X-Trace-ID resolves through /api/traces/{id} to its span tree and the
# engine's operator profile, and /api/workload lists the update. The first /sparql query is
# fault-injected slow (delay on the first exec activation only) so the tail
# sampler provably retains it — the trace-retention section then walks the
# whole drill-down:
# slow query -> /api/traces search -> span waterfall -> OpenMetrics exemplar
# whose trace ID resolves back through the API. Needs only sh + curl + grep.
set -eu

PORT="${OBS_SMOKE_PORT:-18923}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/rdfanalytics"
LOG="$(mktemp)"

go build -o "$BIN" ./cmd/rdfanalytics

RDFA_FAULT='server.sparql.exec=delay:300ms@1' \
    "$BIN" -addr "127.0.0.1:$PORT" -data products-small -debug >"$LOG" 2>&1 &
PID=$!
trap 'kill $PID 2>/dev/null; rm -f "$LOG"; rm -rf "$(dirname "$BIN")"' EXIT

# Wait for the listener.
i=0
until curl -sf "$BASE/api/stats" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "obs-smoke: server did not come up; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

NS='http://example.org/products#'

# The first /sparql exec hits the armed 300ms delay fault: a known-slow
# execution the tail sampler must retain. Capture its trace ID from the
# response headers.
SLOW_HDRS="$(mktemp)"
curl -sf -D "$SLOW_HDRS" "$BASE/sparql" --data-urlencode \
    "query=SELECT ?s ?p WHERE { ?s ?p <${NS}Laptop> }" >/dev/null
SLOW_TID="$(awk 'tolower($1) == "x-trace-id:" {print $2}' "$SLOW_HDRS" | tr -d '\r')"
rm -f "$SLOW_HDRS"
if [ -z "$SLOW_TID" ]; then
    echo "obs-smoke: FAIL — /sparql response carries no X-Trace-ID" >&2
    exit 1
fi

# One protocol query and one analytic query (click -> G -> Sigma -> run).
curl -sf "$BASE/sparql" --data-urlencode \
    "query=SELECT ?s WHERE { ?s a <${NS}Laptop> } LIMIT 3" >/dev/null
curl -sf -X POST "$BASE/api/click/class" -H 'Content-Type: application/json' \
    -d "{\"class\":\"${NS}Laptop\"}" >/dev/null
curl -sf -X POST "$BASE/api/groupby" -H 'Content-Type: application/json' \
    -d "{\"path\":[{\"p\":\"${NS}manufacturer\"}]}" >/dev/null
curl -sf -X POST "$BASE/api/aggregate" -H 'Content-Type: application/json' \
    -d '{"op":"COUNT"}' >/dev/null
RUN_HDRS="$(mktemp)"
curl -sf -D "$RUN_HDRS" -X POST "$BASE/api/run" >/dev/null
RUN_TID="$(awk 'tolower($1) == "x-trace-id:" {print $2}' "$RUN_HDRS" | tr -d '\r')"
rm -f "$RUN_HDRS"

# A run is a query: the same Sigma click again is served from the answer
# cache.
RUN_CACHE="$(curl -sf -D - -o /dev/null -X POST "$BASE/api/run" |
    awk 'tolower($1) == "x-cache:" {print $2}' | tr -d '\r')"
if [ "$RUN_CACHE" != hit ]; then
    echo "obs-smoke: FAIL — a repeated /api/run answered X-Cache: \"$RUN_CACHE\", want hit" >&2
    exit 1
fi

# One update: every operation kind reaches the workload view.
curl -sf "$BASE/sparql" --data-urlencode \
    "update=INSERT DATA { <${NS}smokeProbe> a <${NS}Laptop> . }" >/dev/null

METRICS="$(curl -sf "$BASE/metrics")"
for name in \
    rdfa_http_requests_total \
    rdfa_build_info \
    rdfa_go_heap_alloc_bytes \
    rdfa_go_goroutines \
    rdfa_http_request_seconds_bucket \
    rdfa_http_active_sessions \
    rdfa_http_sessions_created_total \
    rdfa_sparql_query_phase_seconds_bucket \
    rdfa_sparql_exec_seconds_count \
    rdfa_rdf_index_scans_total \
    rdfa_hifun_execute_seconds_count \
    rdfa_core_run_analytics_seconds_count \
    rdfa_facet_compute_seconds_count \
    rdfa_planner_qerror_bucket \
    rdfa_sparql_operator_rows_total \
    rdfa_sparql_operator_seconds_count \
    rdfa_slow_queries_total; do
    if ! printf '%s\n' "$METRICS" | grep -q "^$name"; then
        echo "obs-smoke: FAIL — metric $name missing from /metrics" >&2
        exit 1
    fi
done

TRACE="$(curl -sf "$BASE/api/traces/$RUN_TID")"
for frag in run_analytics translate exec; do
    if ! printf '%s' "$TRACE" | grep -q "$frag"; then
        echo "obs-smoke: FAIL — /api/traces/$RUN_TID missing span \"$frag\": $TRACE" >&2
        exit 1
    fi
done
# The engine is one leaf of a trace; its operators are the profile's.
if ! printf '%s' "$TRACE" | sed 's/.*"profile"://' | grep -q '"op":"scan"'; then
    echo "obs-smoke: FAIL — /api/traces/$RUN_TID profile has no scan: $TRACE" >&2
    exit 1
fi

# Trace retention: the fault-injected slow query must be searchable by
# duration, its trace ID must fetch the full span waterfall, and its
# fingerprint must round-trip as a search filter.
SLOW="$(curl -sf "$BASE/api/traces?min_ms=200&kind=sparql")"
if ! printf '%s' "$SLOW" | grep -q "\"id\":\"$SLOW_TID\""; then
    echo "obs-smoke: FAIL — slow query $SLOW_TID not retained by /api/traces?min_ms=200: $SLOW" >&2
    exit 1
fi
DETAIL="$(curl -sf "$BASE/api/traces/$SLOW_TID")"
for frag in spans profile durationMs; do
    if ! printf '%s' "$DETAIL" | grep -q "$frag"; then
        echo "obs-smoke: FAIL — /api/traces/$SLOW_TID missing \"$frag\": $DETAIL" >&2
        exit 1
    fi
done
if ! printf '%s' "$DETAIL" | sed 's/.*"profile"://' | grep -q '"op":"match"'; then
    echo "obs-smoke: FAIL — /api/traces/$SLOW_TID profile has no match: $DETAIL" >&2
    exit 1
fi
SLOW_FP="$(printf '%s' "$SLOW" | grep -o '"fingerprint":"[^"]*"' | head -1 | cut -d'"' -f4)"
if [ -z "$SLOW_FP" ]; then
    echo "obs-smoke: FAIL — retained trace has no fingerprint: $SLOW" >&2
    exit 1
fi
if ! curl -sf "$BASE/api/traces?fingerprint=$SLOW_FP" | grep -q "\"id\":\"$SLOW_TID\""; then
    echo "obs-smoke: FAIL — fingerprint filter $SLOW_FP lost trace $SLOW_TID" >&2
    exit 1
fi

# The OpenMetrics exposition (content-negotiated; the default 0.0.4 scrape
# stays exemplar-free) terminates with # EOF and links latency buckets to
# retained traces via exemplars, and any exemplar's trace ID resolves.
OM="$(curl -sf -H 'Accept: application/openmetrics-text; version=1.0.0' "$BASE/metrics")"
if [ "$(printf '%s\n' "$OM" | tail -1)" != "# EOF" ]; then
    echo "obs-smoke: FAIL — OpenMetrics exposition does not end with # EOF" >&2
    exit 1
fi
EX_TID="$(printf '%s\n' "$OM" | grep '^rdfa_http_request_seconds_bucket' |
    grep -o 'trace_id="[^"]*"' | head -1 | cut -d'"' -f2)"
if [ -z "$EX_TID" ]; then
    echo "obs-smoke: FAIL — no exemplar on rdfa_http_request_seconds buckets" >&2
    exit 1
fi
if ! curl -sf "$BASE/api/traces/$EX_TID" >/dev/null; then
    echo "obs-smoke: FAIL — exemplar trace ID $EX_TID does not resolve via /api/traces/{id}" >&2
    exit 1
fi
if printf '%s\n' "$METRICS" | grep -q '# {'; then
    echo "obs-smoke: FAIL — exemplar leaked into the default 0.0.4 /metrics exposition" >&2
    exit 1
fi

# The workload profiler aggregated every operation kind, the update included.
WORKLOAD="$(curl -sf "$BASE/api/workload")"
for frag in fingerprints misestimates q_error '"kind":"update"'; do
    if ! printf '%s' "$WORKLOAD" | grep -q "$frag"; then
        echo "obs-smoke: FAIL — /api/workload missing \"$frag\": $WORKLOAD" >&2
        exit 1
    fi
done

# The dashboard renders as one self-contained HTML page: no scripts and no
# external assets (every src/href must stay on this host).
DASH="$(curl -sf "$BASE/debug/dashboard")"
for frag in 'RDF-Analytics dashboard' 'Workload (RED)' 'Plan vs. actual' 'q-error' 'Retained traces'; do
    if ! printf '%s' "$DASH" | grep -q "$frag"; then
        echo "obs-smoke: FAIL — dashboard missing \"$frag\"" >&2
        exit 1
    fi
done
if printf '%s' "$DASH" | grep -q '<script'; then
    echo "obs-smoke: FAIL — dashboard embeds a script" >&2
    exit 1
fi
if printf '%s' "$DASH" | grep -Eq '(src|href)="(https?:)?//'; then
    echo "obs-smoke: FAIL — dashboard references an external asset" >&2
    exit 1
fi

# The process keeps no time series and evaluates no alerts: /metrics is the
# history, for a scraper to keep.
for gone in timeseries alerts; do
    CODE="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/api/$gone")"
    if [ "$CODE" != 404 ]; then
        echo "obs-smoke: FAIL — /api/$gone answered $CODE, want 404" >&2
        exit 1
    fi
done

# Health probes answer 200 while serving.
for probe in healthz readyz; do
    if ! curl -sf "$BASE/$probe" | grep -q ok; then
        echo "obs-smoke: FAIL — /$probe not ok" >&2
        exit 1
    fi
done

# The dashboard is cache-busted.
if ! curl -sfI "$BASE/debug/dashboard" | grep -qi 'cache-control: no-store'; then
    echo "obs-smoke: FAIL — dashboard missing Cache-Control: no-store" >&2
    exit 1
fi

# -debug must mount pprof.
curl -sf "$BASE/debug/pprof/cmdline" >/dev/null

echo "obs-smoke: OK — metrics, exemplars, health, trace retention, workload, dashboard and pprof endpoints all healthy"
