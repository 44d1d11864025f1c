#!/bin/sh
# obs-smoke: end-to-end check of the telemetry surface. Builds and starts the
# server on a scratch port, drives one SPARQL query and one analytic query
# through it, then asserts /metrics exposes the promised metric families and
# /api/trace returns a span tree. The first /sparql query is fault-injected
# slow (delay on the first exec activation only) so the tail sampler provably
# retains it — the trace-retention section then walks the whole drill-down:
# slow query -> /api/traces search -> span waterfall -> OpenMetrics exemplar
# whose trace ID resolves back through the API. Needs only sh + curl + grep.
set -eu

PORT="${OBS_SMOKE_PORT:-18923}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/rdfanalytics"
LOG="$(mktemp)"

go build -o "$BIN" ./cmd/rdfanalytics

RDFA_FAULT='server.sparql.exec=delay:300ms@1' \
    "$BIN" -addr "127.0.0.1:$PORT" -data products-small -debug -sample-interval 200ms >"$LOG" 2>&1 &
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
curl -sf -X POST "$BASE/api/run" >/dev/null

sleep 0.5 # at least one sampler tick, so the time-series ring has points

METRICS="$(curl -sf "$BASE/metrics")"
for name in \
    rdfa_http_requests_total \
    rdfa_build_info \
    rdfa_go_heap_alloc_bytes \
    rdfa_go_goroutines \
    rdfa_sampler_ticks_total \
    rdfa_slo_good_total \
    rdfa_slo_events_total \
    rdfa_slo_budget_remaining_ratio \
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

TRACE="$(curl -sf "$BASE/api/trace")"
for frag in run_analytics translate exec; do
    if ! printf '%s' "$TRACE" | grep -q "$frag"; then
        echo "obs-smoke: FAIL — /api/trace missing span \"$frag\": $TRACE" >&2
        exit 1
    fi
done

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

# The workload profiler aggregated both query kinds.
WORKLOAD="$(curl -sf "$BASE/api/workload")"
for frag in fingerprints misestimates q_error; do
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

# The sampler's ring buffer serves windowed series with derived rates.
TS="$(curl -sf "$BASE/api/timeseries?series=rdfa_http_requests_total")"
for frag in interval_seconds rdfa_http_requests_total rates; do
    if ! printf '%s' "$TS" | grep -q "$frag"; then
        echo "obs-smoke: FAIL — /api/timeseries missing \"$frag\": $TS" >&2
        exit 1
    fi
done

# The burn-rate evaluator publishes objective statuses and the alert log.
ALERTS="$(curl -sf "$BASE/api/alerts")"
for frag in active recent slos http-availability; do
    if ! printf '%s' "$ALERTS" | grep -q "$frag"; then
        echo "obs-smoke: FAIL — /api/alerts missing \"$frag\": $ALERTS" >&2
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

# The dashboard is cache-busted and carries inline SVG sparklines.
if ! curl -sfI "$BASE/debug/dashboard" | grep -qi 'cache-control: no-store'; then
    echo "obs-smoke: FAIL — dashboard missing Cache-Control: no-store" >&2
    exit 1
fi
if ! printf '%s' "$DASH" | grep -q '<svg'; then
    echo "obs-smoke: FAIL — dashboard missing inline SVG sparklines" >&2
    exit 1
fi

# -debug must mount pprof.
curl -sf "$BASE/debug/pprof/cmdline" >/dev/null

echo "obs-smoke: OK — metrics, exemplars, timeseries, alerts, health, trace retention, workload, dashboard and pprof endpoints all healthy"
