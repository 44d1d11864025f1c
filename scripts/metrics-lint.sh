#!/bin/sh
# metrics-lint: naming-convention gate for the /metrics exposition. Boots
# the server, drives a little traffic so lazily created families appear,
# scrapes /metrics and asserts every family follows the conventions:
#
#   * every name matches ^rdfa_[a-z0-9_]+$  (one product prefix, snake_case)
#   * counters end in _total
#   * duration histograms/summaries use a _seconds base unit
#   * gauges never end in _total
#
# A second, content-negotiated scrape checks the OpenMetrics exposition:
# it must terminate with "# EOF", exemplars must only ever decorate
# histogram bucket samples, and every exemplar must follow the OpenMetrics
# grammar: ` # {trace_id="<id>"} <value> <timestamp>`. The default 0.0.4
# exposition must stay exemplar-free.
#
# Needs only sh + curl + grep/awk.
set -eu

PORT="${METRICS_LINT_PORT:-18934}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/rdfanalytics"
LOG="$(mktemp)"

go build -o "$BIN" ./cmd/rdfanalytics

"$BIN" -addr "127.0.0.1:$PORT" -data products-small >"$LOG" 2>&1 &
PID=$!
trap 'kill $PID 2>/dev/null; rm -f "$LOG"; rm -rf "$(dirname "$BIN")"' EXIT

i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "metrics-lint: server did not come up; log:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
done

NS='http://example.org/products#'
curl -sf "$BASE/sparql" --data-urlencode \
    "query=SELECT ?s WHERE { ?s a <${NS}Laptop> } LIMIT 3" >/dev/null

METRICS="$(curl -sf "$BASE/metrics")"

FAIL=0

# Every exposed family name (TYPE lines are authoritative: "# TYPE name kind").
TYPES="$(printf '%s\n' "$METRICS" | awk '/^# TYPE /{print $3, $4}')"
if [ -z "$TYPES" ]; then
    echo "metrics-lint: FAIL — no # TYPE lines in /metrics" >&2
    exit 1
fi

printf '%s\n' "$TYPES" | while read -r name kind; do
    case "$name" in
    rdfa_*) ;;
    *)
        echo "metrics-lint: FAIL — $name: missing rdfa_ prefix" >&2
        exit 1
        ;;
    esac
    if ! printf '%s\n' "$name" | grep -Eq '^rdfa_[a-z0-9_]+$'; then
        echo "metrics-lint: FAIL — $name: not snake_case" >&2
        exit 1
    fi
    case "$kind" in
    counter)
        case "$name" in
        *_total) ;;
        *)
            echo "metrics-lint: FAIL — counter $name must end in _total" >&2
            exit 1
            ;;
        esac
        ;;
    histogram)
        # Duration histograms carry a _seconds unit. rdfa_planner_qerror is
        # the documented exception: it measures a dimensionless ratio.
        case "$name" in
        *_seconds | rdfa_planner_qerror) ;;
        *)
            echo "metrics-lint: FAIL — histogram $name must end in _seconds (or be a documented unitless family)" >&2
            exit 1
            ;;
        esac
        ;;
    gauge)
        case "$name" in
        *_total)
            echo "metrics-lint: FAIL — gauge $name must not use the counter _total suffix" >&2
            exit 1
            ;;
        esac
        ;;
    esac
done || FAIL=1

# Families the telemetry layer promises at boot, and the resilience families
# the serving flow registers eagerly.
for name in rdfa_build_info rdfa_go_heap_alloc_bytes rdfa_go_goroutines \
    rdfa_slo_good_total rdfa_slo_events_total \
    rdfa_cache_requests_total rdfa_cache_collapsed_total \
    rdfa_cache_fills_total rdfa_cache_evictions_total rdfa_cache_bytes \
    rdfa_cache_entries rdfa_admission_admitted_total \
    rdfa_admission_rejected_total rdfa_admission_wait_seconds \
    rdfa_admission_inflight rdfa_admission_waiting; do
    if ! printf '%s\n' "$METRICS" | grep -q "^$name"; then
        echo "metrics-lint: FAIL — promised family $name missing" >&2
        FAIL=1
    fi
done

if [ "$FAIL" -ne 0 ]; then
    exit 1
fi

# The default 0.0.4 exposition never carries exemplars.
if printf '%s\n' "$METRICS" | grep -q '# {'; then
    echo "metrics-lint: FAIL — exemplar syntax in the default 0.0.4 exposition" >&2
    exit 1
fi

# OpenMetrics exposition: negotiated via Accept, terminated by # EOF, and
# every exemplar matches the grammar on a histogram bucket sample.
OM="$(curl -sf -H 'Accept: application/openmetrics-text; version=1.0.0' "$BASE/metrics")"
if [ "$(printf '%s\n' "$OM" | tail -1)" != "# EOF" ]; then
    echo "metrics-lint: FAIL — OpenMetrics exposition must end with # EOF" >&2
    exit 1
fi
EXEMPLARS="$(printf '%s\n' "$OM" | grep -F ' # {' || true)"
if [ -z "$EXEMPLARS" ]; then
    echo "metrics-lint: FAIL — OpenMetrics scrape carries no exemplars after traffic" >&2
    exit 1
fi
printf '%s\n' "$EXEMPLARS" | while read -r line; do
    case "$line" in
    rdfa_*_bucket\{*) ;;
    *)
        echo "metrics-lint: FAIL — exemplar on a non-bucket sample: $line" >&2
        exit 1
        ;;
    esac
    if ! printf '%s\n' "$line" | grep -Eq ' # \{trace_id="[A-Za-z0-9._-]{1,64}"\} [0-9.eE+-]+ [0-9]+\.[0-9]{3}$'; then
        echo "metrics-lint: FAIL — exemplar violates the OpenMetrics grammar: $line" >&2
        exit 1
    fi
done || exit 1

COUNT="$(printf '%s\n' "$TYPES" | wc -l | tr -d ' ')"
OM_EX="$(printf '%s\n' "$EXEMPLARS" | wc -l | tr -d ' ')"
echo "metrics-lint: OK — $COUNT metric families follow the naming conventions; $OM_EX OpenMetrics exemplars well-formed"
