#!/bin/sh
# resilience-smoke: end-to-end check of the overload-resilience layer against
# live servers. Three scenarios:
#   1. herd — concurrent identical queries against a cold cache with a 400ms
#      execution delay armed: all succeed, the engine run is shared
#      (rdfa_cache_collapsed_total moves), and the next request is a cache hit.
#   2. overflow — one execution slot + one queue position occupied by slow
#      distinct shapes: the next arrival is shed with a structured 503 +
#      Retry-After while the cached fingerprint keeps serving hits.
#   3. stale — after a graph update, a request carrying
#      Cache-Control: max-stale=600 gets the outdated cache entry, marked
#      X-Cache: stale with an Age; a plain request gets a fresh miss, and
#      still a hit after a write to a predicate it does not read; /readyz
#      stays 200 throughout.
# Needs only sh + curl + grep.
set -eu

PORT="${RESILIENCE_SMOKE_PORT:-18932}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/rdfanalytics"
LOG="$(mktemp)"
NS='http://example.org/products#'

go build -o "$BIN" ./cmd/rdfanalytics

PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -f "$LOG"
    rm -rf "$(dirname "$BIN")"
}
trap cleanup EXIT

wait_up() {
    i=0
    until curl -sf "$BASE/api/stats" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "resilience-smoke: server did not come up; log:" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.1
    done
}

metric() {
    curl -sf "$BASE/metrics" | grep "^$1" | awk '{s+=$2} END {printf "%d", s}'
}

# ---- boot 1: tight gate, slow engine --------------------------------------
RDFA_FAULT='server.sparql.exec=delay:400ms' \
    "$BIN" -addr "127.0.0.1:$PORT" -data products-small \
    -max-concurrent 1 -queue-depth 1 -query-timeout 10s >"$LOG" 2>&1 &
PID=$!
wait_up

QHOT="SELECT ?s WHERE { ?s a <${NS}Laptop> }"

# 1. Herd: 12 concurrent identical queries, cold cache. The 400ms delay keeps
# the leader busy while the rest arrive; they must collapse onto it (the gate
# has one slot — without collapse most of the herd would be shed).
i=0
HERD_PIDS=""
while [ "$i" -lt 12 ]; do
    curl -s -o "/tmp/res_herd.$$.$i" -w '%{http_code}\n' \
        --get --data-urlencode "query=$QHOT" "$BASE/sparql" >>"/tmp/res_herd_codes.$$" &
    HERD_PIDS="$HERD_PIDS $!"
    i=$((i + 1))
done
wait $HERD_PIDS
if grep -qv '^200$' "/tmp/res_herd_codes.$$"; then
    echo "resilience-smoke: FAIL — herd saw non-200 responses: $(sort -u "/tmp/res_herd_codes.$$" | tr '\n' ' ')" >&2
    exit 1
fi
i=1
while [ "$i" -lt 12 ]; do
    if ! cmp -s "/tmp/res_herd.$$.0" "/tmp/res_herd.$$.$i"; then
        echo "resilience-smoke: FAIL — herd responses not byte-identical" >&2
        exit 1
    fi
    i=$((i + 1))
done
rm -f /tmp/res_herd.$$.* "/tmp/res_herd_codes.$$"
COLLAPSED=$(metric 'rdfa_cache_collapsed_total')
FILLS=$(metric 'rdfa_cache_fills_total')
if [ "$COLLAPSED" -lt 1 ] || [ "$FILLS" -lt 1 ]; then
    echo "resilience-smoke: FAIL — herd did not collapse (collapsed=$COLLAPSED fills=$FILLS)" >&2
    exit 1
fi
XCACHE=$(curl -s -D - -o /dev/null --get --data-urlencode "query=$QHOT" "$BASE/sparql" \
    | tr -d '\r' | grep -i '^X-Cache:' | awk '{print $2}')
if [ "$XCACHE" != "hit" ]; then
    echo "resilience-smoke: FAIL — post-herd request X-Cache=$XCACHE, want hit" >&2
    exit 1
fi

# 2. Overflow: occupy the slot and the queue position with slow distinct
# shapes, then assert the third shape is shed 503 + Retry-After while the
# cached fingerprint still serves.
curl -s -o /dev/null --get --data-urlencode "query=SELECT ?s ?m WHERE { ?s <${NS}manufacturer> ?m }" "$BASE/sparql" &
SLOW1=$!
sleep 0.15
curl -s -o /dev/null --get --data-urlencode "query=SELECT ?s ?p WHERE { ?s <${NS}price> ?p }" "$BASE/sparql" &
SLOW2=$!
sleep 0.15
HDRS=$(curl -s -D - -o "/tmp/res_shed.$$" --get \
    --data-urlencode "query=SELECT ?s ?d WHERE { ?s <${NS}releaseDate> ?d }" "$BASE/sparql" | tr -d '\r')
CODE=$(printf '%s\n' "$HDRS" | head -1 | awk '{print $2}')
RETRY=$(printf '%s\n' "$HDRS" | grep -i '^Retry-After:' | awk '{print $2}')
SHED_BODY="$(cat "/tmp/res_shed.$$"; rm -f "/tmp/res_shed.$$")"
if [ "$CODE" != 503 ] || [ -z "$RETRY" ]; then
    echo "resilience-smoke: FAIL — overflow answered $CODE (Retry-After='$RETRY'), want 503 + hint: $SHED_BODY" >&2
    exit 1
fi
if ! printf '%s' "$SHED_BODY" | grep -q '"reason"'; then
    echo "resilience-smoke: FAIL — shed body not structured: $SHED_BODY" >&2
    exit 1
fi
XCACHE=$(curl -s -D - -o /dev/null --get --data-urlencode "query=$QHOT" "$BASE/sparql" \
    | tr -d '\r' | grep -i '^X-Cache:' | awk '{print $2}')
if [ "$XCACHE" != "hit" ]; then
    echo "resilience-smoke: FAIL — cached fingerprint not served during overflow (X-Cache=$XCACHE)" >&2
    exit 1
fi
REJECTED=$(metric 'rdfa_admission_rejected_total')
if [ "$REJECTED" -lt 1 ]; then
    echo "resilience-smoke: FAIL — rdfa_admission_rejected_total=$REJECTED, want > 0" >&2
    exit 1
fi
wait "$SLOW1" "$SLOW2" 2>/dev/null || true
kill "$PID" 2>/dev/null && wait "$PID" 2>/dev/null || true
PID=""

# ---- boot 2: stale answers only on request --------------------------------
"$BIN" -addr "127.0.0.1:$PORT" -data products-small -stale-window 10m >"$LOG" 2>&1 &
PID=$!
wait_up

ready() {
    CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")
    if [ "$CODE" != 200 ]; then
        echo "resilience-smoke: FAIL — /readyz answered $CODE $1, want 200" >&2
        exit 1
    fi
}

# Prime the hot entry, then outdate it with a graph update.
curl -sf -o /dev/null --get --data-urlencode "query=$QHOT" "$BASE/sparql"
ready "after the prime"
curl -sf -o /dev/null --data-urlencode \
    "update=PREFIX ex: <$NS> INSERT DATA { ex:resilienceSmoke a ex:Laptop . }" "$BASE/sparql"
ready "after the update"

# Asked for: the outdated answer, marked stale with its Age.
HDRS=$(curl -s -D - -o /dev/null -H 'Cache-Control: max-stale=600' \
    --get --data-urlencode "query=$QHOT" "$BASE/sparql" | tr -d '\r')
XCACHE=$(printf '%s\n' "$HDRS" | grep -i '^X-Cache:' | awk '{print $2}')
AGE=$(printf '%s\n' "$HDRS" | grep -i '^Age:' | awk '{print $2}')
if [ "$XCACHE" != "stale" ] || [ -z "$AGE" ]; then
    echo "resilience-smoke: FAIL — max-stale=600 request X-Cache=$XCACHE Age='$AGE', want stale + Age" >&2
    exit 1
fi
ready "after the stale serve"

# Not asked for: the update is seen.
XCACHE=$(curl -s -D - -o /dev/null --get --data-urlencode "query=$QHOT" "$BASE/sparql" \
    | tr -d '\r' | grep -i '^X-Cache:' | awk '{print $2}')
if [ "$XCACHE" != "miss" ]; then
    echo "resilience-smoke: FAIL — plain request after the update X-Cache=$XCACHE, want miss" >&2
    exit 1
fi
ready "after the fresh miss"

# A write to a predicate QHOT does not read leaves its fresh answer cached.
curl -sf -o /dev/null --data-urlencode \
    "update=PREFIX ex: <$NS> INSERT DATA { ex:resilienceSmoke ex:smokeNote \"unread\" . }" "$BASE/sparql"
XCACHE=$(curl -s -D - -o /dev/null --get --data-urlencode "query=$QHOT" "$BASE/sparql" \
    | tr -d '\r' | grep -i '^X-Cache:' | awk '{print $2}')
if [ "$XCACHE" != "hit" ]; then
    echo "resilience-smoke: FAIL — plain request after a write to an unread predicate X-Cache=$XCACHE, want hit" >&2
    exit 1
fi
ready "after the unrelated write"

echo "resilience-smoke: OK — herd collapse, overflow shedding, stale-on-request serving and per-predicate freshness all healthy"
