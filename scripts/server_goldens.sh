#!/usr/bin/env bash
# Golden-request gate for the pp-server HTTP service.
#
# Boots a release pp-server on loopback, fires the scripted request set —
# a named-protocol run, a formula compile-and-run, a fault ensemble, a
# mean-field query, single-trial consensus and fixed-step runs, a
# consensus ensemble, an agents-engine ensemble, a single-trial
# agents-engine run on a line, two JSONL streams (one sequential, one
# batched), a fixed-step run and its stream at 1000 agents (the batched
# window path), and two error requests (an unknown route and a body
# nested too deep) — and diffs each response body byte-for-byte against
# the checked-in goldens in tests/goldens/server/. Because reports carry
# no wall-clock fields and every request is seeded, the bodies are stable
# across machines, thread counts, and restarts; any diff is a real
# determinism or wire-format regression. A passing run prints 16 "ok"
# lines: 13 response bodies, 2 error bodies and one cache-hit replay.
#
# Usage:
#   scripts/server_goldens.sh                 # assert against goldens
#   PP_UPDATE_GOLDENS=1 scripts/server_goldens.sh   # regenerate goldens

set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN_DIR=tests/goldens/server
ADDR=127.0.0.1:7878
BASE="http://$ADDR"

cargo build --release --bin pp-server

./target/release/pp-server --addr "$ADDR" --threads 2 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the listener (the binary prints its banner after binding).
for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null

# The scripted request set. Each entry: golden file name + request body.
# Population order is semantic (it fixes the interning order, hence the
# RNG stream) — do not reorder keys inside "population".
declare -A REQUESTS
REQUESTS[protocol_run]='{
    "protocol": {"name": "majority"},
    "population": {"1": 6, "0": 4},
    "seed": 7,
    "engine": "batched",
    "trials": 4,
    "horizon": 30000
}'
REQUESTS[formula_run]='{
    "protocol": {"formula": "a > b"},
    "population": {"a": 6, "b": 4},
    "seed": 42,
    "engine": "batched",
    "trials": 8,
    "horizon": 30000
}'
REQUESTS[fault_ensemble]='{
    "protocol": {"name": "majority"},
    "population": {"1": 6, "0": 4},
    "seed": 11,
    "trials": 4,
    "horizon": 60000,
    "faults": {"crash": [[500, 1]]}
}'
REQUESTS[mean_field]='{
    "protocol": {"name": "majority"},
    "population": {"1": 600, "0": 400},
    "engine": "mean-field",
    "mean_field": {"horizon": 50.0}
}'
REQUESTS[single_consensus]='{
    "protocol": {"name": "majority"},
    "population": {"1": 6, "0": 4},
    "seed": 3,
    "horizon": 30000,
    "stop": "consensus"
}'
REQUESTS[single_fixed]='{
    "protocol": {"name": "approximate-majority"},
    "population": {"1": 60, "0": 40},
    "seed": 5,
    "engine": "batched",
    "horizon": 2000,
    "stop": "fixed"
}'
REQUESTS[consensus_ensemble]='{
    "protocol": {"name": "majority"},
    "population": {"1": 6, "0": 4},
    "seed": 13,
    "trials": 4,
    "horizon": 30000,
    "stop": "consensus"
}'
REQUESTS[agents_ensemble]='{
    "protocol": {"name": "approximate-majority"},
    "population": {"1": 40, "0": 24},
    "seed": 17,
    "engine": "agents",
    "topology": {"kind": "torus2d", "w": 8, "h": 8},
    "trials": 2,
    "horizon": 2000000
}'
# One agents-engine trial on an edge-list topology: pins the edge-list
# sampler's draws and the single-trial render of the agents engine.
REQUESTS[single_agents_line]='{
    "protocol": {"name": "majority"},
    "population": {"1": 9, "0": 7},
    "seed": 23,
    "engine": "agents",
    "topology": {"kind": "line"},
    "trials": 1,
    "horizon": 200000
}'
# The stream golden is the whole JSONL body: thinned probe events, the
# sink's summary line, and the final pp-run/v1 report line.
REQUESTS[stream_parity]='{
    "protocol": {"name": "majority"},
    "population": {"1": 6, "0": 4},
    "seed": 7,
    "horizon": 2000,
    "probe": {"kind": "jsonl", "stride": 25}
}'
# The single_fixed run streamed: a probe does not move the RNG stream, so
# the report line's result is single_fixed's. At 100 agents a batched
# request steps sequentially (below pp_core::spec::BATCHED_MIN_POPULATION),
# so both bodies equal the same request with "engine": "sequential".
REQUESTS[stream_batched]='{
    "protocol": {"name": "approximate-majority"},
    "population": {"1": 60, "0": 40},
    "seed": 5,
    "engine": "batched",
    "horizon": 2000,
    "stop": "fixed",
    "probe": {"kind": "jsonl", "stride": 25}
}'

# The same two requests at 1000 agents: large enough that a batched
# request runs on windows, so these pin the window path end to end (a
# probe rides along the windows without moving their RNG stream).
REQUESTS[single_fixed_windows]='{
    "protocol": {"name": "approximate-majority"},
    "population": {"1": 600, "0": 400},
    "seed": 5,
    "engine": "batched",
    "horizon": 5000,
    "stop": "fixed"
}'
REQUESTS[stream_batched_windows]='{
    "protocol": {"name": "approximate-majority"},
    "population": {"1": 600, "0": 400},
    "seed": 5,
    "engine": "batched",
    "horizon": 5000,
    "stop": "fixed",
    "probe": {"kind": "jsonl", "stride": 25}
}'

mkdir -p "$GOLDEN_DIR"
status=0
# diff_golden FILE BODY: diff BODY against $GOLDEN_DIR/FILE (or rewrite
# it under PP_UPDATE_GOLDENS=1).
diff_golden() {
    local file=$1 got=$2
    local golden="$GOLDEN_DIR/$file"
    if [ "${PP_UPDATE_GOLDENS:-0}" = "1" ]; then
        printf '%s' "$got" > "$golden"
        echo "updated $golden"
    elif [ ! -f "$golden" ]; then
        echo "MISSING golden $golden (run with PP_UPDATE_GOLDENS=1)" >&2
        status=1
    elif printf '%s' "$got" | diff -u "$golden" - >/dev/null; then
        echo "ok ${file%.*}"
    else
        echo "DIFF in ${file%.*}:" >&2
        printf '%s' "$got" | diff -u "$golden" - >&2 || true
        status=1
    fi
}

# check_golden NAME ROUTE: POST REQUESTS[NAME] to ROUTE and diff the body.
# /v1/stream bodies are JSON Lines, so their goldens end in .jsonl.
check_golden() {
    local name=$1 route=$2 ext=json got
    [ "$route" = /v1/stream ] && ext=jsonl
    got=$(curl -sf -X POST "$BASE$route" \
        -H 'Content-Type: application/json' \
        -d "${REQUESTS[$name]}")
    diff_golden "$name.$ext" "$got"
}

for name in protocol_run formula_run fault_ensemble mean_field \
    single_consensus single_fixed consensus_ensemble agents_ensemble \
    single_agents_line single_fixed_windows; do
    check_golden "$name" /v1/run
done
check_golden stream_parity /v1/stream
check_golden stream_batched /v1/stream
check_golden stream_batched_windows /v1/stream

# The error wire format: fetched with -s rather than -f so the 4xx body
# comes back; the status is asserted and the body diffed like any golden.
# check_error NAME WANT_STATUS CURL_ARGS...
check_error() {
    local name=$1 want=$2
    shift 2
    local resp code
    resp=$(curl -s -w '\n%{http_code}' "$@")
    code=${resp##*$'\n'}
    if [ "$code" != "$want" ]; then
        echo "STATUS in $name: got $code, want $want" >&2
        status=1
    fi
    diff_golden "$name.json" "${resp%$'\n'*}"
}

check_error error_not_found 404 "$BASE/v1/nope"
# 10 000 nested '[': deeper than the codec's nesting limit.
bomb=$(head -c 10000 /dev/zero | tr '\0' '[')
check_error error_depth_bomb 400 -X POST "$BASE/v1/run" \
    -H 'Content-Type: application/json' --data-binary "$bomb"

# A second pass over the same set must hit the compile cache without
# moving a byte — replay the formula request and re-diff.
replay=$(curl -sf -X POST "$BASE/v1/run" \
    -H 'Content-Type: application/json' \
    -d "${REQUESTS[formula_run]}")
if [ "${PP_UPDATE_GOLDENS:-0}" != "1" ]; then
    if printf '%s' "$replay" | diff -u "$GOLDEN_DIR/formula_run.json" - >/dev/null; then
        echo "ok formula_run (cache-hit replay)"
    else
        echo "DIFF in formula_run cache-hit replay" >&2
        status=1
    fi
fi

exit "$status"
