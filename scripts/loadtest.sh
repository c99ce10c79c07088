#!/bin/sh
# Serving-runtime load smoke: boot a race-enabled multi-tenant server,
# wait for /readyz, drive it with abnn2-load over TCP (which fails on any
# session error or any retryable rejection missing its retry-after
# hint), then audit the shed accounting on /metrics — every shed must be
# typed and, when retryable, hinted. Finally, run one traced client and
# reconcile its dump with the server's via abnn2-inspect -timeline: the
# merged cross-party timeline must attribute the session's wall time to
# compute/wire/queue/bank-wait within 1%, or the script fails. Before
# all that, abnn2-load's embedded runtime runs a short timed load; the
# end of its -duration must not fail a session (no "session failed" log
# line).
#
# Tuned to finish in about a minute on one CI core: a tiny model, a
# deliberately small -max-conns so shedding actually happens, and a
# short burst.
set -eu

GO="${GO:-go}"
WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

ADDR=127.0.0.1:19800
METRICS=127.0.0.1:19801

echo "== train tiny model"
$GO run ./cmd/abnn2-train -arch fig4 -scheme "4(2,2)" -epochs 1 -samples 200 \
    -out "$WORK/model.json" >/dev/null

echo "== build race-enabled binaries"
$GO build -race -o "$WORK/abnn2-server" ./cmd/abnn2-server
$GO build -o "$WORK/abnn2-load" ./cmd/abnn2-load
$GO build -o "$WORK/abnn2-client" ./cmd/abnn2-client
$GO build -o "$WORK/abnn2-inspect" ./cmd/abnn2-inspect

echo "== embedded runtime load (the deadline must not fail a session)"
"$WORK/abnn2-load" -clients 4 -duration 2s -max-sessions 2 >"$WORK/embedded.log" 2>&1 || {
    cat "$WORK/embedded.log" >&2
    exit 1
}
if grep 'msg="session failed"' "$WORK/embedded.log" >&2; then
    echo "embedded load run logged failed sessions" >&2
    exit 1
fi
grep -E "^(requests|throughput):" "$WORK/embedded.log"

echo "== boot server (small admission cap so backpressure fires)"
"$WORK/abnn2-server" -model "$WORK/model.json" -listen "$ADDR" \
    -metrics-addr "$METRICS" -max-conns 2 -workers 1 \
    -round-timeout 2m -trace-out "$WORK/server-spans.jsonl" \
    >"$WORK/server.log" 2>&1 &
SRV_PID=$!

echo "== wait for /readyz"
i=0
until curl -fsS "http://$METRICS/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 120 ]; then
        echo "server never became ready" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
        echo "server died during startup" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
    sleep 0.5
done
curl -fsS "http://$METRICS/healthz" >/dev/null

echo "== drive load (exits non-zero on failures or hintless rejections)"
"$WORK/abnn2-load" -connect "$ADDR" -clients 8 -duration 10s \
    -workers 1 -session-batches 2 -require-hints

echo "== audit shed accounting on /metrics"
SCRAPE="$WORK/metrics.txt"
curl -fsS "http://$METRICS/metrics" >"$SCRAPE"
grep -q 'abnn2_serve_sessions_total' "$SCRAPE" || {
    echo "metrics missing serve series" >&2
    exit 1
}
# Every retryable shed must have carried a retry-after hint: the sum of
# retryable-coded sheds equals the hinted-shed counter.
awk '
    /^abnn2_serve_shed_total\{code="(saturated|bank-dry|draining)"\}/ { retryable += $NF }
    /^abnn2_serve_shed_hinted_total/ { hinted = $NF }
    END {
        printf "retryable sheds: %d, hinted: %d\n", retryable, hinted
        exit (retryable == hinted) ? 0 : 1
    }
' "$SCRAPE" || {
    echo "shed-without-hint detected" >&2
    exit 1
}

echo "== cross-party timeline (traced client vs server dump)"
"$WORK/abnn2-client" -connect "$ADDR" -n 2 -workers 1 \
    -trace-out "$WORK/client-spans.jsonl" >/dev/null
# The load clients above did not trace, so exactly one session carries
# flights from both parties and -timeline auto-detects it. The server
# flushes its dump when its session goroutine finishes — a beat after
# the client exits — so retry briefly before judging.
i=0
until "$WORK/abnn2-inspect" \
    -timeline "$WORK/client-spans.jsonl,$WORK/server-spans.jsonl" \
    -tolerance 0.01 >"$WORK/timeline.txt" 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 20 ]; then
        echo "timeline reconciliation failed" >&2
        cat "$WORK/timeline.txt" >&2
        exit 1
    fi
    sleep 0.5
done
cat "$WORK/timeline.txt"

echo "== flight recorder endpoint"
curl -fsS "http://$METRICS/debug/flightrecorder" | grep -q '"sessions"' || {
    echo "/debug/flightrecorder gave no session list" >&2
    exit 1
}

echo "== graceful shutdown"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || {
    echo "server exited non-zero" >&2
    tail -50 "$WORK/server.log" >&2
    exit 1
}
SRV_PID=""
echo "loadtest OK"
