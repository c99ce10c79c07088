#!/bin/sh
# Crash-recovery chaos: boot a race-enabled server with a durable bank
# store, prefetch peer-paired correlations from a durable client, SIGKILL
# the server mid-load, restart it on the same store directory, and prove
# the two invariants the durable bank exists for:
#
#   1. single-use survives SIGKILL — no correlation is ever claimed
#      twice. Each party logs one `bank claim` line (scope digest, id)
#      per durable claim, after the claim's unlink is fsynced and before
#      the half is used; no (scope, id) may appear twice across the
#      server's two generations, nor across the client's runs. The store
#      cannot unlink a name twice, so this check reads what the processes
#      did, not what the store allows;
#   2. recovered pools are bit-exact — the banked run after the crash
#      predicts identically to a from-scratch inline run on the same
#      inputs.
#
# Tuned to finish in a couple of minutes on one CI core.
set -eu

GO="${GO:-go}"
WORK="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

ADDR=127.0.0.1:19810
METRICS=127.0.0.1:19811
SRV_BANK="$WORK/srv-bank"
CLI_BANK="$WORK/cli-bank"
N=2

echo "== train tiny model"
$GO run ./cmd/abnn2-train -arch fig4 -scheme "4(2,2)" -epochs 1 -samples 200 \
    -out "$WORK/model.json" >/dev/null

echo "== build binaries (server race-enabled)"
$GO build -race -o "$WORK/abnn2-server" ./cmd/abnn2-server
$GO build -o "$WORK/abnn2-client" ./cmd/abnn2-client

boot_server() {
    log="$1"
    "$WORK/abnn2-server" -model "$WORK/model.json" -listen "$ADDR" \
        -metrics-addr "$METRICS" -workers 1 -round-timeout 2m \
        -bank-capacity 8 -bank-dir "$SRV_BANK" \
        >"$log" 2>&1 &
    SRV_PID=$!
    i=0
    until curl -fsS "http://$METRICS/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 240 ]; then
            echo "server never became ready" >&2
            cat "$log" >&2
            exit 1
        fi
        if ! kill -0 "$SRV_PID" 2>/dev/null; then
            echo "server died during startup" >&2
            cat "$log" >&2
            exit 1
        fi
        sleep 0.5
    done
}

echo "== boot durable server (gen 1)"
boot_server "$WORK/server1.log"

echo "== prefetch peer-paired correlations into the client's own store"
"$WORK/abnn2-client" -connect "$ADDR" -n "$N" -bank-dir "$CLI_BANK" \
    -prefetch 6 >"$WORK/prefetch.out" 2>"$WORK/prefetch.log"

echo "== drive banked load and SIGKILL the server mid-stream"
(
    for i in 1 2 3 4 5 6 7 8; do
        "$WORK/abnn2-client" -connect "$ADDR" -n "$N" -bank-dir "$CLI_BANK" \
            >>"$WORK/load.out" 2>>"$WORK/load.log" || true
    done
) &
LOAD_PID=$!
sleep 3
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
wait "$LOAD_PID" 2>/dev/null || true

echo "== restart server (gen 2) on the same store directory"
boot_server "$WORK/server2.log"
grep -q 'bank store recovered' "$WORK/server2.log" || {
    echo "restarted server did not report store recovery" >&2
    cat "$WORK/server2.log" >&2
    exit 1
}

echo "== banked run on the recovered pools vs a from-scratch inline run"
"$WORK/abnn2-client" -connect "$ADDR" -n "$N" -bank-dir "$CLI_BANK" \
    >"$WORK/banked.out" 2>"$WORK/banked.log"
"$WORK/abnn2-client" -connect "$ADDR" -n "$N" \
    >"$WORK/inline.out" 2>"$WORK/inline.log"
grep '^input' "$WORK/banked.out" >"$WORK/banked.pred"
grep '^input' "$WORK/inline.out" >"$WORK/inline.pred"
[ -s "$WORK/banked.pred" ] || { echo "banked run produced no predictions" >&2; exit 1; }
if ! diff -u "$WORK/inline.pred" "$WORK/banked.pred"; then
    echo "recovered-pool predictions diverge from inline" >&2
    exit 1
fi

echo "== drain gen 2"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || {
    echo "server exited non-zero on drain" >&2
    tail -50 "$WORK/server2.log" >&2
    exit 1
}
SRV_PID=""

echo "== audit both parties' claim logs for double-spent correlations"
scripts/claimcheck.sh server "$WORK/server1.log" "$WORK/server2.log"
scripts/claimcheck.sh client "$WORK/prefetch.log" "$WORK/load.log" "$WORK/banked.log"

echo "crashtest OK"
