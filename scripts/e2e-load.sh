#!/bin/sh
# e2e-load.sh — multi-tenant smoke of the real atfd under concurrent load
# (`make e2e-load`). One daemon with admission control, eval backpressure,
# journal rotation, and the cross-session caches enabled takes 50
# concurrent identical sessions from cmd/atf-loadgen; the run must finish
# with zero failed sessions (429s are retried per Retry-After, not
# failures) and the shared caches must see cross-session hits.
#
# The loadgen's headline numbers (create/status p99, median session
# turnaround, ns per evaluation) are printed as `go test -bench` style
# lines (loadgen -bench); the run writes nothing under results/. The committed baseline in
# results/loadgen-bench.txt is refreshed by hand from these lines, and
# `make bench` folds it into results/bench.json beside the
# micro-benchmarks via scripts/bench2json.sh.
set -eu

GO=${GO:-go}
workdir=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

say() { echo "e2e-load: $*"; }

say "building binaries into $workdir"
$GO build -o "$workdir/atfd" ./cmd/atfd
$GO build -o "$workdir/atf-loadgen" ./cmd/atf-loadgen

say "starting atfd with admission control and shared caches"
"$workdir/atfd" -addr 127.0.0.1:7551 -journal-dir "$workdir/journals" \
    -max-sessions 8 -max-inflight-evals 32 -journal-rotate-bytes 65536 \
    >"$workdir/atfd.log" 2>&1 &
pids="$pids $!"
for _ in $(seq 1 100); do
    curl -fsS http://127.0.0.1:7551/v1/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS http://127.0.0.1:7551/v1/healthz >/dev/null || {
    say "atfd never came up"; cat "$workdir/atfd.log"; exit 1
}

say "50 concurrent sessions, 32 clients, admission cap 8"
"$workdir/atf-loadgen" -daemon http://127.0.0.1:7551 \
    -sessions 50 -concurrency 32 -max-retry-wait 50ms \
    -min-shared-hits 1 -bench | tee "$workdir/loadgen.txt" || {
    say "FAIL: loadgen reported failed sessions or no shared-cache hits"
    exit 1
}

say "PASS: $(grep 'sessions/sec' "$workdir/loadgen.txt" | tr -s ' ') (baseline loadgen numbers: results/loadgen-bench.txt)"
