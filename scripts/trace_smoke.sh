#!/bin/sh
# trace_smoke.sh — the request-tracing gate. Two halves:
#
#  1. HTTP path: boot objallocd with tracing on, drive it with loadgen
#     (which stamps deterministic traceparent headers on every batch),
#     SIGTERM, and check the daemon wrote a non-empty trace whose every
#     line passes schema validation and whose spans reconcile exactly
#     against the engine's summary (traceview -check).
#  2. Determinism: two objallocd -trace-deterministic daemons, one at
#     -shards 1 and one at -shards 8, both under the same message loss,
#     driven by the same loadgen run (same seed, workload and -workers),
#     must write byte-identical trace files that carry the loss
#     annotation (retransmits).
#     (Worker-count invariance is asserted by the package test
#     TestTraceDeterminismAcrossShardsAndWorkers, where per-object
#     request order is held fixed by construction; loadgen's workload
#     partitioning changes per-object streams with -workers.)
#
# Run from the repo root, normally via `make trace-smoke`.
set -eu

dir="$(mktemp -d)"
daemon_pid=
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/objallocd" ./cmd/objallocd
go build -o "$dir/loadgen" ./cmd/loadgen
go build -o "$dir/traceview" ./cmd/traceview

# start_daemon NAME ARGS...: boot objallocd on a free port with its log in
# $dir/NAME.log, wait for it to bind, and set daemon_pid and addr.
start_daemon() {
    name=$1
    shift
    "$dir/objallocd" -addr 127.0.0.1:0 -addrfile "$dir/$name.addr" "$@" \
        >"$dir/$name.log" 2>&1 &
    daemon_pid=$!
    i=0
    while [ ! -s "$dir/$name.addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "trace-smoke: daemon $name never bound an address" >&2
            cat "$dir/$name.log" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
    addr="$(cat "$dir/$name.addr")"
}

# stop_daemon NAME: SIGTERM the daemon and fail unless it drains cleanly.
stop_daemon() {
    kill -TERM "$daemon_pid"
    if ! wait "$daemon_pid"; then
        echo "trace-smoke: daemon $1 exited nonzero" >&2
        cat "$dir/$1.log" >&2 || true
        exit 1
    fi
    daemon_pid=
}

start_daemon http -shards 4 -queue 256 -seed 7 -trace "$dir/http-trace.jsonl"
echo "trace-smoke: objallocd on $addr, tracing to http-trace.jsonl"

"$dir/loadgen" -addr "$addr" -workers 4 -requests 2000 -batch 32 \
    -objects 32 -workload uniform:n=8,pwrite=0.3 -seed 7

stop_daemon http

[ -s "$dir/http-trace.jsonl" ] || {
    echo "trace-smoke: HTTP trace file is empty" >&2
    exit 1
}
# traceview -check fails on any malformed line (schema) and on any
# cost/count mismatch between the spans and the engine summary.
"$dir/traceview" -check -top 3 "$dir/http-trace.jsonl" >"$dir/traceview.out" || {
    echo "trace-smoke: traceview rejected the HTTP trace" >&2
    cat "$dir/traceview.out" >&2 || true
    exit 1
}
grep -q 'reconciliation: OK' "$dir/traceview.out" || {
    echo "trace-smoke: HTTP trace did not reconcile" >&2
    cat "$dir/traceview.out" >&2
    exit 1
}
echo "trace-smoke: HTTP trace valid, $(wc -l <"$dir/http-trace.jsonl") lines, cost reconciles"

# Determinism: same seed, loss and workload at different shard counts
# must produce byte-identical deterministic traces.
for shards in 1 8; do
    start_daemon "det-$shards" -shards "$shards" -seed 42 \
        -faults loss=0.1 \
        -trace "$dir/det-$shards.jsonl" -trace-deterministic
    "$dir/loadgen" -addr "$addr" -workers 4 -requests 1500 -objects 24 \
        -workload uniform:n=8,pwrite=0.3 -seed 42 >"$dir/loadgen-$shards.log" 2>&1 || {
        echo "trace-smoke: loadgen against -shards $shards failed" >&2
        cat "$dir/loadgen-$shards.log" >&2
        exit 1
    }
    stop_daemon "det-$shards"
done

cmp "$dir/det-1.jsonl" "$dir/det-8.jsonl" || {
    echo "trace-smoke: deterministic traces differ across shard counts" >&2
    exit 1
}
[ -s "$dir/det-1.jsonl" ] || {
    echo "trace-smoke: deterministic trace is empty" >&2
    exit 1
}
grep -q '"retransmits"' "$dir/det-1.jsonl" || {
    echo "trace-smoke: deterministic trace carries no retransmits field; the loss case went vacuous" >&2
    exit 1
}
"$dir/traceview" -check "$dir/det-1.jsonl" >/dev/null || {
    echo "trace-smoke: deterministic trace failed validation" >&2
    exit 1
}

echo "trace-smoke: OK — deterministic traces byte-identical ($(wc -l <"$dir/det-1.jsonl") lines)"
