#!/bin/sh
# crash_smoke.sh — the kill-restart harness: what only a process can
# show of the crash contract. Two runs of one seeded workload:
#
#   1. Baseline: an uninterrupted journaling run, drained cleanly.
#   2. Crash: the daemon is SIGKILLed mid-load and restarted on the same
#      address with the same flags, which replays its journals; loadgen
#      rides out the restart window with -retrywindow (per-object
#      sequence numbers make the resent batches idempotent). The
#      recovered run's deterministic accounting — completed, reads and
#      writes, coalesced, retransmissions, unreachable, objects, message
#      counts, billed cost — must be byte-identical to the baseline's.
#
# journalcheck then replays each run's journal directory offline and
# reconciles it against the other run's stats snapshot.
#
# The crash contract at every journal op (a dead disk at each op with
# each torn tail, each transient disk fault at each op), supervised
# panic recovery and the dead-disk exit code are checked in-process:
# TestCrashAndFaultAtEveryJournalOp, TestShardPanicRecovery
# (internal/server) and TestDeadDiskExitsWithDurabilityLoss
# (cmd/objallocd).
#
# Run from the repo root, normally via `make crash-smoke`.
set -eu

dir="$(mktemp -d)"
daemon_pid=
cleanup() {
    [ -n "$daemon_pid" ] && kill -KILL "$daemon_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/objallocd" ./cmd/objallocd
go build -o "$dir/loadgen" ./cmd/loadgen
go build -o "$dir/journalcheck" ./cmd/journalcheck

# One fixed workload, identical across runs: the determinism contract
# says accounting depends only on the seed and per-object order.
SHARDS=4
SEED=7
FAULTS="loss=0.05"
ENGINE=adaptive
ASPEC="window=8,hysteresis=2"
LOAD="-workers 4 -requests 60000 -batch 16 -objects 64 -seed 3 -workload uniform:n=8,pwrite=0.3"

daemon_flags() {
    # $1 journal dir, $2 stats file.
    echo "-shards $SHARDS -queue 256 -engine $ENGINE -adaptive $ASPEC \
        -seed $SEED -faults $FAULTS -checkpoint 512 \
        -journal $1 -statsfile $2"
}

wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "crash-smoke: daemon never bound an address" >&2
            cat "$2" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}

# The deterministic top-level stats subset: everything derivable from
# the seed and the per-object request order. rejected / deduped / the
# per-shard queue and restart figures are scheduling-dependent and
# excluded.
subset() {
    sed -n -e 's/^  "\(completed\|reads\|writes\|coalesced\|retransmissions\|unreachable\|objects\|cost\)":.*/&/p' \
        -e '/^  "counts": {/,/^  }/p' "$1"
}

# --- Run 1: uninterrupted baseline -----------------------------------
# shellcheck disable=SC2046
"$dir/objallocd" $(daemon_flags "$dir/j1" "$dir/stats1.json") \
    -addr 127.0.0.1:0 -addrfile "$dir/addr" \
    >"$dir/daemon1.log" 2>&1 &
daemon_pid=$!
wait_addr "$dir/addr" "$dir/daemon1.log"
addr="$(cat "$dir/addr")"
echo "crash-smoke: baseline on $addr"

# shellcheck disable=SC2086
"$dir/loadgen" -addr "$addr" $LOAD >"$dir/loadgen1.log" 2>&1

kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "crash-smoke: baseline daemon exited nonzero" >&2
    cat "$dir/daemon1.log" >&2 || true
    exit 1
fi
daemon_pid=

# --- Run 2: SIGKILL mid-load, restart with the same flags -----------
# shellcheck disable=SC2046
"$dir/objallocd" $(daemon_flags "$dir/j2" "$dir/stats2a.json") \
    -addr "$addr" -addrfile "$dir/addr2" \
    >"$dir/daemon2a.log" 2>&1 &
daemon_pid=$!
wait_addr "$dir/addr2" "$dir/daemon2a.log"
echo "crash-smoke: crash run on $addr, SIGKILL incoming"

# shellcheck disable=SC2086
"$dir/loadgen" -addr "$addr" $LOAD -retrywindow 60s \
    >"$dir/loadgen2.log" 2>&1 &
lg_pid=$!

sleep 0.4
kill -KILL "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=
echo "crash-smoke: daemon killed, restarting with the same flags"

# shellcheck disable=SC2046
"$dir/objallocd" $(daemon_flags "$dir/j2" "$dir/stats2.json") \
    -addr "$addr" -addrfile "$dir/addr2b" \
    >"$dir/daemon2b.log" 2>&1 &
daemon_pid=$!
wait_addr "$dir/addr2b" "$dir/daemon2b.log"

if ! wait "$lg_pid"; then
    echo "crash-smoke: loadgen did not survive the restart window" >&2
    cat "$dir/loadgen2.log" >&2 || true
    exit 1
fi

kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "crash-smoke: recovered daemon exited nonzero — recovery lost requests" >&2
    cat "$dir/daemon2b.log" >&2 || true
    exit 1
fi
daemon_pid=

subset "$dir/stats1.json" >"$dir/subset1"
subset "$dir/stats2.json" >"$dir/subset2"
if ! cmp -s "$dir/subset1" "$dir/subset2"; then
    echo "crash-smoke: recovered accounting diverges from the baseline" >&2
    diff "$dir/subset1" "$dir/subset2" >&2 || true
    exit 1
fi
echo "crash-smoke: recovered accounting is byte-identical to the baseline"

# Cross-reconcile the journals offline: each run's journal must replay
# to the *other* run's stats snapshot.
# shellcheck disable=SC2086
"$dir/journalcheck" -journal "$dir/j2" -shards $SHARDS -engine $ENGINE \
    -adaptive "$ASPEC" -seed $SEED -faults "$FAULTS" \
    -statsfile "$dir/stats1.json"
# shellcheck disable=SC2086
"$dir/journalcheck" -journal "$dir/j1" -shards $SHARDS -engine $ENGINE \
    -adaptive "$ASPEC" -seed $SEED -faults "$FAULTS" \
    -statsfile "$dir/stats2.json"

echo "crash-smoke: OK — a SIGKILLed daemon recovered to the baseline accounting, journals reconcile"
