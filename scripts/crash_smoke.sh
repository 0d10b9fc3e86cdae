#!/bin/sh
# crash_smoke.sh — the kill-restart harness for the crash-recovery
# layer. Three runs against the same seeded workload:
#
#   1. Baseline: an uninterrupted journaling run, drained cleanly.
#   2. Crash: the daemon is SIGKILLed mid-load and restarted on the same
#      address with the same flags, which replays its journals; loadgen
#      rides out the restart window with -retrywindow (per-object
#      sequence numbers make the resent batches idempotent). The recovered run's deterministic accounting —
#      completed, reads/writes, coalesced, retransmissions, unreachable,
#      duplicates, objects, message counts, billed cost — must be
#      byte-identical to the baseline's.
#   3. Panic: -chaos-panic fires inside every shard loop; the supervisor
#      must recover each shard back to healthy and the drain must still
#      lose nothing.
#
# journalcheck then replays each run's journal directory offline and
# reconciles it against the opposite run's stats snapshot.
#
# Then the disk-fault scenarios (-disk-faults, internal/diskfault):
#
#   4. Transient disk faults at 1 and 8 shards: a torn record write, an
#      ENOSPC streak mid-commit and an injected fsync failure all hit
#      the journal mid-run; each fault ends the shard's service loop
#      with a typed error (no panic), the supervisor rebuilds the shard
#      from the durable prefix, and the drained accounting
#      must be byte-identical to a fault-free same-seed run at the same
#      shard count. journalcheck (with the parity -disk-faults flag)
#      reconciles the surviving journal against the fault-free stats.
#   5. Persistent disk failure: persistafter=1 is a dead disk; the
#      supervisor's rebuilds cannot make progress, so the shard must
#      fail-stop — batches get 503 + Retry-After + "unavailable",
#      /v1/healthz reports "failed" — and the daemon must exit nonzero
#      on drain, reporting the durability loss.
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
FAULTS="loss=0.05,delay=0.1"
ENGINE=adaptive
ASPEC="window=8,hysteresis=2"
LOAD="-workers 4 -requests 60000 -batch 16 -objects 64 -seed 3 -workload uniform:n=8,pwrite=0.3"

daemon_flags() {
    # $1 journal dir, $2 stats file; remaining args appended.
    j="$1"; s="$2"; shift 2
    echo "-shards $SHARDS -queue 256 -engine $ENGINE -adaptive $ASPEC \
        -seed $SEED -faults $FAULTS -checkpoint 512 \
        -journal $j -statsfile $s $*"
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
    sed -n -e 's/^  "\(completed\|reads\|writes\|coalesced\|retransmissions\|unreachable\|duplicates\|objects\|cost\)":.*/&/p' \
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

# --- Run 3: injected shard panics, supervisor recovery ---------------
# shellcheck disable=SC2046
"$dir/objallocd" $(daemon_flags "$dir/j3" "$dir/stats3.json") \
    -addr 127.0.0.1:0 -addrfile "$dir/addr3" -chaos-panic 500 \
    >"$dir/daemon3.log" 2>&1 &
daemon_pid=$!
wait_addr "$dir/addr3" "$dir/daemon3.log"
addr3="$(cat "$dir/addr3")"
echo "crash-smoke: panic run on $addr3"

# shellcheck disable=SC2086
"$dir/loadgen" -addr "$addr3" $LOAD -retrywindow 60s >"$dir/loadgen3.log" 2>&1

kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "crash-smoke: panic-run daemon exited nonzero — the supervisor lost requests" >&2
    cat "$dir/daemon3.log" >&2 || true
    exit 1
fi
daemon_pid=

grep -q '"restarts"' "$dir/stats3.json" || {
    echo "crash-smoke: no shard restarts recorded — the injected panic never fired" >&2
    cat "$dir/stats3.json" >&2 || true
    exit 1
}
if grep -q '"state"' "$dir/stats3.json"; then
    echo "crash-smoke: a shard did not recover to healthy" >&2
    cat "$dir/stats3.json" >&2 || true
    exit 1
fi
subset "$dir/stats3.json" >"$dir/subset3"
if ! cmp -s "$dir/subset1" "$dir/subset3"; then
    echo "crash-smoke: post-panic accounting diverges from the baseline" >&2
    diff "$dir/subset1" "$dir/subset3" >&2 || true
    exit 1
fi
# shellcheck disable=SC2086
"$dir/journalcheck" -journal "$dir/j3" -shards $SHARDS -engine $ENGINE \
    -adaptive "$ASPEC" -seed $SEED -faults "$FAULTS" \
    -statsfile "$dir/stats3.json"

restarts=$(sed -n 's/.*"restarts": \([0-9]*\).*/\1/p' "$dir/stats3.json" | awk '{s+=$1} END {print s}')
echo "crash-smoke: kill-restart recovered, $restarts supervised shard restarts, journals reconcile"

# --- Run 4: transient disk faults at 1 and 8 shards ------------------
# Deterministic per-shard failpoints: a torn write at op 40, an ENOSPC
# streak at ops 90-91, an fsync failure at op 150, plus a whiff of
# probabilistic write errors. Every shard passes those op indexes, so
# the faults are guaranteed to fire; all are transient, so the drain
# must lose nothing and accounting must match a fault-free run.
DFPLAN="shortat=40,enospcat=90,enospclen=2,syncerrat=150,writeerr=0.0005,seed=11"
DFLOAD="-workers 4 -requests 12000 -batch 16 -objects 64 -seed 3 -workload uniform:n=8,pwrite=0.3"

for sc in 1 8; do
    for variant in clean faulty; do
        jd="$dir/j_df_${variant}_$sc"
        stats="$dir/stats_df_${variant}_$sc.json"
        extra=""
        if [ "$variant" = faulty ]; then
            extra="-disk-faults $DFPLAN"
        fi
        # shellcheck disable=SC2086
        "$dir/objallocd" -shards "$sc" -queue 256 -engine $ENGINE \
            -adaptive "$ASPEC" -seed $SEED -faults "$FAULTS" -checkpoint 512 \
            -journal "$jd" -statsfile "$stats" $extra \
            -addr 127.0.0.1:0 -addrfile "$dir/addr_df_${variant}_$sc" \
            >"$dir/daemon_df_${variant}_$sc.log" 2>&1 &
        daemon_pid=$!
        wait_addr "$dir/addr_df_${variant}_$sc" "$dir/daemon_df_${variant}_$sc.log"
        dfaddr="$(cat "$dir/addr_df_${variant}_$sc")"
        echo "crash-smoke: disk-fault $variant run ($sc shards) on $dfaddr"

        # shellcheck disable=SC2086
        "$dir/loadgen" -addr "$dfaddr" $DFLOAD -retrywindow 60s \
            >"$dir/loadgen_df_${variant}_$sc.log" 2>&1

        if [ "$variant" = faulty ]; then
            # The ops registry (journal fault count) lives behind
            # /v1/metrics; scrape it before the drain tears it down.
            curl -s --max-time 10 "http://$dfaddr/v1/metrics" \
                >"$dir/dfmetrics_$sc" || true
        fi

        kill -TERM "$daemon_pid"
        if ! wait "$daemon_pid"; then
            echo "crash-smoke: disk-fault $variant run ($sc shards) exited nonzero — transient faults must not lose durability" >&2
            cat "$dir/daemon_df_${variant}_$sc.log" >&2 || true
            exit 1
        fi
        daemon_pid=
    done

    grep -E -q '^objalloc_server_journal_faults [1-9]' "$dir/dfmetrics_$sc" || {
        echo "crash-smoke: no journal faults recorded at $sc shards — the failpoints never fired" >&2
        cat "$dir/dfmetrics_$sc" >&2 || true
        exit 1
    }
    subset "$dir/stats_df_clean_$sc.json" >"$dir/subset_df_clean_$sc"
    subset "$dir/stats_df_faulty_$sc.json" >"$dir/subset_df_faulty_$sc"
    if ! cmp -s "$dir/subset_df_clean_$sc" "$dir/subset_df_faulty_$sc"; then
        echo "crash-smoke: disk-fault accounting diverges from the fault-free run at $sc shards" >&2
        diff "$dir/subset_df_clean_$sc" "$dir/subset_df_faulty_$sc" >&2 || true
        exit 1
    fi
    # The surviving journal must replay to the fault-free run's stats;
    # -disk-faults exercises journalcheck's parity flag.
    "$dir/journalcheck" -journal "$dir/j_df_faulty_$sc" -shards "$sc" \
        -engine $ENGINE -adaptive "$ASPEC" -seed $SEED -faults "$FAULTS" \
        -disk-faults "$DFPLAN" -statsfile "$dir/stats_df_clean_$sc.json"
    echo "crash-smoke: disk-fault accounting is byte-identical to the fault-free run at $sc shards"
done

# --- Run 5: persistent disk failure, shard fail-stop -----------------
"$dir/objallocd" -shards 1 -queue 256 -engine $ENGINE -adaptive "$ASPEC" \
    -seed $SEED -faults "$FAULTS" -checkpoint 512 \
    -journal "$dir/j_dead" -disk-faults "persistafter=1,seed=11" \
    -addr 127.0.0.1:0 -addrfile "$dir/addr_dead" \
    >"$dir/daemon_dead.log" 2>&1 &
daemon_pid=$!
wait_addr "$dir/addr_dead" "$dir/daemon_dead.log"
dead_addr="$(cat "$dir/addr_dead")"
echo "crash-smoke: dead-disk run on $dead_addr"

# One request is enough: the carried task is retried through the
# supervisor's rebuild cycles until the no-progress threshold fail-stops
# the shard, which then refuses it with 503 + Retry-After.
code=$(curl -s -o "$dir/dead_body" -D "$dir/dead_headers" -w '%{http_code}' \
    --max-time 60 -X POST -H 'Content-Type: application/json' \
    -d '{"requests":[{"object":"a","op":"r","processor":0}]}' \
    "http://$dead_addr/v1/batch")
[ "$code" = 503 ] || {
    echo "crash-smoke: dead-disk batch got HTTP $code, want 503" >&2
    cat "$dir/dead_body" >&2 || true
    exit 1
}
grep -q '"unavailable":true' "$dir/dead_body" || {
    echo "crash-smoke: dead-disk batch response not marked unavailable" >&2
    cat "$dir/dead_body" >&2 || true
    exit 1
}
grep -qi '^retry-after:' "$dir/dead_headers" || {
    echo "crash-smoke: dead-disk 503 carries no Retry-After header" >&2
    cat "$dir/dead_headers" >&2 || true
    exit 1
}
hcode=$(curl -s -o "$dir/dead_health" -w '%{http_code}' --max-time 10 \
    "http://$dead_addr/v1/healthz")
[ "$hcode" = 503 ] || {
    echo "crash-smoke: dead-disk healthz got HTTP $hcode, want 503" >&2
    exit 1
}
grep -q '"state":"failed"' "$dir/dead_health" || {
    echo "crash-smoke: dead-disk healthz does not report the failed shard" >&2
    cat "$dir/dead_health" >&2 || true
    exit 1
}

kill -TERM "$daemon_pid"
if wait "$daemon_pid"; then
    echo "crash-smoke: dead-disk daemon exited zero — durability loss went unreported" >&2
    cat "$dir/daemon_dead.log" >&2 || true
    exit 1
fi
daemon_pid=
grep -q 'durability loss' "$dir/daemon_dead.log" || {
    echo "crash-smoke: dead-disk daemon did not report the durability loss" >&2
    cat "$dir/daemon_dead.log" >&2 || true
    exit 1
}
echo "crash-smoke: dead disk fail-stopped the shard, refused with 503 + Retry-After, drain reported the loss"

echo "crash-smoke: OK — kill-restart, shard panics, transient disk faults and a dead disk all recovered or failed safe"
