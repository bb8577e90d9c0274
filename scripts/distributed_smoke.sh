#!/usr/bin/env bash
# Loopback distributed-campaign smoke test.
#
# Runs the same campaign twice: once single-process with
# marvel-campaign, once through marvel-campaignd plus two
# marvel-worker processes over a unix socket — with one worker
# SIGKILLed mid-lease so the daemon's TTL reaper has to re-enqueue
# its range. Both journals are then canonicalized with
# `marvel-campaign merge --out` and must compare byte-for-byte.
#
# Usage: scripts/distributed_smoke.sh [BUILD_DIR]   (default: build)
#
# The campaign is parameterizable so the same harness can drive any
# workload/engine through the dispatch path (e.g. a systolic-array
# accelerator campaign):
#
#   SMOKE_WORKLOAD  MiBench kernel           (default crc32)
#   SMOKE_DRIVER    accelerator driver; when set it replaces
#                   SMOKE_WORKLOAD (e.g. gemm_systolic)
#   SMOKE_CONFIG    INI system description passed to every process
#   SMOKE_TARGET    injection target         (default prf-int)
#   SMOKE_FAULTS    sample size              (default 96)
#   SMOKE_SEED      campaign seed            (default 424242)
#   SMOKE_LADDER    checkpoint-ladder rungs, shared by BOTH runs —
#                   ladder geometry is campaign identity (default: none)
#   SMOKE_EARLY_STOP  convergence early-stop mode for the DISTRIBUTED
#                   run only; the single-process reference always
#                   simulates every window in full, so setting `on`
#                   here proves canonicalization erases the stop
#                   short-circuit (workers inherit the mode from the
#                   daemon's journal meta). When `on`, the distributed
#                   journal must also show at least one stopped run —
#                   a smoke that never stops proves nothing.
#   SMOKE_FAULT_MODEL  fault-model spec shared by BOTH runs (e.g.
#                   'correlated roww=1,3 colw=1,2,4,2'); the spec is
#                   campaign identity like the seed, and workers pick
#                   it up from the daemon's journal meta — no worker
#                   flag exists, which is exactly what this exercises.
set -euo pipefail

BUILD="${1:-build}"
TOOLS="$BUILD/tools"
WORK="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$WORK"' EXIT

# The workload selection is shared by the reference run, the daemon,
# and both workers: every process must simulate the same system.
WORKLOAD=(--workload "${SMOKE_WORKLOAD:-crc32}")
if [ -n "${SMOKE_DRIVER:-}" ]; then
    WORKLOAD=(--driver "$SMOKE_DRIVER")
fi
if [ -n "${SMOKE_CONFIG:-}" ]; then
    WORKLOAD+=(--config "$SMOKE_CONFIG")
fi
CAMPAIGN=("${WORKLOAD[@]}" --target "${SMOKE_TARGET:-prf-int}"
          --faults "${SMOKE_FAULTS:-96}" --seed "${SMOKE_SEED:-424242}")
if [ -n "${SMOKE_LADDER:-}" ]; then
    CAMPAIGN+=(--ladder "$SMOKE_LADDER")
fi
if [ -n "${SMOKE_FAULT_MODEL:-}" ]; then
    CAMPAIGN+=(--fault-model "$SMOKE_FAULT_MODEL")
fi
DAEMON_FLAGS=()
if [ -n "${SMOKE_EARLY_STOP:-}" ]; then
    DAEMON_FLAGS+=(--early-stop "$SMOKE_EARLY_STOP")
fi

echo "== single-process reference =="
"$TOOLS/marvel-campaign" run "${CAMPAIGN[@]}" \
    --journal "$WORK/single.jsonl"
"$TOOLS/marvel-campaign" merge --journal "$WORK/single.jsonl" \
    --out "$WORK/single.canon.jsonl"

echo "== daemon + 2 workers, one killed mid-lease =="
# Short TTL so the killed worker's lease is reaped within the run;
# small leases/chunks so the kill reliably lands mid-lease.
"$TOOLS/marvel-campaignd" --listen "unix:$WORK/smoke.sock" \
    --journal "$WORK/dist.jsonl" "${CAMPAIGN[@]}" \
    ${DAEMON_FLAGS[@]+"${DAEMON_FLAGS[@]}"} \
    --ttl-ms 2000 --lease 6 --chunk 4 &
DAEMON=$!

for _ in $(seq 100); do
    [ -S "$WORK/smoke.sock" ] && break
    sleep 0.1
done
[ -S "$WORK/smoke.sock" ] || { echo "FAIL: daemon never listened"; exit 1; }

"$TOOLS/marvel-worker" --connect "unix:$WORK/smoke.sock" \
    "${WORKLOAD[@]}" --name doomed &
DOOMED=$!
"$TOOLS/marvel-worker" --connect "unix:$WORK/smoke.sock" \
    "${WORKLOAD[@]}" --name survivor &
SURVIVOR=$!

# Give 'doomed' time to build its golden run and take a lease, then
# SIGKILL it: no Bye, no LeaseDone — only the TTL cleans up after it.
sleep 3
if kill -9 "$DOOMED" 2>/dev/null; then
    echo "killed worker 'doomed' (pid $DOOMED) mid-lease"
else
    echo "note: worker 'doomed' already exited before the kill"
fi
wait "$DOOMED" 2>/dev/null || true

wait "$SURVIVOR"
wait "$DAEMON"

"$TOOLS/marvel-campaign" merge --journal "$WORK/dist.jsonl" \
    --out "$WORK/dist.canon.jsonl"

if [ "${SMOKE_EARLY_STOP:-}" = "on" ]; then
    echo "== non-vacuity: the distributed run must have short-circuited =="
    if grep -q '"stopped_rung":[1-9]' "$WORK/dist.jsonl"; then
        echo "distributed journal shows $(grep -c '"stopped_rung":[1-9]' \
            "$WORK/dist.jsonl") early-stopped runs"
    else
        echo "FAIL: --early-stop on but no run ever stopped at a rung"
        exit 1
    fi
fi

if [ -n "${SMOKE_FAULT_MODEL:-}" ]; then
    echo "== non-vacuity: the spec must be journaled campaign identity =="
    if grep -q '"faultModel":' "$WORK/dist.jsonl"; then
        echo "distributed journal records the fault-model spec"
    else
        echo "FAIL: SMOKE_FAULT_MODEL set but no faultModel in the meta"
        exit 1
    fi
fi

echo "== byte-for-byte diff of canonical journals =="
cmp "$WORK/single.canon.jsonl" "$WORK/dist.canon.jsonl"
echo "OK: distributed and single-process journals are byte-identical"
