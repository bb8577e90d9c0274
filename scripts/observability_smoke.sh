#!/usr/bin/env bash
# Observability smoke test: the distributed_smoke.sh harness with the
# campaign observatory bolted on.
#
# Runs a daemon + two workers over a unix socket, freezes one worker
# mid-lease (SIGSTOP, so only the TTL reaper can clean up after it),
# and while the campaign is still running:
#
#   - scrapes the Metrics endpoint (marvel-top --once --raw) and
#     validates the OpenMetrics document with validate_metrics.py
#     against docs/schemas/metrics.md;
#   - renders one marvel-top dashboard frame (--once) and checks the
#     per-worker rows appear.
#
# After the fleet drains it asserts the observability invariants on
# top of the usual byte-identity bar:
#
#   - a post-freeze scrape counts the reaped lease
#     (marvel_dispatch_leases_expired_total >= 1);
#   - the canonical distributed journal is byte-identical to the
#     single-process run (provenance must not leak into it);
#   - `marvel-campaign report` over the single-process journal prints
#     a phase table whose phase-total-seconds is within 10% of
#     campaign-wall-seconds (the profiler accounts for where the
#     wall-clock went, not a fraction of it).
#
# Usage: scripts/observability_smoke.sh [BUILD_DIR]   (default: build)
#
# Artifacts (scrapes, dashboard frame, report, journals) are copied
# to OBS_ARTIFACTS if that variable is set, so CI can upload them.
set -euo pipefail

BUILD="${1:-build}"
TOOLS="$BUILD/tools"
WORK="$(mktemp -d)"
# SIGKILL in the cleanup: this script freezes a worker with SIGSTOP,
# and a stopped process queues SIGTERM without dying — a plain kill
# would leave the trap's wait hanging forever.
trap 'kill -9 $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$WORK"' EXIT

FAULTS="${SMOKE_FAULTS:-600}"
CAMPAIGN=(--workload crc32 --target prf-int
          --faults "$FAULTS" --seed "${SMOKE_SEED:-424242}")

metric() { # metric NAME FILE -> first unlabelled sample value
    awk -v name="$2" '$1 == name { print $2; exit }' "$1"
}

echo "== single-process reference (journaled, 1 thread) =="
"$TOOLS/marvel-campaign" run "${CAMPAIGN[@]}" --threads 1 \
    --journal "$WORK/single.jsonl"
"$TOOLS/marvel-campaign" merge --journal "$WORK/single.jsonl" \
    --out "$WORK/single.canon.jsonl"

echo "== daemon + 2 workers, one killed mid-lease =="
"$TOOLS/marvel-campaignd" --listen "unix:$WORK/smoke.sock" \
    --journal "$WORK/dist.jsonl" "${CAMPAIGN[@]}" \
    --ttl-ms 2000 --lease 6 --chunk 4 &
DAEMON=$!

for _ in $(seq 100); do
    [ -S "$WORK/smoke.sock" ] && break
    sleep 0.1
done
[ -S "$WORK/smoke.sock" ] || { echo "FAIL: daemon never listened"; exit 1; }

"$TOOLS/marvel-worker" --connect "unix:$WORK/smoke.sock" \
    --workload crc32 --name doomed &
DOOMED=$!
"$TOOLS/marvel-worker" --connect "unix:$WORK/smoke.sock" \
    --workload crc32 --name survivor &
SURVIVOR=$!

# Let both workers build their goldens and take leases, then scrape
# the live fleet: the document must validate against the schema and
# show both workers.
sleep 3
"$TOOLS/marvel-top" --connect "unix:$WORK/smoke.sock" --once --raw \
    > "$WORK/scrape-live.txt"
python3 scripts/validate_metrics.py "$WORK/scrape-live.txt"
for worker in doomed survivor; do
    grep -q "marvel_worker_verdicts_total{worker=\"$worker\"}" \
        "$WORK/scrape-live.txt" \
        || { echo "FAIL: no $worker row in live scrape"; exit 1; }
done

echo "== marvel-top dashboard frame (one redraw) =="
"$TOOLS/marvel-top" --connect "unix:$WORK/smoke.sock" --once \
    | tee "$WORK/top-frame.txt"
grep -q "^campaign " "$WORK/top-frame.txt" \
    || { echo "FAIL: marvel-top frame missing campaign line"; exit 1; }
grep -q "survivor" "$WORK/top-frame.txt" \
    || { echo "FAIL: marvel-top frame missing worker row"; exit 1; }

# SIGSTOP, not SIGKILL: a killed worker's socket closes, so the
# daemon releases its lease on the disconnect path without an expiry.
# A frozen worker keeps the connection open and silent — the only
# thing that cleans up after it is the TTL reaper, which is the
# counter this test is after.
if kill -STOP "$DOOMED" 2>/dev/null; then
    echo "froze worker 'doomed' (pid $DOOMED) mid-lease"
else
    echo "note: worker 'doomed' already exited before the freeze"
fi

# The TTL is 2s: after 3 more seconds the reaper has swept the frozen
# worker's lease, and a second scrape must count the expiry. (The
# separate requeued counter tracks the other cleanup path — a
# connection dying with its lease open — which this freeze
# deliberately does not take.)
sleep 3
"$TOOLS/marvel-top" --connect "unix:$WORK/smoke.sock" --once --raw \
    > "$WORK/scrape-postkill.txt" \
    || { echo "FAIL: campaign finished before the post-kill scrape;"\
         " raise SMOKE_FAULTS"; exit 1; }
python3 scripts/validate_metrics.py "$WORK/scrape-postkill.txt"
EXPIRED=$(metric "$WORK/scrape-postkill.txt" \
    marvel_dispatch_leases_expired_total)
REQUEUED=$(metric "$WORK/scrape-postkill.txt" \
    marvel_dispatch_leases_requeued_total)
echo "post-freeze: expired=$EXPIRED requeued=$REQUEUED"
[ "${EXPIRED:-0}" -ge 1 ] \
    || { echo "FAIL: reaped lease not counted as expired"; exit 1; }
[ -n "$REQUEUED" ] \
    || { echo "FAIL: requeued counter missing from scrape"; exit 1; }

# Now actually kill the frozen worker; its verdicts for the expired
# lease (if any were in flight) are the daemon's stale-verdict path.
kill -9 "$DOOMED" 2>/dev/null || true
wait "$DOOMED" 2>/dev/null || true

wait "$SURVIVOR"
wait "$DAEMON"

echo "== byte-for-byte diff of canonical journals =="
"$TOOLS/marvel-campaign" merge --journal "$WORK/dist.jsonl" \
    --out "$WORK/dist.canon.jsonl"
cmp "$WORK/single.canon.jsonl" "$WORK/dist.canon.jsonl"
echo "OK: distributed and single-process journals are byte-identical"

echo "== marvel-campaign report: profiler accounts for the wall-clock =="
"$TOOLS/marvel-campaign" report --journal "$WORK/single.jsonl" \
    | tee "$WORK/report.txt"
PHASE=$(awk '$1 == "phase-total-seconds" { print $2 }' "$WORK/report.txt")
WALL=$(awk '$1 == "campaign-wall-seconds" { print $2 }' "$WORK/report.txt")
python3 - "$PHASE" "$WALL" << 'EOF'
import sys
phase, wall = float(sys.argv[1]), float(sys.argv[2])
if wall <= 0:
    sys.exit("FAIL: campaign-wall-seconds is zero")
off = abs(phase - wall) / wall
print(f"phase total {phase:.3f}s vs wall {wall:.3f}s ({off:.1%} off)")
if off > 0.10:
    sys.exit("FAIL: phase breakdown misses >10% of the wall-clock")
EOF
echo "OK: phase breakdown sums to within 10% of the campaign wall-clock"

if [ -n "${OBS_ARTIFACTS:-}" ]; then
    mkdir -p "$OBS_ARTIFACTS"
    cp "$WORK"/scrape-*.txt "$WORK/top-frame.txt" "$WORK/report.txt" \
       "$WORK"/*.canon.jsonl "$OBS_ARTIFACTS/"
fi
