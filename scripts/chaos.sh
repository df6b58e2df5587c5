#!/bin/bash
# Chaos soak gate: runs the online-recovery soak (ft_online) across a
# dozen seeded crash/stall/loss schedules and asserts every one heals in
# place — no stranded threads, only scripted victims (or
# fenced stallers) dead, and per-rank checksums bit-identical to the
# fault-free run. The harness itself exits non-zero on any violation;
# this wrapper re-checks the verdict column and the seed count so a
# silently-truncated table cannot pass. Writes BENCH_ft.json (detection
# latency + MTTR per seed) as a side effect.
set -u
cd "$(dirname "$0")/.."

SEEDS=${SEEDS:-12}
if [ "$SEEDS" -lt 10 ]; then
  echo "FAIL: chaos soak needs at least 10 seeds (got $SEEDS)" >&2
  exit 1
fi
OUT=$(timeout 900 cargo run --offline --release -q -p flows-bench --bin ft_online -- --seeds "$SEEDS" 2>&1)
STATUS=$?
echo "$OUT"
if [ $STATUS -ne 0 ]; then
  echo "FAIL: ft_online exited $STATUS (divergence, failed heal, or build error)" >&2
  exit 1
fi
if echo "$OUT" | grep -q "false"; then
  echo "FAIL: a 'checksum equal' column reads false" >&2
  exit 1
fi
ROWS=$(echo "$OUT" | grep -c "^0x\|^ *0x")
if [ "$ROWS" -lt "$SEEDS" ]; then
  echo "FAIL: expected $SEEDS seed rows, saw $ROWS" >&2
  exit 1
fi
if [ ! -s BENCH_ft.json ]; then
  echo "FAIL: BENCH_ft.json was not written" >&2
  exit 1
fi
echo "OK: $SEEDS chaos schedules healed online with bit-identical checksums"
