#!/bin/bash
# Fault-injection smoke test: runs the fault_recovery harness at a fixed
# seed and asserts (a) the harness's own checksum gate passes (it exits
# non-zero if any faulty run diverges from the fault-free checksum), and
# (b) the crash scenario actually healed and finished on the survivors.
set -u
cd "$(dirname "$0")/.."

SEED=fa17
OUT=$(timeout 900 cargo run --offline --release -q -p flows-bench --bin fault_recovery -- --seed "$SEED" 2>&1)
STATUS=$?
echo "$OUT"
if [ $STATUS -ne 0 ]; then
  echo "FAIL: fault_recovery harness exited $STATUS (checksum divergence or build error)" >&2
  exit 1
fi
if echo "$OUT" | grep -q "false"; then
  echo "FAIL: a 'checksum equal' column reads false" >&2
  exit 1
fi
# The crash row: 1 recovery, 3 live PEs, checksum equal.
if ! echo "$OUT" | grep -A2 "crash PE1" | grep -qE "\b1\s+3\s+true"; then
  echo "FAIL: crash scenario did not report '1 recovery, 3 live PEs, checksum equal'" >&2
  exit 1
fi
echo "OK: seeded fault sweep + crash recovery reproduce the fault-free checksums"
