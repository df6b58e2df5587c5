#!/bin/bash
# The one benchmark script. Full mode runs every gate, regenerates the
# checked-in BENCH_*.json artifacts at full windows, then prints every
# table/figure harness and the criterion micro-benches to stdout
# (redirect to a file to keep a capture).
#
#   scripts/run_benches.sh [--quick] [--flavors a,b,c] [--reps N]
#
# `--quick` skips the full-window regeneration entirely and runs only
# flowslint and the floor gates (bench_smoke's fast windows, best-of-3) —
# the mode CI and pre-commit hooks want: minutes of sweep collapse to
# seconds, and nothing under version control is rewritten.
# `--flavors` restricts the sched_migrate sweep to the named stack
# flavors (default: all four — standard, stack-copy, isomalloc,
# memory-alias); `--reps` sets its best-of-N pass count (default 3;
# raise it on noisy shared hosts). Both pass straight through to the
# sched_migrate binary. When the sweep is restricted, the partial
# results go to a scratch file instead of overwriting BENCH_sched.json.
set -eu
cd "$(dirname "$0")/.."

FLAVORS=""
REPS=""
QUICK=0
while [ $# -gt 0 ]; do
  case "$1" in
    --quick)   QUICK=1;      shift ;;
    --flavors) FLAVORS="$2"; shift 2 ;;
    --reps)    REPS="$2";    shift 2 ;;
    *) echo "usage: $0 [--quick] [--flavors a,b,c] [--reps N]" >&2; exit 2 ;;
  esac
done

if [ "$QUICK" -eq 1 ]; then
  # Safety gate first: numbers recorded from a workspace that fails the
  # migration-safety/concurrency-protocol lint are not worth keeping.
  cargo run --offline -q -p flows-check --bin flowslint -- --root . \
    --baseline flowslint.baseline
  echo "run_benches: quick mode (floors only, no artifact regeneration)"
  exec scripts/bench_smoke.sh
fi

# Gates first:
#  - lint.sh: clippy -D warnings plus the safety gate (flowslint +
#    sanitize-feature test pass, via check.sh);
#  - bench_smoke --mp: the throughput floors, cross-process shm ring
#    included (fails fast if the message path regressed);
#  - trace_demo: a traced AMPI job exports a complete Chrome timeline;
#  - chaos: 12 seeded crash/stall/loss schedules must heal online with
#    bit-identical checksums (refreshes BENCH_ft.json);
#  - mp_recovery: a 2-proc x 2-PE machine must heal a whole-process crash
#    from buddy checkpoints over the socket backend;
#  - run_faults: the fault_recovery harness must reproduce the fault-free
#    checksums and heal its PE crash in one recovery.
bash scripts/lint.sh
bash scripts/bench_smoke.sh --mp
bash scripts/trace_demo.sh
bash scripts/chaos.sh
cargo test --offline --release -q -p flows-ampi --test mp_recovery -- --test-threads 1
bash scripts/run_faults.sh

SCHED_ARGS=""
SCHED_JSON=BENCH_sched.json
if [ -n "$FLAVORS" ]; then
  SCHED_ARGS="--flavors $FLAVORS"
  SCHED_JSON=/tmp/BENCH_sched_partial.json
  echo "run_benches: partial flavor sweep ($FLAVORS) -> $SCHED_JSON"
fi
if [ -n "$REPS" ]; then
  SCHED_ARGS="$SCHED_ARGS --reps $REPS"
fi

cargo build --offline --release -q -p flows-bench

# shellcheck disable=SC2086 — SCHED_ARGS is a deliberate word list.
./target/release/sched_migrate --steal $SCHED_ARGS --json "$SCHED_JSON"
./target/release/msgpath --json BENCH_msgpath.json --processes 2

# Million-thread scale-out probe at full cap (the smoke gate enforces
# the floors with the same cap).
./target/release/table2_limits --iso-cap 1000000

# The capture below records every harness, even one that exits non-zero.
set +e
echo "=== flows bench harnesses ($(date -u +%FT%TZ), host: $(uname -m), $(nproc) cpu) ==="
for b in table1_portability table2_limits fig10_minswap fig9_stacksize fig4_ctxswitch_flows fig11_bigsim fig12_btmz fault_recovery ft_online msgpath sched_migrate; do
  echo; echo "### $b"
  timeout 900 cargo run --offline --release -q -p flows-bench --bin "$b" 2>&1
done
echo; echo "### criterion micro-benches"
timeout 1200 cargo bench --offline -p flows-bench 2>&1 | grep -vE "^(Benchmarking|Found|  [0-9]|  high|  low|Warning)"
