#!/usr/bin/env python3
"""Build and run the flows benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload btmz|migrate_churn|mp_pingpong \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Builds the `flows-perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), stamps the run with the
rustc version, the git commit (when there is one) and a hash of the
source, then runs the binary. Its last line of standard output is the
result JSON. Run files go to `perfbench/out/`.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# Whole-run limit for the binary once built; a run measures --seconds
# (at most 60) plus its last episode.
RUN_TIMEOUT_S = 170


def source_hash():
    """SHA-256 over every source file the benchmark binary is built from."""
    h = hashlib.sha256()
    roots = ["crates", "vendor", os.path.join("perfbench", "src")]
    files = ["Cargo.toml", "Cargo.lock", os.path.join("perfbench", "Cargo.toml")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, root)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    files.append(os.path.relpath(os.path.join(dirpath, name), REPO))
    for rel in files:
        path = os.path.join(REPO, rel)
        if os.path.isfile(path):
            h.update(rel.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "flows-perfbench")
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    commit = "none"
    if os.path.isdir(os.path.join(REPO, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
    env["PERFBENCH_COMMIT"] = commit
    env["PERFBENCH_SOURCE"] = source_hash()
    argv = [exe] + sys.argv[1:] + ["--out", os.path.join(HERE, "out")]
    # A session of its own, so a run that overstays is stopped together
    # with every leader and child process it started.
    proc = subprocess.Popen(argv, env=env, start_new_session=True)

    def stop(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    started = time.time()
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds after %.0fs, stopped"
              % (RUN_TIMEOUT_S, time.time() - started), file=sys.stderr)
        stop(signal.SIGKILL, None)
    except KeyboardInterrupt:
        stop(signal.SIGINT, None)


if __name__ == "__main__":
    sys.exit(main())
