#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

Usage, from the repository root:

    python3 perfbench/test_determinism.py [--scale K]

For every workload, runs main.exe (traced, one set-up, a small scale) twice
with seed 1 and once with seed 2.  The two seed-1 runs must print
byte-identical simulated metrics and counts.  The seed-2 run must move
the metrics that depend only on the generated workload, which shows that
the seed reaches the generated inputs.  Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["paper-small-cache", "paper-large-cache-long-log", "oltp-in-cache"]
# Functions of the generated workload alone (not of the ttft probe keys,
# which come from the seed too): another seed must move them.
SEED_DRIVEN = ["log_bytes_per_op", "recovery_ms"]
OUT = os.path.join("perfbench", "out", "determinism")


def simulated(workload, seed, scale, tag):
    out = os.path.join(OUT, tag)
    os.makedirs(out, exist_ok=True)
    cmd = [run.EXE, "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1",
           "--scale", str(scale), "--setups", "1", "--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL {workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    # Counts of checks and transactions are simulated too.
    return dict(result["simulated"], ops_attempted=result["ops_attempted"], ops_failed=result["ops_failed"])


def main(argv):
    scale = int(argv[argv.index("--scale") + 1]) if "--scale" in argv else 512
    run.build()
    ok = True
    for w in WORKLOADS:
        a = simulated(w, 1, scale, "a")
        b = simulated(w, 1, scale, "b")
        c = simulated(w, 2, scale, "c")
        diff = sorted(k for k in a if a[k] != b.get(k))
        moved = sorted(k for k in a if a[k] != c.get(k))
        if diff or a.keys() != b.keys():
            ok = False
            print(f"FAIL {w}: same seed, different simulated metrics: {', '.join(diff) or 'key sets'}")
        elif any(k not in moved for k in SEED_DRIVEN):
            ok = False
            print(f"FAIL {w}: seed 2 left {', '.join(k for k in SEED_DRIVEN if k not in moved)} unchanged; "
                  "the seed does not reach the generated inputs")
        else:
            print(f"ok   {w}: {len(a)} simulated values repeat; seed 2 moves {len(moved)} of them")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
