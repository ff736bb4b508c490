#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source with dune (into .bench_build), runs it
once, and prints, as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.  Any other argument (--scale, --setups,
--out) is passed to main.exe unchanged.  The exit code is non-zero when the
build fails, a recovery or transaction fails its check, or a metric is
missing; no result line is printed when there is nothing to report.
"""

import json
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# One run must end within 180 s; the first build of a checkout may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with exit code {proc.returncode}")


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main(argv):
    i = argv.index("--trace") if "--trace" in argv else len(argv)
    trace = argv[i + 1] if i + 1 < len(argv) else ""
    if trace not in ("0", "1"):
        fail("--trace 0|1 is required")
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]

    started = time.monotonic()
    build()
    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    # A first build may use most of the budget; the run itself still gets
    # the time one run is allowed.
    timeout = max(remaining, 150)
    try:
        proc = subprocess.run([EXE, *argv, "--commit", commit()], capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"main.exe did not finish within {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail(f"main.exe exited with code {proc.returncode} and no result")
    print("\n".join(lines[:-1]))

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"metric {m['name']} missing from the result")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    failed = result["ops_failed"]
    line = {
        "correct": failed == 0 and proc.returncode == 0,
        "attempted": result["ops_attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
