"""Assertions over the bench's machine-readable summary (BENCH_recovery.json).

    python3 bench/check_bench_json.py BENCH_recovery.json --max-rss-kb N

Checks the shape and gates of every experiment block, that every section
recorded its peak RSS, and that the run's peak RSS (VmHWM) is at most N kB.
Exits non-zero on the first failed assertion.
"""

import argparse
import json

parser = argparse.ArgumentParser()
parser.add_argument("path")
parser.add_argument("--max-rss-kb", type=int, required=True)
args = parser.parse_args()

d = json.load(open(args.path))
assert d["schema"] == "deut-bench-recovery/1"
assert d["fig2"] and all(c["methods"] for c in d["fig2"]), "empty fig2 cells"
on = [c for c in d["archiving"] if c["archive"]]
assert on and all(c["segments"] > 0 for c in on), "archiving cell sealed no segments"
assert all(c["final_live_kb"] < c["final_logged_kb"] for c in on), "live log not bounded"
assert len({c["digest"] for c in d["archiving"]}) == 1, "archiving changed committed state"
a = d["availability"]
assert a, "empty availability sweep"
smallest = min(a, key=lambda c: c["cache_mb"])
assert smallest["speedup"] >= 10, f"instant open only {smallest['speedup']}x faster than full recovery"
assert all(c["pages_background"] > 0 for c in a), "background drain replayed nothing"
sh = d["sharding"]
assert sh, "empty sharding sweep"
assert any(c["shards"] == 1 for c in sh) and any(c["shards"] > 1 for c in sh), "sharding sweep missing a shard count"
assert len({c["digest"] for c in sh}) == 1, "sharding changed committed state"
assert all(c["recover_shard_ms"] is not None for c in sh if c["shards"] > 1), "multi-shard cell skipped the crash/recovery scenario"
assert d["cores"] >= 1
assert d["sections"] and all(s["peak_rss_kb"] > 0 for s in d["sections"]), "a section recorded no peak RSS"
rss = d["peak_rss_kb"]
assert 0 < rss <= args.max_rss_kb, f"peak RSS {rss} kB above the {args.max_rss_kb} kB ceiling"
print("total_wall_s", d["total_wall_s"], "peak_rss_kb", rss)
