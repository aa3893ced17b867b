"""Alternating pairs of benchmark runs on two checkouts, summarised for a claim.

    python tests/bench_pairs.py PARENT CHANGE --workloads auc_sync_steps \\
        --seeds 0 1606 --pairs 10 --out BENCH_21.json

PARENT and CHANGE are source checkouts, each with its own `perfbench/`.  For
every seed and pair, each side runs `python3 perfbench/run.py --workload W
--seed S` once per workload, from its own directory; the parent runs first in
even pairs and the change in odd ones.  The output JSON holds every run's
final perfbench line, the 1-minute load average after it and the trace.csv
SHA-256 set of its children, and per seed, workload and end-to-end metric:
each side's median, quartiles and runs, the pairs the change won (ties count
for neither side) and whether the gain is resolved: the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
interquartile range.  A metric's direction comes from the parent's
BENCHMARK.json.  This is a script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_side(checkout: Path, workload: str, seed: int, env: dict) -> dict:
    """One perfbench run: its final JSON line, the load after it and the
    trace hashes of its children; records the run's environment in `env`."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=checkout, capture_output=True,
                          text=True, check=True)
    results = json.loads((checkout / ".perfbench" / workload / "results.json").read_text())
    env.update(results["environment"])
    return {"result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "load_avg_1min_after": os.getloadavg()[0],
            "trace_sha256": sorted({c["trace_sha256"] for c in results["children"]
                                    if "trace_sha256" in c})}


def summarize(runs: dict[str, list[float]], higher_is_better: bool) -> dict:
    out = {}
    for side in SIDES:
        q1, _, q3 = statistics.quantiles(runs[side], n=4)
        out[side] = {"median": statistics.median(runs[side]), "q1": q1, "q3": q3,
                     "runs": runs[side]}
    sign = 1.0 if higher_is_better else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    parent, change = out["parent"], out["change"]
    pairs = len(runs["parent"])
    gain = sign * (change["median"] - parent["median"])
    out.update(change_wins=wins, pairs=pairs,
               relative_change_of_median=change["median"] / parent["median"] - 1.0,
               resolved_gain=wins >= 0.9 * pairs and gain > parent["q3"] - parent["q1"])
    return out


def git_head(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}

    doc = {"description": " ".join(__doc__.split("\n\n")[2].split()),
           "workloads": args.workloads, "seeds": args.seeds, "pairs_per_seed": args.pairs,
           "commits": {side: git_head(path) for side, path in checkouts.items()},
           "environment": {}, "summary": {}, "trace_sha256": {}, "pairs": {}}
    for seed in args.seeds:
        pairs = doc["pairs"][f"seed{seed}"] = []
        for p in range(args.pairs):
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = {w: run_side(checkouts[side], w, seed, doc["environment"])
                              for w in args.workloads}
                print(f"seed {seed} pair {p} {side}: " + ", ".join(
                    f"{w} {r['result']['metrics']['steps_per_s']['value']:.1f} steps/s"
                    for w, r in pair[side].items()), flush=True)
            pairs.append(pair)
        for w in args.workloads:
            doc["trace_sha256"][f"{w}_seed{seed}"] = {
                side: sorted({h for pair in pairs for h in pair[side][w]["trace_sha256"]})
                for side in SIDES}
            doc["summary"].setdefault(f"seed{seed}", {})[w] = {
                metric: summarize({side: [pair[side][w]["result"]["metrics"][metric]["value"]
                                          for pair in pairs] for side in SIDES},
                                  higher[metric])
                for metric in pairs[0]["parent"][w]["result"]["metrics"]}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for key, by_workload in doc["summary"].items():
        for w, metrics in by_workload.items():
            for metric, s in metrics.items():
                print(f"{key} {w:<20} {metric:<12} parent {s['parent']['median']:.6g} "
                      f"change {s['change']['median']:.6g} "
                      f"({s['relative_change_of_median']:+.1%}), change won "
                      f"{s['change_wins']}/{s['pairs']}, resolved gain {s['resolved_gain']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
