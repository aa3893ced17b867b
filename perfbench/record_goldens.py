"""Record each workload's final obj_mean for a set of seeds into goldens.json.

    python3 perfbench/record_goldens.py --seeds 0-31,1606 [--workload NAME]

Run it on the commit that later runs are compared against.  One untraced
child runs per (workload, seed); a child that fails any other check of
run.check_child is not recorded, and the script exits non-zero.  Existing
entries for other seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--workload", choices=list(run.WORKLOADS))
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    goldens = json.loads(run.GOLDENS.read_text())
    status = 0
    for workload in [args.workload] if args.workload else list(run.WORKLOADS):
        table = goldens.setdefault(workload, {})
        for seed in args.seeds:
            cdir = run.OUT / "goldens" / workload / str(seed)
            shutil.rmtree(cdir, ignore_errors=True)
            cdir.mkdir(parents=True)
            cfg_path = cdir / "config.json"
            cfg_path.write_text(json.dumps(run.make_config(workload, seed)) + "\n")
            code, note = run.run_child(cfg_path, cdir, False,
                                       time.monotonic() + run.RUN_DEADLINE_S)
            problems = [note or f"child exited with code {code}"] if code != 0 else []
            if not problems:
                problems = run.check_child(workload, seed, cdir, None)
            if problems:
                print(f"{workload} seed {seed}: not recorded: {problems}", file=sys.stderr)
                status = 1
                continue
            table[str(seed)] = run.read_trace(cdir / "trace.csv")[-1]["obj_mean"]
            run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {table[str(seed)]!r}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
