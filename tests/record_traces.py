"""Record the trace-hash gate's goldens, tests/goldens/traces.json.

The gate is a fixed grid of harness runs at n = 21: every loss and
regularizer, sync and async × gossip and unbiased_baseline × complete,
Watts-Strogatz and odd-cycle graphs, plus both centralized policies, at
seeds 0 and 1606 with T = 300 and a checkpoint every 100 steps.  For each
run the file holds every trace record's values and the SHA-256 of its
trace.csv; `test_trace_gate` compares the current code against it.

    python tests/record_traces.py                   # report moves, write nothing
    python tests/record_traces.py --reason "why"    # rewrite the goldens

Without --reason the script prints, per trace column, the largest relative
move against the committed file and how many traces are byte-identical.  A
change that rewrites the file declares that report with its reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(ROOT / "src"))

from pairgossip import harness
from pairgossip.analysis import ASYNC_COLUMNS as COLUMNS, write_trace

GOLDENS = ROOT / "tests" / "goldens" / "traces.json"

N, T, STRIDE, SEEDS = 21, 300, 100, (0, 1606)
AUC_DATA = {"kind": "toy_auc", "n": N, "d": 2, "separation": 0.8}
MIXTURE = {"kind": "synthetic_mixture", "n": N, "ambient_dim": 4,
           "classes": 3, "subspace_dim": 2}
AUC = {"kind": "auc_logistic"}
HINGE = {"kind": "metric_hinge", "b": 2.0}
# name: (dataset, loss, regularizer, compute_reference); the reference solve
# runs where the problem is well posed and the solve is exact (not the hinge).
PROBLEMS = {
    "auc_squared_l2": (AUC_DATA, AUC, {"kind": "squared_l2", "lam": 0.05}, True),
    "auc_l1": (AUC_DATA, AUC, {"kind": "l1", "lam": 0.05}, True),
    "auc_zero": (AUC_DATA, AUC, {"kind": "zero"}, False),
    "hinge_psd_indicator": (MIXTURE, HINGE, {"kind": "psd_indicator"}, False),
    "hinge_zero": (MIXTURE, HINGE, {"kind": "zero"}, False),
}
TOPOLOGIES = {
    "complete": {"kind": "complete", "n": N},
    "watts_strogatz": {"kind": "watts_strogatz", "n": N, "k": 4, "p": 0.3},
    "cycle": {"kind": "cycle", "n": N},
}
# async runs take a poly schedule, which the asynchronous theory assumes
INV_SQRT = {"kind": "inv_sqrt", "c": 0.5}
POLY = {"kind": "poly", "c": 0.5, "alpha": 0.25}


def grid() -> dict[str, dict]:
    """Run name -> RunConfig fields."""
    runs = {}
    for problem, (dataset, loss, reg, reference) in PROBLEMS.items():
        for seed in SEEDS:
            shared = dict(dataset=dataset, loss=loss, regularizer=reg, T=T,
                          seed=seed, checkpoint_stride=STRIDE,
                          compute_reference=reference)
            for algo in ("sync", "async"):
                for mode in ("gossip", "unbiased_baseline"):
                    for topo, spec in TOPOLOGIES.items():
                        runs[f"{problem}/{algo}/{mode}/{topo}/seed{seed}"] = dict(
                            shared, algorithm=algo, gradient_mode=mode,
                            topology=spec,
                            schedule=POLY if algo == "async" else INV_SQRT)
            for algo in ("centralized_det", "centralized_sto"):
                runs[f"{problem}/{algo}/seed{seed}"] = dict(
                    shared, algorithm=algo, topology=None, schedule=INV_SQRT)
    return runs


def run_grid(workdir: Path) -> dict[str, dict]:
    """Run name -> {"trace_sha256", "records"}, one row per trace record."""
    out = {}
    for name, fields in grid().items():
        prep = harness.prepare(harness.RunConfig(**fields))
        records = harness.execute(prep)
        path = workdir / "trace.csv"
        write_trace(records, path)
        out[name] = {"trace_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                     "records": [r.row(COLUMNS) for r in records]}
    return out


def relative_move(got, want) -> float:
    """|got - want| / |want|, with NaN equal to NaN and None equal to None."""
    if got is None or want is None:
        return 0.0 if got is want else math.inf
    if math.isnan(want) or math.isnan(got):
        return 0.0 if math.isnan(want) and math.isnan(got) else math.inf
    if got == want:
        return 0.0
    return math.inf if want == 0 else abs(got - want) / abs(want)


def compare(got: dict, want: dict) -> tuple[dict[str, float], list[str], int]:
    """Largest relative move per column, the runs whose shape differs (run
    set, record count), and the number of byte-identical traces."""
    moves = dict.fromkeys(COLUMNS, 0.0)
    misshapen = sorted(set(got) ^ set(want))
    identical = 0
    for name in sorted(set(got) & set(want)):
        g, w = got[name], want[name]
        identical += g["trace_sha256"] == w["trace_sha256"]
        if len(g["records"]) != len(w["records"]):
            misshapen.append(name)
            continue
        for g_row, w_row in zip(g["records"], w["records"]):
            for col, a, b in zip(COLUMNS, g_row, w_row):
                moves[col] = max(moves[col], relative_move(a, b))
    return moves, misshapen, identical


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def write_goldens(runs: dict, reason: str) -> None:
    lines = [f"  {json.dumps(name)}: {json.dumps(run)}" for name, run in runs.items()]
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text("{\n" + f'  "reason": {json.dumps(reason)},\n'
                       + '  "runs": {\n' + ",\n".join("  " + ln for ln in lines)
                       + "\n  }\n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reason", help="rewrite the goldens, recording why")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_grid(Path(tmp))
    if GOLDENS.exists():
        moves, misshapen, identical = compare(runs, load_goldens()["runs"])
        for col, move in moves.items():
            print(f"{col:20s} largest relative move {move:.3e}")
        print(f"{identical}/{len(runs)} traces byte-identical; "
              f"{len(misshapen)} runs added, removed or reshaped")
    if args.reason:
        write_goldens(runs, args.reason)
        print(f"wrote {len(runs)} runs to {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
