"""One benchmark run in a fresh process: the public harness path, timed.

    python3 perfbench/child.py --config cfg.json --out DIR --trace 0

Runs `harness.prepare` at least SETUP_REPEATS times and for at least
SETUP_MIN_S seconds (each call is a set-up sample; the last prepared run is
used), then `harness.execute`, `harness.summarize` and
`analysis.write_trace`.  Writes `trace.csv`, `summary.json` and
`result.json` (phase times, peak RSS, CPU times, library versions) into DIR.
With --trace 1 the layer functions are wrapped first (see tracer.py) and
the aggregated spans go to `spans.json`.  The parent sets the BLAS thread
variables before this process starts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Enough set-up samples for a steady median: a cheap prepare (~20 ms) is
# repeated until SETUP_MIN_S has passed.
SETUP_REPEATS = 2
SETUP_MIN_S = 0.5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import pairgossip
    if not Path(pairgossip.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"pairgossip imported from {pairgossip.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    from pairgossip import analysis, harness

    clock = time.perf_counter
    cfg = harness.RunConfig.from_json(args.config)
    setup = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_S:
        start = clock()
        prep = harness.prepare(cfg)
        setup.append(clock() - start)
    t_prepared = clock()
    records = harness.execute(prep)
    t_executed = clock()
    summary = harness.summarize(prep, records, t_executed - start)
    t_summarized = clock()
    analysis.write_trace(records, args.out / "trace.csv")
    with open(args.out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    t_written = clock()

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "T": cfg.T,
        "setup_s": setup,
        "execute_s": t_executed - t_prepared,
        "summarize_s": t_summarized - t_executed,
        "write_s": t_written - t_summarized,
        "total_s": t_written - start,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    if tracer is not None:
        result["layers"] = tracer.per_function()
        result["peak_alloc_mb"] = tracer.peak_alloc
        result["absent"] = tracer.absent
        with open(args.out / "spans.json", "w") as fh:
            json.dump(tracer.spans(), fh, indent=1)
            fh.write("\n")
    with open(args.out / "result.json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
