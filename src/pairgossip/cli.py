"""Command-line entry points.

Subcommands:

    spectral-gap      print 1 - lambda_2 of a topology's expected gossip matrix
    run               run a JSON config with the algorithm it names
    compare-baseline  gossip vs. unbiased-partner gradients at the same seed

A refused topology or config exits with status 2 and the rule's message.
"""

from __future__ import annotations

import argparse
import sys

from . import graphs, harness
from .sync_gossip import TOPOLOGY, stream_rng


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pairgossip")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral-gap", help="spectral gap of a topology")
    p.add_argument("--kind", choices=tuple(graphs.TOPOLOGIES), required=True)
    p.add_argument("--n", type=int, help="node count (non-file kinds)")
    p.add_argument("--k", type=int, help="small-world base degree")
    p.add_argument("--p", type=float, help="small-world rewiring prob")
    p.add_argument("--path", help="edge-list file (kind=file)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tensor-k", type=int, default=None,
                   help="first replace each node by k copies, each linked to "
                        "every copy of its neighbours")

    for name in ("run", "compare-baseline"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def _spectral_gap(args) -> str:
    # only the flags given: a spec has no defaults for n, k, p or path
    spec = {f: getattr(args, f) for f in ("kind", "n", "k", "p", "path")
            if getattr(args, f) is not None}
    harness.check_spec("topology", graphs.TOPOLOGIES, spec)
    g = graphs.build_topology(spec, stream_rng(args.seed, TOPOLOGY))
    if args.tensor_k is not None:
        g = graphs.tensor_with_complete(g, args.tensor_k)
    return f"{graphs.spectral_gap(g):.5e}"


def _run(args) -> str:
    runner = (harness.compare_baseline if args.command == "compare-baseline"
              else harness.run_experiment)
    out = runner(args.config, out_dir=args.out, seed_override=args.seed)
    return f"results in {out}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _spectral_gap if args.command == "spectral-gap" else _run
    try:
        print(command(args))
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
