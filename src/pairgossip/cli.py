"""Command-line entry points.

Subcommands:

    spectral-gap      print 1 - lambda_2 of a topology's expected gossip matrix
    gen-synthetic     write a Gaussian-mixture dataset to an .npz file
    run               run a JSON config with the algorithm it names
    compare-baseline  gossip vs. unbiased-partner gradients at the same seed

A config the run rules refuse exits with status 2 and the rule's message.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import datasets, graphs, harness
from .sync_gossip import DATA, TOPOLOGY, stream_rng


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pairgossip")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral-gap", help="spectral gap of a topology")
    p.add_argument("--kind", choices=("complete", "cycle", "watts_strogatz", "file"),
                   required=True)
    p.add_argument("--n", type=int, help="node count (non-file kinds)")
    p.add_argument("--k", type=int, default=10, help="small-world base degree")
    p.add_argument("--p", type=float, default=0.1, help="small-world rewiring prob")
    p.add_argument("--path", help="edge-list file (kind=file)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tensor-k", type=int, default=None,
                   help="expand each node into a k-clique of data copies first")

    p = sub.add_parser("gen-synthetic", help="write a mixture dataset (.npz)")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--dim", type=int, default=40)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--subspace", type=int, default=5)
    p.add_argument("--variance", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)

    for name in ("run", "compare-baseline"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def _cmd_spectral_gap(args) -> int:
    if args.kind == "file" and not args.path:
        print("spectral-gap: --path is required for kind=file", file=sys.stderr)
        return 2
    if args.kind != "file" and args.n is None:
        print("spectral-gap: --n is required", file=sys.stderr)
        return 2
    spec = {"kind": args.kind, "n": args.n, "k": args.k, "p": args.p,
            "path": args.path}
    g = graphs.build_topology(spec, stream_rng(args.seed, TOPOLOGY))
    if args.tensor_k is not None:
        g = graphs.tensor_with_complete(g, args.tensor_k)
    print(f"{graphs.spectral_gap(g):.5e}")
    return 0


def _cmd_gen_synthetic(args) -> int:
    spec = datasets.SyntheticSpec(n=args.n, ambient_dim=args.dim,
                                  classes=args.classes, subspace_dim=args.subspace,
                                  variance_factor=args.variance)
    data = datasets.gen_gaussian_mixture(spec, stream_rng(args.seed, DATA))
    np.savez(args.out, features=data.features, labels=data.labels)
    print(f"wrote {data.n} x {data.dim} dataset to {args.out}")
    return 0


def _cmd_run(args) -> int:
    runner = (harness.compare_baseline if args.command == "compare-baseline"
              else harness.run_experiment)
    try:
        out = runner(args.config, out_dir=args.out, seed_override=args.seed)
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    print(f"results in {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "spectral-gap":
        return _cmd_spectral_gap(args)
    if args.command == "gen-synthetic":
        return _cmd_gen_synthetic(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
