"""Run configuration, validation and experiment orchestration.

Configs are JSON documents with one object per ingredient (topology, dataset,
loss, regularizer, schedule) plus run-level fields; an ingredient's keys are
its class's fields, or a `kind` and that builder's arguments.  A run is fully
reproducible from (config, seed): every stochastic role draws from its own
named sub-stream of the run's SeedSequence (the stream table in
`sync_gossip`), so draw order is stable under refactoring.

run_many runs independent (config, seed) jobs in threads, as many as the
PAIRGOSSIP_THREADS environment variable allows.  Nothing pins the BLAS thread
count, so a job's linear algebra may itself be multi-threaded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import centralized, datasets, graphs
from .analysis import TraceRecord, atomic_write, bound_constants, write_trace
from .async_gossip import run_async
from .losses import Dataset, PairwiseLoss, loss_lipschitz
from .regularizers import Regularizer, StepSchedule
from .sync_gossip import (DATA, TOPOLOGY, EngineConfig, SyncRunConfig, check_run,
                          run_sync, stream_rng)

GOSSIP_ALGORITHMS = ("sync", "async")
# algorithm -> runner of its engine config (a SyncRunConfig for the gossip ones)
RUNNERS = {"centralized_det": functools.partial(centralized.run_centralized,
                                                step=centralized.deterministic_step),
           "centralized_sto": functools.partial(centralized.run_centralized,
                                                step=centralized.stochastic_step),
           "sync": run_sync, "async": run_async}


@dataclass
class RunConfig:
    topology: dict | None
    dataset: dict
    loss: dict
    regularizer: dict
    schedule: dict
    algorithm: str
    T: int
    seed: int
    gradient_mode: str = "gossip"
    checkpoint_stride: int = 1000
    compute_reference: bool = True
    output: str | None = None

    def __post_init__(self):
        for name, kind, what in (("T", int, "an integer"), ("seed", int, "an integer"),
                                 ("checkpoint_stride", int, "an integer"),
                                 ("compute_reference", bool, "a bool"),
                                 ("algorithm", str, "a string"),
                                 ("gradient_mode", str, "a string"),
                                 ("output", (str, type(None)), "a string or null")):
            value = getattr(self, name)
            if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        for name in ("topology", "dataset", "loss", "regularizer", "schedule"):
            spec = getattr(self, name)
            if not isinstance(spec, dict) and not (name == "topology" and spec is None):
                raise ValueError(f"{name} spec must be a JSON object, got {spec!r}")
        if self.algorithm not in RUNNERS:
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        if (self.algorithm in GOSSIP_ALGORITHMS) != (self.topology is not None):
            raise ValueError("sync and async need a topology spec, centralized runs "
                             f"take none; {self.algorithm} got {self.topology!r}")
        if self.compute_reference and self.loss.get("kind") == "metric_hinge":
            raise ValueError("the metric_hinge reference solve is best-effort and "
                             "may not finish; set compute_reference: false")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        return cls(**_bind("config", cls, doc))


def _write_json(doc: dict, path) -> None:
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# kind -> builder, called with the spec's other keys (generators: and DATA's rng)
LOADERS = {"breast_cancer": datasets.load_breast_cancer, "npz": datasets.load_npz}
GENERATORS = {"toy_auc": datasets.gen_two_class_gaussians,
              "synthetic_mixture": datasets.gen_gaussian_mixture}
_signature = functools.cache(inspect.signature)  # 7-33 us each; a prepare can take 1 ms


def build_dataset(spec: dict, seed: int) -> Dataset:
    kind, params = spec["kind"], {k: v for k, v in spec.items() if k != "kind"}
    if kind in GENERATORS:
        return GENERATORS[kind](rng=stream_rng(seed, DATA), **params)
    if kind in LOADERS:
        return LOADERS[kind](**params)
    raise ValueError(f"unknown dataset kind: {kind!r}")


def _bind(what: str, builder, params: dict) -> dict:
    """params, refused unless they are builder's arguments; the run supplies rng."""
    sig = _signature(builder)
    rng = {"rng": None} if "rng" in sig.parameters else {}
    try:
        sig.bind(**rng, **params)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from None
    return params


def check_spec(what: str, builders: dict, spec: dict) -> None:
    """Refuse a spec unless builders has its kind and its other keys bind to it."""
    kind, params = spec.get("kind"), {k: v for k, v in spec.items() if k != "kind"}
    if not isinstance(kind, str) or kind not in builders:
        raise ValueError(f"{what} spec needs a 'kind' in {sorted(builders)}, got {kind!r}")
    _bind(f"{what} {kind!r}", builders[kind], params)


@dataclass
class PreparedRun:
    cfg: RunConfig
    data: Dataset
    loss: PairwiseLoss
    reg: Regularizer
    sched: StepSchedule
    graph: graphs.Graph | None
    reference: centralized.Reference | None


def prepare(cfg: RunConfig) -> PreparedRun:
    loss = PairwiseLoss(**_bind("loss", PairwiseLoss, cfg.loss))
    reg = Regularizer(**_bind("regularizer", Regularizer, cfg.regularizer))
    sched = StepSchedule(**_bind("schedule", StepSchedule, cfg.schedule))
    check_run(loss, reg, cfg.T, cfg.checkpoint_stride, cfg.gradient_mode)
    check_spec("dataset", LOADERS | GENERATORS, cfg.dataset)
    if cfg.topology is not None:
        check_spec("topology", graphs.TOPOLOGIES, cfg.topology)
    data = build_dataset(cfg.dataset, cfg.seed)
    graph = (graphs.build_topology(cfg.topology, stream_rng(cfg.seed, TOPOLOGY))
             if cfg.topology is not None else None)
    if graph is not None and graph.n != data.n:
        raise ValueError(f"dataset size {data.n} != node count {graph.n}")
    reference = (centralized.solve_reference(data, loss, reg)
                 if cfg.compute_reference else None)
    return PreparedRun(cfg, data, loss, reg, sched, graph, reference)


def execute(prep: PreparedRun) -> list[TraceRecord]:
    cfg, ref = prep.cfg, prep.reference
    theta_star, r_star = (None, None) if ref is None else (ref.theta, ref.value)
    shared = dict(data=prep.data, loss=prep.loss, reg=prep.reg, sched=prep.sched,
                  T=cfg.T, seed=cfg.seed, checkpoint_stride=cfg.checkpoint_stride,
                  theta_star=theta_star, r_star=r_star)
    engine = (EngineConfig(**shared) if prep.graph is None else
              SyncRunConfig(graph=prep.graph, gradient_mode=cfg.gradient_mode, **shared))
    return RUNNERS[cfg.algorithm](engine)


def summarize(prep: PreparedRun, records: list[TraceRecord],
              elapsed: float) -> dict:
    final = records[-1]
    summary = {
        "algorithm": prep.cfg.algorithm,
        "seed": prep.cfg.seed,
        "T": prep.cfg.T,
        "final_obj_mean": final.obj_mean,
        "final_obj_std": final.obj_std,
        "final_obj_max": final.obj_max,
        "final_gap_mean": final.gap_mean,
        "final_bias_term": final.bias_term,
        "final_dual_disagreement": final.dual_disagreement,
        "wall_time_s": elapsed,
    }
    ref = prep.reference
    if ref is not None:
        summary["reference"] = {k: v for k, v in ref._asdict().items()
                                if k not in ("theta", "value")}
    if prep.graph is not None:
        try:
            gap = graphs.spectral_gap(prep.graph)
        except ValueError as exc:  # bipartite, disconnected or too large
            summary["spectral_gap"] = None
            summary["spectral_gap_reason"] = str(exc)
            return summary
        summary["spectral_gap"] = gap
        if ref is not None and prep.cfg.T >= 2:
            c1, c2 = bound_constants(float(np.linalg.norm(ref.theta)),
                                     loss_lipschitz(prep.loss, prep.data),
                                     prep.sched, prep.cfg.T, gap)
            summary["bound_c1"] = c1
            summary["bound_c2"] = c2
    return summary


def _load(config_path, out_dir, seed_override: int | None) -> tuple[RunConfig, Path]:
    """The config, its seed overridden, and the output directory."""
    cfg = RunConfig.from_json(config_path)
    if seed_override is not None:
        cfg.seed = seed_override
    return cfg, Path(out_dir if out_dir is not None else (cfg.output or "."))


def run_experiment(config_path, out_dir=None, seed_override: int | None = None) -> Path:
    """Dispatch a config to its runner; writes trace.csv and summary.json.

    Returns the output directory.
    """
    cfg, out = _load(config_path, out_dir, seed_override)
    start = time.monotonic()
    prep = prepare(cfg)
    out.mkdir(parents=True, exist_ok=True)
    records = execute(prep)
    elapsed = time.monotonic() - start
    write_trace(records, out / "trace.csv")
    _write_json(summarize(prep, records, elapsed), out / "summary.json")
    return out


def compare_baseline(config_path, out_dir=None, seed_override: int | None = None) -> Path:
    """Run the configured gossip algorithm against the unbiased-baseline
    gradient mode at the same seed; writes both traces plus compare.json."""
    cfg, out = _load(config_path, out_dir, seed_override)
    if cfg.algorithm not in GOSSIP_ALGORITHMS:
        raise ValueError("compare-baseline applies to gossip algorithms")
    prep = prepare(cfg)
    out.mkdir(parents=True, exist_ok=True)
    finals = {}
    for mode in ("gossip", "unbiased_baseline"):
        records = execute(replace(prep, cfg=replace(cfg, gradient_mode=mode)))
        write_trace(records, out / f"trace_{mode}.csv")
        finals[mode] = records[-1].obj_mean
    rel = (abs(finals["gossip"] - finals["unbiased_baseline"])
           / max(abs(finals["unbiased_baseline"]), 1e-300))
    _write_json({"final_obj_gossip": finals["gossip"],
                "final_obj_unbiased_baseline": finals["unbiased_baseline"],
                "final_obj_relative_difference": rel}, out / "compare.json")
    return out


def max_workers() -> int:
    return max(1, int(os.environ.get("PAIRGOSSIP_THREADS", os.cpu_count() or 1)))


def run_many(jobs) -> list[Path]:
    """Run (config_path, out_dir, seed) jobs concurrently, capped by
    PAIRGOSSIP_THREADS."""
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        futures = [pool.submit(run_experiment, c, o, s) for (c, o, s) in jobs]
        return [f.result() for f in futures]
