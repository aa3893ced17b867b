"""Run configuration, validation and experiment orchestration.

Configs are JSON documents with one object per ingredient (topology, dataset,
loss, regularizer, schedule) plus run-level fields.  A run is fully
reproducible from (config, seed): every stochastic role draws from its own
named sub-stream of the run's SeedSequence (the stream table in
`sync_gossip`), so draw order is stable under refactoring.

run_many runs independent (config, seed) jobs in threads, as many as the
PAIRGOSSIP_THREADS environment variable allows.  Nothing pins the BLAS thread
count, so a job's linear algebra may itself be multi-threaded.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import centralized, datasets, graphs
from .analysis import (BoundInputs, TraceRecord, atomic_write, bound_constants,
                       write_trace)
from .async_gossip import run_async
from .losses import Dataset, PairwiseLoss, loss_lipschitz
from .regularizers import Regularizer, StepSchedule
from .sync_gossip import (DATA, TOPOLOGY, EngineConfig, SyncRunConfig, check_run,
                          run_sync, stream_rng)

GOSSIP_ALGORITHMS = ("sync", "async")
ALGORITHMS = ("centralized_det", "centralized_sto") + GOSSIP_ALGORITHMS


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
        if self.algorithm not in ALGORITHMS:
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
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)


def _write_json(doc: dict, path) -> None:
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def build_dataset(spec: dict, seed: int) -> Dataset:
    kind = spec["kind"]
    rng = stream_rng(seed, DATA)
    if kind == "breast_cancer":
        return datasets.load_breast_cancer(spec["path"])
    if kind == "npz":
        with np.load(spec["path"]) as doc:
            return Dataset(features=doc["features"], labels=doc["labels"])
    params = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "synthetic_mixture":
        return datasets.gen_gaussian_mixture(datasets.SyntheticSpec(**params), rng)
    if kind == "toy_auc":
        return datasets.gen_two_class_gaussians(rng=rng, **params)
    raise ValueError(f"unknown dataset kind: {kind!r}")


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
    loss = PairwiseLoss(**cfg.loss)
    reg = Regularizer(**cfg.regularizer)
    sched = StepSchedule(**cfg.schedule)
    check_run(loss, reg, cfg.T, cfg.checkpoint_stride, cfg.gradient_mode)
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
    if cfg.algorithm in GOSSIP_ALGORITHMS:
        runner = run_sync if cfg.algorithm == "sync" else run_async
        return runner(SyncRunConfig(graph=prep.graph, gradient_mode=cfg.gradient_mode,
                                    **shared))
    step = (centralized.deterministic_step if cfg.algorithm == "centralized_det"
            else centralized.stochastic_step)
    return centralized.run_centralized(EngineConfig(**shared), step)


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
        summary["reference"] = {"iterations": ref.iterations,
                                "gradients": ref.gradients,
                                "mapping_norm": ref.mapping_norm,
                                "step": ref.step, "tolerance": ref.tolerance}
    if prep.graph is not None:
        try:
            gap = graphs.spectral_gap(prep.graph)
        except ValueError as exc:  # bipartite, disconnected or too large
            summary["spectral_gap"] = None
            summary["spectral_gap_reason"] = str(exc)
            return summary
        summary["spectral_gap"] = gap
        if ref is not None and prep.cfg.T >= 2:
            c1, c2 = bound_constants(BoundInputs(
                theta_star_norm=float(np.linalg.norm(ref.theta)),
                L_f=loss_lipschitz(prep.loss, prep.data),
                sched=prep.sched, T=prep.cfg.T, spectral_gap=gap))
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
