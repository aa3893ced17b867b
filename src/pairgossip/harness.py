"""Run configuration, validation and experiment orchestration.

Configs are JSON documents with one object per ingredient (topology, dataset,
loss, regularizer, schedule) plus run-level fields.  A run is fully
reproducible from (config, seed): every stochastic role draws from its own
named sub-stream of the run's SeedSequence (the stream table in
`sync_gossip`), so draw order is stable under refactoring.

Independent (config, seed) jobs may run concurrently; each job is internally
single-threaded.  The PAIRGOSSIP_THREADS environment variable caps the job
parallelism used by run_many.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, centralized, datasets, graphs
from .analysis import BoundInputs, TraceRecord, bound_constants, write_trace
from .async_gossip import AsyncRunConfig, run_async
from .losses import Dataset, PairwiseLoss, loss_lipschitz
from .regularizers import Regularizer, StepSchedule
from .sync_gossip import (BASELINE, DATA, TOPOLOGY, SyncRunConfig, run_sync,
                          stream_rng)

ALGORITHMS = ("centralized_det", "centralized_sto", "sync", "async")


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
        if self.algorithm in ("sync", "async") and self.topology is None:
            raise ValueError(f"{self.algorithm} requires a topology spec")
        if self.loss.get("kind") == "metric_hinge":
            if self.regularizer.get("kind") not in ("psd_indicator", "zero"):
                raise ValueError("metric_hinge pairs with the psd_indicator or "
                                 "zero regularizer (matrix parameter)")
        if self.T < 0 or self.checkpoint_stride < 1:
            raise ValueError("invalid T or checkpoint stride")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            doc = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2)
            fh.write("\n")


def build_graph(spec: dict, seed: int) -> graphs.Graph:
    kind = spec["kind"]
    if kind == "file":
        return graphs.read_edgelist(spec["path"])
    rng = stream_rng(seed, TOPOLOGY)
    ws = (spec["k"], spec["p"]) if kind == "watts_strogatz" else None
    return graphs.build_topology(kind, spec["n"], ws_params=ws, rng=rng)


def build_dataset(spec: dict, seed: int) -> Dataset:
    kind = spec["kind"]
    rng = stream_rng(seed, DATA)
    if kind == "breast_cancer":
        return datasets.load_breast_cancer(spec["path"])
    if kind == "npz":
        with np.load(spec["path"]) as doc:
            return Dataset(features=doc["features"], labels=doc["labels"])
    if kind == "synthetic_mixture":
        params = {k: v for k, v in spec.items() if k != "kind"}
        return datasets.gen_gaussian_mixture(datasets.SyntheticSpec(**params), rng)
    if kind == "toy_auc":
        return datasets.gen_two_class_gaussians(
            spec["n"], spec["d"], rng, separation=spec.get("separation", 1.5))
    raise ValueError(f"unknown dataset kind: {kind!r}")


def build_loss(spec: dict) -> PairwiseLoss:
    params = {k: v for k, v in spec.items() if k != "kind"}
    return PairwiseLoss(kind=spec["kind"], **params)


def build_regularizer(spec: dict) -> Regularizer:
    params = {k: v for k, v in spec.items() if k != "kind"}
    return Regularizer(kind=spec["kind"], **params)


def build_schedule(spec: dict) -> StepSchedule:
    params = {k: v for k, v in spec.items() if k != "kind"}
    return StepSchedule(kind=spec["kind"], **params)


@dataclass
class PreparedRun:
    cfg: RunConfig
    data: Dataset
    loss: PairwiseLoss
    reg: Regularizer
    sched: StepSchedule
    graph: graphs.Graph | None
    theta_star: np.ndarray | None
    r_star: float | None


def prepare(cfg: RunConfig) -> PreparedRun:
    data = build_dataset(cfg.dataset, cfg.seed)
    loss = build_loss(cfg.loss)
    reg = build_regularizer(cfg.regularizer)
    sched = build_schedule(cfg.schedule)
    graph = build_graph(cfg.topology, cfg.seed) if cfg.topology is not None else None
    theta_star = r_star = None
    if cfg.compute_reference:
        theta_star, r_star = centralized.solve_reference(data, loss, reg)
    return PreparedRun(cfg, data, loss, reg, sched, graph, theta_star, r_star)


def _centralized_records(prep: PreparedRun, mode: str) -> list[TraceRecord]:
    cfg = prep.cfg
    marks = sorted({t for t in range(0, cfg.T + 1, cfg.checkpoint_stride)} | {cfg.T})
    rng = stream_rng(cfg.seed, BASELINE)
    trace = centralized.run_centralized(
        mode, prep.data, prep.loss, prep.reg, prep.sched, cfg.T,
        rng=rng, checkpoints=[t for t in marks if t >= 1])
    records = [TraceRecord(t=0, obj_mean=analysis.objective_per_node(
        np.zeros((1,) + trace[0].theta_bar.shape), prep.data, prep.loss,
        prep.reg)[0], obj_std=0.0, obj_max=0.0, gap_mean=math.nan,
        bias_term=math.nan, bias_term_centered=math.nan, dual_disagreement=0.0)]
    records[0].obj_max = records[0].obj_mean
    if prep.r_star is not None:
        records[0].gap_mean = records[0].obj_mean - prep.r_star
    for cp in trace:
        gap = cp.objective - prep.r_star if prep.r_star is not None else math.nan
        records.append(TraceRecord(t=cp.t, obj_mean=cp.objective, obj_std=0.0,
                                   obj_max=cp.objective, gap_mean=gap,
                                   bias_term=math.nan, bias_term_centered=math.nan,
                                   dual_disagreement=0.0))
    return records


def execute(prep: PreparedRun) -> list[TraceRecord]:
    cfg = prep.cfg
    if cfg.algorithm == "centralized_det":
        return _centralized_records(prep, "deterministic")
    if cfg.algorithm == "centralized_sto":
        return _centralized_records(prep, "stochastic")
    run_cls, runner = ((SyncRunConfig, run_sync) if cfg.algorithm == "sync"
                       else (AsyncRunConfig, run_async))
    run_cfg = run_cls(graph=prep.graph, data=prep.data, loss=prep.loss,
                      reg=prep.reg, sched=prep.sched, T=cfg.T, seed=cfg.seed,
                      checkpoint_stride=cfg.checkpoint_stride,
                      gradient_mode=cfg.gradient_mode,
                      theta_star=prep.theta_star, r_star=prep.r_star)
    return runner(run_cfg)


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
    if prep.graph is not None:
        try:
            gap = graphs.spectral_gap(prep.graph)
        except ValueError as exc:  # bipartite, disconnected or too large
            summary["spectral_gap"] = None
            summary["spectral_gap_reason"] = str(exc)
            return summary
        summary["spectral_gap"] = gap
        if prep.theta_star is not None and prep.cfg.T >= 2:
            c1, c2 = bound_constants(BoundInputs(
                theta_star_norm=float(np.linalg.norm(prep.theta_star)),
                L_f=loss_lipschitz(prep.loss, prep.data),
                sched=prep.sched, T=prep.cfg.T, spectral_gap=gap))
            summary["bound_c1"] = c1
            summary["bound_c2"] = c2
    return summary


def run_experiment(config_path, out_dir=None, seed_override: int | None = None) -> Path:
    """Dispatch a config to its runner; writes trace.csv and summary.json.

    Returns the output directory.
    """
    cfg = RunConfig.from_json(config_path)
    if seed_override is not None:
        cfg.seed = seed_override
    out = Path(out_dir if out_dir is not None else (cfg.output or "."))
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    prep = prepare(cfg)
    records = execute(prep)
    elapsed = time.monotonic() - start
    write_trace(records, out / "trace.csv")
    with open(out / "summary.json", "w") as fh:
        json.dump(summarize(prep, records, elapsed), fh, indent=2)
        fh.write("\n")
    return out


def compare_baseline(config_path, out_dir=None, seed_override: int | None = None) -> Path:
    """Run the configured gossip algorithm against the unbiased-baseline
    gradient mode at the same seed; writes both traces plus compare.json."""
    cfg = RunConfig.from_json(config_path)
    if seed_override is not None:
        cfg.seed = seed_override
    if cfg.algorithm not in ("sync", "async"):
        raise ValueError("compare-baseline applies to gossip algorithms")
    out = Path(out_dir if out_dir is not None else (cfg.output or "."))
    out.mkdir(parents=True, exist_ok=True)
    finals = {}
    for mode in ("gossip", "unbiased_baseline"):
        cfg.gradient_mode = mode
        prep = prepare(cfg)
        records = execute(prep)
        write_trace(records, out / f"trace_{mode}.csv")
        finals[mode] = records[-1].obj_mean
    rel = (abs(finals["gossip"] - finals["unbiased_baseline"])
           / max(abs(finals["unbiased_baseline"]), 1e-300))
    with open(out / "compare.json", "w") as fh:
        json.dump({"final_obj_gossip": finals["gossip"],
                   "final_obj_unbiased_baseline": finals["unbiased_baseline"],
                   "final_obj_relative_difference": rel}, fh, indent=2)
        fh.write("\n")
    return out


def max_workers() -> int:
    return max(1, int(os.environ.get("PAIRGOSSIP_THREADS", os.cpu_count() or 1)))


def run_many(jobs) -> list[Path]:
    """Run (config_path, out_dir, seed) jobs concurrently, capped by
    PAIRGOSSIP_THREADS."""
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        futures = [pool.submit(run_experiment, c, o, s) for (c, o, s) in jobs]
        return [f.result() for f in futures]
