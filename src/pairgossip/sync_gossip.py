"""Gossip dual averaging engine and its synchronous policy.

Each iteration: draw an edge uniformly, average the two endpoints' dual
accumulators, swap their auxiliary observations, then let nodes take
dual-averaging steps along their biased partial-gradient estimates, all with
`pair_gradients` and `dual_average`.  A step policy picks the rows that step
and their clock: here every node at t; in `async_gossip` the two endpoints.
The centralized baselines are policies too, on a single row with no graph
(`centralized`), so every trace comes from `run_gossip`.
Runs are deterministic state machines keyed by the config seed; auxiliary
observations are exchanged by value (the swap permutes indices into an
immutable dataset, which is observationally equivalent to copying the feature
vectors).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import TraceRecord, bias_sample, make_record
from .graphs import Graph, sample_edge
from .losses import Dataset, PairwiseLoss, pair_gradients, param_shape
from .regularizers import Regularizer, StepSchedule, smoothing_op, step_gamma

GRADIENT_MODES = ("gossip", "unbiased_baseline")

# Sub-streams of a run's SeedSequence, one per stochastic role: edge draws,
# baseline pair draws (also the centralized pair stream), dataset generation,
# topology generation.  Fixed so that draw order is stable across refactorings.
EDGE, BASELINE, DATA, TOPOLOGY = range(4)

# Index of every node: the synchronous policy steps them all.
ALL_NODES = slice(None)


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[stream])


@dataclass(kw_only=True)
class EngineConfig:
    """The fields every step policy of the engine reads."""

    data: Dataset
    loss: PairwiseLoss
    reg: Regularizer
    sched: StepSchedule
    T: int
    seed: int
    checkpoint_stride: int = 1000
    theta_star: np.ndarray | None = None
    r_star: float | None = None
    record_bias: bool = True

    def __post_init__(self):
        if self.T < 0:
            raise ValueError("T must be non-negative")
        if self.checkpoint_stride < 1:
            raise ValueError("checkpoint stride must be positive")


@dataclass(kw_only=True)
class SyncRunConfig(EngineConfig):
    graph: Graph
    gradient_mode: str = "gossip"

    def __post_init__(self):
        super().__post_init__()
        if self.graph.n != self.data.n:
            raise ValueError(f"dataset size {self.data.n} != node count {self.graph.n}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"unknown gradient mode: {self.gradient_mode!r}")
        if not self.graph.is_connected() or self.graph.is_bipartite():
            warnings.warn("convergence guarantees need a connected, non-bipartite "
                          "graph", stacklevel=2)


@dataclass
class GossipState:
    """Per-node state, stacked: dual z, primal theta, running average, the
    auxiliary-observation permutation, and the policy's activation
    probabilities with the local time estimates they drive."""

    z: np.ndarray          # (n, ...) dual accumulators (gradient sums)
    theta: np.ndarray      # (n, ...) primals
    theta_bar: np.ndarray  # (n, ...) running averages
    y_idx: np.ndarray      # (n,) index of each node's auxiliary observation
    p: np.ndarray          # (n,) activation probabilities
    m: np.ndarray          # (n,) local time estimates (async policy)

    @classmethod
    def initial(cls, n: int, param_shape: tuple[int, ...],
                p: np.ndarray) -> "GossipState":
        shape = (n,) + param_shape
        return cls(z=np.zeros(shape), theta=np.zeros(shape),
                   theta_bar=np.zeros(shape), y_idx=np.arange(n), p=p,
                   m=np.zeros(n))


def gossip_exchange(state: GossipState, g: Graph,
                    rng_edge: np.random.Generator) -> tuple[int, int]:
    """Draw an edge, average its endpoints' duals and swap their auxiliary
    observations, in place; returns the endpoints."""
    i, j = sample_edge(g, rng_edge)
    avg = 0.5 * (state.z[i] + state.z[j])
    state.z[i] = avg
    state.z[j] = avg
    state.y_idx[[i, j]] = state.y_idx[[j, i]]
    return i, j


def dual_average(z: np.ndarray, theta_bar: np.ndarray, d: np.ndarray, t: float,
                 count: float, cfg: EngineConfig) -> np.ndarray:
    """One dual-averaging step on the rows z, theta_bar, in place: accumulate
    the directions d, project with gamma(t), average the primal over `count`
    primals.  Returns the primal."""
    z += d
    theta = smoothing_op(cfg.reg, -z, t, step_gamma(cfg.sched, t))
    theta_bar *= 1.0 - 1.0 / count
    theta_bar += theta / count
    return theta


def sync_step(state: GossipState, t: int, cfg: SyncRunConfig,
              rng_edge: np.random.Generator,
              rng_baseline: np.random.Generator | None = None):
    """One synchronous iteration, in place.

    After the gossip exchange every node takes a `dual_average` step along
    its `pair_gradients` row with its post-swap auxiliary.  Returns (applied
    directions d_k, ALL_NODES, bias index t).
    """
    gossip_exchange(state, cfg.graph, rng_edge)
    if cfg.gradient_mode == "gossip":
        partners = state.y_idx
    else:
        partners = rng_baseline.integers(cfg.data.n, size=cfg.data.n)
    d = pair_gradients(cfg.loss, state.theta, cfg.data, ALL_NODES, partners)
    state.theta = dual_average(state.z, state.theta_bar, d, t, t, cfg)
    return d, ALL_NODES, t


def run_gossip(cfg: EngineConfig, step, p: np.ndarray,
               local_clocks: bool = False) -> list[TraceRecord]:
    """Execute T steps of a policy, recording a TraceRecord at t = 0, at every
    checkpoint-stride multiple, and at t = T.

    `step(state, t, cfg, rng_edge, rng_baseline)` returns the applied rows,
    the nodes they belong to and the time index of the bias oracle; `p` are
    the policy's activation probabilities, one per row of the state.  With
    local_clocks the records carry the m_k summary columns.  A non-finite dual
    accumulator stops the run with a ValueError naming t and the first such row.
    """
    rng_edge = stream_rng(cfg.seed, EDGE)
    rng_baseline = stream_rng(cfg.seed, BASELINE)
    state = GossipState.initial(len(p), param_shape(cfg.loss, cfg.data), p)

    def record(t, bias=(math.nan, math.nan)):
        return make_record(t, state.theta_bar, state.z, cfg.data, cfg.loss,
                           cfg.reg, cfg.r_star, bias,
                           m=state.m if local_clocks else None)

    records = [record(0)]
    for t in range(1, cfg.T + 1):
        at_checkpoint = t % cfg.checkpoint_stride == 0 or t == cfg.T
        theta_before = (state.theta.copy()
                        if cfg.record_bias and at_checkpoint else None)
        try:
            rows, nodes, t_index = step(state, t, cfg, rng_edge, rng_baseline)
        except ValueError as exc:  # the prox rejects non-finite input
            node = next((k for k, z in enumerate(state.z)
                         if not np.isfinite(z).all()), None)
            if node is None:
                raise
            raise ValueError(f"non-finite dual accumulator at t={t}, node {node}") from exc
        if at_checkpoint:
            bias = (math.nan, math.nan)
            if cfg.record_bias:
                applied = np.zeros_like(state.z)
                applied[nodes] = rows
                bias = bias_sample(theta_before, applied, state.z.mean(axis=0),
                                   cfg.data, cfg.loss, cfg.reg, cfg.sched,
                                   t_index, cfg.theta_star)
            records.append(record(t, bias))
    return records


def run_sync(cfg: SyncRunConfig) -> list[TraceRecord]:
    return run_gossip(cfg, sync_step, np.ones(cfg.data.n))
