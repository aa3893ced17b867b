"""Fully asynchronous gossip dual averaging: a step policy of the gossip engine.

A single global iteration counter draws uniform edges, which is equivalent to
per-node Poisson clocks of unit rate; only the two endpoints of the drawn edge
update.  Activated nodes weight their gradient by 1/p_k (p_k the activation
probability), track a local time estimate m_k incremented by 1/p_k, index the
smoothing operator by the real-valued m_k, and average over m_k p_k primals,
all through the engine's `pair_gradients` and `dual_average`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import TraceRecord
from .graphs import activation_probabilities
from .losses import pair_gradients
from .sync_gossip import (GossipState, SyncRunConfig, dual_average,
                          gossip_exchange, run_gossip)


@dataclass
class AsyncRunConfig(SyncRunConfig):
    """Same fields as the synchronous config; poly schedules match the theory,
    inv_sqrt is allowed with a warning."""

    def __post_init__(self):
        super().__post_init__()
        if self.sched.kind != "poly":
            warnings.warn("asynchronous theory assumes a poly step schedule; "
                          f"{self.sched.kind!r} is heuristic", stacklevel=2)


def async_step(state: GossipState, t: int, cfg: AsyncRunConfig,
               rng_edge: np.random.Generator,
               rng_baseline: np.random.Generator | None = None):
    """One asynchronous iteration, in place: the two endpoints take
    `dual_average` steps at their local times m_k along one `pair_gradients`
    call.  Returns (their applied directions d_i, d_j; the endpoints [i, j];
    the bias index max(m_i, m_j, 1), an activated node's local time estimate).
    """
    i, j = gossip_exchange(state, cfg.graph, rng_edge)
    ends = np.array([i, j])
    if cfg.gradient_mode == "gossip":
        partners = state.y_idx[ends]
    else:
        partners = [rng_baseline.integers(cfg.data.n) for _ in ends]
    d = pair_gradients(cfg.loss, state.theta[ends], cfg.data, ends, partners)
    for r, k in enumerate((i, j)):
        d[r] /= state.p[k]
        state.m[k] += 1.0 / state.p[k]
        state.theta[k] = dual_average(state.z[k], state.theta_bar[k], d[r],
                                      state.m[k], state.m[k] * state.p[k], cfg)
    return d, ends, max(float(state.m[i]), float(state.m[j]), 1.0)


def run_async(cfg: AsyncRunConfig) -> list[TraceRecord]:
    return run_gossip(cfg, async_step, activation_probabilities(cfg.graph),
                      local_clocks=True)
