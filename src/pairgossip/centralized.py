"""Centralized dual averaging baselines and a high-precision reference solver.

The baselines are step policies of the gossip engine on one row with no
graph, taking `dual_average` steps along the exact full gradient
(deterministic) or along `pair_gradients` at one uniformly drawn ordered
pair (i, j), i = j included, from the engine's BASELINE stream (stochastic).
"""

from __future__ import annotations

import numpy as np

from .analysis import TraceRecord
from .losses import (Dataset, PairwiseLoss, full_gradient, full_objective,
                     pair_gradients, param_shape)
from .regularizers import Regularizer, prox_psi, psi_value
from .sync_gossip import ALL_NODES, EngineConfig, GossipState, dual_average, run_gossip

REFERENCE_MAX_ITER = 1_000_000


def deterministic_step(state: GossipState, t: int, cfg: EngineConfig,
                       rng_edge: np.random.Generator,
                       rng_baseline: np.random.Generator):
    g = full_gradient(state.theta[0], cfg.data, cfg.loss)
    state.theta = dual_average(state.z, state.theta_bar, g, t, t, cfg)
    return g, ALL_NODES, t


def stochastic_step(state: GossipState, t: int, cfg: EngineConfig,
                    rng_edge: np.random.Generator,
                    rng_baseline: np.random.Generator):
    ij = rng_baseline.integers(cfg.data.n, size=2)
    g = pair_gradients(cfg.loss, state.theta, cfg.data, ij[:1], ij[1:])
    state.theta = dual_average(state.z, state.theta_bar, g, t, t, cfg)
    return g, ALL_NODES, t


def run_centralized(cfg: EngineConfig, step) -> list[TraceRecord]:
    """Run T steps of `deterministic_step` or `stochastic_step` on one row;
    its records carry no bias terms."""
    if cfg.record_bias:
        raise ValueError("the bias oracle is per node; set record_bias=False")
    return run_gossip(cfg, step, np.ones(1))


def solve_reference(data: Dataset, loss: PairwiseLoss, reg: Regularizer,
                    tolerance: float | None = None,
                    max_iter: int = REFERENCE_MAX_ITER):
    """Accelerated proximal-gradient solve of the full objective.

    Returns (theta_star, R_n(theta_star)).  Convergence is declared when the
    prox-gradient mapping norm falls below the tolerance; for the piecewise
    linear hinge loss the solve is best-effort (the fixed active-set gradient
    rule is used), which covers the trivially-optimal configurations exercised
    here.  Raises if the certificate is not reached within max_iter.
    """
    shape = param_shape(loss, data)
    theta = np.zeros(shape)
    obj = full_objective(theta, data, loss, reg)
    if tolerance is None:
        tolerance = 1e-8 * (1.0 + obj)

    # FISTA with backtracking line search.
    step = 1.0
    y = theta.copy()
    momentum = 1.0
    for _ in range(max_iter):
        g = full_gradient(y, data, loss)
        fy = full_objective(y, data, loss, Regularizer("zero"))
        while True:
            cand = prox_psi(reg, y - step * g, step)
            diff = cand - y
            fc = full_objective(cand, data, loss, Regularizer("zero"))
            if fc <= fy + float(np.sum(g * diff)) + float(np.sum(diff * diff)) / (2 * step):
                break
            step *= 0.5
            if step < 1e-16:
                break
        mapping = float(np.linalg.norm(theta - prox_psi(reg, theta - step * full_gradient(theta, data, loss), step))) / step
        new_obj = fc + psi_value(reg, cand)
        if new_obj > obj:  # restart momentum on non-monotone step
            y = theta.copy()
            momentum = 1.0
            continue
        new_momentum = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2))
        y = cand + ((momentum - 1.0) / new_momentum) * (cand - theta)
        theta, obj, momentum = cand, new_obj, new_momentum
        if mapping * (1.0 + float(np.linalg.norm(theta))) <= tolerance:
            return theta, full_objective(theta, data, loss, reg)
    raise RuntimeError(f"reference solve did not reach tolerance {tolerance:g} "
                       f"within {max_iter} iterations")
