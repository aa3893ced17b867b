"""Centralized dual averaging baselines and a high-precision reference solver.

The baselines are step policies of the gossip engine on one row with no
graph, taking `dual_average` steps along the exact full gradient
(deterministic) or along `pair_gradients` at one uniformly drawn ordered
pair (i, j), i = j included, from the engine's BASELINE stream (stochastic).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .analysis import TraceRecord
from .losses import (Dataset, PairwiseLoss, full_gradient, full_objective,
                     pair_gradients, param_shape)
from .regularizers import Regularizer, prox_psi, psi_value
from .sync_gossip import ALL_NODES, EngineConfig, GossipState, dual_average, run_gossip

REFERENCE_MAX_ITER = 10_000  # full gradients; the test and benchmark solves take <= 62


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
    return run_gossip(cfg, step, np.ones(1))


class Reference(NamedTuple):
    """A reference solve: theta*, R_n(theta*) and the certificate that stopped
    it, the prox-gradient mapping norm at the last extrapolated point with the
    step that produced it."""

    theta: np.ndarray
    value: float
    iterations: int  # accepted FISTA steps
    gradients: int  # full_gradient calls, restarts included
    mapping_norm: float
    step: float
    tolerance: float


def solve_reference(data: Dataset, loss: PairwiseLoss, reg: Regularizer) -> Reference:
    """Accelerated proximal-gradient solve of the full objective: FISTA (Beck &
    Teboulle 2009) with function-value restart (O'Donoghue & Candes 2015), whose
    step doubles before each backtracking line search, so it can grow back as
    well as shrink (Scheinberg, Goldfarb & Bai 2014).

    Stops when the prox-gradient mapping at the extrapolated point y,
    ||cand - y|| / step, times 1 + ||cand|| falls below the tolerance
    1e-8 (1 + R_n(0)), and returns cand: the line search has already computed
    it, so the test costs no gradient.  For the piecewise linear hinge loss the
    solve is best-effort (the fixed active-set gradient rule is used), which
    covers the trivially-optimal configurations exercised here.  Raises if the
    certificate is not reached within REFERENCE_MAX_ITER gradients.
    """
    zero = Regularizer("zero")
    theta = np.zeros(param_shape(loss, data))
    obj = full_objective(theta, data, loss, reg)
    tolerance = 1e-8 * (1.0 + obj)
    step, momentum, iterations = 1.0, 1.0, 0
    y = theta
    for gradients in range(1, REFERENCE_MAX_ITER + 1):
        g = full_gradient(y, data, loss)
        fy = full_objective(y, data, loss, zero)
        step *= 2.0
        while True:
            cand = prox_psi(reg, y - step * g, step)
            diff = cand - y
            fc = full_objective(cand, data, loss, zero)
            if fc <= fy + float(np.sum(g * diff)) + float(np.sum(diff * diff)) / (2 * step):
                break
            step *= 0.5
            if step < 1e-16:
                break
        mapping = float(np.linalg.norm(diff)) / step
        new_obj = fc + psi_value(reg, cand)
        if mapping * (1.0 + float(np.linalg.norm(cand))) <= tolerance:
            return Reference(cand, new_obj, iterations + 1, gradients, mapping,
                             step, tolerance)
        if new_obj > obj:  # restart momentum on non-monotone step
            y = theta
            momentum = 1.0
            continue
        new_momentum = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum ** 2))
        y = cand + ((momentum - 1.0) / new_momentum) * (cand - theta)
        theta, obj, momentum = cand, new_obj, new_momentum
        iterations += 1
    raise RuntimeError(f"reference solve did not reach tolerance {tolerance:g} "
                       f"within {REFERENCE_MAX_ITER} full gradients")
