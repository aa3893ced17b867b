"""Centralized dual averaging baselines and a high-precision reference solver.

The dual accumulator z collects gradients; the primal iterate is obtained by
applying the smoothing operator to -z (the update descends along the
accumulated gradient direction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import (Dataset, PairwiseLoss, full_gradient, full_objective,
                     loss_grad, param_shape)
from .regularizers import Regularizer, StepSchedule, prox_psi, smoothing_op, step_gamma

REFERENCE_MAX_ITER = 1_000_000


@dataclass
class CentralCheckpoint:
    t: int
    theta_bar: np.ndarray
    objective: float


def run_centralized(mode: str, data: Dataset, loss: PairwiseLoss, reg: Regularizer,
                    sched: StepSchedule, T: int, rng: np.random.Generator | None = None,
                    checkpoints=None) -> list[CentralCheckpoint]:
    """Run T dual-averaging steps, recording (t, theta_bar, R_n(theta_bar)).

    deterministic mode uses the exact full gradient; stochastic mode one
    uniformly drawn ordered pair (i, j) per step, i = j included.
    """
    if mode not in ("deterministic", "stochastic"):
        raise ValueError(f"unknown mode: {mode!r}")
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    if mode == "stochastic" and rng is None:
        raise ValueError("stochastic mode needs a seeded rng")
    marks = set(checkpoints) if checkpoints is not None else {T}

    shape = param_shape(loss, data)
    z = np.zeros(shape)
    theta = np.zeros(shape)
    theta_bar = np.zeros(shape)
    trace = []
    for t in range(1, T + 1):
        if mode == "deterministic":
            g = full_gradient(theta, data, loss)
        else:
            i, j = rng.integers(data.n, size=2)
            g = loss_grad(loss, theta, data.point(i), data.point(j))
        z = z + g
        theta = smoothing_op(reg, -z, t, step_gamma(sched, t))
        theta_bar = (1.0 - 1.0 / t) * theta_bar + theta / t
        if t in marks:
            trace.append(CentralCheckpoint(t, theta_bar.copy(),
                                           full_objective(theta_bar, data, loss, reg)))
    return trace


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
    if tolerance is None:
        tolerance = 1e-8 * (1.0 + full_objective(theta, data, loss, reg))

    # FISTA with backtracking line search.
    step = 1.0
    y = theta.copy()
    momentum = 1.0
    obj = full_objective(theta, data, loss, reg)
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
        new_obj = full_objective(cand, data, loss, reg)
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
