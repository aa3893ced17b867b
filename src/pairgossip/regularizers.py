"""Regularizer family, its time-indexed smoothing operator, and step schedules.

The smoothing operator maps a dual accumulator z to the unique minimizer of

    -z'theta + ||theta||^2 / (2 gamma_t) + t * psi(theta),

which equals prox_{t*gamma_t*psi}(gamma_t * z).  All functions here are pure
and safe for concurrent use.

Parameters are plain numpy arrays: 1-d for vector models, 2-d (symmetric) for
matrix models.  The prox and smoothing operators also take a stack of
parameters along leading axes and act on each one.  Matrix-valued results are
re-symmetrized after every eigendecomposition so the symmetry invariant holds
to floating-point accuracy.
Infinite penalty values use math.inf, never arithmetic overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REG_KINDS = ("zero", "squared_l2", "l1", "psd_indicator")
SCHEDULE_KINDS = ("inv_sqrt", "poly")


@dataclass(frozen=True)
class Regularizer:
    kind: str
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ValueError(f"unknown regularizer kind: {self.kind!r}")
        if self.kind in ("squared_l2", "l1") and self.lam <= 0:
            raise ValueError(f"{self.kind} needs lam > 0, got {self.lam}")


def _check_shape(reg: Regularizer, theta: np.ndarray) -> None:
    if reg.kind == "psd_indicator" and theta.ndim < 2:
        raise ValueError("psd_indicator applies to symmetric matrix parameters")


def _psd_feasibility_tol(theta: np.ndarray) -> float:
    return 1e-9 * (1.0 + float(np.linalg.norm(theta)))


def psi_value(reg: Regularizer, theta: np.ndarray) -> float:
    """Penalty value; math.inf for an infeasible psd_indicator argument."""
    _check_shape(reg, theta)
    if reg.kind == "zero":
        return 0.0
    if reg.kind == "squared_l2":
        return reg.lam * float(np.sum(theta * theta))
    if reg.kind == "l1":
        return reg.lam * float(np.sum(np.abs(theta)))
    # psd_indicator
    sym = 0.5 * (theta + theta.T)
    if float(np.linalg.eigvalsh(sym)[0]) >= -_psd_feasibility_tol(theta):
        return 0.0
    return math.inf


def project_psd(m: np.ndarray) -> np.ndarray:
    """Eigen-project the symmetrization of m (or of each matrix in a stack)
    onto the PSD cone."""
    sym = 0.5 * (m + m.swapaxes(-1, -2))
    w, v = np.linalg.eigh(sym)
    out = (v * np.maximum(w, 0.0)[..., None, :]) @ v.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def prox_psi(reg: Regularizer, v: np.ndarray, scale: float) -> np.ndarray:
    """prox_{scale*psi}(v) = argmin_u ||u - v||^2/2 + scale*psi(u)."""
    _check_shape(reg, v)
    if not np.all(np.isfinite(v)) or not math.isfinite(scale):
        raise ValueError("non-finite prox input")
    if reg.kind == "zero":
        return v.copy()
    if reg.kind == "squared_l2":
        return v / (1.0 + 2.0 * scale * reg.lam)
    if reg.kind == "l1":
        return np.sign(v) * np.maximum(np.abs(v) - scale * reg.lam, 0.0)
    return project_psd(v)


def smoothing_op(reg: Regularizer, z: np.ndarray, t: float, gamma_t: float) -> np.ndarray:
    """Minimizer of -z'theta + ||theta||^2/(2 gamma_t) + t psi(theta).

    t may be a positive real (asynchronous runs index it by local time
    estimates); gamma_t is the schedule value at t.
    """
    if t < 1:
        raise ValueError(f"time index must be >= 1, got {t}")
    if gamma_t <= 0:
        raise ValueError(f"gamma must be positive, got {gamma_t}")
    return prox_psi(reg, gamma_t * z, t * gamma_t)


@dataclass(frozen=True)
class StepSchedule:
    """Non-increasing scale sequence gamma(t) for real t >= 1, with c > 0.

    inv_sqrt: gamma(t) = c / sqrt(t)  (c = D / (L_f sqrt(2)): the bounded-domain step)
    poly:     gamma(t) = c / t^(1/2 + alpha), alpha in (0, 1/2)
    """

    kind: str
    c: float = 1.0
    alpha: float = 0.25

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind: {self.kind!r}")
        if self.c <= 0:
            raise ValueError(f"need c > 0, got {self.c}")
        if self.kind == "poly" and not (0.0 < self.alpha < 0.5):
            raise ValueError(f"poly needs alpha in (0, 1/2), got {self.alpha}")


def step_gamma(sched: StepSchedule, t: float) -> float:
    if t < 1:
        raise ValueError(f"schedule is defined for t >= 1, got {t}")
    if sched.kind == "inv_sqrt":
        return sched.c / math.sqrt(t)
    return sched.c / t ** (0.5 + sched.alpha)
