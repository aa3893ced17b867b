"""Measurement layer: bias terms, dual disagreement, bound constants, trace I/O.

TraceRecord is the canonical per-checkpoint row schema shared by every runner;
it serializes to CSV with a header row, UNIX newlines and '.' decimals.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .losses import Dataset, PairwiseLoss, full_objective, mean_partial_gradient
from .regularizers import Regularizer, StepSchedule, smoothing_op, step_gamma

SYNC_COLUMNS = ("t", "obj_mean", "obj_std", "obj_max", "gap_mean",
                "bias_term", "bias_term_centered", "dual_disagreement")
ASYNC_COLUMNS = SYNC_COLUMNS + ("m_min", "m_max", "m_mean")


@dataclass
class TraceRecord:
    t: int
    obj_mean: float
    obj_std: float
    obj_max: float
    gap_mean: float
    bias_term: float
    bias_term_centered: float
    dual_disagreement: float
    m_min: float | None = None
    m_max: float | None = None
    m_mean: float | None = None

    def row(self, columns):
        return [getattr(self, c) for c in columns]


@dataclass(frozen=True)
class BoundInputs:
    """Everything Theorem-style rate constants need."""

    theta_star_norm: float
    L_f: float
    sched: StepSchedule
    T: int
    spectral_gap: float

    def __post_init__(self):
        if not (0.0 < self.spectral_gap <= 1.0):
            raise ValueError(f"spectral gap must be in (0, 1], got {self.spectral_gap}")
        if self.L_f <= 0 or self.theta_star_norm < 0:
            raise ValueError("invalid bound inputs")


def bound_constants(b: BoundInputs) -> tuple[float, float]:
    """(C1, C2): centralized-rate and network-mixing terms of the gap bound.

    C1 = ||theta*||^2 / (2 T gamma(T)) + (L_f^2 / 2T) sum_{t<T} gamma(t)
    C2 = 3 L_f^2 / (T (1 - sqrt(lambda_2))) sum_{t<T} gamma(t)

    The bias contribution (C3) is empirical and tracked via bias_term_centered.
    """
    if b.T < 2:
        raise ValueError("bound constants need T >= 2")
    gsum = sum(step_gamma(b.sched, t) for t in range(1, b.T))
    c1 = (b.theta_star_norm ** 2 / (2 * b.T * step_gamma(b.sched, b.T))
          + b.L_f ** 2 * gsum / (2 * b.T))
    lam2 = 1.0 - b.spectral_gap
    c2 = 3.0 * b.L_f ** 2 * gsum / (b.T * (1.0 - math.sqrt(lam2)))
    return c1, c2


def dual_disagreement(z_stack: np.ndarray) -> float:
    """(1/n) sum_k ||z_k - mean z|| over the leading axis."""
    zbar = z_stack.mean(axis=0)
    diffs = z_stack - zbar
    axes = tuple(range(1, z_stack.ndim))
    return float(np.sqrt((diffs * diffs).sum(axis=axes)).mean())


def bias_sample(thetas: np.ndarray, applied: np.ndarray, zbar: np.ndarray,
                data: Dataset, loss: PairwiseLoss, reg: Regularizer,
                sched: StepSchedule, t_index: float,
                theta_star: np.ndarray | None) -> tuple[float, float]:
    """Bias of the applied update directions against the exact partial gradients.

    eps_k = applied_k - grad f_k(theta_k), with grad f_k the exact per-node
    oracle (a stronger centering than the conditionally unbiased single
    sample); omega = Pi_{t_index}(-zbar).  Returns (eps_bar . omega,
    eps_bar . (omega - theta*)); the centered term is NaN without theta*.
    """
    eps_bar = applied.mean(axis=0) - mean_partial_gradient(thetas, data, loss)
    omega = smoothing_op(reg, -zbar, t_index, step_gamma(sched, t_index))
    bias = float(np.sum(eps_bar * omega))
    if theta_star is None:
        return bias, math.nan
    return bias, float(np.sum(eps_bar * (omega - theta_star)))


def objective_per_node(theta_stack: np.ndarray, data: Dataset, loss: PairwiseLoss,
                       reg: Regularizer) -> np.ndarray:
    """R_n evaluated at each node's parameter, once per distinct row (rows
    compared by their bytes): early in a run most nodes still hold theta = 0."""
    seen = {}
    firsts = [seen.setdefault(row.tobytes(), k) for k, row in enumerate(theta_stack)]
    rows, inverse = np.unique(firsts, return_inverse=True)
    return full_objective(theta_stack[rows], data, loss, reg)[inverse]


def make_record(t: int, theta_bars: np.ndarray, z_stack: np.ndarray,
                data: Dataset, loss: PairwiseLoss, reg: Regularizer,
                r_star: float | None,
                bias: tuple[float, float] = (math.nan, math.nan),
                m: np.ndarray | None = None) -> TraceRecord:
    objs = objective_per_node(theta_bars, data, loss, reg)
    gap = float(objs.mean() - r_star) if r_star is not None else math.nan
    rec = TraceRecord(
        t=t,
        obj_mean=float(objs.mean()),
        obj_std=float(objs.std()),
        obj_max=float(objs.max()),
        gap_mean=gap,
        bias_term=bias[0],
        bias_term_centered=bias[1],
        dual_disagreement=dual_disagreement(z_stack),
    )
    if m is not None:
        rec.m_min = float(m.min())
        rec.m_max = float(m.max())
        rec.m_mean = float(m.mean())
    return rec


@contextmanager
def atomic_write(path):
    """A text file that appears at `path` only once the block completes: it is
    written next to `path`, then moved there by os.replace, or else removed."""
    tmp = Path(path).with_name(f".{Path(path).name}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_trace(records, path) -> None:
    is_async = any(r.m_min is not None for r in records)
    columns = ASYNC_COLUMNS if is_async else SYNC_COLUMNS
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for r in records:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in r.row(columns)])


def read_trace(path) -> list[dict]:
    with open(path) as fh:
        reader = csv.DictReader(fh)
        return [{k: (int(v) if k == "t" else float(v)) for k, v in row.items()}
                for row in reader]
