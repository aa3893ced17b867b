"""Pairwise losses, their gradients, exact objectives and the AUC metric.

Two loss families are supported:

* auc_logistic: f(theta; x_i, x_j) = 1{l_i > l_j} log(1 + exp((x_j - x_i)'theta))
  over vector parameters (linear scoring rules).
* metric_hinge: max(0, 1 - l_i l_j (b - D_theta(x_i, x_j))) with the
  Mahalanobis form D_theta(x_i, x_j) = (x_i - x_j)' Theta (x_i - x_j), over
  symmetric matrix parameters.

The whole-dataset objective averages over all ordered pairs including i = j,
matching the 1/n^2 weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .regularizers import Regularizer, psi_value


class DataPoint(NamedTuple):
    features: np.ndarray
    label: int


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, d) with labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x, l = np.asarray(self.features, float), np.asarray(self.labels)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ValueError("features must be (n, d) with n >= 2")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite features")
        if l.shape != (x.shape[0],) or not np.all(np.isin(l, (-1, 1))):
            raise ValueError("labels must be one of -1/+1 per point")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", l.astype(np.int64))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def point(self, i: int) -> DataPoint:
        return DataPoint(self.features[i], int(self.labels[i]))


@dataclass(frozen=True)
class PairwiseLoss:
    kind: str
    b: float = 1.0  # metric_hinge margin

    def __post_init__(self):
        if self.kind not in ("auc_logistic", "metric_hinge"):
            raise ValueError(f"unknown loss kind: {self.kind!r}")
        if self.kind == "metric_hinge" and self.b <= 0:
            raise ValueError(f"margin must be positive, got {self.b}")

    @property
    def param_ndim(self) -> int:
        return 1 if self.kind == "auc_logistic" else 2


def param_shape(loss: PairwiseLoss, data: Dataset) -> tuple[int, ...]:
    return (data.dim,) if loss.kind == "auc_logistic" else (data.dim, data.dim)


def _check_theta(loss: PairwiseLoss, theta: np.ndarray) -> None:
    if theta.ndim != loss.param_ndim:
        raise ValueError(f"{loss.kind} expects a {loss.param_ndim}-d parameter, "
                         f"got ndim={theta.ndim}")


def _mahalanobis(theta: np.ndarray, delta: np.ndarray) -> float:
    return float(delta @ theta @ delta)


def loss_grad(loss: PairwiseLoss, theta: np.ndarray, p_i: DataPoint, p_j: DataPoint) -> np.ndarray:
    _check_theta(loss, theta)
    if loss.kind == "auc_logistic":
        if p_i.label <= p_j.label:
            return np.zeros_like(theta)
        diff = p_j.features - p_i.features
        s = float(diff @ theta)
        sigma = 0.5 * (1.0 + np.tanh(0.5 * s))  # overflow-safe logistic
        return sigma * diff
    delta = p_i.features - p_j.features
    ll = p_i.label * p_j.label
    if 1.0 - ll * (loss.b - _mahalanobis(theta, delta)) > 0.0:
        return float(ll) * np.outer(delta, delta)
    return np.zeros_like(theta)


def _auc_pair_scores(theta: np.ndarray, data: Dataset):
    """Score differences s_j - s_i over positive i, negative j."""
    s = data.features @ theta
    pos, neg = s[data.labels == 1], s[data.labels == -1]
    return neg[None, :] - pos[:, None]


def full_objective(theta: np.ndarray, data: Dataset, loss: PairwiseLoss,
                   reg: Regularizer) -> float:
    """(1/n^2) sum over all ordered pairs of the loss, plus the penalty."""
    _check_theta(loss, theta)
    n = data.n
    if loss.kind == "auc_logistic":
        diffs = _auc_pair_scores(theta, data)
        total = float(np.logaddexp(0.0, diffs).sum())
    else:
        g = data.features @ theta @ data.features.T
        sq = np.diag(g)
        dist = sq[:, None] + sq[None, :] - g - g.T
        ll = np.outer(data.labels, data.labels)
        total = float(np.maximum(0.0, 1.0 - ll * (loss.b - dist)).sum())
    return total / n ** 2 + psi_value(reg, theta)


def full_gradient(theta: np.ndarray, data: Dataset, loss: PairwiseLoss) -> np.ndarray:
    """Exact gradient of the (1/n^2) double-sum loss term."""
    _check_theta(loss, theta)
    n = data.n
    x = data.features
    if loss.kind == "auc_logistic":
        diffs = _auc_pair_scores(theta, data)
        sig = 0.5 * (1.0 + np.tanh(0.5 * diffs))  # (n_pos, n_neg)
        xp, xn = x[data.labels == 1], x[data.labels == -1]
        # sum_ij sigma_ij (x_j - x_i)
        grad = sig.sum(axis=0) @ xn - sig.sum(axis=1) @ xp
        return grad / n ** 2
    g = x @ theta @ x.T
    sq = np.diag(g)
    dist = sq[:, None] + sq[None, :] - g - g.T
    ll = np.outer(data.labels, data.labels)
    active = (1.0 - ll * (loss.b - dist)) > 0.0
    w = np.where(active, ll, 0).astype(float)
    # sum_ij w_ij (x_i - x_j)(x_i - x_j)^T, expanded into three Gram pieces
    row = w.sum(axis=1)
    col = w.sum(axis=0)
    grad = (x.T * row) @ x + (x.T * col) @ x - x.T @ w @ x - x.T @ w.T @ x
    grad = 0.5 * (grad + grad.T)
    return grad / n ** 2


def exact_partial_gradient(theta: np.ndarray, i: int, data: Dataset,
                           loss: PairwiseLoss) -> np.ndarray:
    """(1/n) sum_j grad f(theta; x_i, x_j): the per-node bias oracle."""
    if not (0 <= i < data.n):
        raise IndexError(f"node index {i} out of range")
    _check_theta(loss, theta)
    n = data.n
    x, labels = data.features, data.labels
    if loss.kind == "auc_logistic":
        if labels[i] <= -1:
            return np.zeros_like(theta)
        mask = labels < labels[i]
        if not mask.any():
            return np.zeros_like(theta)
        diffs = x[mask] - x[i]
        sig = 0.5 * (1.0 + np.tanh(0.5 * (diffs @ theta)))
        return (sig @ diffs) / n
    delta = x[i] - x
    dist = np.einsum("jd,de,je->j", delta, theta, delta)
    ll = labels[i] * labels
    active = (1.0 - ll * (loss.b - dist)) > 0.0
    w = np.where(active, ll, 0).astype(float)
    grad = (delta.T * w) @ delta
    return 0.5 * (grad + grad.T) / n


def pair_gradients(loss: PairwiseLoss, theta_stack: np.ndarray, data: Dataset,
                   partner_idx: np.ndarray) -> np.ndarray:
    """grad f(theta_k; x_k, x_{partner_idx[k]}) for every node k, stacked.

    Vectorized equivalent of calling loss_grad once per node with its own
    parameter and its current auxiliary observation.
    """
    x, labels = data.features, data.labels
    if loss.kind == "auc_logistic":
        diffs = x[partner_idx] - x
        s = np.einsum("kd,kd->k", diffs, theta_stack)
        gate = (labels > labels[partner_idx]).astype(float)
        sig = 0.5 * (1.0 + np.tanh(0.5 * s))
        return (gate * sig)[:, None] * diffs
    delta = x - x[partner_idx]
    dist = np.einsum("kd,kde,ke->k", delta, theta_stack, delta)
    ll = (labels * labels[partner_idx]).astype(float)
    active = (1.0 - ll * (loss.b - dist)) > 0.0
    w = np.where(active, ll, 0.0)
    return w[:, None, None] * np.einsum("kd,ke->kde", delta, delta)


def auc_score(theta: np.ndarray, data: Dataset) -> float:
    """Exact pairwise AUC with strict score inequality (ties score zero)."""
    if theta.ndim != 1:
        raise ValueError("auc_score expects a vector parameter")
    n_pos = int((data.labels == 1).sum())
    n_neg = int((data.labels == -1).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    diffs = _auc_pair_scores(theta, data)  # s_neg - s_pos
    return float((diffs < 0).sum()) / (n_pos * n_neg)


def loss_lipschitz(loss: PairwiseLoss, data: Dataset) -> float:
    """Lipschitz constant L_f of theta -> f(theta; x_i, x_j) over the dataset."""
    x = data.features
    sq = np.sum(x * x, axis=1)
    pair_sq = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    max_sq = float(np.maximum(pair_sq, 0.0).max())
    if loss.kind == "auc_logistic":
        return float(np.sqrt(max_sq))  # |sigma| <= 1 times max ||x_j - x_i||
    return max_sq  # ||delta delta^T||_F = ||delta||^2
