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

import numpy as np

from .regularizers import Regularizer, psi_value


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


# Pairwise-kernel temporaries hold about this many float64 elements.
_CHUNK = 2 ** 15
_SAFE_SCORE = 350.0  # |s| < 350 keeps e^(-s_i), e^(s_j) and their product in e^(+-700)


def _signed_features(data: Dataset) -> np.ndarray:
    """x_k scaled by -l_k: its score u = -s_i on a positive point i and s_j on a
    negative point j (s = x theta), so that s_j - s_i = u_i + u_j and every AUC
    pair term factors through e^(u_i) e^(u_j)."""
    return data.features * -data.labels[:, None]


def _auc_loss_sums(thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """sum_{positive i, negative j} log(1 + e^(s_j - s_i)), s = x theta, per row
    of a stack, in chunks of rows scored by one GEMM: exp-factorised (one log1p
    of e^(-s_i) e^(s_j) per pair) while every |s| < _SAFE_SCORE, else logaddexp."""
    pos, neg = data.labels == 1, data.labels == -1
    signed = _signed_features(data)
    step = max(1, 4 * _CHUNK // data.n ** 2)  # a row has at most n^2 / 4 pairs
    sums = np.empty(len(thetas))
    for c in range(0, len(thetas), step):
        u = thetas[c:c + step] @ signed.T
        e = np.exp(np.minimum(u, _SAFE_SCORE))  # finite; exact on the rows that use it
        b = e[:, pos, None] * e[:, None, neg]
        sums[c:c + step] = np.log1p(b, out=b).sum(axis=(1, 2))
        if np.abs(u).max() >= _SAFE_SCORE:
            for k in np.flatnonzero(np.abs(u).max(axis=1) >= _SAFE_SCORE):
                sums[c + k] = np.logaddexp(0.0, u[k, neg] + u[k, pos][:, None]).sum()
    return sums


def _pair_hinge(theta: np.ndarray, data: Dataset, loss: PairwiseLoss, rows: int):
    """Row blocks i in [a, a + rows), j >= a of the symmetric pair matrix of hinge
    losses max(0, 1 - l_i l_j (b - d_theta(x_i, x_j))); rows = n yields all of it."""
    x, labels = data.features, data.labels
    xt = x @ (theta + theta.T)  # 2 x_i theta_sym
    sq = 0.5 * np.einsum("id,id->i", xt, x)  # d_theta(x_i, 0)
    for a in range(0, data.n, rows):
        # 1 + l_i l_j (sq_i + sq_j - 2 x_i theta_sym x_j - b), in place; +-1 flips are exact
        h = xt[a:a + rows] @ x[a:].T
        np.subtract(sq[a:], h, out=h)
        h += (sq[a:a + rows] - loss.b)[:, None]
        h *= labels[a:a + rows, None]
        h *= labels[a:]
        h += 1.0
        yield np.maximum(0.0, h, out=h)


def full_objective(theta: np.ndarray, data: Dataset, loss: PairwiseLoss,
                   reg: Regularizer) -> float | np.ndarray:
    """(1/n^2) sum over all ordered pairs of the loss, plus the penalty, at one
    parameter (a float) or at each of a stack along a leading axis (an array).
    The hinge sums the upper-triangle blocks, off-diagonal parts twice."""
    stack = theta.ndim == loss.param_ndim + 1
    thetas = theta if stack else theta[None]
    _check_theta(loss, thetas[0])
    if loss.kind == "auc_logistic":
        sums = _auc_loss_sums(thetas, data)
    else:
        rows = max(1, _CHUNK // data.n)
        sums = np.array([sum(2.0 * h.sum() - h[:, :len(h)].sum()
                             for h in _pair_hinge(th, data, loss, rows))
                         for th in thetas])
    if not stack:
        return float(sums[0]) / data.n ** 2 + psi_value(reg, theta)
    return sums / data.n ** 2 + np.array([psi_value(reg, th) for th in thetas])


def full_gradient(theta: np.ndarray, data: Dataset, loss: PairwiseLoss) -> np.ndarray:
    """Exact gradient of the (1/n^2) double-sum loss term.  AUC takes
    sigma(s_j - s_i) = 1 / (1 + e^(-u_i) e^(-u_j)) from n exps and one outer
    product while every |u| < _SAFE_SCORE, else from tanh on every pair."""
    _check_theta(loss, theta)
    n, x = data.n, data.features
    if loss.kind == "auc_logistic":
        u, pos = _signed_features(data) @ theta, data.labels == 1
        if np.abs(u).max() < _SAFE_SCORE:
            e = np.exp(-u)
            sig = np.multiply.outer(e[pos], e[~pos])
            sig += 1.0
            np.reciprocal(sig, out=sig)
        else:
            sig = 0.5 * (1.0 + np.tanh(0.5 * (u[~pos] + u[pos][:, None])))
        return (sig.sum(axis=0) @ x[~pos] - sig.sum(axis=1) @ x[pos]) / n ** 2
    hinge = next(_pair_hinge(theta, data, loss, n))
    w = np.where(hinge > 0.0, np.outer(data.labels, data.labels), 0.0)
    # sum_ij w_ij (x_i - x_j)(x_i - x_j)^T, expanded into three Gram pieces
    row = w.sum(axis=1)
    col = w.sum(axis=0)
    grad = (x.T * row) @ x + (x.T * col) @ x - x.T @ w @ x - x.T @ w.T @ x
    grad = 0.5 * (grad + grad.T)
    return grad / n ** 2


def mean_partial_gradient(thetas: np.ndarray, data: Dataset,
                          loss: PairwiseLoss) -> np.ndarray:
    """Mean over nodes k of the exact per-node oracle (1/n) sum_j
    grad f(theta_k; x_k, x_j), in chunks of nodes: AUC scores the positive
    nodes' rows against all negatives in one GEMM, the hinge forms the
    quadratic forms (x_k - x_j)' theta_k (x_k - x_j)."""
    n, x, labels = data.n, data.features, data.labels
    total = np.zeros(thetas.shape[1:])
    if loss.kind == "auc_logistic":
        pos, xn = np.flatnonzero(labels == 1), x[labels == -1]
        step = max(1, _CHUNK // max(len(xn), 1))
        for k in np.split(pos, range(step, len(pos), step)):
            s = thetas[k] @ xn.T - np.einsum("kd,kd->k", thetas[k], x[k])[:, None]
            sig = 0.5 * (1.0 + np.tanh(0.5 * s))  # sigma((x_j - x_k)' theta_k)
            total += sig.sum(axis=0) @ xn - sig.sum(axis=1) @ x[k]
        return total / n ** 2
    step = max(1, _CHUNK // (n * data.dim))
    for c in range(0, n, step):
        delta = x[c:c + step, None] - x  # (nodes, n, d): x_k - x_j
        dist = np.einsum("kjd,kjd->kj", delta @ thetas[c:c + step], delta)
        ll = labels[c:c + step, None] * labels
        w = np.where(1.0 - ll * (loss.b - dist) > 0.0, ll, 0.0)
        total += (delta * w[..., None]).reshape(-1, data.dim).T @ delta.reshape(-1, data.dim)
    return total / n ** 2


def pair_gradients(loss: PairwiseLoss, theta_stack: np.ndarray, data: Dataset,
                   own_idx, partner_idx: np.ndarray) -> np.ndarray:
    """grad f(theta_r; x_{own_idx[r]}, x_{partner_idx[r]}) for every row r of
    the stack: the pair gradient of every step policy.  A full slice as own_idx
    pairs row k with x_k without copying the features."""
    x, labels = data.features, data.labels
    x_own, l_own = x[own_idx], labels[own_idx]
    if loss.kind == "auc_logistic":
        diffs = x[partner_idx] - x_own
        s = np.einsum("kd,kd->k", diffs, theta_stack)
        gate = (l_own > labels[partner_idx]).astype(float)
        sig = 0.5 * (1.0 + np.tanh(0.5 * s))
        return (gate * sig)[:, None] * diffs
    delta = x_own - x[partner_idx]
    dist = (delta[:, None] @ theta_stack @ delta[:, :, None])[:, 0, 0]  # only gates the hinge
    ll = (l_own * labels[partner_idx]).astype(float)
    active = (1.0 - ll * (loss.b - dist)) > 0.0
    w = np.where(active, ll, 0.0)
    return delta[:, :, None] * (w[:, None] * delta)[:, None, :]  # w in {-1, 0, 1}: exact


def auc_score(theta: np.ndarray, data: Dataset) -> float:
    """Exact pairwise AUC with strict score inequality (ties score zero)."""
    if theta.ndim != 1:
        raise ValueError("auc_score expects a vector parameter")
    n_pos = int((data.labels == 1).sum())
    n_neg = int((data.labels == -1).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    s = data.features @ theta
    return float((s[data.labels == 1][:, None] > s[data.labels == -1]).sum()) / (n_pos * n_neg)


def loss_lipschitz(loss: PairwiseLoss, data: Dataset) -> float:
    """Lipschitz constant L_f of theta -> f(theta; x_i, x_j) over the dataset."""
    x = data.features
    sq = np.sum(x * x, axis=1)
    pair_sq = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    max_sq = float(np.maximum(pair_sq, 0.0).max())
    if loss.kind == "auc_logistic":
        return float(np.sqrt(max_sq))  # |sigma| <= 1 times max ||x_j - x_i||
    return max_sq  # ||delta delta^T||_F = ||delta||^2
