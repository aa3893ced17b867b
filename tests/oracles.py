"""Reference formulas that only the tests use.

Each one restates a definition from the paper in its plainest form, so the
library's vectorized or fused code can be checked against it: `loss_value`
and `loss_grad` take one ordered pair of points, the scalar reference that
`losses.pair_gradients` is checked against.  One helper,
`centralized_iterates`, steps a centralized policy directly, for tests that
read theta_bar at marks the engine's checkpoint stride cannot express.
"""

from typing import NamedTuple

import numpy as np

from pairgossip.graphs import Graph
from pairgossip.losses import Dataset, PairwiseLoss, full_objective, param_shape
from pairgossip.regularizers import Regularizer, StepSchedule, psi_value, step_gamma
from pairgossip.sync_gossip import EngineConfig, GossipState


class DataPoint(NamedTuple):
    features: np.ndarray
    label: int


def point(data: Dataset, i: int) -> DataPoint:
    return DataPoint(data.features[i], int(data.labels[i]))


def _check_theta(loss: PairwiseLoss, theta: np.ndarray) -> None:
    if theta.ndim != loss.param_ndim:
        raise ValueError(f"{loss.kind} expects a {loss.param_ndim}-d parameter, "
                         f"got ndim={theta.ndim}")


def loss_value(loss: PairwiseLoss, theta: np.ndarray, p_i: DataPoint, p_j: DataPoint) -> float:
    """f(theta; x_i, x_j) for one ordered pair."""
    _check_theta(loss, theta)
    if loss.kind == "auc_logistic":
        if p_i.label <= p_j.label:
            return 0.0
        s = float((p_j.features - p_i.features) @ theta)
        return float(np.logaddexp(0.0, s))
    delta = p_i.features - p_j.features
    u = p_i.label * p_j.label * (loss.b - float(delta @ theta @ delta))
    return max(0.0, 1.0 - u)


def loss_grad(loss: PairwiseLoss, theta: np.ndarray, p_i: DataPoint, p_j: DataPoint) -> np.ndarray:
    """grad f(theta; x_i, x_j) for one ordered pair."""
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
    if 1.0 - ll * (loss.b - float(delta @ theta @ delta)) > 0.0:
        return float(ll) * np.outer(delta, delta)
    return np.zeros_like(theta)


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


def smoothing_objective(reg: Regularizer, z: np.ndarray, t: float, gamma_t: float,
                        theta: np.ndarray) -> float:
    """The objective the smoothing operator minimizes, for certificate checks."""
    return (-float(np.sum(z * theta))
            + float(np.sum(theta * theta)) / (2.0 * gamma_t)
            + t * psi_value(reg, theta))


def lagged_gamma(sched: StepSchedule, t: float) -> float:
    """gamma(t-1) as consumed by the algorithms, with gamma(0) read as gamma(1)."""
    return step_gamma(sched, max(t - 1, 1))


def expected_gossip_matrix(g: Graph) -> np.ndarray:
    """Expectation of the pairwise averaging matrix over a uniform edge draw.

    Averaging along edge (i, j) applies I - (e_i - e_j)(e_i - e_j)^T / 2;
    the uniform-edge expectation is I - L / (2m).
    """
    return np.eye(g.n) - g.laplacian() / (2 * g.num_edges)


def deterministic_gap_bound(theta_star_norm: float, L_f: float, sched: StepSchedule,
                            T: int) -> float:
    """||theta*||^2/(2 T gamma(T)) + L_f^2/(2T) sum_{t=1}^{T-1} gamma(t)."""
    if T < 2:
        raise ValueError("bound defined for T >= 2")
    s = sum(step_gamma(sched, t) for t in range(1, T))
    return theta_star_norm ** 2 / (2 * T * step_gamma(sched, T)) + L_f ** 2 * s / (2 * T)


def centralized_iterates(step, data: Dataset, loss: PairwiseLoss, reg: Regularizer,
                         sched: StepSchedule, marks, rng=None):
    """(t, theta_bar, R_n(theta_bar)) at each mark t of a centralized policy,
    stepped directly on a one-row engine state with `rng` as its pair stream."""
    cfg = EngineConfig(data=data, loss=loss, reg=reg, sched=sched, T=max(marks),
                       seed=0, record_bias=False)
    state = GossipState.initial(1, param_shape(loss, data), np.ones(1))
    out = []
    for t in range(1, cfg.T + 1):
        step(state, t, cfg, None, rng)
        if t in marks:
            theta_bar = state.theta_bar[0].copy()
            out.append((t, theta_bar, full_objective(theta_bar, data, loss, reg)))
    return out
