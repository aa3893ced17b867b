"""Reference formulas that only the tests use.

Each one restates a definition from the paper in its plainest form, so the
library's vectorized or fused code can be checked against it: `loss_value`
and `loss_grad` take one ordered pair of points, the scalar reference that
`losses.pair_gradients` is checked against; `auc_full_gradient_tanh` is the
pairwise form that `losses.full_gradient` factorises.  The `_broadcast`
oracles restate the AUC kernels as one whole-array expression per operation
(broadcast and `multiply.outer` outer products, no in-place steps): the
library's kernels must match them bit for bit.  `auc_score` is the exact
pairwise AUC.  One helper, `centralized_iterates`, steps a centralized policy
directly, for tests that read theta_bar at marks the engine's checkpoint
stride cannot express.
`watts_strogatz_reference` is the plain candidate-list rewiring that
`graphs.watts_strogatz_graph` must reproduce edge for edge.  Two I/O helpers
read back a trace and write the edge-list files that `graphs.read_edgelist`
loads.
"""

import csv
from typing import NamedTuple

import numpy as np

from pairgossip.graphs import WATTS_STROGATZ_MAX_RETRIES, Graph
from pairgossip.losses import (_SAFE_SCORE, Dataset, PairwiseLoss, full_objective,
                               param_shape)
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


def auc_full_gradient_tanh(theta: np.ndarray, data: Dataset) -> np.ndarray:
    """Exact AUC gradient (1/n^2) sum_{positive i, negative j}
    sigma(s_j - s_i) (x_j - x_i), with the overflow-safe tanh form of sigma on
    every pair."""
    n, x = data.n, data.features
    s, pos = x @ theta, data.labels == 1
    sig = 0.5 * (1.0 + np.tanh(0.5 * (s[~pos] - s[pos][:, None])))  # sigma(s_j - s_i)
    return (sig.sum(axis=0) @ x[~pos] - sig.sum(axis=1) @ x[pos]) / n ** 2


def auc_pair_gradients_broadcast(theta_stack: np.ndarray, data: Dataset, own_idx,
                                 partner_idx) -> np.ndarray:
    """sigma(s_r) gate_r (x_partner - x_own) per row r of the stack, with
    s_r = (x_partner - x_own)' theta_r, in the overflow-safe tanh form of sigma."""
    x, labels = data.features, data.labels
    diffs = x[partner_idx] - x[own_idx]
    s = np.einsum("kd,kd->k", diffs, theta_stack)
    gate = (labels[own_idx] > labels[partner_idx]).astype(float)
    sig = 0.5 * (1.0 + np.tanh(0.5 * s))
    return (gate * sig)[:, None] * diffs


def auc_objective_broadcast(thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """(1/n^2) sum_{positive i, negative j} log(1 + e^(s_j - s_i)) per row of a
    stack: log1p of the broadcast product e^(u_i) e^(u_j) of signed scores
    u = -l x theta while every |u| of the row < _SAFE_SCORE, else logaddexp."""
    pos, neg = data.labels == 1, data.labels == -1
    u = thetas @ (data.features * -data.labels[:, None]).T
    e = np.exp(np.minimum(u, _SAFE_SCORE))
    sums = np.log1p(e[:, pos, None] * e[:, None, neg]).sum(axis=(1, 2))
    for k in np.flatnonzero(np.abs(u).max(axis=1) >= _SAFE_SCORE):
        sums[k] = np.logaddexp(0.0, u[k, neg] + u[k, pos][:, None]).sum()
    return sums / data.n ** 2


def auc_full_gradient_broadcast(theta: np.ndarray, data: Dataset) -> np.ndarray:
    """Exact AUC gradient with sigma(s_j - s_i) = 1 / (1 + e^(-u_i) e^(-u_j))
    from a `multiply.outer` product while every |u| < _SAFE_SCORE, else from
    tanh on every pair (u as in `auc_objective_broadcast`)."""
    n, x, pos = data.n, data.features, data.labels == 1
    u = (x * -data.labels[:, None]) @ theta
    if np.abs(u).max() < _SAFE_SCORE:
        e = np.exp(-u)
        sig = 1.0 / (1.0 + np.multiply.outer(e[pos], e[~pos]))
    else:
        sig = 0.5 * (1.0 + np.tanh(0.5 * (u[~pos] + u[pos][:, None])))
    return (sig.sum(axis=0) @ x[~pos] - sig.sum(axis=1) @ x[pos]) / n ** 2


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
                       seed=0)
    state = GossipState.initial(1, param_shape(loss, data), np.ones(1))
    out = []
    for t in range(1, cfg.T + 1):
        step(state, t, cfg, None, rng)
        if t in marks:
            theta_bar = state.theta_bar[0].copy()
            out.append((t, theta_bar, full_objective(theta_bar, data, loss, reg)))
    return out


def read_trace(path) -> list[dict]:
    """The rows of a trace.csv, t as an int and every other column a float."""
    with open(path) as fh:
        return [{k: (int(v) if k == "t" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def write_edgelist(g: Graph, path) -> None:
    """Text export: first line "n m", then one "i j" line per edge (0-based)."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.num_edges}\n")
        for i, j in g.edges.tolist():
            fh.write(f"{i} {j}\n")


def watts_strogatz_reference(n: int, k: int, p: float, rng: np.random.Generator) -> Graph:
    """Watts-Strogatz by a global set of (min, max) edges: each rewired edge
    lists its free targets by a scan over all n nodes and draws one of them."""
    if k % 2 == 1:
        k -= 1
    for _ in range(WATTS_STROGATZ_MAX_RETRIES):
        lattice = [(i, (i + lane) % n) for lane in range(1, k // 2 + 1) for i in range(n)]
        present = {(min(i, j), max(i, j)) for (i, j) in lattice}
        for (i, j) in lattice:
            if rng.random() >= p:
                continue
            old = (min(i, j), max(i, j))
            # rewire the far endpoint j -> uniform fresh target
            candidates = [t for t in range(n)
                          if t != i and (min(i, t), max(i, t)) not in present]
            if not candidates:
                continue
            new_j = candidates[rng.integers(len(candidates))]
            present.discard(old)
            present.add((min(i, new_j), max(i, new_j)))
        g = Graph.from_edges(n, present)
        if g.is_connected():
            return g
    raise RuntimeError("no connected Watts-Strogatz graph")
