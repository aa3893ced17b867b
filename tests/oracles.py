"""Reference formulas that only the tests use.

Each one restates a definition from the paper in its plainest form, so the
library's vectorized or fused code can be checked against it.
"""

import numpy as np

from pairgossip.graphs import Graph
from pairgossip.losses import DataPoint, PairwiseLoss
from pairgossip.regularizers import Regularizer, StepSchedule, psi_value, step_gamma


def loss_value(loss: PairwiseLoss, theta: np.ndarray, p_i: DataPoint, p_j: DataPoint) -> float:
    """f(theta; x_i, x_j) for one ordered pair."""
    if theta.ndim != loss.param_ndim:
        raise ValueError(f"{loss.kind} expects a {loss.param_ndim}-d parameter, "
                         f"got ndim={theta.ndim}")
    if loss.kind == "auc_logistic":
        if p_i.label <= p_j.label:
            return 0.0
        s = float((p_j.features - p_i.features) @ theta)
        return float(np.logaddexp(0.0, s))
    delta = p_i.features - p_j.features
    u = p_i.label * p_j.label * (loss.b - float(delta @ theta @ delta))
    return max(0.0, 1.0 - u)


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
