"""Exact oracles for the engine's randomness: what `gossip_exchange` does
with the uniform edge draw over many steps, and the dual mass it keeps.

One exchange averages the duals of a uniformly drawn edge's endpoints and
swaps their auxiliary observations.  Over the draw, the averaging has
expectation W1 = I - L/(2m) and each observation walks by W2 = I - L/m
(Boyd et al., IEEE TIT 2006), so after t exchanges E[z_t] = W1^t z_0 and
P(y_idx[k] = j) = (W2^t)_kj.  Both are checked over a fixed seed list, entry
by entry, to Z_LEVEL standard errors.  With 2000 seeds every reachable entry
of W2^t expects at least 17 counts, and the correct exchange stays under
|z| = 3 on both graphs.
"""

import numpy as np
import pytest

from pairgossip.async_gossip import async_step
from pairgossip.datasets import gen_two_class_gaussians
from pairgossip.graphs import activation_probabilities, cycle_graph, watts_strogatz_graph
from pairgossip.losses import PairwiseLoss
from pairgossip.regularizers import Regularizer, StepSchedule
from pairgossip.sync_gossip import (BASELINE, EDGE, GossipState, SyncRunConfig,
                                    gossip_exchange, stream_rng, sync_step)

SEEDS = range(2000)
EXCHANGES = 4
Z_LEVEL = 5.0

GRAPHS = {"odd_cycle": cycle_graph(7),
          "watts_strogatz": watts_strogatz_graph(8, 4, 0.3, np.random.default_rng(0))}


@pytest.fixture(scope="module", params=list(GRAPHS))
def exchanged(request):
    """The graph and, one row per seed, y_idx and z after EXCHANGES exchanges
    from y_idx = identity and z_0 = (0, 1, ..., n - 1)."""
    g = GRAPHS[request.param]
    ys, zs = [], []
    for seed in SEEDS:
        state = GossipState.initial(g.n, (), np.ones(g.n))
        state.z[:] = np.arange(g.n)
        rng = np.random.default_rng(seed)
        for _ in range(EXCHANGES):
            gossip_exchange(state, g, rng)
        ys.append(state.y_idx.copy())
        zs.append(state.z.copy())
    return g, np.array(ys), np.array(zs)


def test_observations_walk_by_w2(exchanged):
    g, ys, _ = exchanged
    w2 = np.eye(g.n) - g.laplacian() / g.num_edges
    p = np.linalg.matrix_power(w2, EXCHANGES)
    counts = (ys[:, :, None] == np.arange(g.n)).sum(axis=0)  # [k, j]: y_idx[k] = j
    s = len(ys)
    reachable = p > 0.0
    assert np.all(counts[~reachable] == 0)
    z = (counts - s * p)[reachable] / np.sqrt(s * p * (1.0 - p))[reachable]
    assert np.abs(z).max() < Z_LEVEL


def test_dual_mean_follows_w1(exchanged):
    g, _, zs = exchanged
    w1 = np.eye(g.n) - g.laplacian() / (2 * g.num_edges)
    want = np.linalg.matrix_power(w1, EXCHANGES) @ np.arange(g.n)
    se = zs.std(axis=0, ddof=1) / np.sqrt(len(zs))
    assert np.all(np.abs(zs.mean(axis=0) - want) < Z_LEVEL * se)


@pytest.mark.parametrize("step", [sync_step, async_step])
def test_dual_mass_is_conserved_at_every_step(step):
    """sum_k z_k(t) equals the sum of every direction applied so far, up to
    rounding relative to the total magnitude applied: averaging keeps the sum."""
    g = GRAPHS["watts_strogatz"]
    data = gen_two_class_gaussians(g.n, 2, np.random.default_rng(1), separation=0.8)
    cfg = SyncRunConfig(data=data, loss=PairwiseLoss("auc_logistic"),
                        reg=Regularizer("squared_l2", lam=0.05),
                        sched=StepSchedule("poly", c=0.5, alpha=0.25), T=60, seed=3,
                        graph=g)
    p = activation_probabilities(g) if step is async_step else np.ones(g.n)
    state = GossipState.initial(g.n, (data.dim,), p)
    rng_edge, rng_baseline = stream_rng(cfg.seed, EDGE), stream_rng(cfg.seed, BASELINE)
    applied, magnitude = np.zeros(data.dim), 0.0
    for t in range(1, cfg.T + 1):
        rows, _, _ = step(state, t, cfg, rng_edge, rng_baseline)
        applied += rows.sum(axis=0)
        magnitude += np.abs(rows).sum()
        assert np.abs(state.z.sum(axis=0) - applied).max() <= 1e-13 * (1.0 + magnitude)
    assert magnitude > 1.0
