import numpy as np
import pytest

from pairgossip.async_gossip import async_step, run_async
from pairgossip.datasets import gen_two_class_gaussians
from pairgossip.graphs import (activation_probabilities, complete_graph,
                               watts_strogatz_graph)
from pairgossip.losses import PairwiseLoss, param_shape
from pairgossip.regularizers import Regularizer, StepSchedule, smoothing_op, step_gamma
from pairgossip.sync_gossip import (EDGE, GossipState, SyncRunConfig, stream_rng,
                                    sync_step)

AUC = PairwiseLoss("auc_logistic")
ZERO = Regularizer("zero")
POLY = StepSchedule("poly", c=1.0, alpha=0.25)


def toy(n, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return gen_two_class_gaussians(n, d, rng, separation=0.8)


def make_cfg(graph, data, seed=0, T=100, stride=100, sched=POLY, **kw):
    return SyncRunConfig(graph=graph, data=data, loss=AUC, reg=ZERO,
                         sched=sched, T=T, seed=seed, checkpoint_stride=stride,
                         **kw)


class TestConfig:
    def test_warns_on_non_poly_schedule(self):
        cfg = make_cfg(complete_graph(5), toy(5), T=0,
                       sched=StepSchedule("inv_sqrt", c=1.0))
        with pytest.warns(UserWarning, match="poly step schedule"):
            run_async(cfg)

    def test_poly_schedule_silent(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_async(make_cfg(complete_graph(5), toy(5), T=0))


class TestAsyncStep:
    def test_activation_count_is_twice_iterations(self):
        data = toy(9)
        g = complete_graph(9)
        cfg = make_cfg(g, data, T=500)
        p = activation_probabilities(g)
        state = GossipState.initial(9, param_shape(AUC, data), p)
        rng = np.random.default_rng(7)
        T = 500
        activations = np.zeros(9, dtype=np.int64)
        edges = g.edges.tolist()
        for t in range(1, T + 1):
            _, (i, j), _ = async_step(state, t, cfg, rng)
            assert [min(i, j), max(i, j)] in edges
            activations[[i, j]] += 1
        assert activations.sum() == 2 * T

    def test_m_increment_rule(self):
        data = toy(6)
        g = watts_strogatz_graph(6, 2, 0.3, np.random.default_rng(0))
        if g.is_bipartite():
            pytest.skip("sampled bipartite instance")
        cfg = make_cfg(g, data)
        p = activation_probabilities(g)
        state = GossipState.initial(6, param_shape(AUC, data), p)
        rng = np.random.default_rng(8)
        activations = np.zeros(6, dtype=np.int64)
        for t in range(1, 300):
            _, nodes, _ = async_step(state, t, cfg, rng)
            activations[nodes] += 1
        assert np.allclose(state.m, activations / p, atol=1e-9)

    def test_non_activated_nodes_unchanged(self):
        data = toy(8)
        g = complete_graph(8)
        cfg = make_cfg(g, data)
        p = activation_probabilities(g)
        state = GossipState.initial(8, param_shape(AUC, data), p)
        rng = np.random.default_rng(9)
        for t in range(1, 30):
            before = state.theta.copy()
            zb = state.z.copy()
            _, (i, j), _ = async_step(state, t, cfg, rng)
            idle = [k for k in range(8) if k not in (i, j)]
            assert np.array_equal(state.theta[idle], before[idle])
            assert np.array_equal(state.z[idle], zb[idle])

    def test_one_step_matches_sync_up_to_importance_weight(self):
        # on a complete graph all p_k are equal; starting from the same state,
        # the activated pair's async z-update equals the sync update with the
        # gradient scaled by 1/p and the smoothing index replaced by m_k
        data = toy(5)
        g = complete_graph(5)
        p = activation_probabilities(g)
        a_cfg = make_cfg(g, data, seed=3)
        s_cfg = SyncRunConfig(graph=g, data=data, loss=AUC, reg=ZERO, sched=POLY,
                              T=1, seed=3, checkpoint_stride=1)
        shape = param_shape(AUC, data)
        a_state = GossipState.initial(5, shape, p)
        s_state = GossipState.initial(5, shape, np.ones(5))
        rng_a = stream_rng(3, EDGE)
        rng_s = stream_rng(3, EDGE)
        _, (i, j), _ = async_step(a_state, 1, a_cfg, rng_a)
        sync_step(s_state, 1, s_cfg, rng_s)
        for k in (i, j):
            # sync z_k = avg + grad; async z_k = avg + grad / p_k, same grad
            grad_sync = s_state.z[k]  # averaging of zeros is zero
            assert np.allclose(a_state.z[k], grad_sync / p[k], atol=1e-12)
            assert np.allclose(
                a_state.theta[k],
                smoothing_op(ZERO, -a_state.z[k], a_state.m[k],
                             step_gamma(POLY, a_state.m[k])), atol=1e-12)


class TestRunAsync:
    def test_deterministic_replay(self):
        data = toy(6)
        a = run_async(make_cfg(complete_graph(6), data, seed=4, T=300))
        b = run_async(make_cfg(complete_graph(6), data, seed=4, T=300))
        for ra, rb in zip(a, b):
            assert ra.__dict__ == rb.__dict__

    def test_trace_has_time_estimate_columns(self):
        data = toy(6)
        recs = run_async(make_cfg(complete_graph(6), data, T=100))
        assert recs[-1].m_min is not None
        assert recs[-1].m_max >= recs[-1].m_min

    def test_theta_bar_matches_explicit_weighted_sum(self):
        # the running average must reproduce the activation-weighted estimator
        # theta_bar_k(T) = (1/m_k) sum_t (delta_k(t)/p_k) theta_k(t)
        data = toy(7)
        g = complete_graph(7)
        cfg = make_cfg(g, data, seed=5)
        p = activation_probabilities(g)
        state = GossipState.initial(7, param_shape(AUC, data), p)
        rng = stream_rng(5, EDGE)
        weighted = np.zeros_like(state.theta)
        for t in range(1, 201):
            _, (i, j), _ = async_step(state, t, cfg, rng)
            for k in (i, j):
                weighted[k] += state.theta[k] / p[k]
        for k in range(7):
            if state.m[k] > 0:
                assert np.allclose(state.theta_bar[k], weighted[k] / state.m[k],
                                   atol=1e-10)

    def test_mean_time_estimate_tracks_iterations(self):
        data = toy(10)
        g = complete_graph(10)
        recs = run_async(make_cfg(g, data, seed=6, T=2000, stride=2000))
        # with p_k = 2/n, E[m_k] = t; the mean over nodes concentrates faster
        assert recs[-1].m_mean == pytest.approx(2000, rel=0.15)

    def test_objective_decreases(self):
        data = toy(10)
        recs = run_async(make_cfg(complete_graph(10), data, T=5000, stride=5000))
        assert recs[-1].obj_mean < 0.8 * recs[0].obj_mean
