import numpy as np
import pytest

from pairgossip.datasets import gen_two_class_gaussians
from pairgossip.graphs import Graph, complete_graph, cycle_graph
from pairgossip.losses import Dataset, PairwiseLoss, loss_grad, param_shape
from pairgossip.regularizers import Regularizer, StepSchedule
from pairgossip.sync_gossip import (GossipState, SyncRunConfig, run_sync,
                                    sync_step)

AUC = PairwiseLoss("auc_logistic")
ZERO = Regularizer("zero")
SQRT = StepSchedule("inv_sqrt", c=1.0)


def make_cfg(graph, data, seed=0, T=100, stride=10, **kw):
    return SyncRunConfig(graph=graph, data=data, loss=AUC, reg=ZERO, sched=SQRT,
                         T=T, seed=seed, checkpoint_stride=stride, **kw)


def toy(n, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return gen_two_class_gaussians(n, d, rng, separation=0.8)


class TestConfigValidation:
    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            make_cfg(complete_graph(5), toy(6))

    def test_bad_gradient_mode(self):
        with pytest.raises(ValueError):
            make_cfg(complete_graph(6), toy(6), gradient_mode="exact")

    def test_warns_on_bipartite(self):
        with pytest.warns(UserWarning):
            make_cfg(cycle_graph(6), toy(6))

    def test_warns_on_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        with pytest.warns(UserWarning):
            make_cfg(g, toy(4))


class TestSyncStep:
    def test_n2_hand_execution(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        data = Dataset(features=feats, labels=np.array([1, -1]))
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.warns(UserWarning):  # a single edge is bipartite
            cfg = SyncRunConfig(graph=g, data=data, loss=AUC, reg=ZERO,
                                sched=SQRT, T=1, seed=0, checkpoint_stride=1)
        state = GossipState.initial(2, param_shape(AUC, data), np.ones(2))
        rng = np.random.default_rng(3)
        sync_step(state, 1, cfg, rng)
        # averaging zeros leaves zeros; the swap hands each node the other's
        # point, so z_k = grad f(0; x_k, x_other)
        g0 = loss_grad(AUC, np.zeros(2), data.point(0), data.point(1))
        g1 = loss_grad(AUC, np.zeros(2), data.point(1), data.point(0))
        assert np.allclose(state.z[0], g0, atol=1e-15)
        assert np.allclose(state.z[1], g1, atol=1e-15)
        assert list(state.y_idx) == [1, 0]

    def test_identical_data_stays_synchronized(self):
        feats = np.tile(np.array([[1.0, -2.0]]), (6, 1))
        data = Dataset(features=feats, labels=np.array([1] * 6))
        cfg = make_cfg(complete_graph(6), data, T=50, stride=50)
        recs = run_sync(cfg)
        for r in recs:
            assert r.dual_disagreement == pytest.approx(0.0, abs=1e-12)
            assert r.obj_std == pytest.approx(0.0, abs=1e-12)

    def test_mean_z_conservation(self):
        # pairwise averaging preserves the dual mean: after each step,
        # mean(z) equals the accumulated mean of applied directions
        data = toy(8)
        cfg = make_cfg(complete_graph(8), data)
        state = GossipState.initial(8, param_shape(AUC, data), np.ones(8))
        rng = np.random.default_rng(11)
        acc = np.zeros(2)
        for t in range(1, 60):
            d, _, _ = sync_step(state, t, cfg, rng)
            acc += d.mean(axis=0)
            assert np.allclose(state.z.mean(axis=0), acc, atol=1e-12)

    def test_y_multiset_is_permutation(self):
        data = toy(4)
        cfg = make_cfg(complete_graph(4), data, T=100, stride=100)
        state = GossipState.initial(4, param_shape(AUC, data), np.ones(4))
        rng = np.random.default_rng(5)
        for t in range(1, 101):
            sync_step(state, t, cfg, rng)
        assert sorted(state.y_idx) == [0, 1, 2, 3]


class TestRunSync:
    def test_deterministic_replay(self):
        data = toy(5)
        a = run_sync(make_cfg(complete_graph(5), data, seed=9))
        b = run_sync(make_cfg(complete_graph(5), data, seed=9))
        for ra, rb in zip(a, b):
            assert ra.__dict__ == rb.__dict__

    def test_seed_changes_trace(self):
        data = toy(5)
        a = run_sync(make_cfg(complete_graph(5), data, seed=1))
        b = run_sync(make_cfg(complete_graph(5), data, seed=2))
        assert a[-1].obj_mean != b[-1].obj_mean

    def test_t_zero_trace(self):
        data = toy(5)
        recs = run_sync(make_cfg(complete_graph(5), data, T=0))
        assert len(recs) == 1 and recs[0].t == 0
        # all-zero parameters: every node sits at R_n(0)
        assert recs[0].obj_std == 0.0

    def test_checkpoint_schedule(self):
        data = toy(5)
        recs = run_sync(make_cfg(complete_graph(5), data, T=25, stride=10))
        assert [r.t for r in recs] == [0, 10, 20, 25]

    def test_baseline_mode_runs(self):
        data = toy(6)
        recs = run_sync(make_cfg(complete_graph(6), data, T=200, stride=200,
                                 gradient_mode="unbiased_baseline"))
        assert recs[-1].obj_mean < recs[0].obj_mean

    def test_objective_decreases(self):
        data = toy(10)
        recs = run_sync(make_cfg(complete_graph(10), data, T=2000, stride=2000))
        assert recs[-1].obj_mean < 0.75 * recs[0].obj_mean

    def test_permutation_invariance_of_edge_labels(self):
        # relabeling nodes together with their data gives the same objective
        # trajectory when the edge draws map accordingly; here we only check
        # the weaker property that a relabeled complete graph with permuted
        # data has an identical t=0 record and the same record schema
        data = toy(6)
        perm = np.array([3, 1, 0, 2, 5, 4])
        pdata = Dataset(features=data.features[perm], labels=data.labels[perm])
        r1 = run_sync(make_cfg(complete_graph(6), data, T=0))
        r2 = run_sync(make_cfg(complete_graph(6), pdata, T=0))
        assert r1[0].obj_mean == pytest.approx(r2[0].obj_mean, abs=1e-12)
