import numpy as np
import pytest

from pairgossip.datasets import gen_two_class_gaussians
from pairgossip.losses import (Dataset, PairwiseLoss, auc_score, full_gradient,
                               full_objective, loss_lipschitz, pair_gradients)
from pairgossip.regularizers import Regularizer
from pairgossip.sync_gossip import ALL_NODES

from oracles import DataPoint, exact_partial_gradient, loss_grad, loss_value, point

AUC = PairwiseLoss("auc_logistic")
HINGE = PairwiseLoss("metric_hinge", b=1.0)
ZERO = Regularizer("zero")


def random_dataset(n, d, rng):
    feats = rng.standard_normal((n, d))
    labels = rng.choice([-1, 1], size=n)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    return Dataset(features=feats, labels=labels)


def random_theta(loss, d, rng):
    if loss.param_ndim == 1:
        return rng.standard_normal(d)
    m = rng.standard_normal((d, d))
    return 0.5 * (m + m.T)


def one_pair_gradient(loss, theta, data, i, j):
    """grad f(theta; x_i, x_j) from a one-row `pair_gradients` call."""
    return pair_gradients(loss, theta[None], data, [i], [j])[0]


def numeric_grad(f, theta, h=1e-6):
    g = np.zeros_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up, down = theta.copy(), theta.copy()
        up[idx] += h
        down[idx] -= h
        g[idx] = (f(up) - f(down)) / (2 * h)
    return g


class TestDatasetValidation:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((3, 2)), labels=np.array([1, 0, -1]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[np.nan, 1.0], [0.0, 1.0]]),
                    labels=np.array([1, -1]))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((1, 2)), labels=np.array([1]))


class TestLossValue:
    def test_auc_origin_is_log2(self):
        p = DataPoint(np.array([1.0, 2.0]), 1)
        q = DataPoint(np.array([0.0, -1.0]), -1)
        assert loss_value(AUC, np.zeros(2), p, q) == pytest.approx(np.log(2.0))

    def test_auc_gated_pair_is_zero(self):
        p = DataPoint(np.array([1.0]), 1)
        q = DataPoint(np.array([2.0]), 1)
        assert loss_value(AUC, np.ones(1), p, q) == 0.0

    def test_hinge_margin_exactly_met(self):
        p = DataPoint(np.array([1.0, 0.0]), 1)
        q = DataPoint(np.array([0.0, 1.0]), 1)
        assert loss_value(HINGE, np.zeros((2, 2)), p, q) == 0.0

    def test_hinge_value(self):
        p = DataPoint(np.array([1.0, 0.0]), 1)
        q = DataPoint(np.array([0.0, 0.0]), -1)
        # delta = e1, distance under identity = 1, u = -1*(1-1) = 0 -> loss 1
        assert loss_value(HINGE, np.eye(2), p, q) == pytest.approx(1.0)

    def test_auc_overflow_safe(self):
        p = DataPoint(np.array([1000.0]), 1)
        q = DataPoint(np.array([-1000.0]), -1)
        v = loss_value(AUC, np.array([1.0]), p, q)
        assert np.isfinite(v)

    def test_shape_mismatch(self):
        p = DataPoint(np.array([1.0]), 1)
        with pytest.raises(ValueError):
            loss_value(AUC, np.zeros((1, 1)), p, p)
        with pytest.raises(ValueError):
            loss_value(HINGE, np.zeros(1), p, p)


class TestLossGrad:
    def test_auc_at_origin(self):
        p = DataPoint(np.array([1.0, 0.0]), 1)
        q = DataPoint(np.array([0.0, 1.0]), -1)
        g = loss_grad(AUC, np.zeros(2), p, q)
        assert np.allclose(g, 0.5 * (q.features - p.features))

    def test_hinge_inactive_is_zero(self):
        p = DataPoint(np.array([1.0, 0.0]), 1)
        q = DataPoint(np.array([0.0, 1.0]), 1)
        assert np.allclose(loss_grad(HINGE, np.zeros((2, 2)), p, q), 0.0)

    def test_hinge_rank_one_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = DataPoint(rng.standard_normal(3), 1)
            q = DataPoint(rng.standard_normal(3), -1)
            g = loss_grad(HINGE, random_theta(HINGE, 3, rng), p, q)
            assert np.allclose(g, g.T)
            if np.any(g != 0.0):
                assert np.linalg.matrix_rank(g, tol=1e-9) == 1

    def test_finite_differences(self):
        """The library kernel, one row at a time, against central differences
        of the oracle loss."""
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 200:
            loss = AUC if checked % 2 == 0 else HINGE
            d = 3
            data = Dataset(features=rng.standard_normal((2, d)),
                           labels=rng.choice([-1, 1], size=2))
            p, q = point(data, 0), point(data, 1)
            theta = random_theta(loss, d, rng)
            if loss.kind == "metric_hinge":
                delta = p.features - q.features
                margin = 1.0 - p.label * q.label * (loss.b - delta @ theta @ delta)
                if abs(margin) < 1e-4:  # skip the kink band
                    continue
            g = one_pair_gradient(loss, theta, data, 0, 1)
            num = numeric_grad(lambda th: loss_value(loss, th, p, q), theta)
            scale = max(np.linalg.norm(num), 1e-8)
            assert np.linalg.norm(g - num) / scale < 1e-4
            checked += 1

    def test_convexity_probe(self):
        rng = np.random.default_rng(2)
        for loss in (AUC, HINGE):
            for _ in range(250):
                d = 3
                p = DataPoint(rng.standard_normal(d), int(rng.choice([-1, 1])))
                q = DataPoint(rng.standard_normal(d), int(rng.choice([-1, 1])))
                t1, t2 = random_theta(loss, d, rng), random_theta(loss, d, rng)
                lam = rng.random()
                mid = loss_value(loss, lam * t1 + (1 - lam) * t2, p, q)
                assert mid <= (lam * loss_value(loss, t1, p, q)
                               + (1 - lam) * loss_value(loss, t2, p, q) + 1e-9)


class TestFullObjective:
    def test_auc_at_zero_counts_pairs(self):
        rng = np.random.default_rng(3)
        data = random_dataset(8, 3, rng)
        n_pos = int((data.labels == 1).sum())
        n_neg = 8 - n_pos
        expect = n_pos * n_neg * np.log(2.0) / 64
        assert full_objective(np.zeros(3), data, AUC, ZERO) == pytest.approx(expect)

    def test_single_class_is_psi_only(self):
        data = Dataset(features=np.arange(6.0).reshape(3, 2),
                       labels=np.array([1, 1, 1]))
        reg = Regularizer("squared_l2", lam=0.5)
        theta = np.array([1.0, 2.0])
        assert full_objective(theta, data, AUC, reg) == pytest.approx(
            0.5 * float(theta @ theta))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for loss in (AUC, HINGE):
            for _ in range(30):
                data = random_dataset(5, 3, rng)
                theta = random_theta(loss, 3, rng)
                total = 0.0
                for i in range(5):
                    for j in range(5):
                        total += loss_value(loss, theta, point(data, i), point(data, j))
                expect = total / 25
                got = full_objective(theta, data, loss, ZERO)
                assert got == pytest.approx(expect, rel=1e-12, abs=1e-14)

    def test_self_pairs_contribute_zero(self):
        rng = np.random.default_rng(5)
        data = random_dataset(6, 2, rng)
        for loss in (AUC, HINGE):
            theta = random_theta(loss, 2, rng)
            for i in range(6):
                assert loss_value(loss, theta, point(data, i), point(data, i)) == 0.0


class TestFullGradient:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for loss in (AUC, HINGE):
            for _ in range(20):
                data = random_dataset(5, 3, rng)
                theta = random_theta(loss, 3, rng)
                acc = np.zeros_like(theta)
                for i in range(5):
                    for j in range(5):
                        acc += loss_grad(loss, theta, point(data, i), point(data, j))
                assert np.allclose(full_gradient(theta, data, loss), acc / 25,
                                   atol=1e-12)


class TestExactPartialGradient:
    def test_single_class_auc_zero(self):
        data = Dataset(features=np.arange(8.0).reshape(4, 2),
                       labels=np.array([1, 1, 1, 1]))
        g = exact_partial_gradient(np.ones(2), 0, data, AUC)
        assert np.allclose(g, 0.0)

    def test_matches_loop(self):
        rng = np.random.default_rng(7)
        for loss in (AUC, HINGE):
            for _ in range(20):
                data = random_dataset(4, 3, rng)
                theta = random_theta(loss, 3, rng)
                for i in range(4):
                    acc = sum(loss_grad(loss, theta, point(data, i), point(data, j))
                              for j in range(4))
                    assert np.allclose(
                        exact_partial_gradient(theta, i, data, loss), acc / 4,
                        atol=1e-12)

    def test_index_bounds(self):
        rng = np.random.default_rng(8)
        data = random_dataset(4, 2, rng)
        with pytest.raises(IndexError):
            exact_partial_gradient(np.zeros(2), 4, data, AUC)


class TestPairGradients:
    @staticmethod
    def check_rows(loss, data, stack, own, partners):
        got = pair_gradients(loss, stack, data, own, partners)
        assert got.shape == stack.shape
        own = np.arange(data.n)[own]
        for r in range(len(stack)):
            expect = loss_grad(loss, stack[r], point(data, int(own[r])),
                               point(data, int(partners[r])))
            assert np.allclose(got[r], expect, atol=1e-12)

    def test_matches_per_node_calls(self):
        """Every node (the synchronous call), an endpoint pair (the
        asynchronous call) and one row whose own index is not its row number
        (the centralized stochastic call), against the scalar oracle; the
        hinge also at the paper's d = 40, with active and inactive rows."""
        rng = np.random.default_rng(9)
        for loss, d in ((AUC, 3), (HINGE, 3), (HINGE, 40)):
            data = random_dataset(9, d, rng)
            stack = np.stack([random_theta(loss, d, rng) / d for _ in range(9)])
            partners = rng.integers(9, size=9)
            self.check_rows(loss, data, stack, ALL_NODES, partners)
            ends = np.array([5, 2])
            self.check_rows(loss, data, stack[ends], ends, partners[:2])
            self.check_rows(loss, data, stack[:1], np.array([4]), np.array([1]))
            if d == 40:
                got = pair_gradients(loss, stack, data, ALL_NODES, partners)
                active = np.any(got != 0.0, axis=(1, 2))
                assert active.any() and not active.all()


class TestAucScore:
    def test_perfect_separator(self):
        rng = np.random.default_rng(10)
        data = gen_two_class_gaussians(20, 2, rng, separation=10.0)
        theta = data.features[data.labels == 1].mean(axis=0)
        assert auc_score(theta, data) == 1.0

    def test_zero_theta_all_ties(self):
        rng = np.random.default_rng(11)
        data = random_dataset(6, 2, rng)
        assert auc_score(np.zeros(2), data) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            data = random_dataset(6, 3, rng)
            theta = rng.standard_normal(3)
            s = data.features @ theta
            num = den = 0
            for i in range(6):
                for j in range(6):
                    if data.labels[i] > data.labels[j]:
                        den += 1
                        num += s[i] > s[j]
            assert auc_score(theta, data) == pytest.approx(num / den)

    def test_rejects_single_class(self):
        data = Dataset(features=np.ones((3, 2)), labels=np.array([1, 1, -1]))
        theta = np.zeros(2)
        auc_score(theta, data)
        bad = Dataset(features=np.arange(6.0).reshape(3, 2),
                      labels=np.array([1, 1, 1]))
        with pytest.raises(ValueError):
            auc_score(theta, bad)


class TestLipschitz:
    def test_auc_gradient_bounded(self):
        rng = np.random.default_rng(13)
        data = random_dataset(8, 3, rng)
        L = loss_lipschitz(AUC, data)
        for _ in range(300):
            theta = rng.standard_normal(3) * rng.uniform(0.1, 10)
            i, j = rng.integers(8, size=2)
            g = one_pair_gradient(AUC, theta, data, i, j)
            assert np.linalg.norm(g) <= L + 1e-12

    def test_hinge_gradient_bounded(self):
        rng = np.random.default_rng(14)
        data = random_dataset(8, 3, rng)
        L = loss_lipschitz(HINGE, data)
        for _ in range(300):
            theta = random_theta(HINGE, 3, rng)
            i, j = rng.integers(8, size=2)
            g = one_pair_gradient(HINGE, theta, data, i, j)
            assert np.linalg.norm(g) <= L + 1e-12
