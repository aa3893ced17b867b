import math

import numpy as np
import pytest

from pairgossip.analysis import (ASYNC_COLUMNS, SYNC_COLUMNS, BoundInputs,
                                 TraceRecord, bias_sample, bound_constants,
                                 dual_disagreement, make_record,
                                 objective_per_node, read_trace, write_trace)
from pairgossip import losses
from pairgossip.datasets import gen_two_class_gaussians
from pairgossip.losses import Dataset, PairwiseLoss, full_objective, mean_partial_gradient
from pairgossip.regularizers import (Regularizer, StepSchedule, psi_value,
                                     smoothing_op, step_gamma)

from oracles import exact_partial_gradient, loss_grad, loss_value, point

AUC = PairwiseLoss("auc_logistic")
HINGE = PairwiseLoss("metric_hinge", b=1.0)
ZERO = Regularizer("zero")
L2 = Regularizer("squared_l2", lam=0.1)
SQRT = StepSchedule("inv_sqrt", c=1.0)


@pytest.fixture(params=[None, 8, 30], ids=["default_chunks", "chunk8", "chunk30"])
def chunk(request, monkeypatch):
    """Runs a test with the kernels' default temporaries, then with chunks of
    8 and 30 elements, so that several row chunks (a short last one among
    them) and hinge blocks occur."""
    if request.param is not None:
        monkeypatch.setattr(losses, "_CHUNK", request.param)


def labelled_data(n, n_pos, d, rng):
    labels = rng.permutation(np.array([1] * n_pos + [-1] * (n - n_pos)))
    return Dataset(features=rng.standard_normal((n, d)), labels=labels)


def random_rows(loss, d, scales, rng):
    shape = (d,) if loss.param_ndim == 1 else (d, d)
    return np.stack([s * rng.standard_normal(shape) for s in scales])


def pair_loop_objectives(stack, data, loss, reg):
    """R_n at each row, by a double loop over the oracle pair loss."""
    n = data.n
    return np.array([sum(loss_value(loss, th, point(data, i), point(data, j))
                         for i in range(n) for j in range(n)) / n ** 2
                     + psi_value(reg, th) for th in stack])


class TestDualDisagreement:
    def test_all_equal_is_zero(self):
        z = np.tile(np.array([1.0, 2.0]), (5, 1))
        assert dual_disagreement(z) == 0.0

    def test_two_node_antisymmetric(self):
        v = np.array([3.0, 4.0])
        z = np.stack([v, -v])
        assert dual_disagreement(z) == pytest.approx(5.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal((6, 3))
            zbar = z.mean(axis=0)
            expect = np.mean([np.linalg.norm(z[k] - zbar) for k in range(6)])
            assert dual_disagreement(z) == pytest.approx(expect, abs=1e-12)

    def test_matrix_parameters(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 3, 3))
        zbar = z.mean(axis=0)
        expect = np.mean([np.linalg.norm(z[k] - zbar) for k in range(4)])
        assert dual_disagreement(z) == pytest.approx(expect, abs=1e-12)


class TestBoundConstants:
    def test_t2_closed_form(self):
        # with T=2 the gamma sums have a single term gamma(1)
        sched = StepSchedule("inv_sqrt", c=0.5)
        g1, g2 = step_gamma(sched, 1), step_gamma(sched, 2)
        b = BoundInputs(theta_star_norm=2.0, L_f=3.0, sched=sched, T=2,
                        spectral_gap=0.25)
        c1, c2 = bound_constants(b)
        assert c1 == pytest.approx(4.0 / (4 * g2) + 9.0 * g1 / 4)
        lam2 = 0.75
        assert c2 == pytest.approx(3 * 9.0 * g1 / (2 * (1 - math.sqrt(lam2))))

    def test_lf_homogeneity(self):
        sched = StepSchedule("inv_sqrt", c=1.0)
        base = BoundInputs(theta_star_norm=1.0, L_f=1.0, sched=sched, T=50,
                           spectral_gap=0.1)
        doubled = BoundInputs(theta_star_norm=1.0, L_f=2.0, sched=sched, T=50,
                              spectral_gap=0.1)
        c1a, c2a = bound_constants(base)
        c1b, c2b = bound_constants(doubled)
        theta_term = 1.0 / (2 * 50 * step_gamma(sched, 50))
        assert c1b - theta_term == pytest.approx(4 * (c1a - theta_term))
        assert c2b == pytest.approx(4 * c2a)

    def test_validation(self):
        sched = StepSchedule("inv_sqrt", c=1.0)
        with pytest.raises(ValueError):
            BoundInputs(theta_star_norm=1.0, L_f=1.0, sched=sched, T=10,
                        spectral_gap=0.0)
        with pytest.raises(ValueError):
            bound_constants(BoundInputs(theta_star_norm=1.0, L_f=1.0,
                                        sched=sched, T=1, spectral_gap=0.5))


class TestBiasSample:
    def test_identical_data_zero_bias(self):
        feats = np.tile(np.array([[1.0, -1.0]]), (4, 1))
        data = Dataset(features=feats, labels=np.array([1, 1, 1, 1]))
        thetas = np.zeros((4, 2))
        # every applied direction equals grad f(theta; x, x) = 0 = exact
        applied = np.stack([loss_grad(AUC, thetas[k], point(data, k), point(data, k))
                            for k in range(4)])
        bias, centered = bias_sample(thetas, applied, np.ones(2), data, AUC,
                                     ZERO, SQRT, 3, np.zeros(2))
        assert bias == pytest.approx(0.0, abs=1e-12)
        assert centered == pytest.approx(0.0, abs=1e-12)

    def test_centered_vanishes_when_omega_equals_theta_star(self):
        rng = np.random.default_rng(2)
        data = gen_two_class_gaussians(5, 2, rng, separation=0.5)
        thetas = rng.standard_normal((5, 2))
        applied = rng.standard_normal((5, 2))
        zbar = rng.standard_normal(2)
        omega = smoothing_op(ZERO, -zbar, 4, step_gamma(SQRT, 4))
        bias, centered = bias_sample(thetas, applied, zbar, data, AUC, ZERO,
                                     SQRT, 4, omega)
        assert centered == pytest.approx(0.0, abs=1e-12)

    def test_n2_direct_evaluation(self):
        rng = np.random.default_rng(3)
        data = gen_two_class_gaussians(2, 2, rng, separation=1.0)
        thetas = np.zeros((2, 2))
        applied = np.stack([loss_grad(AUC, thetas[k], point(data, k),
                                      point(data, 1 - k)) for k in range(2)])
        zbar = applied.mean(axis=0)
        bias, _ = bias_sample(thetas, applied, zbar, data, AUC, ZERO, SQRT,
                              1, None)
        eps = np.mean([applied[k] - exact_partial_gradient(thetas[k], k, data, AUC)
                       for k in range(2)], axis=0)
        omega = smoothing_op(ZERO, -zbar, 1, step_gamma(SQRT, 1))
        assert bias == pytest.approx(float(eps @ omega), abs=1e-12)

    def test_nan_centered_without_theta_star(self):
        rng = np.random.default_rng(4)
        data = gen_two_class_gaussians(3, 2, rng)
        bias, centered = bias_sample(np.zeros((3, 2)), np.zeros((3, 2)),
                                     np.zeros(2), data, AUC, ZERO, SQRT, 2, None)
        assert math.isnan(centered)


class TestBatchedBiasOracle:
    @pytest.mark.parametrize("loss", [AUC, HINGE], ids=["auc", "hinge"])
    @pytest.mark.parametrize("n,n_pos", [(9, 2), (9, 6), (6, 3), (4, 4), (2, 1)])
    def test_matches_per_node_loop(self, loss, n, n_pos, chunk):
        rng = np.random.default_rng(100 * n + n_pos)
        data = labelled_data(n, n_pos, 3, rng)
        thetas = random_rows(loss, 3, np.ones(n), rng)
        want = np.mean([exact_partial_gradient(thetas[k], k, data, loss)
                        for k in range(n)], axis=0)
        got = mean_partial_gradient(thetas, data, loss)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


class TestObjectivePerNodeOracle:
    """objective_per_node against a pair loop over the oracle loss."""

    @pytest.mark.parametrize("loss", [AUC, HINGE], ids=["auc", "hinge"])
    def test_repeated_and_negative_zero_rows(self, loss, chunk):
        rng = np.random.default_rng(20)
        data = labelled_data(7, 3, 2, rng)
        a, b = random_rows(loss, 2, [0.3, 0.3], rng)
        zero = np.zeros_like(a)
        stack = np.stack([a, zero, b, a, -zero, b, zero, -a])
        got = objective_per_node(stack, data, loss, L2)
        np.testing.assert_allclose(got, pair_loop_objectives(stack, data, loss, L2),
                                   rtol=1e-12)
        assert got[0] == got[3] and got[1] == got[4] == got[6]

    @pytest.mark.parametrize("loss", [AUC, HINGE], ids=["auc", "hinge"])
    def test_rows_inside_and_outside_the_safe_score_range(self, loss, chunk):
        rng = np.random.default_rng(21)
        data = labelled_data(8, 4, 2, rng)
        data = Dataset(features=np.column_stack([data.features, np.ones(8)]),
                       labels=data.labels)
        stack = random_rows(loss, 3, [0.3, 30, 300, 0.3, 300, 30], rng)
        if loss is AUC:
            # every score near 400, outside the safe range, while each pair
            # term is near log 2
            stack[3] = [0.1, -0.1, 400.0]
            peak = np.abs(stack @ data.features.T).max(axis=1)
            assert (peak < losses._SAFE_SCORE).any()
            assert (peak >= losses._SAFE_SCORE).any()
        got = objective_per_node(stack, data, loss, L2)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, pair_loop_objectives(stack, data, loss, L2),
                                   rtol=1e-12)

    @pytest.mark.parametrize("loss", [AUC, HINGE], ids=["auc", "hinge"])
    @pytest.mark.parametrize("n,n_pos", [(5, 5), (2, 1), (9, 2)],
                             ids=["single_class", "n2", "odd_unbalanced"])
    def test_small_and_unbalanced_datasets(self, loss, n, n_pos, chunk):
        rng = np.random.default_rng(22 + n)
        data = labelled_data(n, n_pos, 3, rng)
        stack = random_rows(loss, 3, np.full(n, 0.5), rng)
        got = objective_per_node(stack, data, loss, L2)
        np.testing.assert_allclose(got, pair_loop_objectives(stack, data, loss, L2),
                                   rtol=1e-12)
        rec = make_record(1, stack, stack, data, loss, L2, r_star=None)
        assert rec.obj_max == got.max()


class TestObjectivePerNode:
    def test_matches_full_objective(self):
        rng = np.random.default_rng(5)
        data = gen_two_class_gaussians(6, 3, rng)
        stack = rng.standard_normal((6, 3))
        got = objective_per_node(stack, data, AUC, ZERO)
        for k in range(6):
            assert got[k] == pytest.approx(
                full_objective(stack[k], data, AUC, ZERO), rel=1e-12)

    def test_hinge_path(self):
        rng = np.random.default_rng(6)
        data = gen_two_class_gaussians(5, 2, rng)
        hinge = PairwiseLoss("metric_hinge", b=1.0)
        stack = rng.standard_normal((5, 2, 2))
        stack = 0.5 * (stack + stack.transpose(0, 2, 1))
        got = objective_per_node(stack, data, hinge, ZERO)
        for k in range(5):
            assert got[k] == pytest.approx(
                full_objective(stack[k], data, hinge, ZERO), rel=1e-12)


class TestTraceIO:
    def _record(self, t, **kw):
        base = dict(t=t, obj_mean=0.5, obj_std=0.1, obj_max=0.7,
                    gap_mean=0.2, bias_term=1e-3, bias_term_centered=-1e-3,
                    dual_disagreement=0.05)
        base.update(kw)
        return TraceRecord(**base)

    def test_sync_roundtrip(self, tmp_path):
        recs = [self._record(0), self._record(10, obj_mean=0.25)]
        path = tmp_path / "trace.csv"
        write_trace(recs, path)
        rows = read_trace(path)
        assert rows[0]["t"] == 0 and rows[1]["obj_mean"] == 0.25
        header = path.read_text().splitlines()[0]
        assert header == ",".join(SYNC_COLUMNS)

    def test_async_columns(self, tmp_path):
        recs = [self._record(0, m_min=0.0, m_max=0.0, m_mean=0.0)]
        path = tmp_path / "trace.csv"
        write_trace(recs, path)
        assert path.read_text().splitlines()[0] == ",".join(ASYNC_COLUMNS)

    def test_failed_write_leaves_no_file(self, tmp_path):
        class Unprintable(float):
            def __repr__(self):
                raise RuntimeError("disk full")

        recs = [self._record(0), self._record(10, obj_mean=Unprintable(0.25))]
        with pytest.raises(RuntimeError, match="disk full"):
            write_trace(recs, tmp_path / "trace.csv")
        assert list(tmp_path.iterdir()) == []
        # an earlier trace survives a failed rewrite intact
        write_trace(recs[:1], tmp_path / "trace.csv")
        before = (tmp_path / "trace.csv").read_bytes()
        with pytest.raises(RuntimeError):
            write_trace(recs, tmp_path / "trace.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]
        assert (tmp_path / "trace.csv").read_bytes() == before

    def test_unix_newlines_and_full_precision(self, tmp_path):
        recs = [self._record(1, obj_mean=1 / 3)]
        path = tmp_path / "trace.csv"
        write_trace(recs, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert read_trace(path)[0]["obj_mean"] == 1 / 3

    def test_make_record_stats(self):
        rng = np.random.default_rng(7)
        data = gen_two_class_gaussians(5, 2, rng)
        thetas = rng.standard_normal((5, 2))
        z = rng.standard_normal((5, 2))
        rec = make_record(3, thetas, z, data, AUC, ZERO, r_star=0.1)
        objs = objective_per_node(thetas, data, AUC, ZERO)
        assert rec.obj_max == pytest.approx(objs.max())
        assert rec.obj_mean == pytest.approx(objs.mean())
        assert rec.obj_max >= rec.obj_mean
        assert rec.obj_std >= 0.0
        assert rec.gap_mean == pytest.approx(objs.mean() - 0.1)
