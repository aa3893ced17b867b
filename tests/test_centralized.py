import numpy as np
import pytest

from pairgossip import centralized
from pairgossip.centralized import deterministic_step, solve_reference, stochastic_step
from pairgossip.datasets import gen_two_class_gaussians
from pairgossip.harness import build_dataset
from pairgossip.losses import (Dataset, PairwiseLoss, full_gradient, full_objective,
                               loss_lipschitz)
from pairgossip.regularizers import (Regularizer, StepSchedule, prox_psi, smoothing_op,
                                     step_gamma)

from oracles import centralized_iterates, deterministic_gap_bound

AUC = PairwiseLoss("auc_logistic")
ZERO = Regularizer("zero")


def toy_data(n=12, d=3, seed=0, separation=0.6):
    rng = np.random.default_rng(seed)
    return gen_two_class_gaussians(n, d, rng, separation=separation)


class TestRunCentralized:
    def test_first_deterministic_iterate(self):
        # z(0) = 0 so theta(1) = Pi_1(0) = 0 is impossible: the step first
        # accumulates g(1) evaluated at theta = 0, then projects.
        data = toy_data()
        sched = StepSchedule("inv_sqrt", c=1.0)
        [(_, theta_bar, _)] = centralized_iterates(deterministic_step, data,
                                                   AUC, ZERO, sched, [1])
        g1 = full_gradient(np.zeros(3), data, AUC)
        expect = smoothing_op(ZERO, -g1, 1, step_gamma(sched, 1))
        assert np.allclose(theta_bar, expect, atol=1e-12)

    def test_running_average_matches_explicit_sum(self):
        data = toy_data()
        sched = StepSchedule("inv_sqrt", c=0.5)
        # rebuild the iterates by hand and compare the T-th average
        z = np.zeros(3)
        theta = np.zeros(3)
        thetas = []
        T = 40
        for t in range(1, T + 1):
            z = z + full_gradient(theta, data, AUC)
            theta = smoothing_op(ZERO, -z, t, step_gamma(sched, t))
            thetas.append(theta)
        [(_, theta_bar, _)] = centralized_iterates(deterministic_step, data,
                                                   AUC, ZERO, sched, [T])
        assert np.allclose(theta_bar, np.mean(thetas, axis=0), atol=1e-10)

    def test_stochastic_determinism(self):
        data = toy_data()
        sched = StepSchedule("inv_sqrt", c=1.0)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            runs.append(centralized_iterates(stochastic_step, data, AUC, ZERO,
                                             sched, [50, 200], rng=rng))
        for (ta, theta_a, obj_a), (tb, theta_b, obj_b) in zip(*runs):
            assert ta == tb
            assert np.array_equal(theta_a, theta_b)
            assert obj_a == obj_b

    def test_deterministic_bound_all_checkpoints(self):
        data = toy_data(n=12, d=3, separation=0.5)
        ref = solve_reference(data, AUC, ZERO)
        theta_star, r_star = ref.theta, ref.value
        sched = StepSchedule("inv_sqrt", c=1.0)
        marks = [2, 5, 10, 50, 200, 1000]
        trace = centralized_iterates(deterministic_step, data, AUC, ZERO, sched,
                                     marks)
        L = loss_lipschitz(AUC, data)
        for t, _, objective in trace:
            bound = deterministic_gap_bound(float(np.linalg.norm(theta_star)),
                                            L, sched, t)
            assert objective - r_star <= bound + 1e-8

    def test_bounded_domain_schedule_rate(self):
        data = toy_data(n=12, d=3, separation=0.5)
        ref = solve_reference(data, AUC, ZERO)
        theta_star, r_star = ref.theta, ref.value
        L = loss_lipschitz(AUC, data)
        D = 2.0 * float(np.linalg.norm(theta_star)) + 1.0
        sched = StepSchedule("inv_sqrt", c=D / (L * np.sqrt(2.0)))
        T = 2000
        [(_, _, objective)] = centralized_iterates(deterministic_step, data, AUC,
                                                   ZERO, sched, [T])
        assert objective - r_star <= np.sqrt(2.0) * D * L / np.sqrt(T) + 1e-8


class TestSolveReference:
    def test_single_class_regularized_auc(self):
        data = Dataset(features=np.arange(8.0).reshape(4, 2),
                       labels=np.array([1, 1, 1, 1]))
        reg = Regularizer("squared_l2", lam=0.3)
        ref = solve_reference(data, AUC, reg)
        theta, obj = ref.theta, ref.value
        assert np.allclose(theta, 0.0, atol=1e-6)
        assert obj == pytest.approx(0.0, abs=1e-10)

    def test_one_dim_quadratic_analogue(self):
        # logistic-pair objective in 1-d with symmetric data: by symmetry the
        # optimum is where the objective's derivative vanishes; cross-check
        # against a dense grid scan
        rng = np.random.default_rng(1)
        data = gen_two_class_gaussians(10, 1, rng, separation=0.3)
        ref = solve_reference(data, AUC, ZERO)
        theta, obj = ref.theta, ref.value
        grid = np.linspace(theta[0] - 1.0, theta[0] + 1.0, 2001)
        vals = [full_objective(np.array([g]), data, AUC, ZERO) for g in grid]
        assert obj <= min(vals) + 1e-8

    def test_hinge_all_inactive_at_zero(self):
        feats = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        labels = np.array([1, 1, 1, 1])
        data = Dataset(features=feats, labels=labels)
        hinge = PairwiseLoss("metric_hinge", b=1.0)
        obj = solve_reference(data, hinge, Regularizer("psd_indicator")).value
        assert obj == pytest.approx(0.0, abs=1e-10)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(centralized, "REFERENCE_MAX_ITER", 2)
        data = toy_data(n=10, d=2, separation=0.4)
        with pytest.raises(RuntimeError):
            solve_reference(data, AUC, ZERO)

    @pytest.mark.parametrize("seed", [0, 1606])
    @pytest.mark.parametrize("reg", [Regularizer("squared_l2", lam=0.01),
                                     Regularizer("l1", lam=0.01)])
    def test_certificate_holds_at_theta_star(self, seed, reg):
        # the solve stops on the mapping at the extrapolated point; recompute
        # it at the returned theta* with a fresh gradient
        data = build_dataset({"kind": "toy_auc", "n": 699, "d": 11,
                              "separation": 1.0}, seed)
        ref = solve_reference(data, AUC, reg)
        theta, step = ref.theta, ref.step
        mapping = np.linalg.norm(
            theta - prox_psi(reg, theta - step * full_gradient(theta, data, AUC), step)) / step
        scale = 1.0 + np.linalg.norm(theta)
        assert ref.mapping_norm * scale <= ref.tolerance
        assert mapping * scale <= 2.0 * ref.tolerance
        assert ref.value == full_objective(theta, data, AUC, reg)

    @pytest.mark.parametrize("seed", [0, 1, 2, 11])
    def test_separable_harness_data_stays_cheap(self, seed, monkeypatch):
        # the harness tests' data are separable, so R_n has no finite
        # minimizer; the solve must still stop after few gradients
        calls = []
        gradient = centralized.full_gradient
        monkeypatch.setattr(centralized, "full_gradient",
                            lambda *a: calls.append(1) or gradient(*a))
        data = build_dataset({"kind": "toy_auc", "n": 8, "d": 2,
                              "separation": 0.8}, seed)
        ref = solve_reference(data, AUC, ZERO)
        assert ref.gradients == len(calls) <= 500

