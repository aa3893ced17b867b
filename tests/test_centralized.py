import numpy as np
import pytest

from pairgossip.centralized import run_centralized, solve_reference
from pairgossip.datasets import gen_two_class_gaussians
from pairgossip.losses import Dataset, PairwiseLoss, full_objective, loss_lipschitz
from pairgossip.regularizers import Regularizer, StepSchedule, smoothing_op, step_gamma

from oracles import deterministic_gap_bound

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
        trace = run_centralized("deterministic", data, AUC, ZERO, sched, 1,
                                checkpoints=[1])
        from pairgossip.losses import full_gradient
        g1 = full_gradient(np.zeros(3), data, AUC)
        expect = smoothing_op(ZERO, -g1, 1, step_gamma(sched, 1))
        assert np.allclose(trace[0].theta_bar, expect, atol=1e-12)

    def test_running_average_matches_explicit_sum(self):
        data = toy_data()
        sched = StepSchedule("inv_sqrt", c=0.5)
        # rebuild the iterates by hand and compare the T-th average
        from pairgossip.losses import full_gradient
        z = np.zeros(3)
        theta = np.zeros(3)
        thetas = []
        T = 40
        for t in range(1, T + 1):
            z = z + full_gradient(theta, data, AUC)
            theta = smoothing_op(ZERO, -z, t, step_gamma(sched, t))
            thetas.append(theta)
        trace = run_centralized("deterministic", data, AUC, ZERO, sched, T,
                                checkpoints=[T])
        assert np.allclose(trace[-1].theta_bar, np.mean(thetas, axis=0),
                           atol=1e-10)

    def test_stochastic_determinism(self):
        data = toy_data()
        sched = StepSchedule("inv_sqrt", c=1.0)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            trace = run_centralized("stochastic", data, AUC, ZERO, sched, 200,
                                    rng=rng, checkpoints=[50, 200])
            runs.append(trace)
        for a, b in zip(*runs):
            assert np.array_equal(a.theta_bar, b.theta_bar)
            assert a.objective == b.objective

    def test_stochastic_needs_rng(self):
        with pytest.raises(ValueError):
            run_centralized("stochastic", toy_data(), AUC, ZERO,
                            StepSchedule("inv_sqrt"), 5)

    def test_deterministic_bound_all_checkpoints(self):
        data = toy_data(n=12, d=3, separation=0.5)
        theta_star, r_star = solve_reference(data, AUC, ZERO)
        sched = StepSchedule("inv_sqrt", c=1.0)
        marks = [2, 5, 10, 50, 200, 1000]
        trace = run_centralized("deterministic", data, AUC, ZERO, sched, 1000,
                                checkpoints=marks)
        L = loss_lipschitz(AUC, data)
        for cp in trace:
            bound = deterministic_gap_bound(float(np.linalg.norm(theta_star)),
                                            L, sched, cp.t)
            assert cp.objective - r_star <= bound + 1e-8

    def test_bounded_domain_schedule_rate(self):
        data = toy_data(n=12, d=3, separation=0.5)
        theta_star, r_star = solve_reference(data, AUC, ZERO)
        L = loss_lipschitz(AUC, data)
        D = 2.0 * float(np.linalg.norm(theta_star)) + 1.0
        sched = StepSchedule("bounded_domain", D=D, L_f=L)
        T = 2000
        trace = run_centralized("deterministic", data, AUC, ZERO, sched, T,
                                checkpoints=[T])
        assert trace[-1].objective - r_star <= np.sqrt(2.0) * D * L / np.sqrt(T) + 1e-8


class TestSolveReference:
    def test_single_class_regularized_auc(self):
        data = Dataset(features=np.arange(8.0).reshape(4, 2),
                       labels=np.array([1, 1, 1, 1]))
        reg = Regularizer("squared_l2", lam=0.3)
        theta, obj = solve_reference(data, AUC, reg)
        assert np.allclose(theta, 0.0, atol=1e-6)
        assert obj == pytest.approx(0.0, abs=1e-10)

    def test_one_dim_quadratic_analogue(self):
        # logistic-pair objective in 1-d with symmetric data: by symmetry the
        # optimum is where the objective's derivative vanishes; cross-check
        # against a dense grid scan
        rng = np.random.default_rng(1)
        data = gen_two_class_gaussians(10, 1, rng, separation=0.3)
        theta, obj = solve_reference(data, AUC, ZERO)
        grid = np.linspace(theta[0] - 1.0, theta[0] + 1.0, 2001)
        vals = [full_objective(np.array([g]), data, AUC, ZERO) for g in grid]
        assert obj <= min(vals) + 1e-8

    def test_hinge_all_inactive_at_zero(self):
        feats = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        labels = np.array([1, 1, 1, 1])
        data = Dataset(features=feats, labels=labels)
        hinge = PairwiseLoss("metric_hinge", b=1.0)
        theta, obj = solve_reference(data, hinge, Regularizer("psd_indicator"))
        assert obj == pytest.approx(0.0, abs=1e-10)

    def test_iteration_cap_raises(self):
        data = toy_data(n=10, d=2, separation=0.4)
        with pytest.raises(RuntimeError):
            solve_reference(data, AUC, ZERO, tolerance=1e-300, max_iter=5)
