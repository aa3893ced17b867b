import math

import numpy as np
import pytest
from scipy.optimize import minimize

from pairgossip.regularizers import (Regularizer, StepSchedule, project_psd,
                                     prox_psi, psi_value, smoothing_many,
                                     smoothing_op, step_gamma)

from oracles import lagged_gamma, smoothing_objective

VECTOR_KINDS = [Regularizer("zero"), Regularizer("squared_l2", lam=0.7),
                Regularizer("l1", lam=0.3)]
ALL_KINDS = VECTOR_KINDS + [Regularizer("psd_indicator")]


def random_param(reg, rng, d=4):
    if reg.kind == "psd_indicator":
        m = rng.standard_normal((d, d))
        return 0.5 * (m + m.T)
    return rng.standard_normal(d)


class TestPsiValue:
    def test_zero_at_origin_all_kinds(self):
        for reg in VECTOR_KINDS:
            assert psi_value(reg, np.zeros(3)) == 0.0
        assert psi_value(Regularizer("psd_indicator"), np.zeros((3, 3))) == 0.0

    def test_squared_l2(self):
        assert psi_value(Regularizer("squared_l2", lam=1.0), np.zeros(4)) == 0.0
        assert psi_value(Regularizer("squared_l2", lam=2.0),
                         np.array([1.0, -2.0])) == pytest.approx(10.0)

    def test_l1(self):
        assert psi_value(Regularizer("l1", lam=2.0),
                         np.array([1.0, -3.0])) == pytest.approx(8.0)

    def test_psd_infeasible_sentinel(self):
        v = psi_value(Regularizer("psd_indicator"), np.diag([1.0, -1.0]))
        assert v == math.inf

    def test_psd_shape_check(self):
        with pytest.raises(ValueError):
            psi_value(Regularizer("psd_indicator"), np.ones(3))

    def test_nonnegative_and_convex(self):
        rng = np.random.default_rng(0)
        for reg in VECTOR_KINDS:
            for _ in range(200):
                a, b = rng.standard_normal((2, 5))
                t = rng.random()
                va, vb = psi_value(reg, a), psi_value(reg, b)
                assert va >= 0.0
                assert psi_value(reg, t * a + (1 - t) * b) <= t * va + (1 - t) * vb + 1e-9


class TestSmoothingOp:
    def test_zero_kind_scales(self):
        z = np.array([1.0, -2.0, 3.0])
        assert np.allclose(smoothing_op(Regularizer("zero"), z, 7, 0.5), 0.5 * z)

    def test_l1_closed_form_example(self):
        z = np.array([5.0, 0.5, -3.0])
        out = smoothing_op(Regularizer("l1", lam=1.0), z, 2, 0.1)
        assert np.allclose(out, [0.3, 0.0, -0.1], atol=1e-12)

    def test_psd_diag_example(self):
        out = smoothing_op(Regularizer("psd_indicator"), np.diag([2.0, -4.0]), 3, 0.5)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_against_numeric_minimizer(self):
        # the closed forms must agree with a generic numerical minimizer of
        # the defining objective
        rng = np.random.default_rng(1)
        for reg in VECTOR_KINDS:
            for _ in range(5):
                z = rng.standard_normal(3)
                t, g = float(rng.integers(1, 9)), float(rng.uniform(0.05, 1.0))
                res = minimize(lambda th: smoothing_objective(reg, z, t, g, th),
                               np.zeros(3), method="Nelder-Mead",
                               options={"xatol": 1e-10, "fatol": 1e-12,
                                        "maxiter": 20000})
                assert np.allclose(smoothing_op(reg, z, t, g), res.x, atol=1e-5)

    def test_optimality_certificate(self):
        rng = np.random.default_rng(2)
        for reg in ALL_KINDS:
            for _ in range(100):
                z = random_param(reg, rng)
                t, g = float(rng.integers(1, 20)), float(rng.uniform(0.01, 2.0))
                theta = smoothing_op(reg, z, t, g)
                base = smoothing_objective(reg, z, t, g, theta)
                for _ in range(5):
                    pert = random_param(reg, rng) * 0.3
                    other = theta + pert
                    if reg.kind == "psd_indicator":
                        other = project_psd(other)
                    assert base <= smoothing_objective(reg, z, t, g, other) + 1e-9

    def test_lipschitz_in_z(self):
        rng = np.random.default_rng(3)
        for reg in ALL_KINDS:
            for _ in range(250):
                z1, z2 = random_param(reg, rng), random_param(reg, rng)
                t, g = float(rng.integers(1, 30)), float(rng.uniform(0.01, 2.0))
                d_out = np.linalg.norm(smoothing_op(reg, z1, t, g)
                                       - smoothing_op(reg, z2, t, g))
                assert d_out <= g * np.linalg.norm(z1 - z2) + 1e-10

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(4)
        reg = Regularizer("psd_indicator")
        for _ in range(50):
            z = random_param(reg, rng)
            out = smoothing_op(reg, z, 5, 0.3)
            assert np.max(np.abs(out - out.T)) < 1e-12

    def test_rejects_bad_time_and_gamma(self):
        with pytest.raises(ValueError):
            smoothing_op(Regularizer("zero"), np.ones(2), 0, 0.5)
        with pytest.raises(ValueError):
            smoothing_op(Regularizer("zero"), np.ones(2), 2, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            prox_psi(Regularizer("zero"), np.array([np.inf]), 1.0)

    def test_smoothing_many_matches_rowwise(self):
        rng = np.random.default_rng(5)
        for reg in ALL_KINDS:
            stack = np.stack([random_param(reg, rng) for _ in range(6)])
            many = smoothing_many(reg, stack, 4, 0.2)
            for k in range(6):
                assert np.allclose(many[k], smoothing_op(reg, stack[k], 4, 0.2),
                                   atol=1e-12)


class TestLemma6DistanceBound:
    def test_bound_holds(self):
        rng = np.random.default_rng(6)
        sched = StepSchedule("inv_sqrt", c=1.0)
        for reg in ALL_KINDS:
            for _ in range(250):
                z = random_param(reg, rng) * rng.uniform(0.5, 5.0)
                t1 = float(rng.uniform(1.0, 50.0))
                t2 = float(rng.uniform(1.0, 50.0))
                g1, g2 = step_gamma(sched, t1), step_gamma(sched, t2)
                lhs = np.linalg.norm(smoothing_op(reg, z, t2, g2)
                                     - smoothing_op(reg, z, t1, g1))
                ratio = max(g1 / g2, g2 / g1)
                rhs = np.linalg.norm(z) * (abs(g2 - g1)
                                           + (1.5 + ratio) * (1 / t1 + 1 / t2)
                                           * abs(t1 * g1 - t2 * g2))
                assert lhs <= rhs + 1e-10


class TestLemma3Inequality:
    def test_random_sequences(self):
        # dual-averaging regret identity: theta(t) = Pi_t(-sum_{s<=t} u(s))
        # with gamma(0) = 0 read literally for the t=1 step weight
        rng = np.random.default_rng(7)
        sched = StepSchedule("inv_sqrt", c=0.8)
        for reg in ALL_KINDS:
            for _ in range(40):
                T = int(rng.integers(2, 51))
                d = 3
                us = [random_param(reg, rng) * 0.5 for _ in range(T)]
                theta_ref = random_param(reg, rng)
                if reg.kind == "psd_indicator":
                    theta_ref = project_psd(theta_ref)
                z = np.zeros_like(us[0])
                thetas = []
                for t in range(1, T + 1):
                    thetas.append(smoothing_op(reg, -z, t, step_gamma(sched, t)))
                    z = z + us[t - 1]
                lhs = 0.0
                rhs = 0.0
                for t in range(1, T + 1):
                    th = thetas[t - 1]
                    lhs += float(np.sum(us[t - 1] * (th - theta_ref)))
                    lhs += psi_value(reg, th) - psi_value(reg, theta_ref)
                    gamma_prev = 0.0 if t == 1 else step_gamma(sched, t - 1)
                    rhs += gamma_prev * float(np.sum(us[t - 1] ** 2)) / 2.0
                rhs += float(np.sum(theta_ref ** 2)) / (2.0 * step_gamma(sched, T))
                assert lhs / T <= rhs / T + 1e-9


class TestStepSchedules:
    def test_inv_sqrt(self):
        assert step_gamma(StepSchedule("inv_sqrt", c=1.0), 4) == pytest.approx(0.5)

    def test_poly(self):
        assert step_gamma(StepSchedule("poly", c=1.0, alpha=0.25), 16) == pytest.approx(0.125)

    def test_bounded_domain(self):
        s = StepSchedule("bounded_domain", D=1.0, L_f=2.0)
        assert step_gamma(s, 2) == pytest.approx(0.25)

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(8)
        scheds = [StepSchedule("inv_sqrt", c=2.0),
                  StepSchedule("poly", c=1.5, alpha=0.1),
                  StepSchedule("bounded_domain", D=3.0, L_f=0.5)]
        for s in scheds:
            ts = np.sort(rng.uniform(1, 1000, size=50))
            vals = [step_gamma(s, t) for t in ts]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert all(v > 0 for v in vals)

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            step_gamma(StepSchedule("inv_sqrt"), 0.5)

    def test_lagged_gamma_clamps(self):
        s = StepSchedule("inv_sqrt", c=1.0)
        assert lagged_gamma(s, 1) == step_gamma(s, 1)
        assert lagged_gamma(s, 5) == step_gamma(s, 4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StepSchedule("poly", c=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            StepSchedule("inv_sqrt", c=0.0)
        with pytest.raises(ValueError):
            Regularizer("l1", lam=0.0)
        with pytest.raises(ValueError):
            Regularizer("huber")
