"""The gossip engine against recorded traces and the shared bias oracle.

The expected records were produced by the separate synchronous,
asynchronous and centralized runners that the engine replaced.  The engine
keeps every RNG draw but not every floating-point order, so the records are
compared at a relative 1e-12: the checkpoint objective sums in another order,
and since all policies share one pair-gradient kernel and one dual-averaging
update, the asynchronous and centralized-stochastic steps round differently
(the AUC score is an einsum, not a dot product; the asynchronous running
average adds theta / (m p), not (1 / (m p)) theta).
"""

import math
import warnings

import numpy as np
import pytest

from pairgossip import async_gossip, sync_gossip
from pairgossip.analysis import bias_sample
from pairgossip.async_gossip import AsyncRunConfig, async_step, run_async
from pairgossip.centralized import deterministic_step, run_centralized, stochastic_step
from pairgossip.graphs import Graph, activation_probabilities
from pairgossip.losses import Dataset, PairwiseLoss, param_shape
from pairgossip.regularizers import Regularizer, StepSchedule
from pairgossip.sync_gossip import (BASELINE, EDGE, EngineConfig, GossipState,
                                    SyncRunConfig, run_sync, stream_rng)

INV_SQRT = StepSchedule("inv_sqrt", c=1.0)
POLY = StepSchedule("poly", c=1.0, alpha=0.25)

# Final records at T = 300; theta_star and r_star are arbitrary constants
# that only enter the centered bias term and the gap.
RECORDED = {
    ("sync", "gossip"): dict(
        t=300, obj_mean=0.1720026798352146, obj_std=0.0008202083626911693,
        obj_max=0.17397481934195014, gap_mean=-0.12799732016478538,
        bias_term=0.005480660035231345, bias_term_centered=0.005517345124437004,
        dual_disagreement=1.2089953187946227, m_min=None, m_max=None, m_mean=None),
    ("sync", "unbiased_baseline"): dict(
        t=300, obj_mean=0.17221040137913862, obj_std=0.0010361361542544467,
        obj_max=0.1745094395151166, gap_mean=-0.12778959862086137,
        bias_term=0.0016319899190137066, bias_term_centered=-0.05628655598609044,
        dual_disagreement=2.5950230943991466, m_min=None, m_max=None, m_mean=None),
    ("async", "gossip"): dict(
        t=300, obj_mean=0.17252064101962597, obj_std=0.0007619344151124551,
        obj_max=0.17415541487931638, gap_mean=-0.12747935898037402,
        bias_term=0.007027052889741965, bias_term_centered=-0.012207938212053425,
        dual_disagreement=2.037808068207842, m_min=280.0, m_max=329.0,
        m_mean=300.1833333333333),
    ("async", "unbiased_baseline"): dict(
        t=300, obj_mean=0.17250697433088585, obj_std=0.0007282658030871507,
        obj_max=0.17407282405744925, gap_mean=-0.12749302566911414,
        bias_term=0.0016954671637533295, bias_term_centered=-0.01828399382591263,
        dual_disagreement=2.8873418916996294, m_min=280.0, m_max=329.0,
        m_mean=300.1833333333333),
    ("centralized", "deterministic"): dict(
        t=300, obj_mean=0.17075241054438794, obj_std=0.0,
        obj_max=0.17075241054438794, gap_mean=-0.12924758945561204,
        bias_term=math.nan, bias_term_centered=math.nan, dual_disagreement=0.0,
        m_min=None, m_max=None, m_mean=None),
    ("centralized", "stochastic"): dict(
        t=300, obj_mean=0.17074262237245302, obj_std=0.0,
        obj_max=0.17074262237245302, gap_mean=-0.12925737762754697,
        bias_term=math.nan, bias_term_centered=math.nan, dual_disagreement=0.0,
        m_min=None, m_max=None, m_mean=None),
}


def make_cfg(policy, mode):
    rng = np.random.default_rng(0)
    labels = np.array([1, -1] * 5)
    data = Dataset(features=rng.normal(size=(10, 2)) + 0.4 * labels[:, None],
                   labels=labels)
    # a 10-cycle with chords: non-bipartite, with unequal degrees
    g = Graph.from_edges(10, [(k, (k + 1) % 10) for k in range(10)]
                         + [(0, 5), (0, 3), (2, 7), (4, 8)])
    shared = dict(data=data, loss=PairwiseLoss("auc_logistic"),
                  reg=Regularizer("squared_l2", lam=0.05), T=300, seed=7,
                  checkpoint_stride=100, theta_star=np.array([0.5, -0.25]),
                  r_star=0.3)
    if policy == "centralized":  # mode names the step policy
        return EngineConfig(sched=INV_SQRT, record_bias=False, **shared)
    cls, sched = ((SyncRunConfig, INV_SQRT) if policy == "sync"
                  else (AsyncRunConfig, POLY))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cls(graph=g, sched=sched, gradient_mode=mode, **shared)


@pytest.mark.parametrize("policy,mode", sorted(RECORDED))
def test_final_record_matches_recorded(policy, mode):
    cfg = make_cfg(policy, mode)
    if policy == "centralized":
        step = deterministic_step if mode == "deterministic" else stochastic_step
        records = run_centralized(cfg, step)
    else:
        records = (run_sync if policy == "sync" else run_async)(cfg)
    got = records[-1].__dict__
    for key, want in RECORDED[(policy, mode)].items():
        if want is None:
            assert got[key] is None, key
        else:
            assert got[key] == pytest.approx(want, rel=1e-12, abs=0.0,
                                             nan_ok=True), key


@pytest.mark.parametrize("mode", ["gossip", "unbiased_baseline"])
def test_async_bias_is_bias_sample_on_padded_endpoint_stack(mode):
    cfg = make_cfg("async", mode)
    state = GossipState.initial(cfg.data.n, param_shape(cfg.loss, cfg.data),
                                activation_probabilities(cfg.graph))
    rng_edge, rng_baseline = stream_rng(cfg.seed, EDGE), stream_rng(cfg.seed, BASELINE)
    for t in range(1, cfg.T):
        async_step(state, t, cfg, rng_edge, rng_baseline)
    theta_before = state.theta.copy()
    rows, (i, j), t_index = async_step(state, cfg.T, cfg, rng_edge, rng_baseline)
    assert t_index == max(state.m[i], state.m[j], 1.0)
    padded = np.zeros_like(state.z)
    padded[i], padded[j] = rows
    want = bias_sample(theta_before, padded, state.z.mean(axis=0), cfg.data,
                       cfg.loss, cfg.reg, cfg.sched, t_index, cfg.theta_star)
    got = run_async(cfg)[-1]
    assert not math.isnan(want[0]) and not math.isnan(want[1])
    assert (got.bias_term, got.bias_term_centered) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("policy", ["sync", "async"])
def test_non_finite_iterate_stops_the_run_naming_t_and_node(policy, monkeypatch):
    cfg = make_cfg(policy, "gossip")
    module = sync_gossip if policy == "sync" else async_gossip
    kernel, calls, poisoned = module.pair_gradients, [], []

    def poisoning(loss, thetas, data, own, partners):
        grads = kernel(loss, thetas, data, own, partners)
        calls.append(1)
        if len(calls) == 17:  # the 17th step: one row of its gradients is NaN
            grads[-1] = np.nan
            poisoned.append(int(np.arange(data.n)[own][-1]))
        return grads

    monkeypatch.setattr(module, "pair_gradients", poisoning)
    with pytest.raises(ValueError) as info:
        (run_sync if policy == "sync" else run_async)(cfg)
    assert str(info.value).endswith(f"at t=17, node {poisoned[0]}")
    assert "non-finite" in str(info.value.__cause__)
    assert len(calls) == 17
