import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pairgossip
from pairgossip import cli, harness
from pairgossip.datasets import (gen_gaussian_mixture, gen_two_class_gaussians,
                                 load_breast_cancer)
from pairgossip.graphs import build_topology, complete_graph, spectral_gap
from pairgossip.losses import PairwiseLoss, full_objective
from pairgossip.regularizers import Regularizer, StepSchedule
from pairgossip.sync_gossip import (DATA, TOPOLOGY, EngineConfig, SyncRunConfig,
                                    stream_rng)

from oracles import read_trace


def write_uci_file(path, rows):
    path.write_text("".join(",".join(str(c) for c in r) + "\n" for r in rows))


def make_uci_rows(n=20, seed=0, missing=()):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        attrs = list(rng.integers(1, 11, size=9))
        for (row, col) in missing:
            if row == i:
                attrs[col] = "?"
        rows.append([1000000 + i] + attrs + [2 if i % 2 else 4])
    return rows


class TestBreastCancerLoader:
    def test_shape_and_labels(self, tmp_path):
        path = tmp_path / "bc.data"
        write_uci_file(path, make_uci_rows(30))
        data = load_breast_cancer(path)
        assert data.features.shape == (30, 11)
        assert set(data.labels) == {-1, 1}
        # intercept column of ones, then zero padding
        assert np.all(data.features[:, 9] == 1.0)
        assert np.all(data.features[:, 10] == 0.0)

    def test_imputation_uses_column_mean(self, tmp_path):
        rows = make_uci_rows(10, missing=[(3, 6)])
        path = tmp_path / "bc.data"
        write_uci_file(path, rows)
        data = load_breast_cancer(path)
        others = [float(rows[i][7]) for i in range(10) if i != 3]
        assert data.features[3, 6] == pytest.approx(np.mean(others))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "bc.data"
        path.write_text("")
        with pytest.raises(ValueError):
            load_breast_cancer(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bc.data"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            load_breast_cancer(path)

    def test_bad_class(self, tmp_path):
        rows = make_uci_rows(3)
        rows[1][-1] = 3
        path = tmp_path / "bc.data"
        write_uci_file(path, rows)
        with pytest.raises(ValueError):
            load_breast_cancer(path)


class TestSyntheticMixture:
    def test_shape_and_balance(self):
        data = gen_gaussian_mixture(np.random.default_rng(0), n=100, ambient_dim=12,
                                    classes=4, subspace_dim=3, variance_factor=0.2)
        assert data.features.shape == (100, 12)
        assert (data.labels == 1).sum() == 50  # parity rule, balanced classes

    def test_zero_variance_collapses_classes(self):
        data = gen_gaussian_mixture(np.random.default_rng(1), n=20, ambient_dim=6,
                                    classes=2, subspace_dim=2, variance_factor=0.0)
        first_class = data.features[:10]
        assert np.allclose(first_class, first_class[0])

    def test_means_in_subspace(self):
        data = gen_gaussian_mixture(np.random.default_rng(2), n=40, ambient_dim=10,
                                    classes=4, subspace_dim=2, variance_factor=0.0)
        means = np.stack([data.features[i * 10] for i in range(4)])
        assert np.linalg.matrix_rank(means, tol=1e-8) <= 2

    def test_determinism(self):
        spec = dict(n=30, ambient_dim=8, classes=3, subspace_dim=2)
        a = gen_gaussian_mixture(np.random.default_rng(5), **spec)
        b = gen_gaussian_mixture(np.random.default_rng(5), **spec)
        assert np.array_equal(a.features, b.features)

    def test_spec_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gen_gaussian_mixture(rng, n=5, classes=10)
        with pytest.raises(ValueError):
            gen_gaussian_mixture(rng, subspace_dim=50, ambient_dim=40)
        with pytest.raises(ValueError):
            gen_gaussian_mixture(rng, variance_factor=-0.1)


def sync_config(tmp_path, **overrides):
    cfg = {
        "topology": {"kind": "complete", "n": 8},
        "dataset": {"kind": "toy_auc", "n": 8, "d": 2, "separation": 0.8},
        "loss": {"kind": "auc_logistic"},
        "regularizer": {"kind": "zero"},
        "schedule": {"kind": "inv_sqrt", "c": 1.0},
        "algorithm": "sync",
        "T": 300,
        "seed": 11,
        "checkpoint_stride": 100,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts the reference solves a test triggers."""
    calls = []
    solve = harness.centralized.solve_reference
    monkeypatch.setattr(harness.centralized, "solve_reference",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    return calls


@pytest.fixture
def dataset_builds(monkeypatch):
    """Counts the datasets a test generates through the harness."""
    calls = []
    build = harness.build_dataset
    monkeypatch.setattr(harness, "build_dataset",
                        lambda *a, **kw: calls.append(1) or build(*a, **kw))
    return calls


MIXTURE = {"kind": "synthetic_mixture", "n": 8, "ambient_dim": 4, "classes": 2,
           "subspace_dim": 2}

# name: (overrides of `sync_config`, the same rule broken through the library
# configs or None where only the JSON document can be wrong, the rule's message)
INVALID = {
    "negative_T": ({"T": -1}, {"T": -1}, "T must be non-negative"),
    "zero_stride": ({"checkpoint_stride": 0}, {"checkpoint_stride": 0},
                    "stride must be positive"),
    "unknown_gradient_mode": ({"gradient_mode": "bogus"},
                              {"gradient_mode": "bogus"}, "unknown gradient mode"),
    "psd_indicator_on_a_vector": ({"regularizer": {"kind": "psd_indicator"}},
                                  {"reg": Regularizer("psd_indicator")},
                                  "psd_indicator applies to matrix parameters"),
    "unknown_field": ({"bogus": 1}, None, "config: .*'bogus'"),
    "unknown_algorithm": ({"algorithm": "admm"}, None, "unknown algorithm"),
    "gossip_without_topology": ({"topology": None}, None, "need a topology spec"),
    # a centralized run uses no graph, so it takes no topology either
    "centralized_with_topology": ({"algorithm": "centralized_det"}, None,
                                  "need a topology spec"),
    "hinge_with_reference": ({"dataset": MIXTURE, "loss": {"kind": "metric_hinge"},
                              "regularizer": {"kind": "psd_indicator"},
                              "compute_reference": True}, None,
                             "set compute_reference: false"),
    # an ingredient spec's keys besides kind are its builder's arguments
    "dataset_misspelled_key": ({"dataset": {"kind": "toy_auc", "n": 8, "d": 2,
                                            "seperation": 0.8}}, None,
                               "dataset 'toy_auc': .*'seperation'"),
    "mixture_unknown_key": ({"dataset": dict(MIXTURE, dims=4)}, None,
                            "dataset 'synthetic_mixture': .*'dims'"),
    "schedule_unknown_key": ({"schedule": {"kind": "inv_sqrt", "C": 1.0}}, None,
                             "schedule: .*'C'"),
    "loss_unknown_key": ({"loss": {"kind": "auc_logistic", "margin": 1}}, None,
                         "loss: .*'margin'"),
    "topology_missing_key": ({"topology": {"kind": "watts_strogatz", "n": 8,
                                           "p": 0.1}}, None,
                             "topology 'watts_strogatz': .*'k'"),
    "dataset_without_kind": ({"dataset": {"n": 8, "d": 2}}, None,
                             "dataset spec needs a 'kind'"),
    "topology_kind_not_a_name": ({"topology": {"kind": ["complete"], "n": 8}}, None,
                                 "topology spec needs a 'kind'"),
    # an ingredient spec is a JSON object (a topology may be null)
    "dataset_not_an_object": ({"dataset": "toy_auc"}, None,
                              "dataset spec must be a JSON object, got 'toy_auc'"),
    "topology_not_an_object": ({"topology": "complete"}, None,
                               "topology spec must be a JSON object, got 'complete'"),
    "loss_not_an_object": ({"loss": "auc_logistic"}, None,
                           "loss spec must be a JSON object, got 'auc_logistic'"),
    "loss_not_an_object_without_reference": ({"loss": "auc_logistic",
                                              "compute_reference": False}, None,
                                             "loss spec must be a JSON object"),
    "regularizer_not_an_object": ({"regularizer": "zero"}, None,
                                  "regularizer spec must be a JSON object, got 'zero'"),
    "schedule_not_an_object": ({"schedule": ["inv_sqrt"]}, None,
                               r"schedule spec must be a JSON object, got \['inv_sqrt'\]"),
    # a run-level field has one JSON type; a bool is not an integer
    "T_a_string": ({"T": "10"}, None, "T must be an integer, got '10'"),
    "T_a_bool": ({"T": True}, None, "T must be an integer, got True"),
    "seed_a_float": ({"seed": 1.5}, None, "seed must be an integer, got 1.5"),
    "stride_a_string": ({"checkpoint_stride": "5"}, None,
                        "checkpoint_stride must be an integer, got '5'"),
    "compute_reference_a_string": ({"compute_reference": "no"}, None,
                                   "compute_reference must be a bool, got 'no'"),
    "algorithm_a_list": ({"algorithm": ["sync"]}, None,
                         r"algorithm must be a string, got \['sync'\]"),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_config_is_refused_before_any_data(case, tmp_path, dataset_builds,
                                                   solve_calls):
    overrides, library, message = INVALID[case]
    path = sync_config(tmp_path, **overrides)
    start = time.monotonic()
    with pytest.raises(ValueError, match=message):
        harness.prepare(harness.RunConfig.from_json(path))
    assert time.monotonic() - start < 1.0
    assert dataset_builds == [] and solve_calls == []
    if library is None:
        return
    data = gen_two_class_gaussians(8, 2, np.random.default_rng(0))
    fields = dict(data=data, loss=PairwiseLoss("auc_logistic"), reg=Regularizer("zero"),
                  sched=StepSchedule("inv_sqrt"), T=10, seed=0) | library
    with pytest.raises(ValueError, match=message):
        SyncRunConfig(graph=complete_graph(8), **fields)
    if "gradient_mode" not in library:  # not an engine field
        with pytest.raises(ValueError, match=message):
            EngineConfig(**fields)


@pytest.mark.parametrize("case", sorted(INVALID))
def test_cli_refuses_with_the_rules_message(case, tmp_path, capsys):
    path = sync_config(tmp_path, **INVALID[case][0])
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and re.search(INVALID[case][2], err)
    assert not (tmp_path / "out").exists()


class TestRunConfig:
    def test_hinge_with_vector_regularizer_runs(self, tmp_path):
        for reg in ({"kind": "l1", "lam": 0.1}, {"kind": "squared_l2", "lam": 0.1}):
            path = sync_config(tmp_path, loss={"kind": "metric_hinge"}, regularizer=reg,
                               dataset=MIXTURE, compute_reference=False)
            out = harness.run_experiment(path, out_dir=tmp_path / reg["kind"])
            rows = read_trace(out / "trace.csv")
            assert rows[-1]["obj_mean"] < 0.5 * rows[0]["obj_mean"]

    def test_ill_posed_inputs_fail_before_the_reference_solve(self, tmp_path,
                                                              solve_calls):
        for overrides in ({"gradient_mode": "bogus"},
                          {"gradient_mode": "bogus", "algorithm": "centralized_det",
                           "topology": None},
                          {"topology": {"kind": "cycle", "n": 9}}):
            path = sync_config(tmp_path, **overrides)
            with pytest.raises(ValueError):
                harness.run_experiment(path, out_dir=tmp_path / "out")
        assert solve_calls == []

    def test_toy_auc_keys_are_the_generator_arguments(self, tmp_path, solve_calls):
        spec = {"kind": "toy_auc", "n": 8, "d": 2}
        want = gen_two_class_gaussians(8, 2, stream_rng(11, DATA))
        assert np.array_equal(harness.build_dataset(spec, 11).features, want.features)
        path = sync_config(tmp_path, dataset=dict(spec, seperation=0.8))
        with pytest.raises(ValueError, match="seperation"):
            harness.run_experiment(path, out_dir=tmp_path / "out")
        assert solve_calls == []

    def test_missing_field_is_refused(self, tmp_path):
        path = sync_config(tmp_path)
        doc = json.loads(path.read_text())
        del doc["T"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="config: .*'T'"):
            harness.RunConfig.from_json(path)

    def test_a_document_that_is_not_an_object_is_refused(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(["sync"]))
        with pytest.raises(ValueError, match="config must be a JSON object, got list"):
            harness.RunConfig.from_json(path)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "run: config must be a JSON object, got list\n"

    def test_a_generator_error_is_not_a_refused_spec(self, tmp_path):
        # keys that bind still reach the generator, whose own errors stand
        path = sync_config(tmp_path, dataset={"kind": "toy_auc", "n": 8, "d": "2"})
        with pytest.raises(TypeError):
            harness.prepare(harness.RunConfig.from_json(path))


class TestRunExperiment:
    def test_outputs_and_reproducibility(self, tmp_path):
        path = sync_config(tmp_path)
        out1 = harness.run_experiment(path, out_dir=tmp_path / "a")
        out2 = harness.run_experiment(path, out_dir=tmp_path / "b")
        t1 = (out1 / "trace.csv").read_bytes()
        t2 = (out2 / "trace.csv").read_bytes()
        assert t1 == t2
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["algorithm"] == "sync"
        assert summary["spectral_gap"] == pytest.approx(1 / 7)
        assert "bound_c1" in summary and "bound_c2" in summary

    def test_summary_reference_block(self, tmp_path):
        summaries = {}
        for compute in (True, False):
            path = sync_config(tmp_path, T=20, checkpoint_stride=10,
                               compute_reference=compute)
            out = harness.run_experiment(path, out_dir=tmp_path / str(compute))
            summaries[compute] = json.loads((out / "summary.json").read_text())
        assert "reference" not in summaries[False]
        ref = summaries[True]["reference"]
        assert set(ref) == {"iterations", "gradients", "mapping_norm", "step",
                            "tolerance"}
        assert 1 <= ref["iterations"] <= ref["gradients"] <= 500
        assert 0.0 < ref["tolerance"]
        assert 0.0 <= ref["mapping_norm"] <= ref["tolerance"]

    def test_bipartite_graph_writes_complete_summary(self, tmp_path):
        path = sync_config(tmp_path, topology={"kind": "cycle", "n": 8},
                           regularizer={"kind": "squared_l2", "lam": 0.1},
                           T=20, checkpoint_stride=10)
        with pytest.warns(UserWarning):  # an even cycle is bipartite
            out = harness.run_experiment(path, out_dir=tmp_path / "cycle")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["spectral_gap"] is None
        assert "bipartite" in summary["spectral_gap_reason"]
        assert "bound_c1" not in summary and "bound_c2" not in summary
        assert summary["final_obj_mean"] > 0.0

    def test_zero_steps_write_one_t0_row(self, tmp_path):
        for algo in harness.RUNNERS:
            gossips = algo in harness.GOSSIP_ALGORITHMS
            path = sync_config(tmp_path, algorithm=algo, T=0,
                               compute_reference=False,
                               topology={"kind": "complete", "n": 8} if gossips else None)
            out = harness.run_experiment(path, out_dir=tmp_path / algo)
            rows = read_trace(out / "trace.csv")
            cfg = harness.RunConfig.from_json(path)
            data = harness.build_dataset(cfg.dataset, cfg.seed)
            want = full_objective(np.zeros(data.dim), data,
                                  PairwiseLoss(**cfg.loss), Regularizer(**cfg.regularizer))
            assert [r["t"] for r in rows] == [0]
            assert rows[0]["obj_mean"] == pytest.approx(want, rel=1e-12)

    def test_rejected_config_leaves_no_output_directory(self, tmp_path):
        for overrides in ({"topology": {"kind": "cycle", "n": 9}},
                          {"regularizer": {"kind": "psd_indicator"},
                           "compute_reference": False}):
            path = sync_config(tmp_path, **overrides)
            for run in (harness.run_experiment, harness.compare_baseline):
                with pytest.raises(ValueError):
                    run(path, out_dir=tmp_path / "out" / run.__name__)
            assert not (tmp_path / "out").exists()

    def test_seed_override_changes_output(self, tmp_path):
        path = sync_config(tmp_path)
        out1 = harness.run_experiment(path, out_dir=tmp_path / "a")
        out2 = harness.run_experiment(path, out_dir=tmp_path / "b",
                                      seed_override=99)
        assert ((out1 / "trace.csv").read_bytes()
                != (out2 / "trace.csv").read_bytes())

    def test_centralized_algorithms(self, tmp_path):
        for algo in ("centralized_det", "centralized_sto"):
            path = sync_config(tmp_path, algorithm=algo, topology=None, T=50,
                               checkpoint_stride=25)
            out = harness.run_experiment(path, out_dir=tmp_path / algo)
            summary = json.loads((out / "summary.json").read_text())
            assert summary["final_gap_mean"] >= -1e-8

    def test_compare_baseline(self, tmp_path, solve_calls):
        path = sync_config(tmp_path)
        out = harness.compare_baseline(path, out_dir=tmp_path / "cmp")
        assert len(solve_calls) == 1
        doc = json.loads((out / "compare.json").read_text())
        assert doc["final_obj_relative_difference"] >= 0.0
        assert (out / "trace_gossip.csv").exists()
        assert (out / "trace_unbiased_baseline.csv").exists()

    def test_run_many(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAIRGOSSIP_THREADS", "2")
        path = sync_config(tmp_path)
        outs = harness.run_many([(path, tmp_path / "j1", 1),
                                 (path, tmp_path / "j2", 2)])
        assert all((o / "summary.json").exists() for o in outs)


class TestCli:
    def test_spectral_gap_format(self, capsys):
        assert cli.main(["spectral-gap", "--kind", "cycle", "--n", "999"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "1.97985e-08"

    def test_spectral_gap_tensor(self, capsys):
        assert cli.main(["spectral-gap", "--kind", "cycle", "--n", "9",
                         "--tensor-k", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(
            (1 - np.cos(2 * np.pi / 9)) / 9 / 3, rel=1e-5)

    def test_spectral_gap_watts_strogatz_matches_run_graph(self, capsys):
        assert cli.main(["spectral-gap", "--kind", "watts_strogatz", "--n", "30",
                         "--k", "4", "--p", "0.3", "--seed", "5"]) == 0
        out = capsys.readouterr().out.strip()
        spec = {"kind": "watts_strogatz", "n": 30, "k": 4, "p": 0.3}
        g = build_topology(spec, stream_rng(5, TOPOLOGY))
        assert out == f"{spectral_gap(g):.5e}"

    def test_spectral_gap_refusals_exit_2(self, capsys):
        for argv, message in ((["--kind", "watts_strogatz", "--n", "30"], "'k'"),
                              (["--kind", "cycle", "--n", "10"], "bipartite"),
                              (["--kind", "file"], "'path'")):
            assert cli.main(["spectral-gap"] + argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("spectral-gap: ") and message in err

    def test_npz_dataset_equals_its_mixture_spec(self, tmp_path, capsys):
        npz = tmp_path / "mix.npz"
        data = gen_gaussian_mixture(stream_rng(3, DATA), n=12, ambient_dim=6,
                                    classes=2, subspace_dim=2)
        np.savez(npz, features=data.features, labels=data.labels)
        mixture = {"kind": "synthetic_mixture", "n": 12, "ambient_dim": 6,
                   "classes": 2, "subspace_dim": 2}
        traces = []
        for name, dataset in (("npz", {"kind": "npz", "path": str(npz)}),
                              ("mixture", mixture)):
            path = sync_config(tmp_path, dataset=dataset, seed=3, T=50,
                               checkpoint_stride=50,
                               topology={"kind": "complete", "n": 12})
            assert cli.main(["run", "--config", str(path), "--out",
                             str(tmp_path / name)]) == 0
            traces.append((tmp_path / name / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_run_command_runs_every_algorithm(self, tmp_path):
        poly = {"kind": "poly", "c": 1.0, "alpha": 0.25}
        for algo, overrides in (("centralized_det", {"topology": None}),
                                ("sync", {}), ("async", {"schedule": poly})):
            path = sync_config(tmp_path, algorithm=algo, T=20, checkpoint_stride=10,
                               **overrides)
            assert cli.main(["run", "--config", str(path), "--out",
                             str(tmp_path / algo)]) == 0
            summary = json.loads((tmp_path / algo / "summary.json").read_text())
            assert summary["algorithm"] == algo

    def test_compare_baseline_refuses_a_centralized_config(self, tmp_path, capsys):
        path = sync_config(tmp_path, algorithm="centralized_det", topology=None)
        assert cli.main(["compare-baseline", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "compare-baseline: compare-baseline applies to gossip algorithms")

    def test_entrypoint_subprocess(self, tmp_path):
        # the child imports the same package as this test, installed or not
        src = str(Path(pairgossip.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        res = subprocess.run([sys.executable, "-m", "pairgossip.cli",
                              "spectral-gap", "--kind", "complete", "--n", "699"],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0
        assert res.stdout.strip() == "1.43266e-03"
