import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairgossip
from pairgossip import cli, harness
from pairgossip.datasets import (SyntheticSpec, gen_gaussian_mixture,
                                 load_breast_cancer)
from pairgossip.analysis import read_trace
from pairgossip.graphs import spectral_gap
from pairgossip.losses import PairwiseLoss, full_objective
from pairgossip.regularizers import Regularizer


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
        spec = SyntheticSpec(n=100, ambient_dim=12, classes=4, subspace_dim=3,
                             variance_factor=0.2)
        data = gen_gaussian_mixture(spec, np.random.default_rng(0))
        assert data.features.shape == (100, 12)
        assert (data.labels == 1).sum() == 50  # parity rule, balanced classes

    def test_zero_variance_collapses_classes(self):
        spec = SyntheticSpec(n=20, ambient_dim=6, classes=2, subspace_dim=2,
                             variance_factor=0.0)
        data = gen_gaussian_mixture(spec, np.random.default_rng(1))
        first_class = data.features[:10]
        assert np.allclose(first_class, first_class[0])

    def test_means_in_subspace(self):
        spec = SyntheticSpec(n=40, ambient_dim=10, classes=4, subspace_dim=2,
                             variance_factor=0.0)
        data = gen_gaussian_mixture(spec, np.random.default_rng(2))
        means = np.stack([data.features[i * 10] for i in range(4)])
        assert np.linalg.matrix_rank(means, tol=1e-8) <= 2

    def test_determinism(self):
        spec = SyntheticSpec(n=30, ambient_dim=8, classes=3, subspace_dim=2)
        a = gen_gaussian_mixture(spec, np.random.default_rng(5))
        b = gen_gaussian_mixture(spec, np.random.default_rng(5))
        assert np.array_equal(a.features, b.features)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=5, classes=10)
        with pytest.raises(ValueError):
            SyntheticSpec(subspace_dim=50, ambient_dim=40)


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


class TestRunConfig:
    def test_rejects_unknown_field(self, tmp_path):
        path = sync_config(tmp_path, bogus=1)
        with pytest.raises(ValueError):
            harness.RunConfig.from_json(path)

    def test_rejects_hinge_with_vector_regularizer(self, tmp_path):
        path = sync_config(tmp_path, loss={"kind": "metric_hinge"},
                           regularizer={"kind": "l1", "lam": 0.1})
        with pytest.raises(ValueError):
            harness.RunConfig.from_json(path)

    def test_gossip_needs_topology(self, tmp_path):
        path = sync_config(tmp_path, topology=None)
        with pytest.raises(ValueError):
            harness.RunConfig.from_json(path)
        # a centralized run uses no graph, so it takes no topology either
        path = sync_config(tmp_path, algorithm="centralized_det",
                           topology={"kind": "cycle", "n": 9})
        with pytest.raises(ValueError):
            harness.RunConfig.from_json(path)

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

    def test_unknown_algorithm(self, tmp_path):
        path = sync_config(tmp_path, algorithm="admm")
        with pytest.raises(ValueError):
            harness.RunConfig.from_json(path)



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
        for algo in harness.ALGORITHMS:
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
        assert out == f"{spectral_gap(harness.build_graph(spec, 5)):.5e}"

    def test_gen_synthetic_then_run(self, tmp_path, capsys):
        npz = tmp_path / "mix.npz"
        assert cli.main(["gen-synthetic", "--out", str(npz), "--n", "12",
                         "--dim", "6", "--classes", "2", "--subspace", "2",
                         "--seed", "3"]) == 0
        path = sync_config(tmp_path, dataset={"kind": "npz", "path": str(npz)},
                           topology={"kind": "complete", "n": 12}, T=50,
                           checkpoint_stride=50)
        assert cli.main(["run-sync", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_run_command_algorithm_mismatch(self, tmp_path, capsys):
        path = sync_config(tmp_path)
        assert cli.main(["run-async", "--config", str(path)]) == 2

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
