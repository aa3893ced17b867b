"""The committed run configs under experiments/ and every Python block of the
README run as written (shortened to a few steps for the configs)."""

import math
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from pairgossip import cli, harness

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "experiments").glob("*.json"))


def test_experiments_are_committed():
    assert len(CONFIGS) >= 4


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_experiment_config_runs(path):
    cfg = replace(harness.RunConfig.from_json(path), T=20, checkpoint_stride=10)
    prep = harness.prepare(cfg)
    records = harness.execute(prep)
    summary = harness.summarize(prep, records, 0.0)
    assert [r.t for r in records] == [0, 10, 20]
    columns = ["obj_mean", "obj_std", "obj_max"]
    if prep.reference is not None:
        columns.append("gap_mean")
    for r in records:
        for col in columns:
            assert math.isfinite(getattr(r, col)), (r.t, col)
    assert math.isfinite(summary["final_obj_mean"])


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    # every Python block, each in a fresh namespace, from an empty directory:
    # the npz recipe writes mix.npz into the working directory
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "mix.npz").exists()


def test_readme_cli_commands_parse():
    readme = (ROOT / "README.md").read_text().replace("\\\n", " ")
    commands = [line.strip().replace("$n", "699") for line in readme.splitlines()
                if line.strip().startswith("python3 -m pairgossip.cli ")]
    assert len(commands) >= 10
    for command in commands:
        try:
            cli.build_parser().parse_args(shlex.split(command)[3:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
