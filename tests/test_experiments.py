"""The committed run configs under experiments/ and the README's Quick start
run as written (shortened to a few steps for the configs)."""

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


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


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
