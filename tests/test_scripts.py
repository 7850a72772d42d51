"""The scripts under scripts/ and the README's code run to completion against
the current API."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from fedcarbon import SimSetup

from conftest import FIXTURES_DIR, REPO_ROOT


def run_python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=120, env=env, cwd=REPO_ROOT)


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    return run_python(str(REPO_ROOT / "scripts" / name), *argv)


@pytest.mark.parametrize("script", [
    ["reproduce_emission_tables.py"],
    ["run_grid_search.py"],
    ["compare_iid_vs_noniid.py", "--seeds", "1"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(script):
    proc = run_script(*script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_grid_search_table_without_target_falls_back_to_the_sim_default(tmp_path):
    table = json.loads((FIXTURES_DIR / "cifar10_grid_results.json").read_text())
    del table["target_accuracy"]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    proc = run_script("run_grid_search.py", "--table", str(path))
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert f"(target accuracy {SimSetup.target_accuracy})" in proc.stdout


@pytest.mark.parametrize("argv, message", [
    (["--simulate", "--config", str(FIXTURES_DIR / "configs" / "fl_tx2_nominal_china.json")],
     "simulation needs a federated config with 'fl' and 'sim' objects"),
    (["--table", str(FIXTURES_DIR / "configs" / "fl_tx2_nominal_china.json")],
     "results table must be an object with a 'blocks' list"),
], ids=["simulate-config-without-sim", "table-that-is-not-a-table"])
def test_grid_search_input_errors_are_usage_errors(argv, message):
    proc = run_script("run_grid_search.py", *argv)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.endswith(f"run_grid_search.py: error: {message}\n")


def test_readme_python_blocks_run():
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        proc = run_python("-c", block)
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"
