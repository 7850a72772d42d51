"""The scripts under scripts/ and the README's code run to completion against
the current API."""

from __future__ import annotations

import hashlib
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


# sha256 of a script's stdout, recorded with Python 3.11.7 and numpy 2.4.6.
PINNED_STDOUT = {
    "compare_iid_vs_noniid.py":
        "d76df1b3f04f314876f559973cfc120e34f6d184e1842603626413cc23d90481",
}


@pytest.mark.parametrize("script", [
    ["reproduce_emission_tables.py"],
    ["run_grid_search.py"],
    ["compare_iid_vs_noniid.py", "--seeds", "1"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(script):
    proc = run_script(*script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if script[0] in PINNED_STDOUT:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_STDOUT[script[0]]


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
    (["--simulate", "--max-clients", "0"], "--max-clients must be >= 1"),
    (["--top", "-1"], "--top must be >= 1"),
], ids=["simulate-config-without-sim", "table-that-is-not-a-table", "no-clients", "negative-top"])
def test_grid_search_input_errors_are_usage_errors(argv, message):
    proc = run_script("run_grid_search.py", *argv)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stderr.endswith(f"run_grid_search.py: error: {message}\n")


@pytest.mark.parametrize("script, argv, message", [
    ("compare_iid_vs_noniid.py", ["--hardware", "nope"],
     "argument --hardware: invalid choice: 'nope'"),
    ("compare_iid_vs_noniid.py", ["--grid", "mars"], "argument --grid: invalid choice: 'mars'"),
    ("compare_iid_vs_noniid.py", ["--seeds", "-2"], "--seeds must be >= 1"),
    ("compare_iid_vs_noniid.py", ["--target", "1.5"], "--target must lie in [0, 1]"),
    ("compare_iid_vs_noniid.py", ["--alpha-noniid", "0"], "--alpha-noniid must be finite and > 0"),
    ("compare_iid_vs_noniid.py", ["--alpha-iid", "nan"], "--alpha-iid must be finite and > 0"),
    ("reproduce_emission_tables.py", ["--fixtures", "/nonexistent"],
     "No such file or directory: '/nonexistent/device_energy_table.json'"),
], ids=["unknown-hardware", "unknown-grid", "negative-seeds", "target-above-one", "zero-alpha",
        "nan-alpha", "missing-fixtures"])
def test_script_input_errors_are_usage_errors(script, argv, message):
    proc = run_script(script, *argv)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ")
    assert f"{script}: error: " in proc.stderr and message in proc.stderr


def test_readme_python_blocks_run():
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    for block in blocks:
        proc = run_python("-c", block)
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"
