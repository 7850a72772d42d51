"""The scripts under scripts/ run to completion against the current API."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


@pytest.mark.parametrize("script", [
    ["reproduce_emission_tables.py"],
    ["run_grid_search.py"],
    ["compare_iid_vs_noniid.py", "--seeds", "1"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / script[0]),
                           *script[1:]],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
