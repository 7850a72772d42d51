"""The reference kernel leaves the garbage collector as it found it."""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from reference import reference_seconds  # noqa: E402


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_is_restored(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert reference_seconds() > 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
