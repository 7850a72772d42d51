"""The public API surface: each module's __all__ and the package's imports."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fedcarbon

# The package's modules, without __main__, which runs the CLI when imported.
MODULES = sorted(info.name for info in pkgutil.iter_modules(fedcarbon.__path__)
                 if not info.name.startswith("_"))
EXPORTING = [name for name in MODULES
             if hasattr(importlib.import_module(f"fedcarbon.{name}"), "__all__")]


def package_imports() -> list[tuple[str, str]]:
    """(module, name) for every public name fedcarbon/__init__.py imports."""
    tree = ast.parse(Path(fedcarbon.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if not alias.name.startswith("_")]


@pytest.mark.parametrize("module", EXPORTING)
def test_every_name_in_all_exists(module):
    loaded = importlib.import_module(f"fedcarbon.{module}")
    assert [name for name in loaded.__all__ if not hasattr(loaded, name)] == []


def test_every_package_import_is_in_its_modules_all():
    imports = package_imports()
    assert {module for module, _ in imports} == set(EXPORTING)
    missing = [(module, name) for module, name in imports
               if name not in importlib.import_module(f"fedcarbon.{module}").__all__]
    assert missing == []
