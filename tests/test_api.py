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


# Every public name fedcarbon/__init__.py imports, sorted.  Editing this
# tuple is a public API change, which CHANGES.md must record.
PUBLIC_NAMES = (
    "AccuracyTrace", "AdamState", "Assignment", "CellOutcome", "CellResult", "ClassPrior",
    "ConfigError", "CostPoint", "EmissionReport", "EnergyBreakdown", "ExperimentConfig",
    "Federation", "FlSetup", "GridIntensity", "HardwareProfile", "ModelSpec",
    "NetworkProfile", "Partition", "RoundSchedule", "ScheduleEntry", "SimDataset", "SimSetup",
    "active_registry", "assign_samples", "build_federation", "builtin_registry",
    "carbon_cost", "centralized_sgd", "config_digest", "config_from_dict", "config_to_dict",
    "cumulative_training_energy", "default_grid", "derived_rng", "empirical_prior",
    "estimate_centralized", "estimate_fl", "fedadam_aggregate", "fedavg_aggregate",
    "grid_search", "lda_partition", "load_config", "make_simulation_runner",
    "make_table_runner", "make_task", "pareto_front", "rounds_to_target", "run_experiment",
    "sample_dirichlet", "schedule_from_dict", "schedule_prefix", "schedule_to_dict",
    "select_clients", "simulate", "table_cells", "table_target", "to_co2e",
    "train_local", "training_energy_centralized", "training_energy_fl", "uniform_prior",
    "weighted_delta",
)


def test_the_package_imports_exactly_the_pinned_public_names():
    assert tuple(sorted(name for _, name in package_imports())) == PUBLIC_NAMES
