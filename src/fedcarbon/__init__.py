"""Energy and CO2e accounting for federated and centralized training.

The package has three layers: pure energy/emission arithmetic over round
schedules (carbon), a small federated simulator on synthetic tasks that
produces those schedules (sim, partition), and a carbon-cost grid search
over federated design choices (optimize).  Measured device and grid
profiles live in profiles; the fedcarbon CLI fronts all of it.
"""

from .carbon import (
    EmissionReport,
    EnergyBreakdown,
    RoundSchedule,
    ScheduleEntry,
    cumulative_training_energy,
    estimate_centralized,
    estimate_fl,
    schedule_from_dict,
    schedule_prefix,
    schedule_to_dict,
    to_co2e,
    training_energy_centralized,
    training_energy_fl,
)
from .optimize import (
    CellOutcome,
    CellResult,
    CostPoint,
    carbon_cost,
    default_grid,
    grid_search,
    make_simulation_runner,
    make_table_runner,
    pareto_front,
    table_cells,
    table_target,
)
from .partition import (
    Assignment,
    ClassPrior,
    Partition,
    assign_samples,
    empirical_prior,
    lda_partition,
    sample_dirichlet,
    uniform_prior,
)
from .profiles import (
    ConfigError,
    ExperimentConfig,
    FlSetup,
    GridIntensity,
    HardwareProfile,
    NetworkProfile,
    SimSetup,
    active_registry,
    builtin_registry,
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .sim import (
    AccuracyTrace,
    AdamState,
    Federation,
    ModelSpec,
    SimDataset,
    build_federation,
    centralized_sgd,
    derived_rng,
    fedadam_aggregate,
    fedavg_aggregate,
    make_task,
    rounds_to_target,
    run_experiment,
    select_clients,
    simulate,
    train_local,
    weighted_delta,
)

__version__ = "0.1.0"
