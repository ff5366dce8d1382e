"""Neural-network surrogates for parameter-dependent DAE/ODE trajectories.

The pipeline: sample parameters from a cuboid domain, solve the initial value
problem per sample with an adaptive implicit integrator, discretize the
quantity of interest on a uniform time grid, and fit feedforward networks to
the parameter-to-trajectory map.

The package exports the names of the documented library use; everything else
is imported from its submodule.
"""

from .dataset import (
    RngSeed,
    SampleSet,
    generate_targets,
    load_dataset,
    sample_parameters,
)
from .dynsys import (
    SystemSpec,
    circuit_system,
    default_domain,
)
from .evaluation import (
    error_stats,
    format_error_table,
)
from .integrator import (
    TimeGrid,
    solve_trajectory,
)
from .neuralnet import (
    NetworkParams,
    Normalizer,
    TransferKind,
    forward,
    init_weights,
    load_model,
    save_model,
)
from .training import (
    TrainConfig,
    train,
    write_training_log,
)

__all__ = [
    "NetworkParams",
    "Normalizer",
    "RngSeed",
    "SampleSet",
    "SystemSpec",
    "TimeGrid",
    "TrainConfig",
    "TransferKind",
    "circuit_system",
    "default_domain",
    "error_stats",
    "format_error_table",
    "forward",
    "generate_targets",
    "init_weights",
    "load_dataset",
    "load_model",
    "sample_parameters",
    "save_model",
    "solve_trajectory",
    "train",
    "write_training_log",
]
