"""Neural-network surrogates for parameter-dependent DAE/ODE trajectories.

The pipeline: sample parameters from a cuboid domain, solve the initial value
problem per sample with an adaptive implicit integrator, discretize the
quantity of interest on a uniform time grid, and fit feedforward networks to
the parameter-to-trajectory map.
"""

from .dataset import (
    RngSeed,
    SampleSet,
    export_dataset_csv,
    generate_targets,
    load_dataset,
    sample_parameters,
    save_dataset,
)
from .dynsys import (
    CircuitConstants,
    ParameterDomain,
    SystemSpec,
    circuit_system,
    default_domain,
    diode_current,
    evaluate_qoi,
    input_voltage,
)
from .evaluation import (
    ErrorReport,
    ZeroDenominatorError,
    error_stats,
    format_error_table,
    l1_relative_error,
    total_variation,
)
from .integrator import (
    TimeGrid,
    ToleranceSettings,
    integrate,
    integrate_fixed_step,
    resample,
    solve_trajectory,
)
from .neuralnet import (
    NetworkParams,
    Normalizer,
    TransferKind,
    forward,
    gradient,
    init_weights,
    load_model,
    loss_mse,
    save_model,
    transfer,
)
from .training import (
    StopReason,
    TrainConfig,
    TrainMethod,
    TrainRecord,
    early_stop_check,
    train,
    write_training_log,
)

__all__ = [
    "CircuitConstants",
    "ErrorReport",
    "NetworkParams",
    "Normalizer",
    "ParameterDomain",
    "RngSeed",
    "SampleSet",
    "StopReason",
    "SystemSpec",
    "TimeGrid",
    "ToleranceSettings",
    "TrainConfig",
    "TrainMethod",
    "TrainRecord",
    "TransferKind",
    "ZeroDenominatorError",
    "circuit_system",
    "default_domain",
    "diode_current",
    "early_stop_check",
    "error_stats",
    "evaluate_qoi",
    "export_dataset_csv",
    "format_error_table",
    "forward",
    "generate_targets",
    "gradient",
    "init_weights",
    "input_voltage",
    "integrate",
    "integrate_fixed_step",
    "l1_relative_error",
    "load_dataset",
    "load_model",
    "loss_mse",
    "resample",
    "sample_parameters",
    "save_dataset",
    "save_model",
    "solve_trajectory",
    "total_variation",
    "train",
    "transfer",
    "write_training_log",
]
