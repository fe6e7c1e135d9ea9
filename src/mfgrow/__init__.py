"""Training and zero-shot weight transfer for dense networks under
mean-field, standard, and maximal-update parametrizations."""

from .arch import (
    ArchGraph,
    AxisUsage,
    GammaPartition,
    GammaVar,
    WeightSpec,
    build_mlp,
    compute_partition,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    MfgrowError,
    MissingDataError,
    ParameterError,
)
from .net import Network, OptimizerState, TrainingLog, train
from .tensor import DistributionSpec, Rng, constant, gaussian, uniform

__all__ = [name for name in dir() if not name.startswith("_")]
