"""Exception types shared across the package."""


class MfgrowError(Exception):
    """Base class for all mfgrow errors."""


class ParameterError(MfgrowError):
    """An argument (its value or its shape) violates its contract."""


class StructureError(MfgrowError):
    """An architecture graph violates a structural invariant."""


class ConfigError(MfgrowError):
    """An experiment config or CLI input is malformed."""


class DataError(MfgrowError):
    """A dataset file cannot be parsed."""


class MissingDataError(DataError):
    """A required dataset is not present on disk."""


class CheckpointError(MfgrowError):
    """A checkpoint file is malformed or inconsistent."""


class DivergenceError(MfgrowError):
    """Training produced a non-finite or exploding loss."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step
