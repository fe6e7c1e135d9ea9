"""Exception types, one per kind of broken input: each class's docstring
names the input that raises it. ``mfgrow`` exits 3 on MissingDataError and
2 on every other class."""


class MfgrowError(Exception):
    """Base class for all mfgrow errors."""


class ParameterError(MfgrowError):
    """An argument (its value or its shape) breaks its contract. An
    ``ArchGraph``'s fields and an arch file count as arguments."""


class ConfigError(MfgrowError):
    """A CLI config or flag is malformed."""


class DataError(MfgrowError):
    """A dataset file cannot be parsed."""


class MissingDataError(DataError):
    """A required dataset is not present on disk."""


class CheckpointError(MfgrowError):
    """A checkpoint file is malformed or inconsistent, its embedded arch
    included."""


class DivergenceError(MfgrowError):
    """A training run produced a non-finite or exploding loss."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (step {step})")
        self.step = step
