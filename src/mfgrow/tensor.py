"""Dense float64 substrate: seeded counter-based RNG, distributions, and
the absolute Pearson correlation.

Everything downstream works in 64-bit floats. Matrix products are plain
NumPy/BLAS calls, run-to-run deterministic on a fixed platform.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Type alias: a Vector is a 1-d float64 ndarray.
Vector = np.ndarray


def as_f64(data) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(data, dtype=np.float64)


class Rng:
    """Deterministic counter-based random source (Philox).

    Substreams are keyed by ``(seed, label)``; draws from one substream
    never depend on how many values were taken from another, so per-weight
    streams are independent of iteration order.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed

    def generator(self) -> np.random.Generator:
        """Root stream (substream 0)."""
        return self.substream(0)

    def substream(self, label) -> np.random.Generator:
        """Independent stream for an integer or string label."""
        if isinstance(label, str):
            digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
            key = int.from_bytes(digest, "little")
        else:
            key = int(label)
            if not 0 <= key < 2**64:
                raise ParameterError(f"stream id must fit in 64 bits, got {key}")
        return np.random.Generator(np.random.Philox(key=[self.seed, key]))


@dataclass(frozen=True)
class DistributionSpec:
    """One of uniform(a, b), gaussian(mean, std), constant(c)."""

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind == "uniform":
            if self.b < self.a:
                raise ParameterError(f"uniform upper bound {self.b} < lower bound {self.a}")
        elif self.kind == "gaussian":
            if self.b < 0:
                raise ParameterError(f"gaussian std must be >= 0, got {self.b}")
        elif self.kind != "constant":
            raise ParameterError(f"unknown distribution kind {self.kind!r}")

    def draw(self, gen: np.random.Generator, n: int) -> Vector:
        if n < 0:
            raise ParameterError(f"sample count must be >= 0, got {n}")
        if self.kind == "uniform":
            return gen.uniform(self.a, self.b, size=n)
        if self.kind == "gaussian":
            return gen.normal(self.a, self.b, size=n)
        return np.full(n, self.a, dtype=np.float64)


def uniform(a: float, b: float) -> DistributionSpec:
    return DistributionSpec("uniform", float(a), float(b))


def gaussian(mean: float, std: float) -> DistributionSpec:
    return DistributionSpec("gaussian", float(mean), float(std))


def constant(c: float) -> DistributionSpec:
    return DistributionSpec("constant", float(c))


def pearson_abs(a: Vector, b: Vector) -> float:
    """|Pearson r|, defined as 0.0 when either argument is constant."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ParameterError(f"pearson_abs: shapes {a.shape} and {b.shape} do not match")
    da = a - a.mean()
    db = b - b.mean()
    na = math.sqrt(float(da @ da))
    nb = math.sqrt(float(db @ db))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return abs(float(da @ db) / (na * nb))
