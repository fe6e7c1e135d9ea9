"""Empirical measures over gamma groups, the moment-matching loss, and the
index-sampling strategies used for weight transfer.

One GroupMeasure per partition group: sample i bundles everything indexed by
that group at position i (vector entries, matrix rows, matrix columns). The
per-sample scalar features are the slice profiles (mean over the opposing
axis); the full slices are kept alongside for the r2 norm filter.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .arch import COL, ROW, GammaPartition
from .errors import ParameterError
from .net import Network

# Squares formed at a time by the r2 norm filter (512 KiB of float64).
_NORM_BLOCK = 1 << 16


def _squares(parts, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the squares of ``parts`` side by side."""
    start = 0
    for v in parts:
        stop = start + v.shape[1]
        np.multiply(v, v, out=out[:, start:stop])
        start = stop
    return out


@dataclass
class GroupMeasure:
    """The joint sample cloud of one gamma group.

    ``width`` is the group's gamma width (the number of joint samples), never
    a product of weight dimensions.
    """

    group_index: int
    gamma_ids: tuple[int, ...]
    width: int
    features: dict[str, np.ndarray] = field(default_factory=dict)
    slices: dict[str, np.ndarray] = field(default_factory=dict)  # name -> (width, k)

    def restricted(self, idx: np.ndarray) -> dict[str, np.ndarray]:
        return {name: vals[idx] for name, vals in self.features.items()}

    def sample_norms(self) -> np.ndarray:
        """Euclidean norm per sample over all concatenated full slices.

        Each row's sum rounds exactly as it does over ``np.concatenate`` of
        the slices, which lays them out column-major when every slice with
        two non-unit dimensions is column-major (a transposed matrix), and
        row-major otherwise. A row-major row sums pairwise along itself, so
        the squares go through a buffer of whole rows, a block of rows at a
        time. A column-major row sums its squares one after another, so the
        buffer holds a block of columns after the running sums, which read
        contiguous source rows of the transposed matrices.
        """
        slices = list(self.slices.values())
        total = sum(v.shape[1] for v in slices)
        strided = [v.strides for v in slices if 1 not in v.shape]
        if strided and all(abs(s1) > abs(s0) for s0, s1 in strided):
            cols = max(1, _NORM_BLOCK // self.width)
            buf = np.zeros((self.width, 1 + min(cols, total)), order="F")
            sums = buf[:, 0]
            for v in slices:
                for start in range(0, v.shape[1], cols):
                    part = v[:, start:start + cols]
                    stop = 1 + part.shape[1]
                    np.multiply(part, part, out=buf[:, 1:stop])
                    sums[:] = np.add.reduce(buf[:, :stop], axis=1)
            return np.sqrt(sums)
        rows = max(1, _NORM_BLOCK // total)
        if rows >= self.width:
            sums = np.add.reduce(_squares(slices, np.empty((self.width, total))), axis=1)
            return np.sqrt(sums, out=sums)
        buf = np.empty((rows, total))
        sums = np.empty(self.width)
        for first in range(0, self.width, rows):
            block = _squares([v[first:first + rows] for v in slices], buf[:self.width - first])
            np.add.reduce(block, axis=1, out=sums[first:first + rows])
        return np.sqrt(sums, out=sums)

    def to_csv(self) -> str:
        buf = io.StringIO()
        names = list(self.features)
        buf.write("sample," + ",".join(names) + "\n")
        for i in range(self.width):
            vals = ",".join(f"{self.features[n][i]:.12g}" for n in names)
            buf.write(f"{i},{vals}\n")
        return buf.getvalue()


def extract_measures(net: Network, partition: GammaPartition) -> list[GroupMeasure]:
    """One GroupMeasure per group, in partition order."""
    arch = net.arch
    axis_to_group: dict[tuple[str, str], int] = {}
    for u in arch.usages:
        axis_to_group[(u.weight, u.axis)] = partition.group_of(u.gamma)

    measures = [
        GroupMeasure(i, grp, partition.widths[i])
        for i, grp in enumerate(partition.groups)
    ]
    for w in arch.weights:
        axes = ((ROW,) if w.kind == "vector" else (ROW, COL))
        for ax in axes:
            gi = axis_to_group.get((w.name, ax))
            if gi is None:
                continue
            m = measures[gi]
            arr = net.store[w.name]
            if w.kind == "vector":
                name = w.name
                values = arr[:, None]
                profile = arr.copy()
            elif ax == ROW:
                name = f"R({w.name})"
                values = arr
                profile = arr.mean(axis=1)
            else:
                name = f"C({w.name})"
                values = arr.T
                profile = arr.mean(axis=0)
            m.features[name] = profile
            m.slices[name] = values
    return measures


# ---------------------------------------------------------------------------
# Losses over measures
# ---------------------------------------------------------------------------


def _abs_moments(vals, p_max: int) -> list[float]:
    """mean|v|^q for q = 1..p_max."""
    a = np.abs(np.asarray(vals, dtype=np.float64))
    if a.size == 0:
        raise ParameterError("weighted_measure_loss needs non-empty features")
    return [float((a**q).mean()) for q in range(1, p_max + 1)]


class _Reference(dict):
    """Features that carry their own mean|x_f|^q, q = 1..p_max, so that
    many candidates are compared against them without recomputing those."""

    def __init__(self, features: dict[str, np.ndarray], p_max: int):
        super().__init__(features)
        self.p_max = p_max
        self.moments = {name: _abs_moments(v, p_max) for name, v in features.items()}


def weighted_measure_loss(x: dict[str, np.ndarray], y: dict[str, np.ndarray],
                          p_max: int) -> float:
    """Sum over the features of ``x`` and over q = 1..p_max of
    |mean|x_f|^q - mean|y_f|^q|, accumulated features outer, q inner."""
    if isinstance(x, _Reference) and x.p_max == p_max:
        x_moments = x.moments
    else:
        x_moments = {name: _abs_moments(v, p_max) for name, v in x.items()}
    total = 0.0
    for name, x_q in x_moments.items():
        other = y.get(name)
        if other is None:
            raise ParameterError(f"unknown feature {name!r} in comparison measure")
        for a, b in zip(x_q, _abs_moments(other, p_max)):
            total += abs(a - b)
    return total


# ---------------------------------------------------------------------------
# Index sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomStrategy:
    """Draw uniformly from the pool, with replacement only when growing past
    it (a same-size draw is then a pure permutation)."""


@dataclass(frozen=True)
class GroupStrategy:
    n_groups: int

    def __post_init__(self):
        if self.n_groups < 1:
            raise ParameterError(f"n_groups must be >= 1, got {self.n_groups}")


@dataclass(frozen=True)
class FunctionBasedStrategy:
    """Keep the best of ``n_candidates`` random draws under the moment loss
    with moments 1..p_max. A draw of the whole surviving pool without
    replacement keeps the first draw, as ``RandomStrategy()`` would."""

    n_candidates: int
    p_max: int

    def __post_init__(self):
        if self.n_candidates < 1:
            raise ParameterError(f"n_candidates must be >= 1, got {self.n_candidates}")
        if self.p_max < 1:
            raise ParameterError(f"p_max must be >= 1, got {self.p_max}")


@dataclass(frozen=True)
class DuplicateStrategy:
    """Tile the identity index set k times: growth to k*N where the new
    square matrices consist of k*k blocks equal to the original."""


def _surviving_pool(m: GroupMeasure, r2: float) -> np.ndarray:
    """Indices surviving the norm-rate filter: the top ceil((1-r2)*width)
    samples by feature norm, descending (stable on ties)."""
    if not 0.0 <= r2 < 1.0:
        raise ParameterError(f"r2 must lie in [0, 1), got {r2}")
    keep = math.ceil((1.0 - r2) * m.width)
    if keep < 1:
        raise ParameterError(f"r2={r2} leaves zero samples in group {m.group_index}")
    norms = m.sample_norms()
    order = np.argsort(-norms, kind="stable")
    return order[:keep]


def _draw_from_pool(pool: np.ndarray, target: int, gen: np.random.Generator) -> np.ndarray:
    """With replacement when growing past the pool, without when subsetting."""
    return gen.choice(pool, size=target, replace=target > pool.size)


def draw_indices(m: GroupMeasure, target: int, strategy, r2: float,
                 gen: np.random.Generator) -> np.ndarray:
    """Pick ``target`` source positions (int64) per the strategy, after the
    r2 norm filter (which duplication ignores)."""
    if target < 1:
        raise ParameterError(f"target must be >= 1, got {target}")
    if isinstance(strategy, DuplicateStrategy):
        if target % m.width != 0:
            raise ParameterError(
                f"duplication needs an integer multiple of {m.width}, got target {target}"
            )
        return np.tile(np.arange(m.width, dtype=np.int64), target // m.width)
    pool = _surviving_pool(m, r2)

    if isinstance(strategy, RandomStrategy):
        idx = _draw_from_pool(pool, target, gen)
    elif isinstance(strategy, GroupStrategy):
        # Pool is already norm-sorted; split into contiguous norm bands,
        # pick a band uniformly, then a member uniformly within it.
        bands = [b for b in np.array_split(pool, strategy.n_groups) if b.size > 0]
        picks = gen.integers(0, len(bands), size=target)
        idx = np.empty(target, dtype=np.int64)
        for i, b in enumerate(picks):
            band = bands[b]
            idx[i] = band[gen.integers(0, band.size)]
    elif isinstance(strategy, FunctionBasedStrategy) and target == pool.size:
        # Drawn without replacement, every candidate is a permutation of the
        # pool with the pool's moments: the losses differ only by rounding.
        idx = _draw_from_pool(pool, target, gen)
    elif isinstance(strategy, FunctionBasedStrategy):
        reference = _Reference(m.restricted(pool), strategy.p_max)
        best = None
        best_loss = math.inf
        for _ in range(strategy.n_candidates):
            cand = _draw_from_pool(pool, target, gen)
            loss = weighted_measure_loss(reference, m.restricted(cand), strategy.p_max)
            if loss < best_loss:
                best, best_loss = cand, loss
        idx = best
    else:
        raise ParameterError(f"unknown sampling strategy {strategy!r}")
    return np.asarray(idx, dtype=np.int64)


def coupling_contrast(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(mean(u_i * v_i), mean(u) * mean(v)): the paired empirical pairing
    versus the decoupled product-of-marginals pairing. They differ by the
    empirical covariance."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1 or u.size < 2:
        raise ParameterError("coupling_contrast needs two equal-length 1-d samples, n >= 2")
    return float(np.mean(u * v)), float(u.mean() * v.mean())
