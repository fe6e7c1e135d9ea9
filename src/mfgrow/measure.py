"""Empirical measures over gamma groups, the moment-matching loss, and the
index-sampling strategies used for weight transfer.

One GroupMeasure per partition group: sample i bundles everything indexed by
that group at position i (vector entries, matrix rows, matrix columns). The
full slices feed the r2 norm filter; the per-sample scalar features are the
slice profiles (mean over the opposing axis), computed from them on demand.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .arch import COL, ROW
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
    width: int
    slices: dict[str, np.ndarray] = field(default_factory=dict)  # name -> (width, k)

    @property
    def features(self) -> dict[str, np.ndarray]:
        """The profile of each slice: its mean over the opposing axis, which
        rounds as ``arr.mean(axis=1)``, ``arr.mean(axis=0)`` or the vector
        itself does for a row, a column or a vector slice."""
        return {name: s.mean(axis=1) for name, s in self.slices.items()}

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
        features = self.features
        buf.write("sample," + ",".join(features) + "\n")
        for i in range(self.width):
            vals = ",".join(f"{v[i]:.12g}" for v in features.values())
            buf.write(f"{i},{vals}\n")
        return buf.getvalue()


def extract_measures(net: Network) -> list[GroupMeasure]:
    """One GroupMeasure per group of the net's partition, in partition order."""
    arch = net.arch
    partition = arch.partition
    measures = [GroupMeasure(i, width) for i, width in enumerate(partition.widths)]
    for w in arch.weights:
        axes = ((ROW,) if w.kind == "vector" else (ROW, COL))
        for ax in axes:
            gi = partition.axis_groups.get((w.name, ax))
            if gi is None:
                continue
            arr = net.store[w.name]
            if w.kind == "vector":
                measures[gi].slices[w.name] = arr[:, None]
            elif ax == ROW:
                measures[gi].slices[f"R({w.name})"] = arr
            else:
                measures[gi].slices[f"C({w.name})"] = arr.T
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


def _moment_gap(x_moments: dict[str, list[float]], y: dict[str, np.ndarray],
                p_max: int) -> float:
    """The loss of ``weighted_measure_loss`` against ``x``'s precomputed
    moments, so that many ``y`` are compared without recomputing those."""
    total = 0.0
    for name, x_q in x_moments.items():
        other = y.get(name)
        if other is None:
            raise ParameterError(f"unknown feature {name!r} in comparison measure")
        for a, b in zip(x_q, _abs_moments(other, p_max)):
            total += abs(a - b)
    return total


def weighted_measure_loss(x: dict[str, np.ndarray], y: dict[str, np.ndarray],
                          p_max: int) -> float:
    """Sum over the features of ``x`` and over q = 1..p_max of
    |mean|x_f|^q - mean|y_f|^q|, accumulated features outer, q inner."""
    return _moment_gap({name: _abs_moments(v, p_max) for name, v in x.items()}, y, p_max)


# ---------------------------------------------------------------------------
# Index sampling
# ---------------------------------------------------------------------------


# The sampling strategies. duplicate tiles the identity index set k times, so
# each square matrix grows into k*k equal blocks; the others draw from the
# pool that survives the r2 norm filter. random draws without replacement up
# to the pool's size and by the residual rule past it. group draws i.i.d.
# from _BANDS norm bands. function_based keeps the best of _CANDIDATES random
# draws under the moment loss with moments 1.._P_MAX.
STRATEGIES = ("random", "group", "function_based", "duplicate")
_BANDS = 4
_CANDIDATES = 64
_P_MAX = 4


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


def _residual_draw(pool: np.ndarray, target: int, gen: np.random.Generator) -> np.ndarray:
    """Each pool index ``target // pool.size`` times in pool order, then
    ``target % pool.size`` more drawn without replacement: residual
    resampling, which has lower variance than i.i.d. draws (Douc, Cappe &
    Moulines, arXiv cs/0507025)."""
    reps, rest = divmod(target, pool.size)
    idx = np.tile(pool, reps)
    if rest:
        idx = np.concatenate([idx, gen.choice(pool, size=rest, replace=False)])
    return idx


def _draw_from_pool(pool: np.ndarray, target: int, gen: np.random.Generator) -> np.ndarray:
    """Without replacement when subsetting (a same-size draw is a
    permutation), the residual draw when growing past the pool."""
    if target <= pool.size:
        return gen.choice(pool, size=target, replace=False)
    return _residual_draw(pool, target, gen)


def draw_indices(m: GroupMeasure, target: int, strategy: str, r2: float,
                 gen: np.random.Generator) -> np.ndarray:
    """Pick ``target`` source positions (int64) per the named strategy, after
    the r2 norm filter (which duplication ignores)."""
    if strategy not in STRATEGIES:
        raise ParameterError(
            f"unknown sampling strategy {strategy!r}; expected one of {STRATEGIES}")
    if target < 1:
        raise ParameterError(f"target must be >= 1, got {target}")
    if strategy == "duplicate":
        if target % m.width != 0:
            raise ParameterError(
                f"duplication needs an integer multiple of {m.width}, got target {target}"
            )
        return _residual_draw(np.arange(m.width, dtype=np.int64), target, gen)
    pool = _surviving_pool(m, r2)

    if strategy == "group":
        # Pool is already norm-sorted; split into contiguous norm bands,
        # pick a band uniformly, then a member uniformly within it. This
        # stays i.i.d. when growing: within its bands the residual rule
        # would give every member target // pool copies, as the residual
        # draw over the whole pool does, and the strategy would differ from
        # random only in its remainder.
        sizes = np.array([b.size for b in np.array_split(pool, _BANDS) if b.size])
        starts = np.cumsum(sizes) - sizes
        picks = gen.integers(0, sizes.size, size=target)
        idx = pool[starts[picks] + gen.integers(0, sizes[picks])]
    elif strategy == "random" or target % pool.size == 0:
        # A function_based draw to a multiple of the pool: every candidate is
        # a permutation of the pool, or the tiled pool, so all have the
        # pool's moments and the losses differ only by rounding.
        idx = _draw_from_pool(pool, target, gen)
    else:
        features = m.features
        pool_moments = {name: _abs_moments(v[pool], _P_MAX) for name, v in features.items()}
        best = None
        best_loss = math.inf
        for _ in range(_CANDIDATES):
            cand = _draw_from_pool(pool, target, gen)
            loss = _moment_gap(pool_moments, {name: v[cand] for name, v in features.items()},
                               _P_MAX)
            if loss < best_loss:
                best, best_loss = cand, loss
        idx = best
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
