"""Empirical measures over gamma groups and the index-sampling strategies
used for weight transfer.

One GroupMeasure per partition group: sample i bundles everything indexed by
that group at position i (vector entries, matrix rows, matrix columns). The
full slices feed the r2 norm filter, which sums each slice's per-sample
squares with one einsum and adds those sums in slice order; the per-sample
scalar features are the slice profiles (mean over the opposing axis),
computed from them on demand for function_based alone, which draws all its
candidates first and scores them in one pass over the features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arch import ROW
from .errors import ParameterError
from .net import Network


@dataclass
class GroupMeasure:
    """The joint sample cloud of one gamma group.

    ``width`` is the group's gamma width (the number of joint samples), never
    a product of weight dimensions.
    """

    width: int
    slices: dict[str, np.ndarray] = field(default_factory=dict)  # name -> (width, k)

    @property
    def features(self) -> dict[str, np.ndarray]:
        """The profile of each slice: its mean over the opposing axis, which
        rounds as ``arr.mean(axis=1)``, ``arr.mean(axis=0)`` or the vector
        itself does for a row, a column or a vector slice."""
        return {name: s.mean(axis=1) for name, s in self.slices.items()}

    def sample_norms(self) -> np.ndarray:
        """Euclidean norm per sample over all full slices: the square root
        of the sum, in ``slices`` order, of each slice's row sums of squares
        ``np.einsum("ij,ij->i", v, v)``. The einsum makes no BLAS call, so
        the norms do not depend on the thread count, and a slice may have any
        layout."""
        sums = sum(np.einsum("ij,ij->i", v, v) for v in self.slices.values())
        return np.sqrt(sums)


def extract_measures(net: Network) -> list[GroupMeasure]:
    """One GroupMeasure per group of the net's partition, in partition order."""
    arch = net.arch
    partition = arch.partition
    measures = [GroupMeasure(width) for width in partition.widths]
    for w in arch.weights:
        for ax in w.axes:
            gi = partition.axis_groups[(w.name, ax)]
            arr = net.store[w.name]
            if w.kind == "vector":
                measures[gi].slices[w.name] = arr[:, None]
            elif ax == ROW:
                measures[gi].slices[f"R({w.name})"] = arr
            else:
                measures[gi].slices[f"C({w.name})"] = arr.T
    return measures


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


def _moment_losses(features: dict[str, np.ndarray], pool: np.ndarray,
                   cands: np.ndarray) -> np.ndarray:
    """The moment loss of each row of the (candidates x target) index matrix
    ``cands`` against ``pool``: the sum, features outer and q = 1.._P_MAX
    inner, of |mean|f[pool]|^q - mean|f[cand]|^q|. A NaN loss scores +inf,
    so argmin keeps the first finite minimum, else the first candidate.
    Beyond the result it holds O(candidates x target) floats per feature."""
    losses = np.zeros(len(cands))
    for v in features.values():
        ref, drawn = np.abs(v[pool]), np.abs(v[cands])
        for q in range(1, _P_MAX + 1):
            losses += np.abs((ref**q).mean() - (drawn**q).mean(axis=1))
    losses[np.isnan(losses)] = np.inf
    return losses


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
        # Scoring draws no random numbers, so the candidates are the first
        # _CANDIDATES draws from gen. The winner is copied out of the
        # candidate matrix, so the returned set does not keep it alive.
        cands = np.stack([_draw_from_pool(pool, target, gen) for _ in range(_CANDIDATES)])
        idx = cands[np.argmin(_moment_losses(m.features, pool, cands))].copy()
    return np.asarray(idx, dtype=np.int64)


def coupling_contrast(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(mean(u_i * v_i), mean(u) * mean(v)): the paired empirical pairing
    versus the decoupled product-of-marginals pairing. They differ by the
    empirical covariance. No package code calls it: it is criterion 10's
    reference for the paper's paired-vs-decoupled coupling."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1 or u.size < 2:
        raise ParameterError("coupling_contrast needs two equal-length 1-d samples, n >= 2")
    return float(np.mean(u * v)), float(u.mean() * v.mean())
