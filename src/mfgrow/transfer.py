"""Zero-shot weight transfer: per-group index resampling, row/column
reconstruction, multiplicative noise, naive duplication, and pruning.

Every weight sharing a group is rebuilt from the same index set, so jointly
trained slices stay coupled. Forward scalars need no bookkeeping: they derive
from the new widths. All randomness comes from the Rng the caller passes in;
training the transferred net is left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .arch import COL, ArchGraph, GammaVar, ROW, WeightSpec
from .errors import ParameterError
from .measure import STRATEGIES, draw_indices, extract_measures
from .net import Network
from .tensor import Rng

__all__ = ["TransferPlan", "apply_noise", "duplicate_grow", "transfer", "uniform_plan"]


@dataclass(frozen=True)
class TransferPlan:
    """Target widths and sampling choices for one transfer.

    ``targets`` maps group index (in ``ArchGraph.partition`` order) -> new
    width; groups left out keep their width. Non-resizable groups (data
    dimensions) must keep theirs.
    """

    targets: dict[int, int] = field(default_factory=dict)
    strategy: str = "random"  # one of measure.STRATEGIES
    r1: float = 0.0
    r2: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.r1 < math.inf:
            raise ParameterError(f"r1 must be a finite number >= 0, got {self.r1}")
        if not 0.0 <= self.r2 < 1.0:
            raise ParameterError(f"r2 must lie in [0, 1), got {self.r2}")
        if self.strategy not in STRATEGIES:
            raise ParameterError(
                f"unknown sampling strategy {self.strategy!r}; expected one of {STRATEGIES}")


def uniform_plan(arch: ArchGraph, new_width: int, **kwargs) -> TransferPlan:
    """Plan that sends every resizable group of ``arch`` to ``new_width``."""
    partition = arch.partition
    targets = {
        gi: new_width for gi in range(len(partition)) if partition.resizable[gi]
    }
    return TransferPlan(targets=targets, **kwargs)


_NOISE_BLOCK = 1 << 15


def apply_noise(w: np.ndarray, r1: float, gen: np.random.Generator) -> None:
    """Multiplicative noise on transferred values, in place: w * (1 + u) with
    u ~ uniform(-r1, r1), so r1=0 is the identity.

    u is drawn as ``gen.uniform(-r1, r1, size=w.shape)`` would draw it, in
    blocks through one reused buffer, so no full-size array is allocated.
    ``w`` must be a writeable C-contiguous float64 array.
    """
    if not 0.0 <= r1 < math.inf:
        raise ParameterError(f"r1 must be a finite number >= 0, got {r1}")
    if (not isinstance(w, np.ndarray) or w.dtype != np.float64
            or not w.flags.c_contiguous or not w.flags.writeable):
        raise ParameterError("w must be a writeable C-contiguous float64 array")
    flat = w.reshape(-1)
    buf = np.empty(min(flat.size, _NOISE_BLOCK))
    for start in range(0, flat.size, _NOISE_BLOCK):
        block = flat[start:start + _NOISE_BLOCK]
        u = buf[:block.size]
        # Generator.uniform computes low + (high - low) * next_double.
        gen.random(out=u)
        u *= r1 - (-r1)
        u += -r1
        u += 1.0
        block *= u


def _group_index_set(measures, partition, plan, gi, rng) -> np.ndarray:
    width = partition.widths[gi]
    target = int(plan.targets.get(gi, width))
    if not partition.resizable[gi]:
        if target != width:
            raise ParameterError(
                f"group {gi} has a data-tied width {width}; cannot resize to {target}"
            )
        return np.arange(width, dtype=np.int64)
    return draw_indices(
        measures[gi], target, plan.strategy, plan.r2, rng.substream(f"transfer/idx/{gi}")
    )


def transfer(net: Network, plan: TransferPlan, rng: Rng) -> Network:
    """Resample every group of the net's partition per the plan and rebuild
    all weights. The source network is left untouched."""
    net.validate()
    arch = net.arch
    partition = arch.partition
    for gi in plan.targets:
        if gi not in range(len(partition)):
            raise ParameterError(
                f"plan target {gi!r} names no group: the net has {len(partition)} groups"
            )
    measures = extract_measures(net)
    index_sets = {
        gi: _group_index_set(measures, partition, plan, gi, rng)
        for gi in range(len(partition))
    }

    new_store: dict[str, np.ndarray] = {}
    new_weights: list[WeightSpec] = []
    for w in arch.weights:
        # Gather only along resized axes: a data-tied axis keeps its full
        # extent, so indexing it through its identity set would only copy.
        # np.take returns fresh row-major arrays, the layout a checkpoint load
        # gives, so a transferred net rounds alike before and after a save,
        # and the noise can be applied to them in place.
        arr = np.asarray(net.store[w.name], dtype=np.float64)
        axes = (ROW,) if w.kind == "vector" else (ROW, COL)
        resampled = False
        for axis, name in enumerate(axes):
            gi = partition.axis_groups[(w.name, name)]
            if partition.resizable[gi]:
                arr = np.take(arr, index_sets[gi], axis=axis)
                resampled = True
        if resampled and plan.r1 > 0.0:
            apply_noise(arr, plan.r1, rng.substream(f"transfer/noise/{w.name}"))
        elif not resampled:
            arr = arr.copy()
        new_store[w.name] = arr
        new_weights.append(WeightSpec(w.name, w.kind, tuple(arr.shape)))

    new_gammas = []
    for gm in arch.gammas:
        gi = partition.group_of(gm.id)
        new_gammas.append(GammaVar(gm.id, len(index_sets[gi]), gm.role))
    new_arch = replace(arch, weights=tuple(new_weights), gammas=tuple(new_gammas))
    return Network(new_arch, new_store, dict(net.meta))


def duplicate_grow(net: Network, k: int) -> Network:
    """Naive k-fold duplication of every resizable group (function-preserving
    under MFP, where the 1/width scalars absorb the copies exactly). It draws
    nothing and applies no noise."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    partition = net.arch.partition
    targets = {
        gi: partition.widths[gi] * k
        for gi in range(len(partition))
        if partition.resizable[gi]
    }
    plan = TransferPlan(targets=targets, strategy="duplicate")
    return transfer(net, plan, Rng(0))
