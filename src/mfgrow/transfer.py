"""Zero-shot weight transfer: per-group index resampling, row/column
reconstruction, multiplicative noise, naive duplication, and pruning.

Every weight sharing a group is rebuilt from the same index set, so jointly
trained slices stay coupled. Forward scalars need no bookkeeping: they derive
from the new widths. All randomness comes from the Rng the caller passes in;
training the transferred net is left to the caller.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .arch import ArchGraph, GammaVar, WeightSpec
from .errors import ParameterError
from .measure import STRATEGIES, draw_indices, extract_measures
from .net import Network
from .tensor import Rng, _integer

__all__ = ["TransferPlan", "apply_noise", "duplicate_grow", "index_sets", "transfer",
           "uniform_plan"]


@dataclass(frozen=True)
class TransferPlan:
    """Target widths and sampling choices for one transfer.

    ``targets`` maps a hidden group's index (in ``ArchGraph.partition``
    order), an integer, to its new width, an integer. Only the named groups
    are resampled; the others keep their units. A data group cannot be named.
    The plan keeps a read-only copy of the checked targets, so a later change
    to the caller's mapping reaches no transfer.
    """

    targets: Mapping[int, int] = field(default_factory=dict)
    strategy: str = "random"  # one of measure.STRATEGIES
    r1: float = 0.0
    r2: float = 0.0

    def __post_init__(self):
        targets = dict(self.targets)
        for gi, t in targets.items():
            if not _integer(gi):
                raise ParameterError(f"plan target {gi!r} names no group: "
                                     "a group index is an integer")
            if not _integer(t):
                raise ParameterError(f"plan target for group {gi!r} must be an integer, got {t!r}")
        object.__setattr__(self, "targets", MappingProxyType(targets))
        if not 0.0 <= self.r1 < math.inf:
            raise ParameterError(f"r1 must be a finite number >= 0, got {self.r1}")
        if not 0.0 <= self.r2 < 1.0:
            raise ParameterError(f"r2 must lie in [0, 1), got {self.r2}")
        if self.strategy not in STRATEGIES:
            raise ParameterError(
                f"unknown sampling strategy {self.strategy!r}; expected one of {STRATEGIES}")


def uniform_plan(arch: ArchGraph, new_width: int, **kwargs) -> TransferPlan:
    """Plan that sends every resizable group of ``arch`` to ``new_width``."""
    resizable = arch.partition.resizable
    return TransferPlan({gi: new_width for gi in range(len(resizable)) if resizable[gi]}, **kwargs)


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


def index_sets(net: Network, plan: TransferPlan, rng: Rng) -> dict[int, np.ndarray]:
    """The source units each group ``plan`` names takes, by group index:
    group gi draws from its own substream ``transfer/idx/{gi}``. Groups the
    plan leaves out get no set. ``transfer`` gathers by these sets and
    returns them."""
    partition = net.arch.partition
    measures = extract_measures(net)
    sets = {}
    for gi, target in plan.targets.items():
        if gi not in range(len(partition)):
            raise ParameterError(f"plan target {gi!r} names no group: "
                                 f"the net has {len(partition)} groups")
        if not partition.resizable[gi]:
            raise ParameterError(f"group {gi} has a data-tied width {partition.widths[gi]}; "
                                 f"cannot resize to {target}")
        sets[gi] = draw_indices(measures[gi], target, plan.strategy, plan.r2,
                                rng.substream(f"transfer/idx/{gi}"))
    return sets


class _Transferred(NamedTuple):
    """``transfer``'s (network, sets) pair. ``store`` is the network's:
    bench/layers.py sizes a transfer's output as ``result.store``."""

    network: Network
    sets: dict[int, np.ndarray]

    @property
    def store(self) -> dict[str, np.ndarray]:
        return self.network.store


def transfer(net: Network, plan: TransferPlan, rng: Rng) -> _Transferred:
    """Rebuild every weight from ``sets = index_sets(net, plan, rng)``:
    gather each axis of a named group, then add the r1 noise. A weight with
    no such axis is copied. Returns ``(network, sets)``: the new network and
    the draw it was gathered by. The source network is left untouched."""
    arch = net.arch
    partition = arch.partition
    sets = index_sets(net, plan, rng)

    new_store: dict[str, np.ndarray] = {}
    for w in arch.weights:
        # np.take returns fresh row-major arrays, the layout a checkpoint load
        # gives, so a transferred net rounds alike before and after a save,
        # and the noise can be applied to them in place.
        arr = np.asarray(net.store[w.name], dtype=np.float64)
        resampled = False
        for axis, name in enumerate(w.axes):
            gi = partition.axis_groups[(w.name, name)]
            if gi in sets:
                arr = np.take(arr, sets[gi], axis=axis)
                resampled = True
        if resampled and plan.r1 > 0.0:
            apply_noise(arr, plan.r1, rng.substream(f"transfer/noise/{w.name}"))
        elif not resampled:
            arr = arr.copy()
        new_store[w.name] = arr

    new_weights = tuple(WeightSpec(w.name, w.kind, new_store[w.name].shape) for w in arch.weights)
    new_width = {gid: len(idx) for gi, idx in sets.items() for gid in partition.groups[gi]}
    new_gammas = tuple(GammaVar(g.id, new_width.get(g.id, g.width), g.role) for g in arch.gammas)
    new_arch = replace(arch, weights=new_weights, gammas=new_gammas)
    return _Transferred(Network(new_arch, new_store), sets)


def duplicate_grow(net: Network, k: int) -> Network:
    """Naive k-fold duplication of every resizable group (function-preserving
    under MFP, where the 1/width scalars absorb the copies exactly). It draws
    nothing and applies no noise."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    p = net.arch.partition
    targets = {gi: width * k for gi, width in enumerate(p.widths) if p.resizable[gi]}
    return transfer(net, TransferPlan(targets, strategy="duplicate"), Rng(0)).network
