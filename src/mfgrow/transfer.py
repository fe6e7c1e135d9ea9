"""Zero-shot weight transfer: per-group index resampling, row/column
reconstruction, multiplicative noise, naive duplication, and pruning.

Every weight sharing a group is rebuilt from the same index set, so jointly
trained slices stay coupled. Forward scalars need no bookkeeping: they derive
from the new widths. All randomness comes from the Rng the caller passes in;
training the transferred net is left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .arch import COL, GammaPartition, GammaVar, ROW, WeightSpec, compute_partition
from .errors import ParameterError
from .measure import DuplicateStrategy, RandomStrategy, draw_indices, extract_measures
from .net import Network
from .tensor import Rng

__all__ = ["TransferPlan", "apply_noise", "duplicate_grow", "transfer", "uniform_plan"]


@dataclass(frozen=True)
class TransferPlan:
    """Target widths and sampling choices for one transfer.

    ``targets`` maps group index -> new width; groups left out keep their
    width. Non-resizable groups (data dimensions) must keep theirs.
    """

    targets: dict[int, int] = field(default_factory=dict)
    strategy: object = field(default_factory=RandomStrategy)
    r1: float = 0.0
    r2: float = 0.0
    noise_mode: str = "perturb"  # "perturb": w*(1+u); "literal": w*u

    def __post_init__(self):
        if self.r1 < 0:
            raise ParameterError(f"r1 must be >= 0, got {self.r1}")
        if not 0.0 <= self.r2 < 1.0:
            raise ParameterError(f"r2 must lie in [0, 1), got {self.r2}")
        if self.noise_mode not in ("perturb", "literal"):
            raise ParameterError(f"unknown noise mode {self.noise_mode!r}")


def uniform_plan(partition: GammaPartition, new_width: int, **kwargs) -> TransferPlan:
    """Plan that sends every resizable group to ``new_width``."""
    targets = {
        gi: new_width for gi in range(len(partition)) if partition.resizable[gi]
    }
    return TransferPlan(targets=targets, **kwargs)


_NOISE_BLOCK = 1 << 15


def apply_noise(w, r1: float, mode: str, gen: np.random.Generator, out=None) -> np.ndarray:
    """Multiplicative noise on transferred values, as a new array or in
    ``out``.

    literal: w * u with u ~ uniform(-r1, r1) (r1=0 zeroes the input);
    perturb: w * (1 + u), the reading under which r1=0 is the identity.
    u is drawn as ``gen.uniform(-r1, r1, size=w.shape)`` would draw it, in
    blocks through one reused buffer, so the result is the only full-size
    allocation. ``w`` is never written unless it is ``out``, which must be a
    C-contiguous float64 array of w's shape.
    """
    if r1 < 0:
        raise ParameterError(f"r1 must be >= 0, got {r1}")
    if mode not in ("perturb", "literal"):
        raise ParameterError(f"unknown noise mode {mode!r}")
    w = np.asarray(w, dtype=np.float64)
    if out is None:
        out = np.array(w, order="C")
    else:
        if out.dtype != np.float64 or out.shape != w.shape or not out.flags.c_contiguous:
            raise ParameterError("out must be a C-contiguous float64 array of w's shape")
        if out is not w:
            np.copyto(out, w)
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, _NOISE_BLOCK))
    for start in range(0, flat.size, _NOISE_BLOCK):
        block = flat[start:start + _NOISE_BLOCK]
        u = buf[:block.size]
        # Generator.uniform computes low + (high - low) * next_double.
        gen.random(out=u)
        u *= r1 - (-r1)
        u += -r1
        if mode == "perturb":
            u += 1.0
        block *= u
    return out


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


def transfer(
    net: Network,
    partition: GammaPartition,
    plan: TransferPlan,
    rng: Rng,
) -> Network:
    """Resample every group per the plan and rebuild all weights. The source
    network is left untouched."""
    net.validate()
    arch = net.arch
    measures = extract_measures(net, partition)
    index_sets = {
        gi: _group_index_set(measures, partition, plan, gi, rng)
        for gi in range(len(partition))
    }

    axis_to_group = {
        (u.weight, u.axis): partition.group_of(u.gamma) for u in arch.usages
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
            gi = axis_to_group[(w.name, name)]
            if partition.resizable[gi]:
                arr = np.take(arr, index_sets[gi], axis=axis)
                resampled = True
        if resampled and plan.r1 > 0.0:
            apply_noise(arr, plan.r1, plan.noise_mode, rng.substream(f"transfer/noise/{w.name}"),
                        out=arr)
        elif resampled and plan.r1 == 0.0 and plan.noise_mode == "literal":
            arr = np.zeros_like(arr)
        elif not resampled:
            arr = arr.copy()
        new_store[w.name] = arr
        new_weights.append(WeightSpec(w.name, w.kind, tuple(arr.shape)))

    new_gammas = []
    for gm in arch.gammas:
        gi = partition.group_of(gm.id)
        new_gammas.append(GammaVar(gm.id, len(index_sets[gi]), gm.role))
    new_arch = replace(arch, weights=tuple(new_weights), gammas=tuple(new_gammas))
    new_arch.validate()
    out = Network(new_arch, new_store, dict(net.meta))
    out.validate()
    return out


def duplicate_grow(net: Network, k: int, rng: Rng | None = None) -> Network:
    """Naive k-fold duplication of every resizable group (function-preserving
    under MFP, where the 1/width scalars absorb the copies exactly)."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    partition = compute_partition(net.arch)
    targets = {
        gi: partition.widths[gi] * k
        for gi in range(len(partition))
        if partition.resizable[gi]
    }
    plan = TransferPlan(targets=targets, strategy=DuplicateStrategy())
    return transfer(net, partition, plan, rng or Rng(0))
