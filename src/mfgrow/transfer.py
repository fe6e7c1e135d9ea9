"""Zero-shot weight transfer: per-group index resampling, row/column
reconstruction, multiplicative noise, naive duplication, and pruning.

Every weight sharing a group is rebuilt from the same index set, so jointly
trained slices stay coupled. Forward scalars need no bookkeeping: they derive
from the new widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .arch import COL, GammaPartition, GammaVar, ROW, WeightSpec, compute_partition
from .errors import ParameterError
from .measure import IndexSet, RandomStrategy, draw_indices, extract_measures

__all__ = ["DuplicateStrategy", "IndexSet", "TrainConfig", "TransferPlan",
           "apply_noise", "duplicate_grow", "grow_then_train", "identity_plan",
           "transfer", "uniform_plan"]
from .net import Network, OptimizerState, TrainingLog, train
from .tensor import Rng


@dataclass(frozen=True)
class DuplicateStrategy:
    """Tile the identity index set k times: growth to k*N where the new
    square matrices consist of k*k blocks equal to the original."""


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
    seed: int | None = None

    def __post_init__(self):
        if self.r1 < 0:
            raise ParameterError(f"r1 must be >= 0, got {self.r1}")
        if not 0.0 <= self.r2 < 1.0:
            raise ParameterError(f"r2 must lie in [0, 1), got {self.r2}")
        if self.noise_mode not in ("perturb", "literal"):
            raise ParameterError(f"unknown noise mode {self.noise_mode!r}")

    def target_for(self, gi: int, width: int) -> int:
        return int(self.targets.get(gi, width))


def uniform_plan(partition: GammaPartition, new_width: int, **kwargs) -> TransferPlan:
    """Plan that sends every resizable group to ``new_width``."""
    targets = {
        gi: new_width for gi in range(len(partition)) if partition.resizable[gi]
    }
    return TransferPlan(targets=targets, **kwargs)


def apply_noise(w, r1: float, mode: str, rng) -> np.ndarray:
    """Multiplicative noise on transferred values.

    literal: w * u with u ~ uniform(-r1, r1) (r1=0 zeroes the input);
    perturb: w * (1 + u), the reading under which r1=0 is the identity.
    """
    if r1 < 0:
        raise ParameterError(f"r1 must be >= 0, got {r1}")
    if mode not in ("perturb", "literal"):
        raise ParameterError(f"unknown noise mode {mode!r}")
    gen = rng.generator() if hasattr(rng, "generator") else rng
    w = np.asarray(w, dtype=np.float64)
    u = gen.uniform(-r1, r1, size=w.shape)
    return w * u if mode == "literal" else w * (1.0 + u)


@dataclass(frozen=True)
class _IdentityStrategy:
    """Keep source indices as-is (valid only when the width is unchanged)."""


IDENTITY = _IdentityStrategy()


def identity_plan(partition: GammaPartition, **kwargs) -> TransferPlan:
    return TransferPlan(strategy=IDENTITY, **kwargs)


def _group_index_set(measures, partition, plan, gi, rng) -> np.ndarray:
    width = partition.widths[gi]
    target = plan.target_for(gi, width)
    if not partition.resizable[gi]:
        if target != width:
            raise ParameterError(
                f"group {gi} has a data-tied width {width}; cannot resize to {target}"
            )
        return np.arange(width, dtype=np.int64)
    strategy = plan.strategy
    if isinstance(strategy, _IdentityStrategy):
        if target != width:
            raise ParameterError(f"identity strategy cannot resize group {gi}")
        return np.arange(width, dtype=np.int64)
    if isinstance(strategy, DuplicateStrategy):
        if target % width != 0:
            raise ParameterError(
                f"duplication needs an integer multiple of {width}, got target {target}"
            )
        return np.tile(np.arange(width, dtype=np.int64), target // width)
    return draw_indices(
        measures[gi], target, strategy, plan.r2, rng.substream(f"transfer/idx/{gi}")
    ).indices


def transfer(
    net: Network,
    partition: GammaPartition,
    plan: TransferPlan,
    rng: Rng | None = None,
) -> Network:
    """Resample every group per the plan and rebuild all weights."""
    if rng is None:
        if plan.seed is None:
            raise ParameterError("transfer needs an Rng or a plan seed")
        rng = Rng(plan.seed)
    elif plan.seed is not None:
        rng = Rng(plan.seed)

    arch = net.arch
    measures = extract_measures(net, partition)
    index_sets = {
        gi: _group_index_set(measures, partition, plan, gi, rng)
        for gi in range(len(partition))
    }

    axis_group = {
        (u.weight, u.axis): partition.group_of(u.gamma) for u in arch.usages
    }

    new_store: dict[str, np.ndarray] = {}
    new_weights: list[WeightSpec] = []
    for w in arch.weights:
        arr = net.store[w.name]
        resampled = False
        if w.kind == "vector":
            gi = axis_group[(w.name, ROW)]
            arr = arr[index_sets[gi]]
            resampled = partition.resizable[gi]
        else:
            gi_r = axis_group[(w.name, ROW)]
            gi_c = axis_group[(w.name, COL)]
            arr = arr[index_sets[gi_r]][:, index_sets[gi_c]]
            resampled = partition.resizable[gi_r] or partition.resizable[gi_c]
        if resampled and plan.r1 > 0.0:
            arr = apply_noise(arr, plan.r1, plan.noise_mode, rng.substream(f"transfer/noise/{w.name}"))
        elif resampled and plan.r1 == 0.0 and plan.noise_mode == "literal":
            arr = np.zeros_like(arr)
        else:
            arr = np.array(arr, dtype=np.float64)
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


@dataclass(frozen=True)
class TrainConfig:
    """Post-transfer (or from-scratch) training setup."""

    optimizer: str = "sgd"
    lr: float = 0.1
    lr_width_exponent: float = 0.0
    epochs: int = 3
    batch_size: int = 64
    loss: str = "square"
    seed: int = 0


def grow_then_train(
    small_ckpt,
    target_widths: int | dict[int, int],
    plan: TransferPlan,
    train_cfg: TrainConfig,
    train_data,
    test_data=None,
) -> TrainingLog:
    """Load a checkpoint, transfer to the target widths, resume training.

    ``small_ckpt`` may be a path or an already-loaded Network. The log is
    tagged with the plan parameters so it can sit next to a from-scratch
    benchmark.
    """
    if isinstance(small_ckpt, Network):
        net = small_ckpt.clone()
    else:
        from .data import load_checkpoint

        net = load_checkpoint(small_ckpt)
    partition = compute_partition(net.arch)
    if isinstance(target_widths, int):
        targets = {
            gi: target_widths for gi in range(len(partition)) if partition.resizable[gi]
        }
    else:
        targets = dict(target_widths)
    plan = replace(plan, targets=targets)
    rng = Rng(plan.seed if plan.seed is not None else train_cfg.seed)
    grown = transfer(net, partition, plan, rng)

    opt = OptimizerState.create(
        grown, kind=train_cfg.optimizer, lr=train_cfg.lr,
        lr_width_exponent=train_cfg.lr_width_exponent,
    )
    log = train(
        grown, train_data, opt, train_cfg.epochs, train_cfg.batch_size,
        Rng(train_cfg.seed), test_data=test_data, loss=train_cfg.loss,
    )
    log.tags.update(
        r1=plan.r1, r2=plan.r2, noise_mode=plan.noise_mode,
        strategy=type(plan.strategy).__name__, targets=dict(targets),
    )
    return log
