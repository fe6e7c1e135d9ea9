"""Concrete networks under SP / muP / MFP: forward evaluation, manual
backpropagation, per-weight learning-rate scaling, SGD and Adam, and the
training loop.

One layer executor runs every network, entered through ``forward_batch``
and ``backward_batch``; a single example is a one-row batch. Each call
builds a layer plan from the arch: per layer the weight, the bias, the
forward scalar, the activation, and a flag that adds the previous layer's
pre-activation before the activation. skip4 is the depth-4 chain plus two
usages (w1 and b1 rows on gamma 3, since w1's rows feed both paths), and
its ``skip4`` topology sets that residual flag on the third layer.

Forward scalars sit on every contraction and depend on the contracted axis:
a contraction over a width-N hidden axis gets 1/N under MFP and 1/sqrt(N)
under SP and muP, except the final output contraction which gets 1/N under
muP as well. Contractions over data axes (the input dimension) get 1/fan
under MFP and no scalar under SP/muP, where fan-scaled initialization keeps
pre-activations O(1). For 1-d input these rules collapse to the plain
three-parametrization forms.

Each scalar is applied to the smaller side of its product: in place on the
(batch, out) forward output, and folded with the batch mean's 1/B into the
(batch, out) delta before a weight gradient is formed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arch import ArchGraph, ROW, COL
from .errors import DivergenceError, ParameterError, StructureError
from .tensor import Rng, as_f64

LOSSES = ("square", "cross_entropy")
DIVERGENCE_LIMIT = 1e6
# Adam's moment decay rates and denominator guard.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# Activation and its derivative, the latter written in terms of the
# activation's output so the backward pass needs only the layer inputs.
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda z: 1.0 - z * z),
    "relu": (lambda a: np.maximum(a, 0.0), lambda z: (z > 0.0).astype(np.float64)),
    "identity": (lambda a: a, lambda z: np.ones_like(z)),
}


@dataclass
class Network:
    """Architecture plus concrete weight arrays."""

    arch: ArchGraph
    store: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    @property
    def parametrization(self) -> str:
        return self.arch.parametrization

    def validate(self) -> None:
        self.arch.validate()
        if not self.arch.layers:
            raise StructureError("network needs a runnable topology (chain or skip4)")
        for w in self.arch.weights:
            arr = self.store.get(w.name)
            if arr is None:
                raise StructureError(f"store is missing weight {w.name}")
            if tuple(arr.shape) != w.shape:
                raise StructureError(
                    f"weight {w.name}: stored shape {tuple(arr.shape)} != declared {w.shape}"
                )

    def input_dim(self) -> int:
        u = self.arch.weight(self.arch.layers[0][0])
        return 1 if u.kind == "vector" else u.shape[1]

    def output_dim(self) -> int:
        v = self.arch.weight(self.arch.layers[-1][0])
        return 1 if v.kind == "vector" else v.shape[0]


def zeros_network(arch: ArchGraph) -> Network:
    store = {w.name: np.zeros(w.shape, dtype=np.float64) for w in arch.weights}
    return Network(arch, store)


def _contraction_scalar(parametrization: str, fan: int, role: str, final: bool) -> float:
    if role == "data":
        return 1.0 / fan if parametrization == "MFP" else 1.0
    if parametrization == "MFP":
        return 1.0 / fan
    if parametrization == "muP" and final:
        return 1.0 / fan
    return 1.0 / math.sqrt(fan)


class _Layer(NamedTuple):
    weight: str
    bias: str | None
    scalar: float
    act: tuple | None  # (activation, derivative from output); None on the output layer
    residual: bool  # add the previous layer's pre-activation before the activation


def _plan(net: Network) -> list[_Layer]:
    """The layer plan the executor runs; the only place that reads the topology."""
    arch = net.arch
    last = len(arch.layers) - 1
    plan = []
    for i, (wname, bname) in enumerate(arch.layers):
        vector = net.store[wname].ndim == 1
        if vector and i == 0:
            scalar = 1.0  # elementwise embedding contracts nothing
        else:
            gamma = arch.axis_gamma(wname, ROW if vector else COL)
            scalar = _contraction_scalar(arch.parametrization, gamma.width, gamma.role, i == last)
        act = None
        if i < last:
            try:
                act = _ACTIVATIONS[arch.activations[i]]
            except KeyError:
                raise ParameterError(f"unknown activation {arch.activations[i]!r}") from None
        plan.append(_Layer(wname, bname, scalar, act, arch.topology == "skip4" and i == 2))
    return plan


def _check_input(net: Network, X: np.ndarray) -> np.ndarray:
    X = as_f64(X)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != net.input_dim():
        raise ParameterError(f"input has shape {X.shape}, expected (batch, {net.input_dim()})")
    return X


def _run(net: Network, plan: list[_Layer], X: np.ndarray, keep: bool):
    """Forward pass; returns the output and, with ``keep``, each layer's input."""
    inputs = []
    z = X
    prev = None
    for i, layer in enumerate(plan):
        w = net.store[layer.weight]
        if keep:
            inputs.append(z)
        # Every branch makes a fresh array, so the scale and adds work in place.
        if w.ndim == 2:
            a = z @ w.T
        elif i == 0:
            a = X[:, 0:1] * w[None, :]
        else:
            a = (z @ w)[:, None]
        if layer.scalar != 1.0:
            a *= layer.scalar
        if layer.bias is not None:
            a += net.store[layer.bias]
        if layer.residual:
            a += prev
        prev = a
        z = a if layer.act is None else layer.act[0](a)
    return z, inputs


def forward_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Evaluate the network on a (batch, input_dim) array."""
    X = _check_input(net, X)
    return _run(net, _plan(net), X, keep=False)[0]


def _loss_and_delta(out: np.ndarray, Y: np.ndarray, loss: str):
    """Per-example losses and d(loss)/d(out)."""
    if loss == "square":
        if Y.ndim == 1:
            Y = Y[:, None]
        diff = out - Y
        losses = 0.5 * np.sum(diff * diff, axis=1)
        return losses, diff
    if loss == "cross_entropy":
        labels = Y.astype(int).reshape(-1)
        shifted = out - out.max(axis=1, keepdims=True)
        expv = np.exp(shifted)
        probs = expv / expv.sum(axis=1, keepdims=True)
        n = out.shape[0]
        losses = -np.log(np.clip(probs[np.arange(n), labels], 1e-300, None))
        delta = probs.copy()
        delta[np.arange(n), labels] -= 1.0
        return losses, delta
    raise ParameterError(f"unknown loss {loss!r}")


def backward_batch(net: Network, X: np.ndarray, Y: np.ndarray, loss: str = "square"):
    """Mean gradients of the loss over a batch. Returns (grads, mean_loss)."""
    X = _check_input(net, X)
    Y = as_f64(Y) if loss == "square" else np.asarray(Y)
    if loss == "square" and Y.ndim == 1 and net.output_dim() == 1:
        Y = Y[:, None]
    if loss not in LOSSES:
        raise ParameterError(f"unknown loss {loss!r}")
    plan = _plan(net)
    out, inputs = _run(net, plan, X, keep=True)
    losses, delta = _loss_and_delta(out, Y, loss)
    B = X.shape[0]
    grads: dict[str, np.ndarray] = {}
    for i in range(len(plan) - 1, -1, -1):
        layer = plan[i]
        w = net.store[layer.weight]
        z = inputs[i]
        if w.ndim == 2:
            # Scale the (batch, out) delta, not the (out, in) product.
            grads[layer.weight] = (delta * (layer.scalar / B)).T @ z
        elif i == 0:
            grads[layer.weight] = (delta * z[:, 0:1]).mean(axis=0)
        else:
            grads[layer.weight] = layer.scalar * (delta[:, 0:1] * z).mean(axis=0)
        if layer.bias is not None:
            grads[layer.bias] = delta.mean(axis=0)
        if i == 0:
            break
        if w.ndim == 2:
            back = delta @ w
            if layer.scalar != 1.0:
                back *= layer.scalar
        else:
            back = layer.scalar * delta[:, 0:1] * w[None, :]
        # z is the previous layer's activation output.
        back *= plan[i - 1].act[1](z)
        if layer.residual:
            # The residual add passes this layer's delta straight through.
            back += delta
        delta = back
    return grads, float(losses.mean())


def lr_multiplier(weight: str, arch: ArchGraph) -> float:
    """Per-weight learning-rate scale: under MFP the product of the weight's
    resizable axis widths (N*N for a square hidden matrix, N for vectors and
    embedding/output matrices, 1 for data-only weights); 1 under SP/muP."""
    if arch.parametrization in ("SP", "muP"):
        return 1.0
    w = arch.weight(weight)
    mult = 1.0
    axes = (ROW,) if w.kind == "vector" else (ROW, COL)
    for ax in axes:
        gamma = arch.axis_gamma(weight, ax)
        if gamma.role == "hidden":
            mult *= gamma.width
    return mult


# Elements of eff * g formed at a time by the SGD update (256 KiB of float64).
_UPDATE_BLOCK = 1 << 15


def _sgd_update(w: np.ndarray, eff: float, g: np.ndarray) -> None:
    """``w -= eff * g`` with the same rounding, without a full-size temporary.

    A matrix is updated in blocks of whole rows through one reused buffer.
    Row slices are views on any layout of ``w``; ``g`` is only read.
    """
    if w.ndim != 2 or w.size <= _UPDATE_BLOCK:
        w -= eff * g
        return
    rows = max(1, _UPDATE_BLOCK // w.shape[1])
    buf = np.empty((rows, w.shape[1]), dtype=np.result_type(g, eff))
    for start in range(0, w.shape[0], rows):
        stop = min(start + rows, w.shape[0])
        step = np.multiply(g[start:stop], eff, out=buf[: stop - start])
        w[start:stop] -= step


@dataclass
class OptimizerState:
    """SGD or Adam with fixed per-weight multipliers.

    ``lr_width_exponent`` rescales the base rate by max_hidden_width**alpha.
    It defaults to 0 (a plain constant rate); the scripted SP/muP experiments
    use 1.0 to compensate their width-dependent forward scalars.
    """

    kind: str
    lr: float
    multipliers: dict[str, float]
    width_scale: float = 1.0
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def create(cls, net: Network, kind: str = "sgd", lr: float = 0.1,
               lr_width_exponent: float = 0.0) -> "OptimizerState":
        if kind not in ("sgd", "adam"):
            raise ParameterError(f"unknown optimizer kind {kind!r}")
        if lr < 0:
            raise ParameterError(f"learning rate must be >= 0, got {lr}")
        mults = {w.name: lr_multiplier(w.name, net.arch) for w in net.arch.weights}
        max_width = max(net.arch.hidden_widths, default=1)
        return cls(kind=kind, lr=lr, multipliers=mults,
                   width_scale=float(max_width) ** lr_width_exponent)

    def apply(self, net: Network, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        for name, g in grads.items():
            eff = self.lr * self.width_scale * self.multipliers[name]
            w = net.store[name]
            if self.kind == "sgd":
                _sgd_update(w, eff, g)
                continue
            m = self.m.setdefault(name, np.zeros_like(w))
            v = self.v.setdefault(name, np.zeros_like(w))
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            mhat = m / (1.0 - _ADAM_BETA1**self.step_count)
            vhat = v / (1.0 - _ADAM_BETA2**self.step_count)
            w -= eff * mhat / (np.sqrt(vhat) + _ADAM_EPS)


@dataclass
class TrainingLog:
    """Per-epoch record, serializable as CSV."""

    seed: int
    rows: list[tuple] = field(default_factory=list)

    COLUMNS = ("epoch", "step", "train_loss", "test_loss", "test_acc", "seed")

    def add(self, epoch: int, step: int, train_loss: float, test_loss: float,
            test_acc: float) -> None:
        self.rows.append((epoch, step, train_loss, test_loss, test_acc, self.seed))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.COLUMNS) + "\n")
        for epoch, step, tr, te, acc, seed in self.rows:
            buf.write(f"{epoch},{step},{tr:.12g},{te:.12g},{acc:.12g},{seed}\n")
        return buf.getvalue()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())

    def final(self, column: str) -> float:
        idx = self.COLUMNS.index(column)
        return self.rows[-1][idx]


# Examples per forward pass of evaluate.
_EVAL_CHUNK = 1024


def evaluate(net: Network, inputs: np.ndarray, targets: np.ndarray, loss: str = "square"):
    """Mean loss (and accuracy for classification) over a dataset."""
    n = inputs.shape[0]
    if n == 0:
        raise ParameterError("evaluation data is empty")
    total = 0.0
    correct = 0
    for start in range(0, n, _EVAL_CHUNK):
        X = inputs[start : start + _EVAL_CHUNK]
        Y = targets[start : start + _EVAL_CHUNK]
        out = forward_batch(net, X)
        losses, _ = _loss_and_delta(out, as_f64(Y) if loss == "square" else Y, loss)
        total += float(losses.sum())
        if loss == "cross_entropy":
            correct += int((out.argmax(axis=1) == np.asarray(Y).astype(int)).sum())
    acc = correct / n if loss == "cross_entropy" else float("nan")
    return total / n, acc


def check_schedule(epochs: int, batch_size: int) -> None:
    """Raise ParameterError unless ``epochs >= 0`` and ``batch_size >= 1``."""
    if epochs < 0:
        raise ParameterError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")


def check_data(net: Network, data, loss: str) -> None:
    """Raise ParameterError unless ``data`` (a Dataset) fits the net: inputs
    of shape (n, input_dim), and targets of n labels in [0, output_dim) for
    cross-entropy, else of shape (n, output_dim), or (n,) at output_dim 1."""
    X, Y = data.inputs, data.targets
    n, d_in, d_out = X.shape[0], net.input_dim(), net.output_dim()
    if X.shape != (n, d_in):
        raise ParameterError(f"inputs have shape {X.shape}, but the net takes (n, {d_in})")
    if loss == "cross_entropy":
        if Y.shape != (n,):
            raise ParameterError(f"targets have shape {Y.shape}, but cross-entropy takes "
                                 f"({n},) labels")
        if n and not (0 <= Y.min() and Y.max() < d_out):
            raise ParameterError(f"labels must lie in [0, {d_out}) for the net's {d_out} "
                                 f"outputs, got {Y.min()} to {Y.max()}")
    elif Y.shape != (n, d_out) and (d_out != 1 or Y.shape != (n,)):
        raise ParameterError(f"targets have shape {Y.shape}, but the net gives (n, {d_out})")


def train(
    net: Network,
    data,
    opt: OptimizerState,
    epochs: int,
    batch_size: int,
    rng: Rng,
    test_data=None,
    loss: str = "square",
) -> TrainingLog:
    """SGD/Adam loop over ``data`` (a Dataset). Mutates ``net`` in place.

    Deterministic under a fixed seed: the shuffle order comes from a
    dedicated substream and batch reduction order is fixed.
    """
    if data.inputs.shape[0] == 0:
        raise ParameterError("training data is empty")
    check_schedule(epochs, batch_size)
    for dataset in (data, test_data):
        if dataset is not None:
            check_data(net, dataset, loss)
    order_gen = rng.substream("train/order")
    log = TrainingLog(seed=rng.seed)

    def test_metrics():
        if test_data is None:
            return float("nan"), float("nan")
        return evaluate(net, test_data.inputs, test_data.targets, loss)

    tr0, _ = evaluate(net, data.inputs, data.targets, loss)
    te0, acc0 = test_metrics()
    log.add(0, 0, tr0, te0, acc0)

    n = data.inputs.shape[0]
    step = 0
    for epoch in range(1, epochs + 1):
        perm = order_gen.permutation(n)
        running = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            grads, batch_loss = backward_batch(net, data.inputs[idx], data.targets[idx], loss)
            if not np.isfinite(batch_loss) or abs(batch_loss) > DIVERGENCE_LIMIT:
                raise DivergenceError(f"training loss diverged ({batch_loss})", step)
            opt.apply(net, grads)
            running += batch_loss
            batches += 1
            step += 1
        te, acc = test_metrics()
        log.add(epoch, step, running / batches, te, acc)
    if step:
        # Each batch loss is checked before its update; the last update is
        # checked here, by its weights and by the last batch's new loss.
        if not all(np.isfinite(w).all() for w in net.store.values()):
            raise DivergenceError("training left non-finite weights", step)
        last_loss, _ = evaluate(net, data.inputs[idx], data.targets[idx], loss)
        if not np.isfinite(last_loss) or abs(last_loss) > DIVERGENCE_LIMIT:
            raise DivergenceError(f"training loss diverged in the last update ({last_loss})",
                                  step)
    return log
