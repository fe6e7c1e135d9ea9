"""Concrete networks under SP / muP / MFP: forward evaluation, manual
backpropagation, one target rule (``_targets``, which ``check_data``,
``backward_batch`` and ``evaluate`` share), SGD and Adam at per-weight rates
from the arch's rate multipliers, and the training loop.

One layer executor runs every network, entered through ``forward_batch``
and ``backward_batch``; a single example is a one-row batch. It only
executes the layer plan that the arch checked and built once (``arch.plan``):
per layer the weight, the bias, the forward scalar, the activation, and a
flag that adds the previous layer's pre-activation before the activation.
skip4 is the depth-4 chain plus two usages (w1 and b1 rows on gamma 3, since
w1's rows feed both paths), and its ``skip4`` topology sets that residual
flag on the third layer. A Network holds only a chain or skip4 arch. The
forward scalars follow ``arch._forward_scalar``.

Each scalar is applied to the smaller side of its product: in place on the
(batch, out) forward output, and folded with the batch mean's 1/B and the
weight's rate into the (batch, out) delta. A matrix gradient is never formed
in ``backward_batch``: it leaves as its rank-B factors, that scaled delta and
the layer input the forward kept (``FactoredGradient``). SGD subtracts it
with one accumulating OpenBLAS GEMM into the weight, bound through ctypes
from the library NumPy's wheel loads (``_DGEMM``); it gives the bits of
``w -= ds.T @ z`` while the batch fits one K block (384 rows in OpenBLAS
0.3.31), and that expression is the fallback wherever the GEMM cannot take
the operands.
Vector layers (a 1-d input's embedding, a 1-d output's readout) contract
with ``np.einsum``: the embedding's forward product, the readout's
back-propagated delta and both vector gradients make no BLAS call and no
(batch, width) broadcast product, so their bits do not depend on the BLAS
thread count; each batch sum adds the exact products in row order, as
``np.add.reduce(..., axis=0)`` does. The readout's forward product is the
gemv ``z @ w``.

SGD and Adam share one step, ``opt.apply(net, backward_batch(net, X, Y, loss,
opt.rates)[0])``; ``OptimizerState`` states both rates, under which an MFP
update depends only on the empirical measure (arXiv 2308.01814 for Adam).
"""

from __future__ import annotations

import ctypes
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arch import ArchGraph, LayerPlan
from .errors import DivergenceError, ParameterError, StructureError
from .tensor import Rng, as_f64

DIVERGENCE_LIMIT = 1e6
# Adam's moment decay rates and denominator guard.
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def _find_dgemm():
    """``cblas_dgemm`` of the ILP64 OpenBLAS that NumPy's wheel ships and
    loads (64-bit sizes, C-int enums), or None under another NumPy build."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_cblas_dgemm64_
        except (OSError, AttributeError):
            continue
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        fn.argtypes = (ctypes.c_int,) * 3 + (i64,) * 3 + (
            ctypes.c_double, ptr, i64, ptr, i64, ctypes.c_double, ptr, i64)
        fn.restype = None
        return fn
    return None


_DGEMM = _find_dgemm()
# CBLAS enum values.
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112


class FactoredGradient:
    """A matrix gradient as its rank-B factors, ``ds.T @ z``: ``ds`` is the
    (batch, out) delta, already scaled by the weight's rate, the forward
    scalar and 1/B, and ``z`` is the (batch, in) layer input, the array the
    forward read (the caller's inputs for the first layer), not a copy.
    ``np.asarray`` gives the dense product."""

    __slots__ = ("ds", "z")

    def __init__(self, ds: np.ndarray, z: np.ndarray):
        self.ds, self.z = ds, z

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.ds.T @ self.z, dtype=dtype)

    def subtract_from(self, w: np.ndarray) -> None:
        """``w -= ds.T @ z`` in place. One accumulating GEMM (alpha -1, beta
        1) forms no (out, in) temporary and gives NumPy's bits while the
        batch fits one OpenBLAS K block. A 1-row or 1-column weight, where
        NumPy calls gemv, and any operand the GEMM cannot take as it is
        (non-C-contiguous, not float64, read-only, shared with ``w``) take
        the NumPy expression."""
        ds, z = self.ds, self.z
        (B, out), n = ds.shape, z.shape[1]
        if (_DGEMM is not None and w.shape == (out, n) and z.shape[0] == B and min(w.shape) > 1
                and w.flags.writeable
                and all(a.dtype == np.float64 and a.flags.c_contiguous for a in (w, ds, z))
                and not (np.may_share_memory(w, ds) or np.may_share_memory(w, z))):
            _DGEMM(_ROW_MAJOR, _TRANS, _NO_TRANS, out, n, B, -1.0, ds.ctypes.data, out,
                   z.ctypes.data, n, 1.0, w.ctypes.data, n)
        else:
            w -= ds.T @ z


def _tanh_slope(z: np.ndarray) -> np.ndarray:
    """tanh's derivative 1 - z * z from its output z, in one temporary."""
    t = z * z
    return np.subtract(1.0, t, out=t)


# Activation and its derivative, the latter written in terms of the
# activation's output so the backward pass needs only the layer inputs.
_ACTIVATIONS = {
    "tanh": (np.tanh, _tanh_slope),
    "relu": (lambda a: np.maximum(a, 0.0), lambda z: (z > 0.0).astype(np.float64)),
    "identity": (lambda a: a, lambda z: np.ones_like(z)),
}


@dataclass
class Network:
    """A runnable (chain or skip4) architecture plus concrete weight arrays:
    construction raises StructureError unless the arch has a layer plan and
    the store holds each of its weights at the declared shape."""

    arch: ArchGraph
    store: dict[str, np.ndarray]

    def __post_init__(self):
        if self.arch.plan is None:
            raise StructureError("network needs a runnable topology (chain or skip4)")
        for w in self.arch.weights:
            arr = self.store.get(w.name)
            if arr is None:
                raise StructureError(f"store is missing weight {w.name}")
            if tuple(arr.shape) != w.shape:
                raise StructureError(f"weight {w.name}: stored shape {tuple(arr.shape)} "
                                     f"!= declared {w.shape}")

    @property
    def parametrization(self) -> str:
        return self.arch.parametrization

    @property
    def plan(self) -> LayerPlan:
        return self.arch.plan


def zeros_network(arch: ArchGraph) -> Network:
    store = {w.name: np.zeros(w.shape, dtype=np.float64) for w in arch.weights}
    return Network(arch, store)


def _check_input(net: Network, X: np.ndarray) -> np.ndarray:
    X = as_f64(X)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != net.plan.input_dim:
        raise ParameterError(f"input has shape {X.shape}, expected (batch, {net.plan.input_dim})")
    return X


def _run(net: Network, X: np.ndarray, keep: bool):
    """Forward pass; returns the output and, with ``keep``, each layer's input."""
    inputs = []
    z = X
    prev = None
    for i, layer in enumerate(net.plan.layers):
        w = net.store[layer.weight]
        if keep:
            inputs.append(z)
        # Every branch makes a fresh array, so the scale and adds work in place.
        if not layer.vector:
            a = z @ w.T
        elif i == 0:
            a = np.einsum("b,n->bn", X[:, 0], w)
        else:
            a = (z @ w)[:, None]
        if layer.scalar != 1.0:
            a *= layer.scalar
        if layer.bias is not None:
            a += net.store[layer.bias]
        if layer.residual:
            a += prev
        prev = a
        z = a if layer.activation is None else _ACTIVATIONS[layer.activation][0](a)
    return z, inputs


def forward_batch(net: Network, X: np.ndarray) -> np.ndarray:
    """Evaluate the network on a (batch, input_dim) array."""
    X = _check_input(net, X)
    return _run(net, X, keep=False)[0]


def _targets(net: Network, Y, n: int, loss: str) -> np.ndarray:
    """``Y`` for ``n`` examples as ``loss`` reads it, else ParameterError:
    float64 (n, output_dim), or (n,) at output_dim 1, for square loss, and n
    labels of an integer dtype in [0, output_dim) for cross-entropy."""
    d_out = net.plan.output_dim
    if loss == "square":
        Y = as_f64(Y)
        if Y.shape == (n,) and d_out == 1:
            return Y[:, None]
        if Y.shape != (n, d_out):
            raise ParameterError(f"targets have shape {Y.shape}, but the net gives (n, {d_out})")
        return Y
    if loss != "cross_entropy":
        raise ParameterError(f"unknown loss {loss!r}")
    Y = np.asarray(Y)
    if Y.shape != (n,):
        raise ParameterError(f"targets have shape {Y.shape}, but cross-entropy takes ({n},) labels")
    if not np.issubdtype(Y.dtype, np.integer):
        raise ParameterError(f"labels must have an integer dtype, got {Y.dtype}")
    if n and not (0 <= Y.min() and Y.max() < d_out):
        raise ParameterError(f"labels must lie in [0, {d_out}) for the net's {d_out} outputs, "
                             f"got {Y.min()} to {Y.max()}")
    return Y.astype(int)


def _loss_and_delta(out: np.ndarray, Y: np.ndarray, loss: str):
    """Per-example losses and d(loss)/d(out), for targets from ``_targets``."""
    if loss == "square":
        diff = out - Y
        return 0.5 * np.add.reduce(diff * diff, axis=1), diff
    shifted = out - out.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    rows = np.arange(out.shape[0])
    losses = -np.log(np.clip(probs[rows, Y], 1e-300, None))
    delta = probs.copy()
    delta[rows, Y] -= 1.0
    return losses, delta


def backward_batch(net: Network, X: np.ndarray, Y: np.ndarray, loss: str,
                   rates: dict[str, float]):
    """Rate-scaled mean gradients over a batch. Returns (grads, mean_loss).

    ``rates`` holds one rate per weight (``OptimizerState.rates``; all 1.0
    gives plain gradients): a matrix's rate is folded into its delta, and
    its gradient is a ``FactoredGradient`` (``np.asarray`` makes it dense);
    a vector's or bias's rate multiplies its mean gradient array.
    """
    X = _check_input(net, X)
    B = X.shape[0]
    Y = _targets(net, Y, B, loss)
    plan = net.plan.layers
    out, inputs = _run(net, X, keep=True)
    losses, delta = _loss_and_delta(out, Y, loss)
    grads: dict[str, np.ndarray | FactoredGradient] = {}
    for i in range(len(plan) - 1, -1, -1):
        layer = plan[i]
        w = net.store[layer.weight]
        z = inputs[i]
        # np.add.reduce(x, axis=0) / B is x.mean(axis=0) bit for bit, without
        # the mean's wrapper. A vector's einsum adds the exact products in the
        # row order np.add.reduce uses over their (batch, width) array,
        # without making that array.
        if not layer.vector:
            # Scale the (batch, out) delta; the update forms the product.
            grads[layer.weight] = FactoredGradient(
                delta * (rates[layer.weight] * (layer.scalar / B)), z)
        elif i == 0:
            grads[layer.weight] = rates[layer.weight] * (
                np.einsum("bn,b->n", delta, z[:, 0]) / B)
        else:
            grads[layer.weight] = rates[layer.weight] * (
                layer.scalar * (np.einsum("bn,b->n", z, delta[:, 0]) / B))
        if layer.bias is not None:
            grads[layer.bias] = rates[layer.bias] * (np.add.reduce(delta, axis=0) / B)
        if i == 0:
            break
        if not layer.vector:
            back = delta @ w
            if layer.scalar != 1.0:
                back *= layer.scalar
        else:
            back = np.einsum("b,n->bn", layer.scalar * delta[:, 0], w)
        # z is the previous layer's activation output.
        back *= _ACTIVATIONS[plan[i - 1].activation][1](z)
        if layer.residual:
            # The residual add passes this layer's delta straight through.
            back += delta
        delta = back
    return grads, float(np.add.reduce(losses) / B)


# The scripted runs' lr_width_exponent: SP/muP's forward scalars would freeze
# the hidden layers at large width, and MFP's multipliers carry its scaling.
DEFAULT_LR_EXPONENT = {"SP": 1.0, "muP": 1.0, "MFP": 0.0}


@dataclass
class OptimizerState:
    """SGD or Adam with per-weight rates, computed once by ``create``, that
    ``backward_batch`` folds into the gradients. The step size is ``lr *
    max_hidden_width**lr_width_exponent`` (exponent 0 by default; the scripted
    SP/muP runs use 1.0 against their width-dependent forward scalars). An SGD
    rate, the SGD step, is ``step_size * arch.rate_multiplier``. An Adam rate
    is the multiplier: Adam normalizes the multiplier-scaled gradient and
    takes a width-free step of ``step_size`` (Tensor Programs IVb)."""

    kind: str
    rates: dict[str, float]
    step_size: float
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
        mults = {w.name: net.arch.rate_multiplier(w.name) for w in net.arch.weights}
        max_width = max(net.arch.hidden_widths, default=1)
        try:
            width_scale = float(max_width) ** lr_width_exponent
        except OverflowError:
            width_scale = math.inf
        step_size = lr * width_scale
        rates = {name: step_size * mult for name, mult in mults.items()} if kind == "sgd" else mults
        scaled = (*((f"rate of {w}", r) for w, r in rates.items()), ("step size", step_size))
        scale = f"width scale {max_width}**{lr_width_exponent}"
        for name, value in (("learning rate", lr), (scale, width_scale), *scaled):
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        for name, value in scaled:
            if lr > 0 and value == 0.0:
                raise ParameterError(f"{name} rounds to 0: lr {lr} x {scale} = {width_scale}")
        return cls(kind=kind, rates=rates, step_size=step_size)

    def apply(self, net: Network, grads: dict[str, np.ndarray | FactoredGradient]) -> None:
        """One update from ``backward_batch(..., self.rates)``: SGD subtracts it
        in place, a factored matrix step by one accumulating GEMM; Adam forms
        the dense gradient and subtracts ``step_size * mhat / (sqrt(vhat) +
        eps)``."""
        self.step_count += 1
        if self.kind == "sgd":
            for name, step in grads.items():
                if isinstance(step, FactoredGradient):
                    step.subtract_from(net.store[name])
                else:
                    net.store[name] -= step
            return
        for name, g in grads.items():
            w = net.store[name]
            g = np.asarray(g)
            m = self.m.setdefault(name, np.zeros_like(w))
            v = self.v.setdefault(name, np.zeros_like(w))
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            mhat = m / (1.0 - _ADAM_BETA1**self.step_count)
            vhat = v / (1.0 - _ADAM_BETA2**self.step_count)
            w -= self.step_size * mhat / (np.sqrt(vhat) + _ADAM_EPS)


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
    inputs = _check_input(net, inputs)
    n = inputs.shape[0]
    if n == 0:
        raise ParameterError("evaluation data is empty")
    targets = _targets(net, targets, n, loss)
    total = 0.0
    correct = 0
    for start in range(0, n, _EVAL_CHUNK):
        Y = targets[start : start + _EVAL_CHUNK]
        out = forward_batch(net, inputs[start : start + _EVAL_CHUNK])
        losses, _ = _loss_and_delta(out, Y, loss)
        total += float(losses.sum())
        if loss == "cross_entropy":
            correct += int((out.argmax(axis=1) == Y).sum())
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
    of shape (n, input_dim), and targets that pass the one target rule of
    ``backward_batch`` and ``evaluate`` for ``loss``."""
    shape, d_in = data.inputs.shape, net.plan.input_dim
    if shape != (shape[0], d_in):
        raise ParameterError(f"inputs have shape {shape}, but the net takes (n, {d_in})")
    _targets(net, data.targets, shape[0], loss)


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
            grads, batch_loss = backward_batch(net, data.inputs[idx], data.targets[idx], loss,
                                               opt.rates)
            if not math.isfinite(batch_loss) or abs(batch_loss) > DIVERGENCE_LIMIT:
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
