"""Per-layer metrics of a traced run, one group per mfgrow module.

Every metric is derived from the spans the tracer recorded (plus values
measured at the span boundary, such as file sizes), except
``net.gemm_floor_ms``, which replays the traced steps' matrix products as
bare ``np.matmul`` calls in the same process. A metric of a module that a
workload leaves idle reads 0.

Units: ``*_ms`` is milliseconds per call of the named function unless the
name says otherwise (``_per_step``, ``_per_1k_examples``); ``*_calls`` are
calls per benchmark pass; ``*_mb`` are megabytes (10**6 bytes) per call.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter

import numpy as np

from stats import tail


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


class StepShapes:
    """Measure hook for ``net.backward_batch``: returns the computed GEMM
    flop of the step and counts each distinct step shape, so the floor can
    be replayed later. It reads only plain attributes, never wrapped calls.

    Per matrix layer a step needs the forward product, the weight gradient
    and, except for the first layer, the input gradient: 2*B*rows*cols flop
    each. Vector (elementwise) layers are not counted.
    """

    def __init__(self):
        self.counts: Counter = Counter()

    def __call__(self, args, kwargs, result) -> float:
        network, inputs = args[0], args[1]
        batch = int(np.shape(inputs)[0]) if np.ndim(inputs) > 1 else 1
        mats = []
        for i, (wname, _) in enumerate(network.arch.layers):
            shape = network.store[wname].shape
            if len(shape) == 2:
                mats.append((shape[0], shape[1], i == 0))
        signature = (batch, tuple(mats))
        self.counts[signature] += 1
        return float(sum(2 * batch * r * c * (2 if first else 3) for r, c, first in mats))


def measure_hooks(step_shapes: StepShapes) -> dict:
    """Values recorded at span end, keyed by span name."""
    return {
        "net.backward_batch": step_shapes,
        "net.forward_batch": lambda a, k, r: float(np.shape(a[1])[0]) if np.ndim(a[1]) > 1 else 1.0,
        "data.save_checkpoint": lambda a, k, r: _file_mb(a[1] if len(a) > 1 else k["path"]),
        "data.load_checkpoint": lambda a, k, r: _file_mb(a[0] if a else k["path"]),
        "data.load_cifar10": lambda a, k, r: sum(
            d.inputs.nbytes + d.targets.nbytes for d in r) / 1e6,
        "diagnostics.heatmap_export": lambda a, k, r: (
            _file_mb(k["path"]) if k.get("path") is not None else 0.0),
        "transfer.transfer": lambda a, k, r: float(sum(v.nbytes for v in r.store.values())),
    }


def _gemm_floor_ms(signature) -> float:
    """Median time of one step's bare matrix products, with the step's own
    shapes and operand layouts."""
    batch, mats = signature
    gen = np.random.default_rng(0)
    operands = [(gen.standard_normal((r, c)), gen.standard_normal((batch, c)),
                 gen.standard_normal((batch, r)), first) for r, c, first in mats]

    def once() -> float:
        t0 = time.perf_counter()
        for w, z, d, first in operands:
            np.matmul(z, w.T)
            np.matmul(d.T, z)
            if not first:
                np.matmul(d, w)
        return time.perf_counter() - t0

    first_time = max(once(), 1e-6)
    reps = int(min(200, max(5, 0.3 / first_time)))
    return statistics.median(once() for _ in range(reps)) * 1e3


def derive(spans, n_passes: int, step_shapes: StepShapes, overhead_ratio: float):
    """All per-layer metrics as {name: (value, unit)}, and notes to print."""
    s = spans
    names = np.array(s.names) if s.names else np.array([], dtype=str)
    span_name = names[s.name_id] if len(s.name_id) else np.array([], dtype=str)

    def mean_ms(idx, values=None):
        values = s.dur if values is None else values
        return float(values[idx].mean() * 1e3) if len(idx) else 0.0

    def mean_value(idx):
        return float(s.value[idx].mean()) if len(idx) else 0.0

    def per_pass(idx):
        """Calls per pass, set-up excluded (set-up spans have no operation)."""
        return int((s.op[idx] >= 0).sum()) / n_passes if n_passes else 0.0

    def child_sum(parents, mask):
        """Per parent span: summed duration of its direct children in ``mask``."""
        kids = np.flatnonzero(mask & (s.parent >= 0))
        total = np.bincount(s.parent[kids], weights=s.dur[kids], minlength=len(s.dur))
        return total[parents]

    # Training steps: each top-level backward_batch is followed by its update.
    bwd = s.of("net.backward_batch")
    bwd = bwd[s.step[bwd] == bwd]
    upd = s.of("net.OptimizerState.apply")
    upd = upd[s.step[upd] == upd]
    n_steps = min(len(bwd), len(upd))
    bwd, upd = bwd[:n_steps], upd[:n_steps]
    step_ms = (s.dur[bwd] + s.dur[upd]) * 1e3
    step_tail = tail(step_ms) if n_steps else None
    flop = s.value[bwd]

    def per_step(idx, ms=False):
        idx = idx[s.step[idx] >= 0]
        if not n_steps:
            return 0.0
        return float(s.dur[idx].sum() * 1e3 / n_steps) if ms else len(idx) / n_steps

    lookups = np.concatenate([s.of("arch.ArchGraph.weight"), s.of("arch.ArchGraph.axis_gamma")])
    fwd = s.of("net.forward_batch")
    fwd = fwd[s.step[fwd] < 0]
    fwd_examples = s.value[fwd].sum()

    floor_steps = sum(step_shapes.counts.values())
    floor_ms = (sum(n * _gemm_floor_ms(sig) for sig, n in step_shapes.counts.items()) / floor_steps
                if floor_steps else 0.0)

    xfer = s.of("transfer.transfer")
    noise_mask = span_name == "transfer.apply_noise"
    not_self = noise_mask | (s.module == "measure")

    def report_ms(op_name):
        ops = s.of(op_name)
        diag = np.flatnonzero(s.module == "diagnostics")
        top = diag[(s.parent[diag] < 0) | (s.module[np.maximum(s.parent[diag], 0)] != "diagnostics")]
        top = s.under_op(top, op_name)
        return float(s.dur[top].sum() * 1e3 / len(ops)) if len(ops) else 0.0

    regen = s.of("experiments.twolayer_regen")

    def regen_child_ms(name):
        if not len(regen):
            return 0.0
        return float(child_sum(regen, span_name == name).mean() * 1e3)

    mains = s.of("cli.main")
    cli_self = s.self_time[s.module == "cli"].sum()
    ckpt = np.concatenate([s.of("data.save_checkpoint"), s.of("data.load_checkpoint")])

    m = {
        "tensor.substream_calls": (per_pass(s.of("tensor.Rng.substream")), "count"),
        "tensor.draw_ms": (mean_ms(s.of("tensor.DistributionSpec.draw")), "ms"),
        "arch.partition_ms": (mean_ms(s.of("arch.compute_partition")), "ms"),
        "arch.lookups_per_step": (per_step(lookups), "count"),
        "arch.lookup_ms_per_step": (per_step(lookups, ms=True), "ms"),
        "net.step_p50_ms": (float(np.median(step_ms)) if n_steps else 0.0, "ms"),
        "net.step_tail_ms": (step_tail[0] if step_tail else 0.0, "ms"),
        "net.backward_ms_per_step": (float(s.dur[bwd].sum() * 1e3 / n_steps) if n_steps else 0.0, "ms"),
        "net.update_ms_per_step": (float(s.dur[upd].sum() * 1e3 / n_steps) if n_steps else 0.0, "ms"),
        "net.layer_scalar_calls_per_step": (per_step(s.of("net.layer_scalar")), "count"),
        "net.forward_ms_per_1k_examples": (
            float(s.dur[fwd].sum() * 1e6 / fwd_examples) if fwd_examples else 0.0, "ms"),
        "net.step_gflop": (float(flop.mean() / 1e9) if n_steps else 0.0, "GFLOP"),
        "net.step_gflops": (float(flop.sum() / 1e9 / (step_ms.sum() / 1e3)) if n_steps else 0.0,
                            "GFLOP/s"),
        "net.gemm_floor_ms": (floor_ms, "ms"),
        "init.initialize_ms": (mean_ms(s.of("init.initialize")), "ms"),
        "measure.extract_ms": (mean_ms(s.of("measure.extract_measures")), "ms"),
        "measure.norms_ms": (mean_ms(s.of("measure.GroupMeasure.sample_norms")), "ms"),
        "measure.draw_ms": (mean_ms(s.of("measure.draw_indices"), s.self_time), "ms"),
        "measure.loss_calls": (per_pass(s.of("measure.weighted_measure_loss")), "count"),
        "measure.loss_ms": (mean_ms(s.of("measure.weighted_measure_loss")), "ms"),
        "transfer.self_ms": (
            float((s.dur[xfer] - child_sum(xfer, not_self)).mean() * 1e3) if len(xfer) else 0.0, "ms"),
        "transfer.bytes_out": (mean_value(xfer), "bytes"),
        "transfer.noise_ms": (
            float(child_sum(xfer, noise_mask).mean() * 1e3) if len(xfer) else 0.0, "ms"),
        "data.ckpt_save_ms": (mean_ms(s.of("data.save_checkpoint")), "ms"),
        "data.ckpt_load_ms": (mean_ms(s.of("data.load_checkpoint")), "ms"),
        "data.ckpt_mb": (mean_value(ckpt), "MB"),
        "data.cifar_load_ms": (mean_ms(s.of("data.load_cifar10")), "ms"),
        "data.cifar_mb": (mean_value(s.of("data.load_cifar10")), "MB"),
        "diagnostics.heatmap_ms": (mean_ms(s.of("diagnostics.heatmap_export")), "ms"),
        "diagnostics.heatmap_mb_written": (mean_value(s.of("diagnostics.heatmap_export")), "MB"),
        "diagnostics.corr_ms": (report_ms("op.diagnose_corr"), "ms"),
        "diagnostics.hist_ms": (report_ms("op.diagnose_hist"), "ms"),
        "experiments.regen_train_ms": (regen_child_ms("net.train"), "ms"),
        "experiments.regen_transfer_ms": (regen_child_ms("transfer.transfer"), "ms"),
        "experiments.regen_eval_ms": (regen_child_ms("net.evaluate"), "ms"),
        "cli.self_ms": (float(cli_self * 1e3 / len(mains)) if len(mains) else 0.0, "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    notes = {"net.step_tail_ms": (f"p{step_tail[1]:.3g} of {n_steps} steps" if step_tail
                                  else f"{n_steps} steps, too few for a tail")}
    return m, notes
