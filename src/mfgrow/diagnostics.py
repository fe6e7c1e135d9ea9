"""Diagnostics that make row/column structure visible: axis profiles,
pairwise and four-pair (Table 1) correlation reports, sortable heatmap grids,
row-mean histogram trajectories, and the first-step update-scaling probe.
Apart from the probe, nothing here trains: the scripted experiments train
the nets and pass them in.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .arch import build_mlp
from .data import synth_regression
from .errors import ParameterError, ShapeError
from .init import initialize, nonzero_mean_default
from .net import Network, OptimizerState, backward_batch, zeros_network
from .tensor import Rng, pearson_abs


@dataclass(frozen=True)
class Profile:
    """A per-index summary of one weight along one axis."""

    weight: str
    axis: str
    reducer: str  # "mean" or "partial_sum(k)"
    values: np.ndarray


def profile(net: Network, weight: str, axis: str, reducer="mean") -> Profile:
    """Mean (or first-k partial sum) over the opposing axis.

    For a vector weight the profile is the vector itself.
    """
    w = net.arch.weight(weight)
    arr = net.store[weight]
    if isinstance(reducer, tuple):
        kind, k = reducer
    else:
        kind, k = reducer, None
    if kind not in ("mean", "partial_sum"):
        raise ParameterError(f"unknown reducer {reducer!r}")

    if w.kind == "vector":
        values = arr.copy()
    else:
        opposing = arr.shape[1] if axis == "row" else arr.shape[0]
        if kind == "partial_sum":
            if k is None or k < 1 or k > opposing:
                raise ParameterError(
                    f"partial_sum needs 1 <= k <= {opposing}, got {k}"
                )
            values = arr[:, :k].sum(axis=1) if axis == "row" else arr[:k, :].sum(axis=0)
        else:
            values = arr.mean(axis=1) if axis == "row" else arr.mean(axis=0)
    label = "mean" if kind == "mean" else f"partial_sum({k})"
    return Profile(weight, axis, label, values)


@dataclass
class CorrelationReport:
    """Absolute Pearson correlations between named profile pairs."""

    pairs: list[tuple[str, str, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("profile_a,profile_b,abs_pearson\n")
        for a, b, r in self.pairs:
            buf.write(f"{a},{b},{r:.12g}\n")
        return buf.getvalue()


def correlation_matrix(profiles: list[Profile], names: list[str] | None = None) -> CorrelationReport:
    """Pairwise |Pearson r| over equal-length profiles. Profiles whose
    lengths differ index different gamma groups and are skipped."""
    if names is None:
        names = [f"{p.weight}.{p.axis}.{p.reducer}" for p in profiles]
    if len(names) != len(profiles):
        raise ParameterError("one name per profile required")
    report = CorrelationReport()
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            a, b = profiles[i], profiles[j]
            if a.values.shape != b.values.shape:
                continue
            report.pairs.append((names[i], names[j], pearson_abs(a.values, b.values)))
    return report


def four_pair_report(net: Network) -> CorrelationReport:
    """The four first/last-layer vs middle-layer profile correlations of a
    3-layer net (the paper's Table 1). The first layer is u's row mean, the
    middle layer w1's row and column means, and the last layer v's column
    sums over its first 4 output rows (v itself when it is a vector)."""
    v = net.arch.weight("v")
    if v.kind == "matrix":
        last = profile(net, "v", "col", ("partial_sum", min(4, v.shape[0])))
    else:
        last = profile(net, "v", "row", "mean")
    p = {
        "first_layer": profile(net, "u", "row", "mean"),
        "M.column": profile(net, "w1", "col", "mean"),
        "M.row": profile(net, "w1", "row", "mean"),
        "last_layer": last,
    }
    report = CorrelationReport()
    for a, b in (
        ("first_layer", "M.column"),
        ("first_layer", "M.row"),
        ("last_layer", "M.row"),
        ("last_layer", "M.column"),
    ):
        report.pairs.append((a, b, pearson_abs(p[a].values, p[b].values)))
    return report


# ---------------------------------------------------------------------------
# Heatmaps and histograms
# ---------------------------------------------------------------------------


def heatmap_export(net: Network, weight: str, normalize: str = "minmax",
                   path=None, sort: bool = True) -> np.ndarray:
    """Normalized grid of a matrix weight, rows/cols ordered by their own
    profile means so row-column banding is visible. minmax maps to [0, 1]
    (constant matrices map to 0.5)."""
    w = net.arch.weight(weight)
    if w.kind != "matrix":
        raise ParameterError(f"heatmap needs a matrix weight, got {weight!r}")
    arr = net.store[weight]
    if sort:
        row_order = np.argsort(arr.mean(axis=1), kind="stable")
        col_order = np.argsort(arr.mean(axis=0), kind="stable")
        arr = arr[row_order][:, col_order]
    if normalize == "minmax":
        lo, hi = float(arr.min()), float(arr.max())
        grid = np.full_like(arr, 0.5) if hi == lo else (arr - lo) / (hi - lo)
    elif normalize == "zscore":
        std = float(arr.std())
        grid = np.zeros_like(arr) if std == 0 else (arr - arr.mean()) / std
    else:
        raise ParameterError(f"unknown normalization {normalize!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# weight={weight} rows={grid.shape[0]} cols={grid.shape[1]} "
                     f"normalize={normalize} sorted={sort}\n")
            line = " ".join(["%.6f"] * grid.shape[1]) + "\n"
            for row in grid.tolist():
                fh.write(line % tuple(row))
    return grid


def write_gnuplot_script(grid_path, script_path) -> None:
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write(
            "set view map\n"
            "set palette gray\n"
            f"plot '{grid_path}' matrix with image notitle\n"
        )


def histogram_trajectory(snapshots, weight: str, axis: str = "row", bins: int = 40):
    """Fixed-bin histograms of a weight's row-mean (or col-mean) profile at
    each snapshot; bins are shared across snapshots so shapes compare."""
    nets = []
    for s in snapshots:
        if isinstance(s, Network):
            nets.append(s)
        else:
            from .data import load_checkpoint

            nets.append(load_checkpoint(s))
    if not nets:
        raise ParameterError("histogram_trajectory needs at least one snapshot")
    shape0 = nets[0].arch.weight(weight).shape
    values = []
    for n in nets:
        if n.arch.weight(weight).shape != shape0:
            raise ShapeError(
                f"weight {weight}: snapshot shape {n.arch.weight(weight).shape} "
                f"drifted from {shape0}"
            )
        values.append(profile(n, weight, axis, "mean").values)
    lo = min(float(v.min()) for v in values)
    hi = max(float(v.max()) for v in values)
    if hi == lo:
        hi = lo + 1e-12
    edges = np.linspace(lo, hi, bins + 1)
    counts = [np.histogram(v, bins=edges)[0] for v in values]
    return edges, counts


def histograms_to_csv(edges: np.ndarray, counts) -> str:
    buf = io.StringIO()
    buf.write("bin_left,bin_right," + ",".join(f"step_{i}" for i in range(len(counts))) + "\n")
    for b in range(len(edges) - 1):
        row = ",".join(str(int(c[b])) for c in counts)
        buf.write(f"{edges[b]:.12g},{edges[b + 1]:.12g},{row}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Update-scaling probe
# ---------------------------------------------------------------------------


def update_scaling_probe(
    parametrization: str,
    widths: tuple[int, int] = (256, 1024),
    n_seeds: int = 5,
    lr: float = 0.05,
    batch_size: int = 64,
) -> dict:
    """First-step middle-layer update size of a 3-layer net at two widths.

    Returns per-seed ratios mean|dW|_small / mean|dW|_large and their median.
    Under MFP the per-weight multipliers make the step width-independent
    (ratio near 1). SP runs with the width-compensated rate (exponent 1.0),
    under which its step scales as 1/sqrt(N) and the ratio lands near
    sqrt(widths[1]/widths[0]).
    """
    small, large = widths
    exponent = 0.0 if parametrization == "MFP" else 1.0
    ratios = []
    for seed in range(n_seeds):
        deltas = {}
        batch = synth_regression("sine", batch_size, 0.0, Rng(9000 + seed))
        for width in (small, large):
            arch = build_mlp(3, width, parametrization=parametrization)
            net = initialize(
                zeros_network(arch), nonzero_mean_default(parametrization, arch),
                Rng(seed),
            )
            opt = OptimizerState.create(net, kind="sgd", lr=lr, lr_width_exponent=exponent)
            before = net.store["w1"].copy()
            grads, _ = backward_batch(net, batch.inputs, batch.targets, "square")
            opt.apply(net, grads)
            deltas[width] = float(np.mean(np.abs(net.store["w1"] - before)))
        ratios.append(deltas[small] / deltas[large])
    return {
        "parametrization": parametrization,
        "widths": widths,
        "ratios": ratios,
        "median": float(np.median(ratios)),
        "lr_width_exponent": exponent,
    }
