"""Diagnostics that make row/column structure visible: axis profiles,
pairwise and four-pair (Table 1) correlation reports, sorted heatmap grids,
row-mean histogram trajectories, and the first-step update-scaling probe at
the fixed ``_PROBE_*`` sizes. Apart from the probe, nothing here trains: the
scripted experiments train the nets and pass them in.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .arch import COL, ROW, build_mlp
from .data import synth_regression
from .errors import ParameterError
from .init import initialize, nonzero_mean_default
from .net import DEFAULT_LR_EXPONENT, Network, OptimizerState, backward_batch, zeros_network
from .tensor import Rng, pearson_abs


def profile(net: Network, weight: str, axis: str) -> np.ndarray:
    """Mean over the opposing axis, ``arch.ROW`` or ``arch.COL``. A vector
    weight's profile is a copy of the vector, whatever the axis. A mean whose
    sum of finite weights overflows raises ParameterError."""
    if axis not in (ROW, COL):
        raise ParameterError(f"profile axis must be {ROW!r} or {COL!r}, got {axis!r}")
    if net.arch.weight(weight).kind == "vector":
        return net.store[weight].copy()
    try:
        with np.errstate(over="raise"):
            return net.store[weight].mean(axis=1 if axis == ROW else 0)
    except FloatingPointError:
        raise ParameterError(f"weight {weight}: its {axis} profile overflows float64") from None


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


def correlation_matrix(profiles: list[np.ndarray], names: list[str]) -> CorrelationReport:
    """Pairwise |Pearson r| over equal-length profiles. Profiles whose
    lengths differ index different gamma groups and are skipped."""
    if len(names) != len(profiles):
        raise ParameterError("one name per profile required")
    report = CorrelationReport()
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            a, b = profiles[i], profiles[j]
            if a.shape != b.shape:
                continue
            report.pairs.append((names[i], names[j], pearson_abs(a, b)))
    return report


def four_pair_report(net: Network) -> CorrelationReport:
    """The four first/last-layer vs middle-layer profile correlations of a
    3-layer net (the paper's Table 1). The first layer is u's row mean, the
    middle layer w1's row and column means, and the last layer v's column
    sums over its first 4 output rows (v itself when it is a vector)."""
    v = net.store["v"]
    p = {
        "first_layer": profile(net, "u", "row"),
        "M.column": profile(net, "w1", "col"),
        "M.row": profile(net, "w1", "row"),
        "last_layer": v[:4].sum(axis=0) if v.ndim == 2 else v,
    }
    report = CorrelationReport()
    for a, b in (
        ("first_layer", "M.column"),
        ("first_layer", "M.row"),
        ("last_layer", "M.row"),
        ("last_layer", "M.column"),
    ):
        report.pairs.append((a, b, pearson_abs(p[a], p[b])))
    return report


# ---------------------------------------------------------------------------
# Heatmaps and histograms
# ---------------------------------------------------------------------------


_GRID_BLOCK_VALUES = 1 << 14  # values formatted per block: ~150 kB of text
# Little-endian words of the six fraction digits: ".ddd" then "ddd ".
_FRAC_HI = np.frombuffer(b"".join(b".%03d" % i for i in range(1000)), dtype="<u4")
_FRAC_LO = np.frombuffer(b"".join(b"%03d " % i for i in range(1000)), dtype="<u4")
# One formatted value: its integer digit, then the two fraction words.
_VALUE = np.dtype([("digit", "u1"), ("hi", "<u4"), ("lo", "<u4")])


def _write_grid(fh, grid: np.ndarray) -> None:
    """Write ``grid`` to the binary file ``fh`` as ``"%.6f"`` per value,
    space-separated, one line per row, in blocks of whole rows. NumPy formats
    the rows whose values all lie in [0, 1], with no -0.0 and no decimal tie
    or near tie among them; Python formats every other row, nan included, so
    the bytes never depend on the route taken."""
    cols = grid.shape[1]
    step = max(1, _GRID_BLOCK_VALUES // cols)
    template = " ".join(["%.6f"] * cols) + "\n"
    for start in range(0, grid.shape[0], step):
        block = grid[start:start + step]
        # CPython rounds the exact binary value of x half-to-even. rint(y)
        # rounds y = fl(x * 1e6), which is within spacing(y) of that value,
        # so the two agree when y lies further than that from a tie. nan
        # fails every comparison, so it never passes.
        with np.errstate(over="ignore", invalid="ignore"):
            y = block * 1e6
            k = np.rint(y)
            gap = np.subtract(y, k)
            np.abs(gap, out=gap)
            np.subtract(0.5, gap, out=gap)
            exact = gap > np.spacing(y)
        exact &= (block <= 1.0) & ~np.signbit(block)
        exact_rows = exact.all(axis=1)
        text = _format_exact_rows(k[exact_rows])
        if not exact_rows.all():
            lines = iter(text.splitlines(keepends=True))
            text = b"".join(next(lines) if ok else (template % tuple(row.tolist())).encode("ascii")
                            for row, ok in zip(block, exact_rows))
        fh.write(text)


def _format_exact_rows(k: np.ndarray) -> bytes:
    """The ``"%.6f"`` text of the rows whose values x in [0, 1] have
    k = rint(x * 1e6) equal to CPython's rounding: 9 bytes per value."""
    rows, cols = k.shape
    ip, frac = np.divmod(k.reshape(-1).astype(np.int32), 1_000_000)
    hi, lo = np.divmod(frac, 1000)
    buf = np.empty(rows * cols, dtype=_VALUE)
    buf["digit"] = ip + 48
    buf["hi"] = np.take(_FRAC_HI, hi)
    buf["lo"] = np.take(_FRAC_LO, lo)
    text = buf.view(np.uint8).reshape(rows, cols * _VALUE.itemsize)
    text[:, -1] = ord("\n")
    return text.tobytes()


def heatmap_export(net: Network, weight: str, *, path=None) -> np.ndarray:
    """Min-max normalized grid of a matrix weight, rows and columns sorted by
    their ``profile`` (ParameterError if one overflows) so row-column banding
    is visible. Values map to [0, 1]; a constant matrix maps to 0.5.

    With ``path``, the grid is written after a header line as text, one line
    per row, every value exactly as ``"%.6f"`` formats it, separated by
    single spaces (see ``_write_grid``), into a directory made if missing."""
    w = net.arch.weight(weight)
    if w.kind != "matrix":
        raise ParameterError(f"heatmap needs a matrix weight, got {weight!r}")
    # The grid is the one full-size array: the sorted grid is normalized in
    # place, and the net's own weight is only read.
    row_order = np.argsort(profile(net, weight, ROW), kind="stable")
    col_order = np.argsort(profile(net, weight, COL), kind="stable")
    grid = net.store[weight][np.ix_(row_order, col_order)]
    # On halves, so hi - lo cannot overflow; halving is exact above the subnormals.
    lo, hi = float(grid.min()) * 0.5, float(grid.max()) * 0.5
    if hi == lo:
        grid.fill(0.5)
    else:
        grid *= 0.5
        grid -= lo
        grid /= hi - lo
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(f"# weight={weight} rows={grid.shape[0]} cols={grid.shape[1]} "
                     f"normalize=minmax sorted=True\n".encode("utf-8"))
            _write_grid(fh, grid)
    return grid


def write_gnuplot_script(grid_path, script_path) -> None:
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write(
            "set view map\n"
            "set palette gray\n"
            f"plot '{grid_path}' matrix with image notitle\n"
        )


_HIST_BINS = 40


def histogram_trajectory(nets: list[Network], weight: str):
    """Fixed-bin histograms of a weight's row-mean profile at each snapshot
    net; the bins are shared across snapshots so shapes compare."""
    if not nets:
        raise ParameterError("histogram_trajectory needs at least one snapshot")
    shape0 = nets[0].arch.weight(weight).shape
    values = []
    for n in nets:
        if n.arch.weight(weight).shape != shape0:
            raise ParameterError(
                f"weight {weight}: snapshot shape {n.arch.weight(weight).shape} "
                f"drifted from {shape0}"
            )
        values.append(profile(n, weight, "row"))
    lo = min(float(v.min()) for v in values)
    hi = max(float(v.max()) for v in values)
    if hi == lo:  # a pad relative to |lo| keeps the edges apart at any magnitude
        pad = max(1e-12, abs(lo) * 1e-12)
        if math.isfinite(lo + pad):
            hi = lo + pad
        else:  # lo within the pad of the largest float: pad downward
            lo -= pad
    edges = np.linspace(lo, hi, _HIST_BINS + 1)
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


_PROBE_LR = 0.05
_PROBE_BATCH = 64
_PROBE_WIDTHS = (256, 1024)
_PROBE_SEEDS = 5


def update_scaling_probe(parametrization: str) -> dict:
    """First-step middle-layer update size of a 3-layer net at two widths.

    Returns per-seed ratios mean|dW|_small / mean|dW|_large and their median.
    Under MFP the per-weight multipliers make the step width-independent
    (ratio near 1). SP runs with the width-compensated rate (exponent 1.0),
    under which its step scales as 1/sqrt(N) and the ratio lands near
    sqrt(large/small).
    """
    small, large = _PROBE_WIDTHS
    exponent = DEFAULT_LR_EXPONENT[parametrization]
    ratios = []
    for seed in range(_PROBE_SEEDS):
        deltas = {}
        batch = synth_regression("sine", _PROBE_BATCH, 0.0, Rng(9000 + seed))
        for width in (small, large):
            arch = build_mlp(3, width, parametrization=parametrization)
            net = initialize(
                zeros_network(arch), nonzero_mean_default(parametrization, arch),
                Rng(seed),
            )
            opt = OptimizerState.create(net, kind="sgd", lr=_PROBE_LR, lr_width_exponent=exponent)
            before = net.store["w1"].copy()
            steps, _ = backward_batch(net, batch.inputs, batch.targets, "square", opt.rates)
            opt.apply(net, steps)
            deltas[width] = float(np.mean(np.abs(net.store["w1"] - before)))
        ratios.append(deltas[small] / deltas[large])
    return {"ratios": ratios, "median": float(np.median(ratios))}
