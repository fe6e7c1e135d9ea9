"""Diagnostics that make row/column structure visible: axis profiles,
pairwise and four-pair (Table 1) correlation reports, sorted heatmap grids,
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
from .errors import ParameterError
from .init import initialize, nonzero_mean_default
from .net import Network, OptimizerState, backward_batch, zeros_network
from .tensor import Rng, pearson_abs


def profile(net: Network, weight: str, axis: str, k: int | None = None) -> np.ndarray:
    """Mean over the opposing axis, or with ``k`` the sum over its first k
    entries. A vector weight's profile is a copy of the vector, whatever
    ``axis`` and ``k``."""
    vector = net.arch.weight(weight).kind == "vector"
    arr = net.store[weight]
    if vector:
        return arr.copy()
    if k is None:
        return arr.mean(axis=1) if axis == "row" else arr.mean(axis=0)
    opposing = arr.shape[1] if axis == "row" else arr.shape[0]
    if not 1 <= k <= opposing:
        raise ParameterError(f"partial sum needs 1 <= k <= {opposing}, got {k}")
    return arr[:, :k].sum(axis=1) if axis == "row" else arr[:k, :].sum(axis=0)


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
    v = net.arch.weight("v")
    p = {
        "first_layer": profile(net, "u", "row"),
        "M.column": profile(net, "w1", "col"),
        "M.row": profile(net, "w1", "row"),
        "last_layer": profile(net, "v", "col", min(4, v.shape[0])),
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
_POW10 = 10 ** np.arange(1, 10, dtype=np.int64)


def _write_grid(fh, grid: np.ndarray) -> None:
    """Write ``grid`` to the binary file ``fh`` as ``"%.6f"`` per value,
    space-separated, one line per row, in blocks of whole rows."""
    cols = grid.shape[1]
    step = max(1, _GRID_BLOCK_VALUES // cols)
    template = " ".join(["%.6f"] * cols) + "\n"
    for start in range(0, grid.shape[0], step):
        block = grid[start:start + step]
        # CPython rounds the exact binary value of x half-to-even. rint(y)
        # rounds y = fl(|x| * 1e6), which is within spacing(y) of that value,
        # so the two agree when y lies further than that from a tie. From
        # y = 2**51 on the spacing is at least 0.5, so no such y passes, nor
        # does nan or inf.
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.abs(block)
            y *= 1e6
            k = np.rint(y)
            gap = np.subtract(y, k)
            np.abs(gap, out=gap)
            np.subtract(0.5, gap, out=gap)
            exact = gap > np.spacing(y)
        del gap, y
        exact_rows = exact.all(axis=1)
        if exact_rows.all():
            fh.write(_format_exact_rows(block, k))
            continue
        text = _format_exact_rows(block[exact_rows], k[exact_rows]) if exact_rows.any() else b""
        lines = iter(text.splitlines(keepends=True))
        for row, row_exact in zip(block, exact_rows):
            if row_exact:
                fh.write(next(lines))
            else:
                fh.write((template % tuple(row.tolist())).encode("ascii"))


def _format_exact_rows(block: np.ndarray, k: np.ndarray) -> bytes:
    """The ``"%.6f"`` text of ``block``, given k = rint(|block| * 1e6) below
    2**51 and equal to CPython's rounding for every value."""
    rows, cols = block.shape
    k = k.reshape(-1).astype(np.int32 if k.max(initial=0.0) < 2**31 else np.int64)
    ip, frac = np.divmod(k, 1_000_000)
    frac = frac.astype(np.int32, copy=False)
    hi, lo = np.divmod(frac, 1000)
    neg = np.signbit(block).reshape(-1)
    any_neg = bool(neg.any())
    # Digits of the integer part, taken from the rounded k: 9.9999996 is 10.
    top = len(str(int(ip.max())))
    ndig = np.searchsorted(_POW10, ip, side="right") + 1 if top > 1 else 1
    # Each value gets whole words: the sign and digits right-aligned after
    # zero padding, then the fraction words. The zero bytes are dropped.
    lead = 4 * ((top + 1 + 3) // 4)
    buf = np.zeros((rows * cols, lead + 8), dtype=np.uint8)
    words = buf.view("<u4")
    words[:, -2] = _FRAC_HI[hi]
    words[:, -1] = _FRAC_LO[lo]
    rest, digit = np.divmod(ip, 10)
    buf[:, lead - 1] = digit + 48
    for j in range(1, top + 1):
        sign = np.where(neg & (ndig == j), np.uint8(45), np.uint8(0)) if any_neg else 0
        if j < top:
            rest, digit = np.divmod(rest, 10)
            sign = np.where(ndig > j, (digit + 48).astype(np.uint8), sign)
        buf[:, lead - 1 - j] = sign
    buf.reshape(rows, cols, -1)[:, -1, -1] = ord("\n")
    if np.min(ndig) == top and (neg.all() or not any_neg):
        return buf[:, lead - top - int(neg[0]):].tobytes()
    flat = buf.reshape(-1)
    return flat[flat != 0].tobytes()


def heatmap_export(net: Network, weight: str, normalize: str = "minmax",
                   path=None) -> np.ndarray:
    """Normalized grid of a matrix weight, rows/cols sorted by their own
    profile means so row-column banding is visible. minmax maps to [0, 1]
    (constant matrices map to 0.5).

    With ``path``, the grid is written after a header line as text, one line
    per row, every value exactly as ``"%.6f"`` formats it, separated by
    single spaces. Rows are formatted in blocks with NumPy; a row holding a
    value whose rounding NumPy cannot settle exactly (a decimal tie or near
    tie, which includes every value of magnitude 2**51 / 1e6 or more, or a
    non-finite value) is formatted by Python instead, so the bytes never
    depend on the route taken."""
    w = net.arch.weight(weight)
    if w.kind != "matrix":
        raise ParameterError(f"heatmap needs a matrix weight, got {weight!r}")
    if normalize not in ("minmax", "zscore"):
        raise ParameterError(f"unknown normalization {normalize!r}")
    # The grid is the one full-size array: the sorted grid is normalized in
    # place, and the net's own weight is only read. It is gathered in one
    # step, column-major as arr[rows][:, cols] lays it out, so its mean and
    # std sum in the same order.
    arr = net.store[weight]
    row_order = np.argsort(arr.mean(axis=1), kind="stable")
    col_order = np.argsort(arr.mean(axis=0), kind="stable")
    grid = arr.T[np.ix_(col_order, row_order)].T
    if normalize == "minmax":
        lo, hi = float(grid.min()), float(grid.max())
        if hi == lo:
            grid.fill(0.5)
        else:
            grid -= lo
            grid /= hi - lo
    else:
        std = float(grid.std())
        if std == 0:
            grid.fill(0.0)
        else:
            grid -= grid.mean()
            grid /= std
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(f"# weight={weight} rows={grid.shape[0]} cols={grid.shape[1]} "
                     f"normalize={normalize} sorted=True\n".encode("utf-8"))
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
    if hi == lo:
        hi = lo + 1e-12
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
            steps, _ = backward_batch(net, batch.inputs, batch.targets, "square", opt.rates())
            opt.apply(net, steps)
            deltas[width] = float(np.mean(np.abs(net.store["w1"] - before)))
        ratios.append(deltas[small] / deltas[large])
    return {
        "parametrization": parametrization,
        "widths": widths,
        "ratios": ratios,
        "median": float(np.median(ratios)),
        "lr_width_exponent": exponent,
    }
