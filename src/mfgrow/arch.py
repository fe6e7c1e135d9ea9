"""Symbolic architectures: named weights, per-axis index variables (gammas),
and the partition of gammas into joint-resampling groups.

Every place a weight axis shows up in the forward computation is recorded as
an AxisUsage carrying a gamma id. Two gammas that ever appear at the same
(weight, axis) position must be resampled together, so the partition is the
finest one closed under merging such gammas. Groups whose width is tied to a
data dimension (input/output size, or 1) are marked non-resizable.

``build_mlp`` is the one MLP builder. Its skip4 net is the depth-4 chain plus
two usages, w1 and b1 rows on gamma 3, which merge gammas 2 and 3 into one
group; its ``skip4`` topology declares the residual add to the executor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import ParameterError, StructureError

ROW = "row"
COL = "col"

PARAMETRIZATIONS = ("SP", "muP", "MFP")
ACTIVATION_NAMES = ("tanh", "relu", "identity")


@dataclass(frozen=True)
class GammaVar:
    """An index variable: id, axis width, and whether the axis scales with N."""

    id: int
    width: int
    role: str = "hidden"  # "hidden": resizable; "data": tied to D_x/D_y/1

    def __post_init__(self):
        if self.width < 1:
            raise StructureError(f"gamma {self.id}: width must be >= 1, got {self.width}")
        if self.role not in ("hidden", "data"):
            raise StructureError(f"gamma {self.id}: unknown role {self.role!r}")


@dataclass(frozen=True)
class WeightSpec:
    name: str
    kind: str  # "matrix" | "vector"
    shape: tuple[int, ...]

    def __post_init__(self):
        if self.kind == "matrix":
            if len(self.shape) != 2:
                raise StructureError(f"weight {self.name}: matrix needs a 2-d shape, got {self.shape}")
        elif self.kind == "vector":
            if len(self.shape) != 1:
                raise StructureError(f"weight {self.name}: vector needs a 1-d shape, got {self.shape}")
        else:
            raise StructureError(f"weight {self.name}: unknown kind {self.kind!r}")
        if any(d < 1 for d in self.shape):
            raise StructureError(f"weight {self.name}: dimensions must be >= 1, got {self.shape}")


@dataclass(frozen=True)
class AxisUsage:
    """One appearance of a weight axis in the computation, tagged with a gamma."""

    weight: str
    axis: str  # "row" | "col"
    gamma: int


@dataclass(frozen=True)
class ArchGraph:
    weights: tuple[WeightSpec, ...]
    usages: tuple[AxisUsage, ...]
    gammas: tuple[GammaVar, ...]
    parametrization: str
    topology: str = "chain"  # "chain" | "skip4" | "fragment"
    # Forward order as (weight, bias-or-None) pairs; empty for fragments.
    layers: tuple[tuple[str, str | None], ...] = ()
    activations: tuple[str, ...] = ()

    def weight(self, name: str) -> WeightSpec:
        for w in self.weights:
            if w.name == name:
                return w
        raise StructureError(f"unknown weight {name!r}")

    def gamma(self, gid: int) -> GammaVar:
        for g in self.gammas:
            if g.id == gid:
                return g
        raise StructureError(f"unknown gamma id {gid}")

    def axis_size(self, name: str, axis: str) -> int:
        w = self.weight(name)
        if w.kind == "vector":
            if axis != ROW:
                raise StructureError(f"weight {name}: vectors only have a row axis")
            return w.shape[0]
        return w.shape[0] if axis == ROW else w.shape[1]

    def axis_gamma(self, name: str, axis: str) -> GammaVar:
        """Any gamma used at (name, axis); all such gammas share width and group."""
        for u in self.usages:
            if u.weight == name and u.axis == axis:
                return self.gamma(u.gamma)
        raise StructureError(f"weight {name}: no usage recorded for axis {axis!r}")

    @property
    def hidden_widths(self) -> set[int]:
        return {g.width for g in self.gammas if g.role == "hidden"}

    def with_parametrization(self, parametrization: str) -> "ArchGraph":
        if parametrization not in PARAMETRIZATIONS:
            raise ParameterError(f"unknown parametrization {parametrization!r}")
        return replace(self, parametrization=parametrization)

    def validate(self) -> None:
        if self.parametrization not in PARAMETRIZATIONS:
            raise StructureError(f"unknown parametrization {self.parametrization!r}")
        if self.topology not in ("chain", "skip4", "fragment"):
            raise StructureError(f"unknown topology {self.topology!r}")
        names = [w.name for w in self.weights]
        if len(set(names)) != len(names):
            raise StructureError("weight names must be unique")
        gids = [g.id for g in self.gammas]
        if len(set(gids)) != len(gids):
            raise StructureError("gamma ids must be unique")
        by_gamma = {g.id: g for g in self.gammas}
        used_gammas = set()
        covered_axes: set[tuple[str, str]] = set()
        for u in self.usages:
            w = self.weight(u.weight)
            if w.kind == "vector" and u.axis != ROW:
                raise StructureError(f"weight {w.name}: vector usages must be on the row axis")
            if u.axis not in (ROW, COL):
                raise StructureError(f"weight {w.name}: unknown axis {u.axis!r}")
            if u.gamma not in by_gamma:
                raise StructureError(f"usage of {w.name} references unknown gamma {u.gamma}")
            size = self.axis_size(u.weight, u.axis)
            if by_gamma[u.gamma].width != size:
                raise StructureError(
                    f"weight {w.name} axis {u.axis}: size {size} != gamma {u.gamma} width "
                    f"{by_gamma[u.gamma].width}"
                )
            used_gammas.add(u.gamma)
            covered_axes.add((u.weight, u.axis))
        missing = set(by_gamma) - used_gammas
        if missing:
            raise StructureError(f"gammas never used: {sorted(missing)}")
        if self.topology != "fragment":
            for w in self.weights:
                axes = (ROW,) if w.kind == "vector" else (ROW, COL)
                for ax in axes:
                    if (w.name, ax) not in covered_axes:
                        raise StructureError(f"weight {w.name}: axis {ax} has no usage")
        for wname, bname in self.layers:
            self.weight(wname)
            if bname is not None:
                self.weight(bname)
        for act in self.activations:
            if act not in ACTIVATION_NAMES:
                raise StructureError(f"unknown activation {act!r}")


@dataclass(frozen=True)
class GammaPartition:
    """Disjoint gamma groups, each with one shared width and a resizable flag.

    Groups are sorted by smallest member id, members ascending, so file and
    CLI output is stable. ``axis_groups`` maps every (weight, axis) with a
    recorded usage to the index of its group.
    """

    groups: tuple[tuple[int, ...], ...]
    widths: tuple[int, ...]
    resizable: tuple[bool, ...]
    axis_groups: dict[tuple[str, str], int]

    def __len__(self) -> int:
        return len(self.groups)

    def group_of(self, gamma_id: int) -> int:
        for i, grp in enumerate(self.groups):
            if gamma_id in grp:
                return i
        raise StructureError(f"gamma {gamma_id} not in partition")


def compute_partition(g: ArchGraph) -> GammaPartition:
    """Union-find over gamma ids: merge all gammas appearing at the same
    (weight, axis) position. Returns the finest partition closed under that
    rule, with the group of each such position."""
    g.validate()
    parent = {gm.id: gm.id for gm in g.gammas}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int, weight: str, axis: str) -> None:
        ri, rj = find(i), find(j)
        if ri == rj:
            return
        wi, wj = g.gamma(i).width, g.gamma(j).width
        if wi != wj:
            raise StructureError(
                f"weight {weight} axis {axis}: cannot merge gamma {i} (width {wi}) "
                f"with gamma {j} (width {wj})"
            )
        parent[max(ri, rj)] = min(ri, rj)

    per_axis: dict[tuple[str, str], list[int]] = {}
    for u in g.usages:
        per_axis.setdefault((u.weight, u.axis), []).append(u.gamma)
    for (wname, axis), gids in sorted(per_axis.items()):
        first = gids[0]
        for other in gids[1:]:
            union(first, other, wname, axis)

    members: dict[int, list[int]] = {}
    for gm in g.gammas:
        members.setdefault(find(gm.id), []).append(gm.id)
    groups = sorted(tuple(sorted(v)) for v in members.values())

    widths = []
    resizable = []
    for grp in groups:
        ws = {g.gamma(i).width for i in grp}
        if len(ws) != 1:
            raise StructureError(f"group {grp} mixes widths {sorted(ws)}")
        widths.append(ws.pop())
        resizable.append(all(g.gamma(i).role == "hidden" for i in grp))
    group_index = {gid: i for i, grp in enumerate(groups) for gid in grp}
    axis_groups = {key: group_index[gids[0]] for key, gids in sorted(per_axis.items())}
    return GammaPartition(tuple(groups), tuple(widths), tuple(resizable), axis_groups)


def format_partition(p: GammaPartition) -> str:
    """One group per line: ``Γ_i: {γ_a, γ_b} width=N``."""
    lines = []
    for i, grp in enumerate(p.groups):
        inner = ", ".join(f"γ_{gid}" for gid in grp)
        lines.append(f"Γ_{i + 1}: {{{inner}}} width={p.widths[i]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _as_width_list(widths, count: int) -> list[int]:
    if isinstance(widths, int):
        widths = [widths] * count
    widths = [int(w) for w in widths]
    if len(widths) != count:
        raise ParameterError(f"expected {count} hidden widths, got {len(widths)}")
    if any(w < 1 for w in widths):
        raise ParameterError(f"hidden widths must be >= 1, got {widths}")
    return widths


def build_mlp(
    depth: int,
    widths,
    with_bias: bool = False,
    with_skip: bool = False,
    input_dim: int = 1,
    output_dim: int = 1,
    parametrization: str = "MFP",
    activation: str = "tanh",
) -> ArchGraph:
    """Fully-connected chain of ``depth`` weight layers u -> w1 -> ... -> v.

    ``widths`` gives the depth-1 hidden sizes (or one int for all).
    ``with_skip`` builds skip4: the depth-4 chain with biases and one common
    hidden width, plus two usages. w1's rows feed both w2 and, through a
    residual add, the output layer's input, so w1 and b1 rows also carry
    gamma 3. The ``skip4`` topology declares that residual to the executor.
    """
    if depth < 2:
        raise ParameterError(f"depth must be >= 2, got {depth}")
    if input_dim < 1 or output_dim < 1:
        raise ParameterError("input_dim and output_dim must be >= 1")
    if parametrization not in PARAMETRIZATIONS:
        raise ParameterError(f"unknown parametrization {parametrization!r}")
    if activation not in ACTIVATION_NAMES:
        raise ParameterError(f"unknown activation {activation!r}")
    if with_skip:
        if depth != 4:
            raise ParameterError("the skip variant is defined for depth=4 only")
        with_bias = True

    hidden = _as_width_list(widths, depth - 1)
    if with_skip and len(set(hidden)) != 1:
        raise ParameterError("the skip variant needs one common hidden width")
    weights: list[WeightSpec] = []
    usages: list[AxisUsage] = []
    gammas: list[GammaVar] = [GammaVar(i + 1, hidden[i], "hidden") for i in range(depth - 1)]
    next_id = depth

    def new_gamma(width: int, role: str) -> int:
        nonlocal next_id
        gammas.append(GammaVar(next_id, width, role))
        next_id += 1
        return next_id - 1

    layers: list[tuple[str, str | None]] = []

    # Embedding layer.
    if input_dim > 1:
        g_in = new_gamma(input_dim, "data")
        weights.append(WeightSpec("u", "matrix", (hidden[0], input_dim)))
        usages += [AxisUsage("u", ROW, 1), AxisUsage("u", COL, g_in)]
    else:
        weights.append(WeightSpec("u", "vector", (hidden[0],)))
        usages.append(AxisUsage("u", ROW, 1))
    bu = None
    if with_bias:
        bu = "bu"
        weights.append(WeightSpec(bu, "vector", (hidden[0],)))
        usages.append(AxisUsage(bu, ROW, 1))
    layers.append(("u", bu))

    # Middle square layers.
    for ell in range(1, depth - 1):
        name = f"w{ell}"
        weights.append(WeightSpec(name, "matrix", (hidden[ell], hidden[ell - 1])))
        usages += [AxisUsage(name, ROW, ell + 1), AxisUsage(name, COL, ell)]
        bname = None
        if with_bias:
            bname = f"b{ell}"
            weights.append(WeightSpec(bname, "vector", (hidden[ell],)))
            usages.append(AxisUsage(bname, ROW, ell + 1))
        layers.append((name, bname))

    # Output layer.
    g_out = None
    if output_dim > 1:
        g_out = new_gamma(output_dim, "data")
        weights.append(WeightSpec("v", "matrix", (output_dim, hidden[-1])))
        usages += [AxisUsage("v", ROW, g_out), AxisUsage("v", COL, depth - 1)]
    else:
        weights.append(WeightSpec("v", "vector", (hidden[-1],)))
        usages.append(AxisUsage("v", ROW, depth - 1))
    bv = None
    if with_bias:
        if g_out is None:
            g_out = new_gamma(1, "data")
        bv = "bv"
        weights.append(WeightSpec(bv, "vector", (output_dim,)))
        usages.append(AxisUsage(bv, ROW, g_out))
    layers.append(("v", bv))

    if with_skip:
        # w1's rows also feed the output layer's input through the residual
        # add, so each w1/b1 row usage on gamma 2 gets a twin on gamma 3.
        chain, usages = usages, []
        for u in chain:
            usages.append(u)
            if u.weight in ("w1", "b1") and u.axis == ROW:
                usages.append(replace(u, gamma=3))
        # The skip4 arch JSON, pinned inside every skip4 checkpoint, lists
        # the hidden layers first, then u/bu, then v/bv.
        rank = {"u": 1, "bu": 1, "v": 2, "bv": 2}
        usages.sort(key=lambda u: rank.get(u.weight, 0))

    graph = ArchGraph(
        weights=tuple(weights),
        usages=tuple(usages),
        gammas=tuple(gammas),
        parametrization=parametrization,
        topology="skip4" if with_skip else "chain",
        layers=tuple(layers),
        activations=(activation,) * (depth - 1),
    )
    graph.validate()
    return graph


def build_skip_block(n: int, parametrization: str = "MFP") -> ArchGraph:
    """Residual block fragment: two parallel paths from a shared input are
    re-merged by a fourth matrix, so the first matrix's rows carry two index
    variables. The block's outgoing axis is a boundary and carries no gamma,
    which leaves w4's row axis (and its bias) outside the partition.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    weights = tuple(
        [WeightSpec(f"w{i}", "matrix", (n, n)) for i in range(1, 5)]
        + [WeightSpec(f"b{i}", "vector", (n,)) for i in range(1, 5)]
    )
    usages = (
        AxisUsage("w1", ROW, 2),
        AxisUsage("w1", ROW, 5),
        AxisUsage("w1", COL, 1),
        AxisUsage("b1", ROW, 2),
        AxisUsage("b1", ROW, 5),
        AxisUsage("w2", ROW, 3),
        AxisUsage("w2", COL, 2),
        AxisUsage("b2", ROW, 3),
        AxisUsage("w3", ROW, 5),
        AxisUsage("w3", COL, 4),
        AxisUsage("b3", ROW, 5),
        AxisUsage("w4", COL, 5),
    )
    gammas = tuple(GammaVar(i, n, "hidden") for i in range(1, 6))
    graph = ArchGraph(weights, usages, gammas, parametrization, topology="fragment")
    graph.validate()
    return graph


def build_attention_block(n: int, d_x: int, parametrization: str = "MFP") -> ArchGraph:
    """Attention block fragment: the query/key/value matrices all consume the
    projected input, so their column gammas merge with the projection's row
    gammas. ``d_x`` (the token/context dimension) never indexes a weight, so
    it does not contribute a gamma; it only has to be a valid size.
    """
    if n < 1 or d_x < 1:
        raise ParameterError(f"n and d_x must be >= 1, got n={n}, d_x={d_x}")
    weights = (
        WeightSpec("w1", "matrix", (n, n)),
        WeightSpec("b1", "vector", (n,)),
        WeightSpec("wq", "matrix", (n, n)),
        WeightSpec("wk", "matrix", (n, n)),
        WeightSpec("wv", "matrix", (n, n)),
        WeightSpec("w2", "matrix", (n, n)),
        WeightSpec("b2", "vector", (n,)),
    )
    usages = (
        AxisUsage("w1", ROW, 2),
        AxisUsage("w1", ROW, 3),
        AxisUsage("w1", ROW, 4),
        AxisUsage("w1", COL, 1),
        AxisUsage("b1", ROW, 2),
        AxisUsage("b1", ROW, 3),
        AxisUsage("b1", ROW, 4),
        AxisUsage("wq", ROW, 5),
        AxisUsage("wq", COL, 2),
        AxisUsage("wk", ROW, 5),
        AxisUsage("wk", COL, 3),
        AxisUsage("wv", ROW, 6),
        AxisUsage("wv", COL, 4),
        AxisUsage("w2", ROW, 7),
        AxisUsage("w2", COL, 6),
        AxisUsage("b2", ROW, 7),
    )
    gammas = tuple(GammaVar(i, n, "hidden") for i in range(1, 8))
    graph = ArchGraph(weights, usages, gammas, parametrization, topology="fragment")
    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_ARCH_KEYS = {
    "weights",
    "usages",
    "parametrization",
    "gammas",
    "topology",
    "layers",
    "activations",
    "hidden_widths",
}


def arch_to_json(g: ArchGraph) -> str:
    doc = {
        "parametrization": g.parametrization,
        "topology": g.topology,
        "weights": [{"name": w.name, "kind": w.kind, "shape": list(w.shape)} for w in g.weights],
        "usages": [{"weight": u.weight, "axis": u.axis, "gamma": u.gamma} for u in g.usages],
        "gammas": [{"id": gm.id, "width": gm.width, "role": gm.role} for gm in g.gammas],
        "layers": [[w, b] for w, b in g.layers],
        "activations": list(g.activations),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def arch_from_json(text: str) -> ArchGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"architecture file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructureError("architecture file must hold a JSON object")
    unknown = set(doc) - _ARCH_KEYS
    if unknown:
        raise StructureError(f"unknown architecture keys: {sorted(unknown)}")
    for key in ("weights", "usages", "parametrization"):
        if key not in doc:
            raise StructureError(f"architecture file is missing {key!r}")
    try:
        graph = _graph_from_doc(doc)
        graph.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(
            f"malformed architecture entry: {type(exc).__name__}: {exc}"
        ) from exc
    return graph


def _graph_from_doc(doc: dict) -> ArchGraph:
    """Build the graph from a parsed arch document. Wrong value types and
    missing entry keys surface as the builtin errors they raise."""
    weights = tuple(
        WeightSpec(w["name"], w["kind"], tuple(int(d) for d in w["shape"]))
        for w in doc["weights"]
    )
    usages = tuple(
        AxisUsage(u["weight"], u["axis"], int(u["gamma"])) for u in doc["usages"]
    )
    if "gammas" in doc:
        gammas = tuple(
            GammaVar(int(gm["id"]), int(gm["width"]), gm.get("role", "hidden"))
            for gm in doc["gammas"]
        )
    else:
        # Infer widths from the axes each gamma indexes; roles from an
        # optional hidden_widths list (default: width > 1 is hidden).
        by_name = {w.name: w for w in weights}
        seen: dict[int, int] = {}
        for u in usages:
            w = by_name.get(u.weight)
            if w is None:
                raise StructureError(f"usage references unknown weight {u.weight!r}")
            size = w.shape[0] if (u.axis == ROW or w.kind == "vector") else w.shape[1]
            if seen.setdefault(u.gamma, size) != size:
                raise StructureError(f"gamma {u.gamma} used with conflicting widths")
        hidden_widths = doc.get("hidden_widths")
        def role(width: int) -> str:
            if hidden_widths is not None:
                return "hidden" if width in hidden_widths else "data"
            return "hidden" if width > 1 else "data"
        gammas = tuple(GammaVar(gid, w, role(w)) for gid, w in sorted(seen.items()))

    layers = tuple((w, b) for w, b in doc.get("layers", []))
    return ArchGraph(
        weights=weights,
        usages=usages,
        gammas=gammas,
        parametrization=doc["parametrization"],
        topology=doc.get("topology", "chain" if layers else "fragment"),
        layers=layers,
        activations=tuple(doc.get("activations", [])),
    )
