"""Symbolic architectures: named weights, per-axis index variables (gammas),
the partition of gammas into joint-resampling groups, and the layer plan the
executor runs.

Every place a weight axis shows up in the forward computation is recorded as
an AxisUsage carrying a gamma id. Two gammas that ever appear at the same
(weight, axis) position must be resampled together, so the partition is the
finest one closed under merging such gammas. A group holds only data gammas
(tied to an input/output size, or 1), which are not resizable, or only
hidden ones.

A transfer resamples each group with one index set, which is correct only if
the groups follow the wiring. So a ``chain`` or ``skip4`` arch is checked
when it is built: it has at least 2 layers (skip4 exactly 4); each weight
sits in exactly one layer slot; a vector is only the embedding or the
readout; each layer contracts the group its predecessor outputs; the input
and output axes lie in data groups; a bias lies on its layer's output axis;
and skip4's residual operands share a group. A ``fragment`` declares no
layers and is never run.

``build_mlp`` is the one MLP builder: its layer l maps axis l of
[input, *hidden, output] to axis l + 1. Its skip4 net is the depth-4 chain
plus two usages, w1 and b1 rows on gamma 3, which merge gammas 2 and 3 into
one group; its ``skip4`` topology declares the residual add to the executor.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from types import GenericAlias
from typing import NamedTuple, get_origin

from .errors import MfgrowError, ParameterError, StructureError

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
        # A store holds each weight as one float64 array, whose byte size
        # must fit the address space.
        if 8 * math.prod(self.shape) > sys.maxsize:
            raise ParameterError(f"weight {self.name}: shape {self.shape} needs "
                                 f"{8 * math.prod(self.shape)} bytes, past the address space")

    @property
    def axes(self) -> tuple[str, ...]:
        """The axes a usage can name: rows and columns, or a vector's rows."""
        return (ROW, COL)[: len(self.shape)]


@dataclass(frozen=True)
class AxisUsage:
    """One appearance of a weight axis in the computation, tagged with a gamma."""

    weight: str
    axis: str  # "row" | "col"
    gamma: int


class Layer(NamedTuple):
    """One layer of the plan the executor runs."""

    weight: str
    bias: str | None
    vector: bool  # a 1-d weight: the elementwise embedding at layer 0, else the readout
    scalar: float  # the forward scalar on the layer's contraction
    activation: str | None  # None on the output layer
    residual: bool  # add the previous layer's pre-activation before the activation


class LayerPlan(NamedTuple):
    layers: tuple[Layer, ...]
    input_dim: int
    output_dim: int


@dataclass(frozen=True)
class ArchGraph:
    """A checked and indexed architecture: construction raises StructureError
    on any inconsistency, so a graph that exists is valid. It also builds the
    name lookup, the gamma partition and, unless it is a fragment, the layer
    plan and each weight's (fan-in, rate multiplier) once; those derived
    fields take no part in equality, hashing or repr."""

    weights: tuple[WeightSpec, ...]
    usages: tuple[AxisUsage, ...]
    gammas: tuple[GammaVar, ...]
    parametrization: str
    topology: str = "chain"  # "chain" | "skip4" | "fragment"
    # Forward order as (weight, bias-or-None) pairs; empty for fragments.
    layers: tuple[tuple[str, str | None], ...] = ()
    activations: tuple[str, ...] = ()
    partition: GammaPartition = field(init=False, repr=False, compare=False)
    plan: LayerPlan | None = field(init=False, repr=False, compare=False)  # None for fragments
    _by_name: dict[str, WeightSpec] = field(init=False, repr=False, compare=False)
    _scales: dict[str, tuple[int, float]] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.parametrization not in PARAMETRIZATIONS:
            raise StructureError(f"unknown parametrization {self.parametrization!r}")
        if self.topology not in ("chain", "skip4", "fragment"):
            raise StructureError(f"unknown topology {self.topology!r}")
        by_name = {w.name: w for w in self.weights}
        if len(by_name) != len(self.weights):
            raise StructureError("weight names must be unique")
        by_id = {g.id: g for g in self.gammas}
        if len(by_id) != len(self.gammas):
            raise StructureError("gamma ids must be unique")
        object.__setattr__(self, "_by_name", by_name)
        axis_gammas: dict[tuple[str, str], list[int]] = {}
        for u in self.usages:
            w = self.weight(u.weight)
            if w.kind == "vector" and u.axis != ROW:
                raise StructureError(f"weight {w.name}: vector usages must be on the row axis")
            if u.axis not in (ROW, COL):
                raise StructureError(f"weight {w.name}: unknown axis {u.axis!r}")
            if u.gamma not in by_id:
                raise StructureError(f"usage of {w.name} references unknown gamma {u.gamma}")
            size = w.shape[0] if u.axis == ROW else w.shape[1]
            if by_id[u.gamma].width != size:
                raise StructureError(
                    f"weight {w.name} axis {u.axis}: size {size} != gamma {u.gamma} width "
                    f"{by_id[u.gamma].width}"
                )
            axis_gammas.setdefault((u.weight, u.axis), []).append(u.gamma)
        missing = set(by_id) - {u.gamma for u in self.usages}
        if missing:
            raise StructureError(f"gammas never used: {sorted(missing)}")
        if self.topology != "fragment":
            for w in self.weights:
                for ax in w.axes:
                    if (w.name, ax) not in axis_gammas:
                        raise StructureError(f"weight {w.name}: axis {ax} has no usage")
        for wname, bname in self.layers:
            self.weight(wname)
            if bname is not None:
                self.weight(bname)
        for act in self.activations:
            if act not in ACTIVATION_NAMES:
                raise StructureError(f"unknown activation {act!r}")
        if len(self.activations) != max(len(self.layers) - 1, 0):
            raise StructureError(
                f"{len(self.layers)} layers need {max(len(self.layers) - 1, 0)} activations, "
                f"got {len(self.activations)}")
        object.__setattr__(self, "partition", compute_partition(self.gammas, axis_gammas))
        for key, value in zip(("plan", "_scales"), _layer_plan(self)):
            object.__setattr__(self, key, value)

    def weight(self, name: str) -> WeightSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise StructureError(f"unknown weight {name!r}") from None

    def fan_in(self, name: str) -> int:
        """The width the weight contracts over; 1 for the 1-d embedding and a bias."""
        return self._scale(name)[0]

    def rate_multiplier(self, name: str) -> float:
        """Under MFP the product of the weight's resizable axis widths (N*N for
        a hidden matrix, N for a vector, embedding or readout matrix); else 1."""
        return self._scale(name)[1]

    def _scale(self, name: str) -> tuple[int, float]:
        if self._scales is None:
            raise StructureError(f"weight {name}: a fragment has no fan-in or rate multiplier")
        return self._scales[self.weight(name).name]

    @property
    def hidden_widths(self) -> set[int]:
        return {g.width for g in self.gammas if g.role == "hidden"}

    def with_parametrization(self, parametrization: str) -> "ArchGraph":
        if parametrization not in PARAMETRIZATIONS:
            raise ParameterError(f"unknown parametrization {parametrization!r}")
        return replace(self, parametrization=parametrization)


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

    def axis_group(self, weight: str, axis: str) -> int:
        """The group of a (weight, axis); a fragment's boundary axis has none."""
        try:
            return self.axis_groups[(weight, axis)]
        except KeyError:
            raise StructureError(f"weight {weight}: no usage recorded for axis {axis!r}") from None


def compute_partition(gammas: tuple[GammaVar, ...],
                      axis_gammas: dict[tuple[str, str], list[int]]) -> GammaPartition:
    """Union-find over gamma ids: merge all gammas that ``axis_gammas`` lists
    at the same (weight, axis) position. Returns the finest partition closed
    under that rule, with the group of each such position. Construction ties
    every gamma to its axis size, so merged gammas always share one width; a
    group that mixes data and hidden gammas is a StructureError. Every graph
    holds its own as ``g.partition``."""
    parent = {gm.id: gm.id for gm in gammas}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    per_axis = sorted(axis_gammas.items())
    for _, (first, *others) in per_axis:
        for other in others:
            ri, rj = find(first), find(other)
            parent[max(ri, rj)] = min(ri, rj)

    members: dict[int, list[GammaVar]] = {}
    for gm in sorted(gammas, key=lambda gm: gm.id):
        members.setdefault(find(gm.id), []).append(gm)
    groups = sorted(members.values(), key=lambda grp: grp[0].id)
    for grp in groups:
        if len({gm.role for gm in grp}) > 1:
            raise StructureError(
                f"gammas {[gm.id for gm in grp]} share a group but mix data and hidden roles")
    ids = tuple(tuple(gm.id for gm in grp) for grp in groups)
    group_index = {gid: i for i, grp in enumerate(ids) for gid in grp}
    return GammaPartition(
        ids, tuple(grp[0].width for grp in groups),
        tuple(grp[0].role == "hidden" for grp in groups),
        {key: group_index[gids[0]] for key, gids in per_axis})


def _forward_scalar(parametrization: str, width: int, resizable: bool, final: bool) -> float:
    """Forward scalars sit on every contraction and depend on the contracted
    group: a contraction over a width-N hidden group gets 1/N under MFP and
    1/sqrt(N) under SP and muP, except the final output contraction which
    gets 1/N under muP as well. Contractions over data groups (the input
    dimension) get 1/fan under MFP and no scalar under SP/muP, where
    fan-scaled initialization keeps pre-activations O(1). For 1-d input these
    rules collapse to the plain three-parametrization forms."""
    if parametrization == "MFP" or (parametrization == "muP" and final and resizable):
        return 1.0 / width
    return 1.0 / math.sqrt(width) if resizable else 1.0


def _layer_plan(g: ArchGraph) -> tuple[LayerPlan | None, dict[str, tuple[int, float]] | None]:
    """Check how a chain's or skip4's layers are wired. Return the plan the
    executor runs and each weight's (fan-in, rate multiplier), read off the
    same groups; a fragment declares no layers and has neither."""
    if g.topology == "fragment":
        if g.layers:
            raise StructureError("a fragment has no layers and no activations")
        return None, None
    n = len(g.layers)
    last = n - 1
    if n < 2 or (g.topology == "skip4" and n != 4):
        raise StructureError(f"a {g.topology} net needs "
                             f"{'4' if g.topology == 'skip4' else 'at least 2'} layers, got {n}")
    for w in g.weights:
        at = [i for i, pair in enumerate(g.layers) for name in pair if name == w.name]
        if len(at) != 1:
            raise StructureError(f"weight {w.name} sits in {f'layers {at}' if at else 'no layer'}; "
                                 f"every weight sits in exactly one layer slot")
    p, mfp = g.partition, g.parametrization == "MFP"

    def multiplier(*groups: int | None) -> float:
        return float(math.prod(p.widths[k] for k in groups
                               if mfp and k is not None and p.resizable[k]))

    layers: list[Layer] = []
    scales: dict[str, tuple[int, float]] = {}
    out = None
    for i, (wname, bname) in enumerate(g.layers):
        where = f"layer {i} ({wname})"
        vector = g.weight(wname).kind == "vector"
        prev, into = out, None
        if vector and 0 < i < last:
            raise StructureError(f"{where}: a vector weight is only the embedding or the readout")
        if vector and i == 0:
            scalar = 1.0  # the elementwise embedding of a 1-d input contracts nothing
        else:
            into = p.axis_groups[(wname, ROW if vector else COL)]
            scalar = _forward_scalar(g.parametrization, p.widths[into], p.resizable[into],
                                     i == last)
        if i == 0 and into is not None and p.resizable[into]:
            raise StructureError(f"{where}: the input axis lies in a hidden group")
        if i > 0 and into != prev:
            raise StructureError(f"{where}: contracts gammas {p.groups[into]}, but layer {i - 1} "
                                 f"outputs gammas {p.groups[prev]}")
        # A vector readout has one output value, which its bias (if any) carries.
        out = None if vector and i == last else p.axis_groups[(wname, ROW)]
        if bname is not None:
            b = g.weight(bname)
            if out is None and b.shape == (1,):
                out = p.axis_groups[(bname, ROW)]
            if b.kind != "vector" or p.axis_groups[(bname, ROW)] != out:
                raise StructureError(f"{where}: bias {bname} is not a vector on the layer's "
                                     f"output axis")
        residual = g.topology == "skip4" and i == 2
        if residual and out != prev:
            raise StructureError(f"{where}: the residual adds layer 1's output, on gammas "
                                 f"{p.groups[prev]}, to this layer's, on gammas {p.groups[out]}")
        if i == last and out is not None and p.resizable[out]:
            raise StructureError(f"{where}: the output axis lies in a hidden group")
        activation = g.activations[i] if i < last else None
        layers.append(Layer(wname, bname, vector, scalar, activation, residual))
        # The embedding vector contracts nothing; the readout's output is data.
        scales[wname] = (1 if into is None else p.widths[into], multiplier(out, into))
        if bname is not None:
            scales[bname] = (1, multiplier(out))
    # The input is what the first layer contracts; a vector readout gives one output.
    plan = LayerPlan(tuple(layers), scales[g.layers[0][0]][0], 1 if out is None else p.widths[out])
    return plan, scales


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
    # Layer l maps axis l of dims to axis l + 1. Hidden axis k carries gamma
    # k; the input axis, then the output axis, take the next ids when they
    # have a usage.
    dims = [input_dim, *hidden, output_dim]
    gamma_of = list(range(depth + 1))
    gammas = [GammaVar(k, hidden[k - 1], "hidden") for k in range(1, depth)]
    for axis, used in ((0, input_dim > 1), (depth, output_dim > 1 or with_bias)):
        if used:
            gamma_of[axis] = len(gammas) + 1
            gammas.append(GammaVar(gamma_of[axis], dims[axis], "data"))
    weights: list[WeightSpec] = []
    usages: list[AxisUsage] = []
    layers: list[tuple[str, str | None]] = []
    last = depth - 1
    for ell in range(depth):
        name, bname = (("u", "bu") if ell == 0 else ("v", "bv") if ell == last
                       else (f"w{ell}", f"b{ell}"))
        # A 1-d input or output leaves the embedding or readout a vector on
        # its hidden axis.
        if ell == 0 and input_dim == 1:
            axes = ((ROW, 1),)
        elif ell == last and output_dim == 1:
            axes = ((ROW, ell),)
        else:
            axes = ((ROW, ell + 1), (COL, ell))
        weights.append(WeightSpec(name, "vector" if len(axes) == 1 else "matrix",
                                  tuple(dims[a] for _, a in axes)))
        usages += [AxisUsage(name, ax, gamma_of[a]) for ax, a in axes]
        if with_bias:
            weights.append(WeightSpec(bname, "vector", (dims[ell + 1],)))
            usages.append(AxisUsage(bname, ROW, gamma_of[ell + 1]))
        layers.append((name, bname if with_bias else None))

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

    return ArchGraph(
        weights=tuple(weights),
        usages=tuple(usages),
        gammas=tuple(gammas),
        parametrization=parametrization,
        topology="skip4" if with_skip else "chain",
        layers=tuple(layers),
        activations=(activation,) * (depth - 1),
    )


def build_skip_block(n: int) -> ArchGraph:
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
    return ArchGraph(weights, usages, gammas, "MFP", topology="fragment")


def build_attention_block(n: int) -> ArchGraph:
    """Attention block fragment: the query/key/value matrices all consume the
    projected input, so their column gammas merge with the projection's row
    gammas. The token dimension indexes no weight, so it has no gamma. Both
    fragments are "MFP", which no forward scalar reads: they have no plan."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
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
    return ArchGraph(weights, usages, gammas, "MFP", topology="fragment")


# ---------------------------------------------------------------------------
# Arch JSON, and the one strict JSON check of arch files and configs
# ---------------------------------------------------------------------------

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


class Choice(dict):
    """A key's type: its value names one of these sections, whose keys join it."""


REQUIRED = object()  # the default of a key that has none


class _Written(float):
    """How JSON floats parse: a finite one as a plain float, one beyond the
    float range as inf that keeps its ``text`` for messages."""

    def __new__(cls, text: str):
        value = float(text)
        if math.isfinite(value):
            return value
        value = super().__new__(cls, value)
        value.text = text
        return value


def _shown(value) -> str:
    return value.text if isinstance(value, _Written) else json.dumps(value)


def read_json(text: str, what: str, error: type[MfgrowError]):
    """The JSON document ``text``; bad JSON, or JSON past the parser's
    limits, raises ``error``."""
    try:
        return json.loads(text, parse_float=_Written)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from None

_JSON_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list", list[int]: "a list of integers",
               list[str]: "a list of strings", dict: "an object"}


def checked_value(value, kind, what: str, error: type[MfgrowError]):
    """``value`` if it is a JSON value of ``kind`` (a key of _JSON_KINDS, or a
    tuple of them), a float kind converting an integer. Anything else raises
    ``error``: null, "4", a bool as a number, and 4.0 or 1e400 as an integer."""
    if type(value) is kind and kind is not float:
        return value
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) is list:
        for k in kinds:
            if isinstance(k, GenericAlias):  # list[int] or list[str]
                return [checked_value(entry, *k.__args__, f"{what} entry", error)
                        for entry in value]
    if isinstance(value, bool):
        ok = bool in kinds
    elif kind is float:
        # Also rejects nan, inf and integers beyond the float range.
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, tuple(get_origin(k) or k for k in kinds))
    if not ok:
        expected = " or ".join(_JSON_KINDS[k] for k in kinds)
        raise error(f"{what} must be {expected}, got {_shown(value)}")
    return float(value) if kind is float else value


def checked_object(doc, schema: dict, where: str, error: type[MfgrowError]) -> dict:
    """``doc`` checked against ``schema`` (each key's kind and default), with
    defaults filled in. A dict kind is a section, checked alike; a callable
    default is computed from the section's values. A missing key with no
    default, an unknown key or choice and a wrong JSON type raise ``error``."""
    if type(doc) is not dict:
        raise error(f"{where} must be an object, got {_shown(doc)}")
    out, items = {}, list(schema.items())
    for key, (kind, default) in items:  # a Choice appends its section's items
        value = doc.get(key, default)
        if type(value) is kind and kind is not float:  # the common case, checked fast
            out[key] = value
            continue
        if value is REQUIRED:
            raise error(f"{where} needs {key!r}")
        if callable(value):
            value = value({**doc, **out})
        if isinstance(kind, Choice):
            value = checked_value(value, str, f"{where} {key!r}", error)
            if value not in kind:
                raise error(f"{where} {key} must be one of {sorted(kind)}, got {value!r}")
            items += kind[value].items()
        elif isinstance(kind, dict):
            value = checked_object(value, kind, f"{where} {key}", error)
        elif key in doc:
            value = checked_value(value, kind, f"{where} {key!r}", error)
        out[key] = value
    if not doc.keys() <= out.keys():
        raise error(f"{where} has unknown keys {sorted(set(doc) - set(out))}")
    return out


def _required(**kinds) -> dict:
    return {key: (kind, REQUIRED) for key, kind in kinds.items()}


# The one arch file form, the one arch_to_json writes, in schema tables where
# every key is required: the document's, and those of its three entry lists.
_ARCH = _required(parametrization=str, topology=str, weights=list, usages=list, gammas=list,
                  layers=list, activations=list[str])
_ENTRIES = {"weights": _required(name=str, kind=str, shape=list[int]),
            "usages": _required(weight=str, axis=str, gamma=int),
            "gammas": _required(id=int, width=int, role=str)}


def arch_from_json(text: str) -> ArchGraph:
    """Read an architecture in the form ``arch_to_json`` writes, and only
    that form. Anything else raises StructureError."""
    where = "malformed architecture file"
    doc = checked_object(read_json(text, "architecture file", StructureError), _ARCH, where,
                         StructureError)
    weights, usages, gammas = (
        [checked_object(entry, schema, f"{where} {key}[{i}]", StructureError)
         for i, entry in enumerate(doc[key])]
        for key, schema in _ENTRIES.items())
    for i, pair in enumerate(doc["layers"]):
        if (type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str
                or not (pair[1] is None or type(pair[1]) is str)):
            raise StructureError(f"{where} layers[{i}] must be a [weight, bias-or-null] pair, "
                                 f"got {_shown(pair)}")
    return ArchGraph(
        weights=tuple(WeightSpec(w["name"], w["kind"], tuple(w["shape"])) for w in weights),
        usages=tuple(AxisUsage(**u) for u in usages),
        gammas=tuple(GammaVar(**gm) for gm in gammas),
        parametrization=doc["parametrization"],
        topology=doc["topology"],
        layers=tuple(map(tuple, doc["layers"])),
        activations=tuple(doc["activations"]),
    )
