import contextlib
import copy
import dataclasses
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfgrow.arch import (
    PARAMETRIZATIONS,
    ArchGraph,
    AxisUsage,
    GammaVar,
    WeightSpec,
    arch_from_json,
    arch_to_json,
    build_attention_block,
    build_mlp,
    build_skip_block,
    format_partition,
)
from mfgrow.cli import main
from mfgrow.errors import ParameterError, StructureError
from mfgrow.init import rc_eligible


class TestReferencePartitions:
    def test_four_layer_skip_net(self):
        g = build_mlp(4, 16, with_bias=True, with_skip=True)
        p = g.partition
        assert p.groups == ((1,), (2, 3), (4,))
        assert p.widths == (16, 16, 1)
        assert p.resizable == (True, True, False)

    def test_skip_block(self):
        p = build_skip_block(8).partition
        assert p.groups == ((1,), (2, 5), (3,), (4,))
        assert p.widths == (8, 8, 8, 8)

    def test_attention_block(self):
        g = build_attention_block(8)
        assert len(g.gammas) == 7
        p = g.partition
        assert p.groups == ((1,), (2, 3, 4), (5,), (6,), (7,))

    def test_attention_width_one(self):
        p = build_attention_block(1).partition
        assert p.groups == ((1,), (2, 3, 4), (5,), (6,), (7,))
        assert p.widths == (1, 1, 1, 1, 1)

    def test_plain_chain_all_singletons(self):
        p = build_mlp(5, 8).partition
        assert p.groups == ((1,), (2,), (3,), (4,))

    def test_two_layer(self):
        g = build_mlp(2, 8)
        assert {w.name for w in g.weights} == {"u", "v"}
        p = g.partition
        assert p.groups == ((1,),)

    def test_five_layer_weight_count(self):
        g = build_mlp(5, 8)
        assert len(g.weights) == 5


# (weight, axis) -> group index, with the groups in partition order.
AXIS_GROUP_PINS = {
    "chain": (build_mlp(3, 8), {
        ("u", "row"): 0, ("w1", "col"): 0, ("w1", "row"): 1, ("v", "row"): 1,
    }),
    "skip4": (build_mlp(4, 8, with_skip=True), {
        ("u", "row"): 0, ("bu", "row"): 0, ("w1", "col"): 0,
        ("w1", "row"): 1, ("b1", "row"): 1, ("w2", "col"): 1, ("w2", "row"): 1,
        ("b2", "row"): 1, ("v", "row"): 1,
        ("bv", "row"): 2,
    }),
    "cifar": (build_mlp(3, 100, with_bias=True, input_dim=3072, output_dim=10), {
        ("u", "row"): 0, ("bu", "row"): 0, ("w1", "col"): 0,
        ("w1", "row"): 1, ("b1", "row"): 1, ("v", "col"): 1,
        ("u", "col"): 2,
        ("v", "row"): 3, ("bv", "row"): 3,
    }),
}


class TestAxisGroups:
    @pytest.mark.parametrize("name", list(AXIS_GROUP_PINS))
    def test_axis_group_map_pinned(self, name):
        arch, expected = AXIS_GROUP_PINS[name]
        assert arch.partition.axis_groups == expected

    @pytest.mark.parametrize("arch", [
        build_mlp(5, [3, 4, 5, 6], with_bias=True, input_dim=2, output_dim=3),
        build_mlp(4, 6, with_skip=True, input_dim=4),
        build_skip_block(5),
        build_attention_block(4),
    ], ids=["chain-5", "skip4-wide-input", "skip-block", "attention-block"])
    def test_every_usage_maps_to_its_gammas_group(self, arch):
        # Fragments leave boundary axes (the skip block's w4 rows) unmapped.
        p = arch.partition
        assert set(p.axis_groups) == {(u.weight, u.axis) for u in arch.usages}
        for u in arch.usages:
            assert u.gamma in p.groups[p.axis_groups[(u.weight, u.axis)]]

    def test_unmapped_axis_lookup_raises_structure_error(self):
        with pytest.raises(StructureError, match="w4: no usage recorded for axis 'row'"):
            rc_eligible(build_skip_block(3), "w4")

    @pytest.mark.parametrize("block", [build_skip_block(3), build_attention_block(4)],
                             ids=["skip-block", "attention-block"])
    def test_fragment_has_no_fan_ins_or_multipliers(self, block):
        for w in block.weights:
            for lookup in (block.fan_in, block.rate_multiplier):
                with pytest.raises(StructureError,
                                   match=f"weight {w.name}: a fragment has no fan-in"):
                    lookup(w.name)


class TestPartitionProperties:
    def test_idempotent(self):
        g = build_mlp(4, 8, with_bias=True, with_skip=True)
        assert dataclasses.replace(g).partition == g.partition

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_usage_permutation_invariance(self, rnd):
        g = build_attention_block(4)
        usages = list(g.usages)
        rnd.shuffle(usages)
        shuffled = dataclasses.replace(g, usages=tuple(usages))
        assert shuffled.partition == g.partition

    def test_adding_usage_only_coarsens(self):
        g = build_mlp(5, 8)
        base = g.partition
        # Reuse gamma 2 on w2's row axis (currently gamma 3): forces a merge.
        extra = dataclasses.replace(g, usages=g.usages + (AxisUsage("w2", "row", 2),))
        merged = extra.partition
        base_groups = [set(grp) for grp in base.groups]
        for grp in merged.groups:
            covered = [bg for bg in base_groups if bg & set(grp)]
            assert set().union(*covered) == set(grp)
        assert len(merged) < len(base)

    def test_group_widths_equal_checked(self):
        weights = (
            WeightSpec("a", "matrix", (4, 8)),
            WeightSpec("b", "vector", (8,)),
        )
        usages = (
            AxisUsage("a", "row", 1),
            AxisUsage("a", "col", 2),
            AxisUsage("a", "row", 3),  # same axis as gamma 1, width conflict below
            AxisUsage("b", "row", 2),
        )
        gammas = (GammaVar(1, 4), GammaVar(2, 8), GammaVar(3, 4))
        g = ArchGraph(weights, usages, gammas, "MFP", topology="fragment")
        assert g.partition.groups == ((1, 3), (2,))

    def test_forced_merge_width_conflict_raises(self):
        weights = (WeightSpec("a", "matrix", (4, 8)),)
        usages = (
            AxisUsage("a", "row", 1),
            AxisUsage("a", "col", 2),
            AxisUsage("a", "col", 3),
        )
        # Gamma 3 declared with the wrong width: construction names the axis.
        gammas = (GammaVar(1, 4), GammaVar(2, 8), GammaVar(3, 4))
        with pytest.raises(StructureError, match="a"):
            ArchGraph(weights, usages, gammas, "MFP", topology="fragment")


class TestBuilders:
    def test_depth_below_two_rejected(self):
        with pytest.raises(ParameterError):
            build_mlp(1, 8)

    def test_skip_requires_depth_four(self):
        with pytest.raises(ParameterError):
            build_mlp(5, 8, with_skip=True)

    def test_cifar_shape_conventions(self):
        g = build_mlp(3, 300, with_bias=True, input_dim=3072, output_dim=10)
        assert g.weight("u").shape == (300, 3072)
        assert g.weight("w1").shape == (300, 300)
        assert g.weight("v").shape == (10, 300)
        p = g.partition
        assert sorted(p.widths) == [10, 300, 300, 3072]
        assert sum(p.resizable) == 2

    def test_hidden_widths(self):
        g = build_mlp(3, 300, with_bias=True, input_dim=3072, output_dim=10)
        assert g.hidden_widths == {300}

    def test_format_partition(self):
        g = build_mlp(4, 16, with_bias=True, with_skip=True)
        text = format_partition(g.partition)
        lines = text.splitlines()
        assert lines[0] == "Γ_1: {γ_1} width=16"
        assert lines[1] == "Γ_2: {γ_2, γ_3} width=16"
        assert lines[2] == "Γ_3: {γ_4} width=1"

    # sha256 over every outcome of build_mlp on the grid below: the arch
    # JSON and the layer plan's repr, or the error's type and message.
    BUILD_GRID_DIGEST = "613586237da3a94b67f9275bcc02f6071eef95f20932460b378a46f002cb1318"

    def test_build_grid_pinned(self):
        digest = hashlib.sha256()
        for depth, spread, bias, skip, d_in, d_out, parametrization, act in itertools.product(
                range(2, 7), ("one", "three", "per-layer"), (False, True), (False, True),
                (1, 2, 5), (1, 2, 3), PARAMETRIZATIONS, ("tanh", "relu")):
            widths = {"one": 1, "three": 3, "per-layer": list(range(2, depth + 1))}[spread]
            try:
                g = build_mlp(depth, widths, with_bias=bias, with_skip=skip, input_dim=d_in,
                              output_dim=d_out, parametrization=parametrization,
                              activation=act)
                out = arch_to_json(g) + repr(g.plan)
                assert arch_from_json(arch_to_json(g)) == g
            except (ParameterError, StructureError) as exc:
                out = f"{type(exc).__name__}: {exc}"
            digest.update(out.encode() + b"\n")
        assert digest.hexdigest() == self.BUILD_GRID_DIGEST


class TestValidation:
    def test_uncovered_axis_rejected_for_trainable(self):
        weights = (WeightSpec("a", "matrix", (4, 4)),)
        usages = (AxisUsage("a", "row", 1),)
        gammas = (GammaVar(1, 4),)
        with pytest.raises(StructureError, match="col"):
            ArchGraph(weights, usages, gammas, "MFP", topology="chain")

    def test_vector_col_usage_rejected(self):
        weights = (WeightSpec("b", "vector", (4,)),)
        usages = (AxisUsage("b", "col", 1),)
        gammas = (GammaVar(1, 4),)
        with pytest.raises(StructureError):
            ArchGraph(weights, usages, gammas, "MFP", topology="fragment")

    def test_unused_gamma_rejected(self):
        weights = (WeightSpec("b", "vector", (4,)),)
        usages = (AxisUsage("b", "row", 1),)
        gammas = (GammaVar(1, 4), GammaVar(2, 4))
        with pytest.raises(StructureError, match="never used"):
            ArchGraph(weights, usages, gammas, "MFP", topology="fragment")

    def test_one_activation_per_hidden_layer(self):
        # A chain short of an activation once failed with an IndexError at
        # its first forward pass.
        g = build_mlp(3, 4)
        with pytest.raises(StructureError, match="3 layers need 2 activations, got 1"):
            dataclasses.replace(g, activations=g.activations[:1])


def _matrix_bias(doc):
    doc["weights"][3] = {"name": "b1", "kind": "matrix", "shape": [4, 4]}
    doc["usages"].append({"weight": "b1", "axis": "col", "gamma": 1})


_WIDE = build_mlp(3, 4, with_bias=True, input_dim=2, output_dim=3)


class TestWiring:
    # Each of these once built, though its groups do not follow its layers.
    # The skip4, slot, layer-count and mixed-role rules are covered by
    # test_cli.py's hostile arch files.
    @pytest.mark.parametrize("base, edit, match", [
        (build_mlp(2, 4), lambda d: d.update(layers=d["layers"][:1], activations=[]),
         "a chain net needs at least 2 layers, got 1"),
        (build_mlp(3, 4), lambda d: d.update(layers=[["u", None], ["v", None], ["w1", None]]),
         r"layer 1 \(v\): a vector weight is only the embedding or the readout"),
        (_WIDE, lambda d: d["gammas"][2].update(role="hidden"),
         r"layer 0 \(u\): the input axis lies in a hidden group"),
        (_WIDE, lambda d: d["gammas"][3].update(role="hidden"),
         r"layer 2 \(v\): the output axis lies in a hidden group"),
        (_WIDE, lambda d: d["usages"][5].update(gamma=1),
         r"layer 1 \(w1\): bias b1 is not a vector on the layer's output axis"),
        (_WIDE, _matrix_bias, r"layer 1 \(w1\): bias b1 is not a vector"),
    ], ids=["one-layer", "vector-in-the-middle", "hidden-input", "hidden-output",
            "bias-off-output", "matrix-bias"])
    def test_miswired_layer_named(self, base, edit, match):
        doc = json.loads(arch_to_json(base))
        edit(doc)
        with pytest.raises(StructureError, match=match):
            arch_from_json(json.dumps(doc))

    @pytest.mark.parametrize("parametrization", ["SP", "muP", "MFP"])
    def test_plan_scalars(self, parametrization):
        plan = _WIDE.with_parametrization(parametrization).plan
        assert (plan.input_dim, plan.output_dim) == (2, 3)
        assert [layer.scalar for layer in plan.layers] == {
            "SP": [1.0, 0.5, 0.5], "muP": [1.0, 0.5, 0.25], "MFP": [0.5, 0.25, 0.25]
        }[parametrization]


class TestFanInsAndMultipliers:
    """The arch's fan-ins and rate multipliers, against their definitions
    read off each weight's shape and axes."""

    @staticmethod
    def expected(g, name):
        w = g.weight(name)
        biases = {b for _, b in g.layers if b is not None}
        if w.kind == "matrix":
            fan = w.shape[1]
        else:
            fan = w.shape[0] if name == g.layers[-1][0] else 1
        mult = 1
        if g.parametrization == "MFP":
            p = g.partition
            for ax in w.axes:
                k = p.axis_group(name, ax)
                mult *= p.widths[k] if p.resizable[k] else 1
        return (1 if name in biases else fan), mult

    def test_build_grid(self):
        count = 0
        for depth, bias, skip, d_in, d_out, parametrization in itertools.product(
                range(2, 6), (False, True), (False, True), (1, 3), (1, 2), PARAMETRIZATIONS):
            if skip and depth != 4:
                continue
            widths = 5 if skip else list(range(4, depth + 3))
            g = build_mlp(depth, widths, with_bias=bias, with_skip=skip, input_dim=d_in,
                          output_dim=d_out, parametrization=parametrization)
            for w in g.weights:
                fan, mult = self.expected(g, w.name)
                assert g.fan_in(w.name) == fan
                assert g.rate_multiplier(w.name) == mult
                assert type(g.rate_multiplier(w.name)) is float
                count += 1
        assert count == 696

    def test_unknown_weight(self):
        with pytest.raises(StructureError, match="unknown weight 'w9'"):
            build_mlp(3, 4).fan_in("w9")

    def test_derived_like_the_partition(self):
        # Outside repr and equality, as the build-grid digest of repr(plan) needs.
        g = build_mlp(3, 4, input_dim=2)
        assert "_scales" not in repr(g)
        assert dataclasses.replace(g) == g


class TestJson:
    def test_round_trip(self):
        g = build_mlp(4, 8, with_bias=True, with_skip=True)
        assert arch_from_json(arch_to_json(g)) == g

    # Each of these once loaded with a guess: gammas inferred from the axes
    # (the 3072 input and 10 outputs then became hidden), a missing role read
    # as hidden, and a missing topology read as a chain.
    @pytest.mark.parametrize("strip, match", [
        (lambda d: d.pop("gammas"), "file needs 'gammas'"),
        (lambda d: d["gammas"][0].pop("role"), r"gammas\[0\] needs 'role'"),
        (lambda d: d.pop("topology"), "file needs 'topology'"),
    ], ids=["gamma-less", "role-less", "topology-less"])
    def test_incomplete_documents_rejected(self, strip, match):
        doc = json.loads(arch_to_json(build_mlp(4, 8, with_skip=True)))
        strip(doc)
        with pytest.raises(StructureError, match=match):
            arch_from_json(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = {**json.loads(arch_to_json(build_mlp(2, 4))), "bogus": 1}
        with pytest.raises(StructureError, match="bogus"):
            arch_from_json(json.dumps(doc))

    @pytest.mark.parametrize("corrupt", [
        lambda d: d["weights"][0].update(shape=["x"]),
        lambda d: d["gammas"][0].pop("id"),
        lambda d: d["layers"].append(["u", "bu", "w1"]),
        lambda d: d.update(activations=3),
        lambda d: d["weights"][0].update(name=["u"]),
    ], ids=["shape_not_int", "gamma_without_id", "layer_not_pair", "activations_not_list",
            "unhashable_weight_name"])
    def test_malformed_entries_rejected(self, corrupt):
        doc = json.loads(arch_to_json(build_mlp(3, 4, with_bias=True)))
        corrupt(doc)
        with pytest.raises(StructureError, match="malformed"):
            arch_from_json(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(StructureError):
            arch_from_json("{not json")

    # SHA-256 of the skip4 arch JSON: its usage order is written into every
    # skip4 checkpoint, so any builder must reproduce it byte for byte.
    SKIP4_JSON_PINS = {
        (1, 1, "SP"): "173fdf2aa15d1b6f4a3b7eaece91e08e7af186bd024ce875efe7bf2ea13ef7dd",
        (1, 1, "muP"): "0b462f5b85bbf553566ed32c8cbd99e36348f769da41fb4b27ab330eb0a177fd",
        (1, 1, "MFP"): "514fd9601dfc4efd000ce4b2be061e3934d9ed2df35fa5065056551adea5c672",
        (1, 3, "SP"): "fc52e65b21a866eb20ab5248e8384b4c9897645fa4eab227dd0bab30e0a05989",
        (1, 3, "muP"): "2952b3a42f95b16fad5a03241f4a5e0fd6c34a8fb06662b38a09883640d970e8",
        (1, 3, "MFP"): "03557d163e123721ed8b0ad787e0ceac2742967e61bfa2c93a190c9432f14d25",
        (5, 1, "SP"): "682e894965b42a98f80d910d187f93ae6b69a727e4939526460fbafc849c6a56",
        (5, 1, "muP"): "cc1c937dbbe800c2c09d74ad8507761ecdd89f985e41ae65082313fdd1e97340",
        (5, 1, "MFP"): "acfba6929bb211fdff2b2288dfc0616b0b05610dceac3baf1fa7bbd66c544e96",
        (5, 3, "SP"): "49a168a8d7392b850cf6c65578f58d132fc567e5e18dba2768b2646d048d8db4",
        (5, 3, "muP"): "fceab1b5040eed94a0ede5b9be490eb9b74a47f1655d3c47952f32e46cc2d39a",
        (5, 3, "MFP"): "4b9cc051685d3dc6c13eb57ea2a015b5d8c9d0713f2ae63a20f7f88d7d5f7131",
    }

    @pytest.mark.parametrize("case", list(SKIP4_JSON_PINS), ids=lambda c: "-".join(map(str, c)))
    def test_skip4_json_pinned(self, case):
        input_dim, output_dim, parametrization = case
        g = build_mlp(4, 10, with_skip=True, input_dim=input_dim, output_dim=output_dim,
                      parametrization=parametrization)
        digest = hashlib.sha256(arch_to_json(g).encode()).hexdigest()
        assert digest == self.SKIP4_JSON_PINS[case]


# Hostile arch files: one part of a file that arch_to_json wrote is dropped,
# retyped or added. Python's json cannot write 1e400, so a marker string
# stands for it and is replaced by the literal in the file text.
_HUGE = "<1e400>"
_FUZZ_BASES = [
    build_mlp(3, 4, with_bias=True),
    build_mlp(4, 4, with_skip=True),
    build_mlp(3, 6, with_bias=True, input_dim=3072, output_dim=10),
    build_skip_block(3),
    build_attention_block(2),
]
_JSON_VALUES = st.one_of(
    st.sampled_from([_HUGE, 1.7, True, False, None, 0, -1, 2**70, "", "row", [], {}, [1],
                     {"k": 1}]),
    st.integers(), st.floats(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
)


def _json_type(value):
    return float if value == _HUGE else type(value)


def _text(doc) -> str:
    return json.dumps(doc).replace(json.dumps(_HUGE), "1e400")


def _edited(edit) -> str:
    doc = json.loads(arch_to_json(_FUZZ_BASES[0]))
    edit(doc)
    return _text(doc)


def _containers(doc):
    """Every object and array in ``doc``, the document itself first."""
    yield doc
    for value in (doc.values() if isinstance(doc, dict) else doc):
        if isinstance(value, (dict, list)):
            yield from _containers(value)


@st.composite
def _hostile_arch_texts(draw):
    doc = json.loads(arch_to_json(draw(st.sampled_from(_FUZZ_BASES))))
    container = draw(st.sampled_from(list(_containers(doc))))
    keys = list(container) if isinstance(container, dict) else list(range(len(container)))
    action = draw(st.sampled_from(["drop", "retype", "add"] if keys else ["add"]))
    if action == "add" and isinstance(container, dict):
        key = draw(st.text(min_size=1, max_size=5).filter(lambda k: k not in container))
        container[key] = draw(_JSON_VALUES)
    elif action == "add":
        # A copy of an entry (a second usage of an axis, say) or a new value.
        copies = st.sampled_from(container).map(copy.deepcopy) if keys else st.nothing()
        container.append(draw(copies | _JSON_VALUES))
    else:
        key = draw(st.sampled_from(keys))
        if action == "drop":
            del container[key]
        else:
            old = _json_type(container[key])
            container[key] = draw(_JSON_VALUES.filter(lambda v: _json_type(v) != old))
    return _text(doc)


class TestArchJsonFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_hostile_arch_texts())
    @example(_edited(lambda d: d["usages"].append(d["usages"][0])))  # accepted
    @example(_edited(lambda d: d["layers"][0].__setitem__(1, None)))  # rejected
    @example(_edited(lambda d: d["gammas"][0].__setitem__("width", _HUGE)))
    def test_one_mutation_is_rejected_or_round_trips(self, text):
        try:
            g = arch_from_json(text)
        except StructureError:
            expected = 2
        else:
            expected = 0
            assert arch_from_json(arch_to_json(g)) == g
            assert arch_to_json(g) == json.dumps(json.loads(text), sort_keys=True,
                                                 separators=(",", ":"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "arch.json"
            path.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(["gamma", str(path)]) == expected
        assert err.getvalue().startswith("error: ") if expected else out.getvalue()

    @pytest.mark.parametrize("entries, key, literal", [
        ("usages", "gamma", "1.7"), ("usages", "gamma", "1e400"), ("gammas", "width", "1e400"),
        ("gammas", "width", "true"), ("gammas", "id", "null"), ("gammas", "width", "4.0"),
    ])
    def test_non_integer_numbers_rejected(self, entries, key, literal):
        text = _edited(lambda d: d[entries][0].__setitem__(key, _HUGE)).replace("1e400", literal)
        with pytest.raises(StructureError, match=rf"{entries}\[0\] '{key}' must be an integer"):
            arch_from_json(text)
