import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgrow.arch import (
    ArchGraph,
    AxisUsage,
    GammaVar,
    WeightSpec,
    arch_from_json,
    arch_to_json,
    build_attention_block,
    build_mlp,
    build_skip_block,
    compute_partition,
    format_partition,
)
from mfgrow.errors import ParameterError, StructureError


class TestReferencePartitions:
    def test_four_layer_skip_net(self):
        g = build_mlp(4, 16, with_bias=True, with_skip=True)
        p = compute_partition(g)
        assert p.groups == ((1,), (2, 3), (4,))
        assert p.widths == (16, 16, 1)
        assert p.resizable == (True, True, False)

    def test_skip_block(self):
        p = compute_partition(build_skip_block(8))
        assert p.groups == ((1,), (2, 5), (3,), (4,))
        assert p.widths == (8, 8, 8, 8)

    def test_attention_block(self):
        g = build_attention_block(8, 6)
        assert len(g.gammas) == 7
        p = compute_partition(g)
        assert p.groups == ((1,), (2, 3, 4), (5,), (6,), (7,))

    def test_attention_width_one(self):
        p = compute_partition(build_attention_block(1, 1))
        assert p.groups == ((1,), (2, 3, 4), (5,), (6,), (7,))
        assert p.widths == (1, 1, 1, 1, 1)

    def test_plain_chain_all_singletons(self):
        p = compute_partition(build_mlp(5, 8))
        assert p.groups == ((1,), (2,), (3,), (4,))

    def test_two_layer(self):
        g = build_mlp(2, 8)
        assert {w.name for w in g.weights} == {"u", "v"}
        p = compute_partition(g)
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
        assert compute_partition(arch).axis_groups == expected

    @pytest.mark.parametrize("arch", [
        build_mlp(5, [3, 4, 5, 6], with_bias=True, input_dim=2, output_dim=3),
        build_mlp(4, 6, with_skip=True, input_dim=4),
        build_skip_block(5),
        build_attention_block(4, 3),
    ], ids=["chain-5", "skip4-wide-input", "skip-block", "attention-block"])
    def test_every_usage_maps_to_its_gammas_group(self, arch):
        # Fragments leave boundary axes (the skip block's w4 rows) unmapped.
        p = compute_partition(arch)
        assert set(p.axis_groups) == {(u.weight, u.axis) for u in arch.usages}
        for u in arch.usages:
            assert p.axis_groups[(u.weight, u.axis)] == p.group_of(u.gamma)


class TestPartitionProperties:
    def test_idempotent(self):
        g = build_mlp(4, 8, with_bias=True, with_skip=True)
        assert compute_partition(g) == compute_partition(g)

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_usage_permutation_invariance(self, rnd):
        g = build_attention_block(4, 3)
        usages = list(g.usages)
        rnd.shuffle(usages)
        shuffled = dataclasses.replace(g, usages=tuple(usages))
        assert compute_partition(shuffled) == compute_partition(g)

    def test_adding_usage_only_coarsens(self):
        g = build_mlp(5, 8)
        base = compute_partition(g)
        # Reuse gamma 2 on w2's row axis (currently gamma 3): forces a merge.
        extra = dataclasses.replace(g, usages=g.usages + (AxisUsage("w2", "row", 2),))
        merged = compute_partition(extra)
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
        p = compute_partition(g)
        assert p.group_of(1) == p.group_of(3)

    def test_forced_merge_width_conflict_raises(self):
        weights = (WeightSpec("a", "matrix", (4, 8)),)
        usages = (
            AxisUsage("a", "row", 1),
            AxisUsage("a", "col", 2),
            AxisUsage("a", "col", 3),
        )
        # Gamma 3 declared with the wrong width: validation names the axis.
        gammas = (GammaVar(1, 4), GammaVar(2, 8), GammaVar(3, 4))
        g = ArchGraph(weights, usages, gammas, "MFP", topology="fragment")
        with pytest.raises(StructureError, match="a"):
            compute_partition(g)


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
        p = compute_partition(g)
        assert sorted(p.widths) == [10, 300, 300, 3072]
        assert sum(p.resizable) == 2

    def test_hidden_widths(self):
        g = build_mlp(3, 300, with_bias=True, input_dim=3072, output_dim=10)
        assert g.hidden_widths == {300}

    def test_format_partition(self):
        g = build_mlp(4, 16, with_bias=True, with_skip=True)
        text = format_partition(compute_partition(g))
        lines = text.splitlines()
        assert lines[0] == "Γ_1: {γ_1} width=16"
        assert lines[1] == "Γ_2: {γ_2, γ_3} width=16"
        assert lines[2] == "Γ_3: {γ_4} width=1"


class TestValidation:
    def test_uncovered_axis_rejected_for_trainable(self):
        weights = (WeightSpec("a", "matrix", (4, 4)),)
        usages = (AxisUsage("a", "row", 1),)
        gammas = (GammaVar(1, 4),)
        g = ArchGraph(weights, usages, gammas, "MFP", topology="chain")
        with pytest.raises(StructureError, match="col"):
            g.validate()

    def test_vector_col_usage_rejected(self):
        weights = (WeightSpec("b", "vector", (4,)),)
        usages = (AxisUsage("b", "col", 1),)
        gammas = (GammaVar(1, 4),)
        with pytest.raises(StructureError):
            ArchGraph(weights, usages, gammas, "MFP", topology="fragment").validate()

    def test_unused_gamma_rejected(self):
        weights = (WeightSpec("b", "vector", (4,)),)
        usages = (AxisUsage("b", "row", 1),)
        gammas = (GammaVar(1, 4), GammaVar(2, 4))
        with pytest.raises(StructureError, match="never used"):
            ArchGraph(weights, usages, gammas, "MFP", topology="fragment").validate()


class TestJson:
    def test_round_trip(self):
        g = build_mlp(4, 8, with_bias=True, with_skip=True)
        assert arch_from_json(arch_to_json(g)) == g

    def test_minimal_keys_accepted(self):
        doc = {
            "parametrization": "MFP",
            "weights": [
                {"name": "u", "kind": "vector", "shape": [8]},
                {"name": "v", "kind": "vector", "shape": [8]},
            ],
            "usages": [
                {"weight": "u", "axis": "row", "gamma": 1},
                {"weight": "v", "axis": "row", "gamma": 1},
            ],
        }
        g = arch_from_json(json.dumps(doc))
        assert compute_partition(g).groups == ((1,),)

    def test_unknown_key_rejected(self):
        doc = {"parametrization": "MFP", "weights": [], "usages": [], "bogus": 1}
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
