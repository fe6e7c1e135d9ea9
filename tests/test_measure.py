import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgrow.arch import build_mlp, compute_partition
from mfgrow.errors import ParameterError
from mfgrow.init import initialize, nonzero_mean_default
from mfgrow.measure import (
    DuplicateStrategy,
    FunctionBasedStrategy,
    GroupMeasure,
    GroupStrategy,
    RandomStrategy,
    coupling_contrast,
    draw_indices,
    extract_measures,
    weighted_measure_loss,
)
from mfgrow.net import zeros_network
from mfgrow.tensor import Rng


def small_net(depth=3, width=8, seed=0, **kw):
    arch = build_mlp(depth, width, parametrization="MFP", **kw)
    return initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(seed))


class TestExtract:
    def test_two_layer_single_joint_measure(self):
        net = small_net(depth=2, width=16)
        p = compute_partition(net.arch)
        ms = extract_measures(net, p)
        assert len(ms) == 1
        m = ms[0]
        assert m.width == 16  # N joint samples, never N x N
        assert set(m.features) == {"u", "v"}
        assert np.array_equal(m.features["u"], net.store["u"])

    def test_skip_net_group_features(self):
        net = small_net(depth=4, width=8, with_bias=True, with_skip=True)
        p = compute_partition(net.arch)
        ms = extract_measures(net, p)
        assert len(ms) == 3
        merged = ms[1]  # the {2, 3} group
        assert set(merged.features) == {"v", "R(w2)", "C(w2)", "R(w1)", "b1", "b2"}
        assert merged.width == 8

    def test_width_one_group(self):
        net = small_net(depth=4, width=8, with_bias=True, with_skip=True)
        ms = extract_measures(net, compute_partition(net.arch))
        assert ms[2].width == 1
        assert set(ms[2].features) == {"bv"}

    def test_profiles_are_means(self):
        net = small_net(depth=3, width=8)
        ms = extract_measures(net, compute_partition(net.arch))
        w1 = net.store["w1"]
        by_group = {m.group_index: m for m in ms}
        assert np.allclose(by_group[1].features["R(w1)"], w1.mean(axis=1))
        assert np.allclose(by_group[0].features["C(w1)"], w1.mean(axis=0))

    @pytest.mark.parametrize("width, kw", [
        (16, dict(depth=4, with_bias=True, with_skip=True)),
        (16, dict(depth=3)),
        (16, dict(depth=3, with_bias=True, input_dim=40, output_dim=10)),
        (16, dict(depth=2, input_dim=3)),
        # Several blocks of 2**16 squares, the last one partial. Row-major:
        # the hidden group's rows of 3000 + 1 + 37 squares go 21 to a block.
        # Column-major: the 3000-wide input group's 37 columns go 21 to a
        # block.
        (37, dict(depth=3, with_bias=True, input_dim=3000, output_dim=10)),
        # Column-major input groups of 300 samples, 218 columns to a block;
        # row-major hidden groups of 217 (chain) or 72 (skip4) rows a block.
        (300, dict(depth=3)),
        (300, dict(depth=4, with_bias=True, with_skip=True)),
    ], ids=["skip4", "chain-1d", "chain-wide-input", "two-layer",
            "blocks-chain-3000-input", "blocks-chain-1d", "blocks-skip4"])
    def test_sample_norms_match_concatenated_reference(self, width, kw):
        # Groups mixing vector entries, matrix rows and transposed matrix
        # columns: the norms equal those over the concatenated slices bit for
        # bit, whichever layout the concatenation takes.
        net = small_net(width=width, **kw)
        for m in extract_measures(net, compute_partition(net.arch)):
            stacked = np.concatenate(list(m.slices.values()), axis=1)
            ref = np.sqrt(np.sum(stacked * stacked, axis=1))
            assert m.sample_norms().tobytes() == ref.tobytes()

    def test_csv_export(self):
        net = small_net(depth=2, width=4)
        m = extract_measures(net, compute_partition(net.arch))[0]
        text = m.to_csv()
        assert text.splitlines()[0] == "sample,u,v"
        assert len(text.splitlines()) == 5


def moment_loss(a, b, p_max):
    """The moment loss of two single-feature measures."""
    return weighted_measure_loss({"f": np.asarray(a, dtype=np.float64)},
                                 {"f": np.asarray(b, dtype=np.float64)}, p_max)


class TestMomentLoss:
    def test_identical_is_zero(self):
        a = np.array([0.3, -1.2, 4.0])
        assert moment_loss(a, a.copy(), 4) == 0.0

    def test_absolute_moments_mask_sign(self):
        assert moment_loss([1.0, 1.0], [1.0, -1.0], 1) == 0.0

    def test_hand_computed(self):
        # |mean|a| - mean|b|| + |mean a^2 - mean b^2| = |1 - 1| + |2 - 1|
        assert moment_loss([0.0, 2.0], [1.0, 1.0], 2) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            moment_loss([], [1.0], 1)

    def test_symmetry_and_triangle(self):
        gen = Rng(3).generator()
        for _ in range(25):
            a, b, c = (gen.normal(size=8) for _ in range(3))
            ab = moment_loss(a, b, 3)
            assert ab == pytest.approx(moment_loss(b, a, 3))
            assert ab <= moment_loss(a, c, 3) + moment_loss(c, b, 3) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=6),
        st.lists(st.floats(-5, 5), min_size=1, max_size=6),
        st.lists(st.floats(-5, 5), min_size=1, max_size=6),
    )
    def test_pseudometric_property(self, xs, ys, zs):
        assert moment_loss(xs, ys, 2) <= moment_loss(xs, zs, 2) + moment_loss(zs, ys, 2) + 1e-9


class TestWeightedLoss:
    def test_self_zero(self):
        x = {"a": np.array([1.0, 2.0]), "b": np.array([0.5, 0.5])}
        assert weighted_measure_loss(x, x, 3) == 0.0

    def test_single_moment_weighted(self):
        # p_max = 1 sums |mean|x_f| - mean|y_f|| over the features: 0.5 + 1.0.
        x = {"a": np.array([1.0, 1.0]), "b": np.array([2.0, -2.0])}
        y = {"a": np.array([1.5, 1.5]), "b": np.array([1.0, 1.0])}
        assert weighted_measure_loss(x, y, 1) == 1.5

    def test_unknown_feature(self):
        with pytest.raises(ParameterError, match="unknown feature"):
            weighted_measure_loss({"a": np.array([1.0])}, {"b": np.array([1.0])}, 1)

    def test_summation_order_pinned(self):
        # Digest of 16 loss values of a six-feature group against bootstrap
        # resamples. Summing the moments in another order (q outer, or q
        # descending) moves some of them by an ulp and breaks it.
        net = small_net(depth=4, width=64, with_bias=True, with_skip=True)
        g = extract_measures(net, compute_partition(net.arch))[1]
        gen = Rng(8).generator()
        losses = [weighted_measure_loss(g.features, g.restricted(gen.choice(64, size=64)), 4)
                  for _ in range(16)]
        assert hashlib.sha256(np.array(losses).tobytes()).hexdigest() == (
            "338027cab38d09259bc9ecf2f8b3a64b6aad49d1d4c8bc4600a4b9abee687eab"
        )

    def test_spec_validation(self):
        for p_max in (0, -3):
            with pytest.raises(ParameterError, match="p_max"):
                FunctionBasedStrategy(64, p_max)
        with pytest.raises(ParameterError, match="n_candidates"):
            FunctionBasedStrategy(0, 4)


class TestDrawIndices:
    def measure_with_norms(self, norms):
        width = len(norms)
        m = GroupMeasure(0, (1,), width)
        vals = np.asarray(norms, dtype=np.float64)
        m.features["a"] = vals
        m.slices["a"] = vals[:, None]
        return m

    def test_random_indices_in_range(self):
        m = self.measure_with_norms(np.arange(1.0, 11.0))
        idx = draw_indices(m, 10, RandomStrategy(), 0.0, Rng(0).generator())
        assert idx.shape == (10,) and idx.dtype == np.int64
        assert ((0 <= idx) & (idx < 10)).all()

    def test_r2_keeps_top_half_by_norm(self):
        m = self.measure_with_norms(np.arange(1.0, 11.0))
        idx = draw_indices(m, 200, RandomStrategy(), 0.5, Rng(1).generator())
        assert set(idx) == {5, 6, 7, 8, 9}  # norms 6..10

    def test_pruning_without_replacement(self):
        m = self.measure_with_norms(np.arange(1.0, 11.0))
        idx = draw_indices(m, 8, RandomStrategy(), 0.0, Rng(2).generator())
        assert len(set(idx.tolist())) == 8

    def test_group_strategy_draws_from_bands(self):
        m = self.measure_with_norms(np.arange(1.0, 101.0))
        idx = draw_indices(m, 500, GroupStrategy(4), 0.0, Rng(3).generator())
        assert ((0 <= idx) & (idx < 100)).all()
        # Each quartile band receives draws.
        bands = set(idx // 25)
        assert bands == {0, 1, 2, 3}

    def test_function_based_beats_median_candidate(self):
        gen = Rng(5).generator()
        m = self.measure_with_norms(gen.normal(size=64))
        winner = draw_indices(m, 48, FunctionBasedStrategy(64, 4), 0.0, Rng(6).generator())
        ref = m.restricted(np.arange(64))
        win_loss = weighted_measure_loss(ref, m.restricted(winner), 4)
        # Brute-force the same candidate universe: winner must beat the median.
        gen2 = Rng(7).generator()
        losses = []
        for _ in range(64):
            cand = gen2.choice(np.arange(64), size=48, replace=False)
            losses.append(weighted_measure_loss(ref, m.restricted(cand), 4))
        assert win_loss <= float(np.median(losses))

    def test_function_based_draw_pinned(self):
        # Digest of the winning index set of a draw smaller than the pool; a
        # change to the loss's summation order that flips the choice between
        # candidates breaks it.
        m = self.measure_with_norms(Rng(5).generator().normal(size=64))
        idx = draw_indices(m, 48, FunctionBasedStrategy(64, 4), 0.0, Rng(6).generator())
        assert hashlib.sha256(idx.tobytes()).hexdigest() == (
            "0d11958e2b574c61ed72d0444d0b6c196ab5486db9d8b580d0d260fbf09fc962"
        )

    @pytest.mark.parametrize("width, r2", [(64, 0.0), (64, 0.5), (10, 0.3)])
    def test_function_based_whole_pool_draw_is_the_random_draw(self, width, r2):
        # Without replacement, every draw of the whole surviving pool is a
        # permutation with the pool's moments; the first draw is kept.
        m = self.measure_with_norms(Rng(5).generator().normal(size=width))
        pool = math.ceil((1.0 - r2) * width)
        idx = draw_indices(m, pool, FunctionBasedStrategy(64, 4), r2, Rng(6).generator())
        first = draw_indices(m, pool, RandomStrategy(), r2, Rng(6).generator())
        assert idx.tobytes() == first.tobytes()

    def test_duplicate_tiles_and_ignores_r2(self):
        m = self.measure_with_norms(np.arange(1.0, 5.0))
        idx = draw_indices(m, 12, DuplicateStrategy(), 0.5, Rng(0).generator())
        assert idx.dtype == np.int64
        assert idx.tolist() == [0, 1, 2, 3] * 3
        with pytest.raises(ParameterError, match="integer multiple"):
            draw_indices(m, 6, DuplicateStrategy(), 0.0, Rng(0).generator())

    def test_bad_r2(self):
        m = self.measure_with_norms(np.arange(1.0, 5.0))
        with pytest.raises(ParameterError):
            draw_indices(m, 4, RandomStrategy(), 1.0, Rng(0).generator())


class TestCouplingContrast:
    def test_forced_arithmetic(self):
        paired, decoupled = coupling_contrast(np.array([1.0, -1.0]), np.array([1.0, -1.0]))
        assert paired == 1.0
        assert decoupled == 0.0

    def test_independent_samples_agree(self):
        gen = Rng(1).generator()
        n = 40_000
        u, v = gen.normal(1.0, 1.0, n), gen.normal(1.0, 1.0, n)
        paired, decoupled = coupling_contrast(u, v)
        assert abs(paired - decoupled) < 3.0 / np.sqrt(n)

    def test_identical_samples_split_by_variance(self):
        gen = Rng(2).generator()
        n = 40_000
        u = gen.normal(0.0, 1.0, n)
        paired, decoupled = coupling_contrast(u, u)
        assert paired == pytest.approx(1.0, abs=3.0 / np.sqrt(n))
        assert abs(decoupled) < 3.0 / np.sqrt(n)


class TestMeasureWidthInvariant:
    def test_group_width_not_product(self):
        net = small_net(depth=3, width=8, with_bias=True, input_dim=5, output_dim=4)
        ms = extract_measures(net, compute_partition(net.arch))
        widths = sorted(m.width for m in ms)
        assert widths == [4, 5, 8, 8]
