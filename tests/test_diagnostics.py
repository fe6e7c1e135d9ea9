import hashlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mfgrow import diagnostics
from mfgrow.arch import build_mlp
from mfgrow.data import synth_regression
from mfgrow.diagnostics import (
    correlation_matrix,
    four_pair_report,
    heatmap_export,
    histogram_trajectory,
    histograms_to_csv,
    profile,
    write_gnuplot_script,
)
from mfgrow.errors import ParameterError
from mfgrow.init import initialize, nonzero_mean_default
from mfgrow.net import Network, OptimizerState, train, zeros_network
from mfgrow.tensor import Rng, pearson_abs
from mfgrow.transfer import duplicate_grow


def make_net(depth=3, width=8, seed=0, parametrization="MFP", **kw):
    arch = build_mlp(depth, width, parametrization=parametrization, **kw)
    return initialize(zeros_network(arch), nonzero_mean_default(parametrization, arch), Rng(seed))


def copy_net(net):
    return Network(net.arch, {k: v.copy() for k, v in net.store.items()})


class TestProfile:
    def test_row_mean(self):
        net = make_net()
        net.store["w1"][:2, :2] = [[1.0, 2.0], [3.0, 4.0]]
        p = profile(net, "w1", "row")
        w = net.store["w1"]
        assert np.allclose(p, w.mean(axis=1))

    def test_2x2_examples(self):
        net = make_net(3, 2)
        net.store["w1"] = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(profile(net, "w1", "row"), [1.5, 3.5])
        assert np.array_equal(profile(net, "w1", "col"), [2.0, 3.0])

    def test_vector_profile_is_itself(self):
        net = make_net(2, 6)
        assert np.array_equal(profile(net, "v", "row"), net.store["v"])


class TestCorrelationMatrix:
    def test_self_and_negation(self):
        net = make_net(seed=5)
        p = profile(net, "w1", "row")
        report = correlation_matrix([p, -p], names=["a", "b"])
        assert report.pairs == [("a", "b", pytest.approx(1.0))]

    def test_independent_profiles_decorrelated(self):
        gen = Rng(1).substream(0)
        hits = 0
        for _ in range(20):
            a = gen.normal(size=1000)
            b = gen.normal(size=1000)
            if pearson_abs(a, b) < 0.1:
                hits += 1
        assert hits >= 19

    def test_length_mismatch_skipped(self):
        net = make_net(3, 8, input_dim=5)
        a = profile(net, "w1", "row")
        b = profile(net, "u", "col")  # length 5, different gamma
        report = correlation_matrix([a, b], names=["w1.R", "u.C"])
        assert report.pairs == []

    def test_affine_invariance(self):
        gen = Rng(2).substream(0)
        a, b = gen.normal(size=50), gen.normal(size=50)
        base = pearson_abs(a, b)
        assert pearson_abs(3.0 * a + 2.0, b) == pytest.approx(base, abs=1e-12)
        assert pearson_abs(a, -0.5 * b + 1.0) == pytest.approx(base, abs=1e-12)


class TestFourPairReport:
    PAIRS = [("first_layer", "M.column"), ("first_layer", "M.row"),
             ("last_layer", "M.row"), ("last_layer", "M.column")]

    @pytest.mark.parametrize("output_dim", [1, 10])  # vector and matrix v
    def test_four_pairs_in_unit_interval(self, output_dim):
        for param in ("SP", "muP", "MFP"):
            net = make_net(3, 32, parametrization=param, with_bias=True, input_dim=12,
                           output_dim=output_dim)
            report = four_pair_report(net)
            assert [(a, b) for a, b, _ in report.pairs] == self.PAIRS
            for _, _, r in report.pairs:
                assert 0.0 <= r <= 1.0

    @pytest.mark.parametrize("output_dim", [2, 10])  # fewer and more than 4 rows of v
    def test_last_layer_sums_v_over_its_first_4_rows(self, output_dim):
        net = make_net(3, 12, with_bias=True, input_dim=5, output_dim=output_dim, seed=4)
        v = net.store["v"]
        last = np.zeros(12)
        for j in range(12):
            for i in range(min(4, output_dim)):
                last[j] += v[i, j]
        pairs = {(a, b): r for a, b, r in four_pair_report(net).pairs}
        for middle, axis in (("M.row", "row"), ("M.column", "col")):
            assert pairs["last_layer", middle] == pytest.approx(
                pearson_abs(last, profile(net, "w1", axis)), abs=1e-12)

    def test_deterministic(self):
        data = synth_regression("sine", 128, 0.0, Rng(9))
        reports = []
        for _ in range(2):
            net = make_net(3, 16, parametrization="SP", seed=1)
            train(net, data, OptimizerState.create(net, lr=0.01), 1, 64, Rng(1))
            reports.append(four_pair_report(net).pairs)
        assert reports[0] == reports[1]


class TestHeatmap:
    def test_rank_one_sorted_grid_is_monotone(self):
        net = make_net(3, 12, seed=7)
        r = np.sort(Rng(8).substream(0).uniform(0.5, 2.0, 12))
        c = np.sort(Rng(9).substream(0).uniform(0.5, 2.0, 12))
        net.store["w1"] = np.outer(r, c)
        grid = heatmap_export(net, "w1")
        assert (np.diff(grid, axis=0) >= -1e-12).all()
        assert (np.diff(grid, axis=1) >= -1e-12).all()

    def test_iid_matrix_has_no_banding(self):
        net = make_net(3, 60, seed=10)
        w = net.store["w1"]
        ii, jj = np.meshgrid(np.arange(60), np.arange(60), indexing="ij")
        r = pearson_abs(w.reshape(-1), (ii + jj).reshape(-1).astype(float))
        assert r < 0.05

    def test_constant_matrix_maps_to_half(self):
        net = make_net(3, 4)
        net.store["w1"] = np.ones((4, 4))
        grid = heatmap_export(net, "w1")
        assert np.array_equal(grid, np.full((4, 4), 0.5))

    def test_grid_matches_out_of_place_formula(self):
        # Normalized in place, the grid holds the same bits as the
        # out-of-place expression on the sorted copy; the weight is only
        # read.
        net = make_net(3, 9, seed=12, input_dim=4)
        w = net.store["w1"]
        before = w.copy()
        ref = w[np.argsort(w.mean(axis=1), kind="stable")]
        ref = ref[:, np.argsort(w.mean(axis=0), kind="stable")]
        ref = (ref - ref.min()) / (ref.max() - ref.min())
        grid = heatmap_export(net, "w1")
        assert grid.tobytes() == ref.tobytes()
        assert net.store["w1"] is w and w.tobytes() == before.tobytes()

    def test_file_output_and_gnuplot(self, tmp_path):
        net = make_net(3, 6, seed=11)
        grid_path = tmp_path / "w1.grid"
        heatmap_export(net, "w1", path=grid_path)
        lines = grid_path.read_text().splitlines()
        assert lines[0].startswith("# weight=w1")
        assert len(lines) == 7
        script = tmp_path / "w1.gp"
        write_gnuplot_script(grid_path, script)
        assert "matrix with image" in script.read_text()

    def test_file_matches_per_value_formatting(self, tmp_path):
        # Every value of a non-square grid is written exactly as f"{v:.6f}"
        # would write it.
        net = make_net(3, 7, seed=13, input_dim=5)
        grid_path = tmp_path / "u.grid"
        grid = heatmap_export(net, "u", path=grid_path)
        assert grid.shape == (7, 5)
        expected = "".join(" ".join(f"{v:.6f}" for v in row) + "\n" for row in grid)
        lines = grid_path.read_text(encoding="utf-8").split("\n", 1)
        assert lines[0] == "# weight=u rows=7 cols=5 normalize=minmax sorted=True"
        assert lines[1] == expected

    def test_path_is_keyword_only(self, tmp_path, monkeypatch):
        # A call that still passes a normalization writes no file named after it.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(TypeError):
            heatmap_export(make_net(3, 6), "w1", "minmax")
        assert list(tmp_path.iterdir()) == []

    def test_vector_rejected(self):
        net = make_net(3, 6)
        with pytest.raises(ParameterError):
            heatmap_export(net, "u")


def per_value_text(grid):
    """The reference grid text: every value through Python's "%.6f"."""
    return "".join(" ".join(f"{v:.6f}" for v in row) + "\n" for row in grid).encode("ascii")


def written_text(grid):
    fh = io.BytesIO()
    diagnostics._write_grid(fh, np.asarray(grid, dtype=np.float64))
    return fh.getvalue()


# Values whose "%.6f" text NumPy's rounding alone would get wrong or that
# lie outside [0, 1], the NumPy path's domain: an exact binary tie
# (0.0078125 -> 0.007812), near ties, among them ones where |x| * 1e6 rounds
# onto a tie that rint breaks the other way (2.5e-06 -> 0.000003), a carry
# into a new integer digit, negative zero and tiny negatives, ten-digit
# integer parts, and the smallest subnormal.
EDGE_ROW = [0.0078125, 0.0000005, 0.9999995, 2.5e-06, 3.5e-06, -2.0000005,
            9.9999996, -1e-9, -0.0, 999999999.9999995, 1e9, 5e-324]

# Values in [0, 1), built so that x * 1e6 lies at least 0.1 from a tie:
# every value takes the NumPy path.
exact_values = st.builds(
    lambda k, frac: (k + frac) / 1e6,
    st.integers(0, 10**6 - 1), st.floats(0.1, 0.4) | st.floats(0.6, 0.9),
)


class TestGridWriter:
    # SHA-256 of heatmap files of a 300-wide CIFAR-shaped net, equal to the
    # bytes of per_value_text, the per-value writer the block writer
    # replaced. 300 rows are not a multiple of the writer's block.
    GRID_PINS = {
        "minmax": "194018197d3cb5dab76958f86ebf1cd2d02b1bee68f277395ee9bde6f3b956e1",
    }

    @pytest.mark.parametrize("normalize", list(GRID_PINS))
    def test_cifar_grid_file_pinned(self, normalize, tmp_path):
        arch = build_mlp(3, 300, with_bias=True, input_dim=3072, output_dim=10,
                         parametrization="MFP")
        net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(3))
        path = tmp_path / "w1.grid"
        heatmap_export(net, "w1", path=path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GRID_PINS[normalize]

    def test_edge_row(self):
        # As one row (which its near ties send to Python) and value by value
        # (each on the route its own test picks).
        assert written_text([EDGE_ROW]) == per_value_text([EDGE_ROW])
        assert [written_text([[v]]) for v in EDGE_ROW] == [per_value_text([[v]]) for v in EDGE_ROW]
        assert written_text([EDGE_ROW]).split() == [
            b"0.007812", b"0.000000", b"1.000000", b"0.000003", b"0.000003",
            b"-2.000001", b"10.000000", b"-0.000000",
            b"-0.000000", b"1000000000.000000", b"1000000000.000000", b"0.000000"]

    def test_rows_across_blocks_mix_both_paths(self):
        # Three blocks and a remainder row of [0, 1] values; rows with a tie
        # or a non-finite value sit between and inside blocks of exact rows,
        # and only they go to Python.
        cols = 700
        rows = 3 * (diagnostics._GRID_BLOCK_VALUES // cols) + 1
        grid = Rng(4).substream(0).uniform(0.0, 1.0, size=(rows, cols))
        grid[5, 3] = 0.0078125
        grid[rows // 2, -1] = np.nan
        grid[-1, 0] = -np.inf
        with mock.patch.object(diagnostics, "_format_exact_rows",
                               wraps=diagnostics._format_exact_rows) as fast:
            assert written_text(grid) == per_value_text(grid)
        assert sum(call.args[0].shape[0] for call in fast.call_args_list) == rows - 3

    def test_fixed_width_grid_takes_the_numpy_path(self):
        grid = Rng(5).substream(0).uniform(0.0, 1.0, size=(40, 900))
        with mock.patch.object(diagnostics, "_format_exact_rows",
                               wraps=diagnostics._format_exact_rows) as fast:
            text = written_text(grid)
        assert text == per_value_text(grid)
        assert sum(call.args[0].shape[0] for call in fast.call_args_list) == 40

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(width=64) | st.sampled_from(EDGE_ROW + [1e300])))
    def test_any_grid_matches_per_value_formatting(self, grid):
        assert written_text(grid) == per_value_text(grid)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                      elements=exact_values))
    def test_exact_grid_matches_per_value_formatting(self, grid):
        with mock.patch.object(diagnostics, "_format_exact_rows",
                               wraps=diagnostics._format_exact_rows) as fast:
            text = written_text(grid)
        assert text == per_value_text(grid)
        assert fast.call_count == 1 and fast.call_args.args[0].shape == grid.shape


class TestHistograms:
    def test_initial_row_mean_distribution(self):
        # gaussian(1, 3) entries: row means over width N concentrate around 1
        # with spread close to 3/sqrt(N).
        n = 400
        net = make_net(3, n, seed=12)
        vals = profile(net, "w1", "row")
        assert abs(vals.mean() - 1.0) < 3 * 3 / np.sqrt(n * n)
        assert abs(vals.std() - 3.0 / np.sqrt(n)) < 0.3 / np.sqrt(n) * 3

    def test_identical_checkpoints_identical_histograms(self):
        net = make_net(3, 32, seed=13)
        edges, counts = histogram_trajectory([net, copy_net(net)], "w1")
        assert np.array_equal(counts[0], counts[1])

    def test_shape_drift_rejected(self):
        a = make_net(3, 16, seed=14)
        b = duplicate_grow(a, 2)
        with pytest.raises(ParameterError):
            histogram_trajectory([a, b], "w1")

    def test_training_drift_recorded(self):
        net = make_net(2, 64, seed=15)
        data = synth_regression("sine", 256, 0.0, Rng(16))
        snaps = [copy_net(net)]
        opt = OptimizerState.create(net, lr=0.05)
        for _ in range(3):
            train(net, data, opt, epochs=2, batch_size=32, rng=Rng(17))
            snaps.append(copy_net(net))
        edges, counts = histogram_trajectory(snaps, "u")
        csv = histograms_to_csv(edges, counts)
        assert csv.splitlines()[0] == "bin_left,bin_right,step_0,step_1,step_2,step_3"
        assert all(c.sum() == 64 for c in counts)


class TestDuplicationPreservesProfiles:
    def test_profiles_repeat_and_correlations_match(self):
        net = make_net(3, 24, seed=18)
        grown = duplicate_grow(net, 2)
        src = profile(net, "w1", "row")
        rep = profile(grown, "w1", "row")
        assert np.allclose(rep, np.tile(src, 2))
        a = pearson_abs(profile(net, "w1", "row"), profile(net, "v", "row"))
        b = pearson_abs(profile(grown, "w1", "row"), profile(grown, "v", "row"))
        assert a == pytest.approx(b, abs=1e-12)
