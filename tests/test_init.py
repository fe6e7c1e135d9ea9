import itertools

import numpy as np
import pytest

from mfgrow.arch import build_mlp
from mfgrow.errors import ParameterError
from mfgrow.init import (
    InitSpec,
    iid_spec,
    initialize,
    nonzero_mean_default,
    rc_eligible,
    rc_spec,
)
from mfgrow.net import zeros_network
from mfgrow.tensor import Rng, gaussian, uniform


def all_2x2_minors_vanish_rank1(w, tol):
    rows, cols = w.shape
    for (a, b), (c, d) in itertools.product(
        itertools.combinations(range(rows), 2), itertools.combinations(range(cols), 2)
    ):
        det = w[a, c] * w[b, d] - w[a, d] * w[b, c]
        if abs(det) > tol:
            return False
    return True


def all_3x3_minors_vanish(w, tol):
    rows, cols = w.shape
    for rr in itertools.combinations(range(rows), 3):
        for cc in itertools.combinations(range(cols), 3):
            sub = w[np.ix_(rr, cc)]
            if abs(np.linalg.det(sub)) > tol:
                return False
    return True


class TestRcForms:
    def test_sum_forced_values(self):
        r = np.array([1.0, 2.0])
        c = np.array([10.0, 20.0])
        w = r[:, None] + c[None, :]
        assert np.array_equal(w, [[11.0, 21.0], [12.0, 22.0]])

    def test_product_is_rank_one(self):
        arch = build_mlp(4, 8, parametrization="MFP")
        spec = rc_spec(
            {"w1": (gaussian(1, 1), gaussian(0, 1)), "w2": (gaussian(1, 1), gaussian(0, 1))},
            {"u": gaussian(1, 3), "v": gaussian(1, 3)},
            phi="product",
        )
        net = initialize(zeros_network(arch), spec, Rng(3))
        for name in ("w1", "w2"):
            w = net.store[name]
            assert all_2x2_minors_vanish_rank1(w, 1e-9 * np.abs(w).max() ** 2)
            s = np.linalg.svd(w, compute_uv=False)
            assert s[1] < 1e-10 * s[0]

    def test_sum_is_rank_at_most_two(self):
        arch = build_mlp(3, 6, parametrization="MFP")
        spec = rc_spec(
            {"w1": (gaussian(0, 1), gaussian(0, 1))},
            {"u": gaussian(1, 3), "v": gaussian(1, 3)},
            phi="sum",
        )
        net = initialize(zeros_network(arch), spec, Rng(4))
        assert all_3x3_minors_vanish(net.store["w1"], 1e-9)

    def test_regeneration_reproduces_exactly(self):
        # 2N stored values fully determine the matrix.
        arch = build_mlp(3, 16, parametrization="MFP")
        spec = rc_spec(
            {"w1": (gaussian(1, 2), uniform(-1, 1))},
            {"u": gaussian(1, 3), "v": gaussian(1, 3)},
            phi="sum",
        )
        rng = Rng(7)
        net = initialize(zeros_network(arch), spec, rng)
        r = gaussian(1, 2).draw(Rng(7).substream("init/w1/R"), 16)
        c = uniform(-1, 1).draw(Rng(7).substream("init/w1/C"), 16)
        assert np.array_equal(net.store["w1"], r[:, None] + c[None, :])


class TestEligibility:
    def test_only_square_hidden_matrices(self):
        arch = build_mlp(3, 32, with_bias=True, input_dim=3072, output_dim=10)
        assert rc_eligible(arch, "w1")
        assert not rc_eligible(arch, "u")  # input axis is a data dimension
        assert not rc_eligible(arch, "v")
        assert not rc_eligible(arch, "b1")

    def test_missing_pair_rejected(self):
        arch = build_mlp(3, 8)
        spec = InitSpec("rc", distributions={"u": gaussian(0, 1), "v": gaussian(0, 1)})
        with pytest.raises(ParameterError, match="w1"):
            initialize(zeros_network(arch), spec, Rng(0))

    @pytest.mark.parametrize("spec, unread", [
        (iid_spec({n: gaussian(0, 1) for n in ("u", "w1", "v", "w9")}), "w9"),
        (rc_spec({"w1": (gaussian(0, 1), gaussian(0, 1))},
                 {n: gaussian(0, 1) for n in ("u", "w1", "v")}), "w1"),
        (rc_spec({"w1": (gaussian(0, 1), gaussian(0, 1))},
                 {n: gaussian(0, 1) for n in ("u", "v")}, phi={"w1": "sum", "v": "sum"}), "v"),
        (InitSpec("iid", {n: gaussian(0, 1) for n in ("u", "w1", "v")},
                  phi={"w1": "product"}), "w1"),
    ], ids=["iid-absent-weight", "rc-distribution-for-paired-weight", "phi-without-pair",
            "phi-in-iid-mode"])
    def test_entry_naming_no_drawn_weight_rejected(self, spec, unread):
        arch = build_mlp(3, 8)
        with pytest.raises(ParameterError, match=rf"does not read .* for \['{unread}'\]"):
            initialize(zeros_network(arch), spec, Rng(0))

    def test_missing_distribution_rejected(self):
        arch = build_mlp(2, 8)
        with pytest.raises(ParameterError, match="v"):
            initialize(zeros_network(arch), iid_spec({"u": gaussian(0, 1)}), Rng(0))


class TestDefaults:
    def test_mfp_default_nonzero_mean(self):
        arch = build_mlp(3, 400, with_bias=True)
        spec = nonzero_mean_default("MFP", arch)
        assert spec.distributions["w1"] == gaussian(1.0, 3.0)
        net = initialize(zeros_network(arch), spec, Rng(0))
        assert abs(net.store["w1"].mean() - 1.0) < 0.05
        assert abs(net.store["w1"].std() - 3.0) < 0.05
        assert np.array_equal(net.store["b1"], np.zeros(400))

    def test_sp_default_symmetric_uniform(self):
        arch = build_mlp(3, 400)
        spec = nonzero_mean_default("SP", arch)
        d = spec.distributions["w1"]
        assert d.kind == "uniform"
        assert d.a == -d.b
        net = initialize(zeros_network(arch), spec, Rng(0))
        assert abs(net.store["w1"].mean()) < 0.01

    def test_mup_default_zero_mean_gaussian(self):
        arch = build_mlp(3, 400)
        spec = nonzero_mean_default("muP", arch)
        d = spec.distributions["w1"]
        assert d.kind == "gaussian"
        assert d.a == 0.0
        assert d.b == pytest.approx(1.0 / 20.0)

    def test_unknown_parametrization_rejected(self):
        with pytest.raises(ParameterError, match="unknown parametrization 'NTK'"):
            nonzero_mean_default("NTK", build_mlp(3, 8))


class TestDeterminism:
    def test_seed_deterministic(self):
        arch = build_mlp(5, 12, with_bias=True)
        spec = nonzero_mean_default("MFP", arch)
        a = initialize(zeros_network(arch), spec, Rng(5))
        b = initialize(zeros_network(arch), spec, Rng(5))
        for k in a.store:
            assert np.array_equal(a.store[k], b.store[k])

    def test_independent_of_weight_iteration_order(self):
        # Per-weight substreams: initializing a wider net leaves shared
        # weights' draws for a same-name weight unchanged only per-shape, so
        # instead check draws do not depend on dict insertion order.
        arch = build_mlp(3, 8, with_bias=True)
        spec = nonzero_mean_default("MFP", arch)
        a = initialize(zeros_network(arch), spec, Rng(9))
        reordered = zeros_network(arch)
        reordered.store = dict(reversed(list(reordered.store.items())))
        b = initialize(reordered, spec, Rng(9))
        for k in a.store:
            assert np.array_equal(a.store[k], b.store[k])
