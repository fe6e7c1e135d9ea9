import hashlib

import numpy as np
import pytest

from mfgrow.arch import build_mlp, compute_partition
from mfgrow.data import load_checkpoint, save_checkpoint, synth_regression
from mfgrow.errors import ParameterError
from mfgrow.init import initialize, nonzero_mean_default
from mfgrow.measure import (
    DuplicateStrategy,
    FunctionBasedStrategy,
    GroupStrategy,
    RandomStrategy,
)
from mfgrow.net import OptimizerState, evaluate, forward_batch, train, zeros_network
from mfgrow.tensor import Rng
from mfgrow.transfer import (
    TransferPlan,
    apply_noise,
    duplicate_grow,
    transfer,
    uniform_plan,
)


def make_net(depth, width, seed=0, parametrization="MFP", **kw):
    arch = build_mlp(depth, width, parametrization=parametrization, **kw)
    return initialize(zeros_network(arch), nonzero_mean_default(parametrization, arch), Rng(seed))


def max_rel_dev(a, b):
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


class TestApplyNoise:
    def test_perturb_r1_zero_is_identity(self):
        w = np.array([1.5, -2.0])
        assert np.array_equal(apply_noise(w, 0.0, "perturb", Rng(0).generator()), w)

    def test_literal_r1_zero_annihilates(self):
        w = np.array([1.5, -2.0])
        assert np.array_equal(apply_noise(w, 0.0, "literal", Rng(0).generator()), [0.0, 0.0])

    def test_perturb_mean_ratio(self):
        w = np.ones(100_000)
        out = apply_noise(w, 0.1, "perturb", Rng(1).generator())
        assert abs(np.mean(out / w) - 1.0) < 0.002

    def test_literal_spread(self):
        w = np.ones(100_000)
        out = apply_noise(w, 2.0, "literal", Rng(2).generator())
        assert abs(out.mean()) < 0.02
        assert abs(out.std() - 2.0 / np.sqrt(3.0)) < 0.01

    def test_negative_r1_rejected(self):
        with pytest.raises(ParameterError):
            apply_noise(np.ones(3), -0.1, "perturb", Rng(0).generator())


class TestIdentityTransfer:
    def test_bit_identical(self):
        net = make_net(3, 12, with_bias=True)
        p = compute_partition(net.arch)
        # No targets: every group keeps its width and is tiled once.
        out = transfer(net, p, TransferPlan(strategy=DuplicateStrategy()), Rng(0))
        for k in net.store:
            assert np.array_equal(out.store[k], net.store[k])


class TestDuplication:
    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3])
    def test_function_preservation_chain(self, depth, k):
        net = make_net(depth, 10, seed=depth, with_bias=(depth != 2))
        grown = duplicate_grow(net, k)
        xs = Rng(99).generator().uniform(-2, 2, size=(200, 1))
        f_old = forward_batch(net, xs)
        f_new = forward_batch(grown, xs)
        assert max_rel_dev(f_new, f_old) <= 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_function_preservation_skip(self, k):
        net = make_net(4, 8, seed=4, with_bias=True, with_skip=True)
        grown = duplicate_grow(net, k)
        xs = Rng(98).generator().uniform(-2, 2, size=(200, 1))
        assert max_rel_dev(forward_batch(grown, xs), forward_batch(net, xs)) <= 1e-9

    def test_doubling_makes_four_equal_blocks(self):
        net = make_net(4, 6, seed=1, with_bias=True, with_skip=True)
        n = 6
        grown = duplicate_grow(net, 2)
        w_old, w_new = net.store["w1"], grown.store["w1"]
        assert w_new.shape == (2 * n, 2 * n)
        for bi in (0, 1):
            for bj in (0, 1):
                block = w_new[bi * n : (bi + 1) * n, bj * n : (bj + 1) * n]
                assert np.array_equal(block, w_old)

    def test_non_integer_multiple_rejected(self):
        net = make_net(3, 10)
        p = compute_partition(net.arch)
        plan = uniform_plan(p, 15, strategy=DuplicateStrategy())
        with pytest.raises(ParameterError):
            transfer(net, p, plan, Rng(0))


class TestRandomGrowth:
    def test_grown_function_converges(self):
        # Growing 100 -> 1000 with random resampling draws ten times as many
        # samples from the source measure as growing 100 -> 101 (both with
        # replacement), so over 20 seeds it deviates less from the source
        # function. (A same-size draw is without replacement: a pure
        # permutation, which leaves the function exactly invariant.)
        net = make_net(3, 100, seed=2)
        p = compute_partition(net.arch)
        xs = Rng(97).generator().uniform(-2, 2, size=(100, 1))
        f_src = forward_batch(net, xs)

        def mean_deviation(width):
            return np.mean([
                np.mean(np.abs(forward_batch(transfer(net, p, uniform_plan(p, width), Rng(s)), xs)
                               - f_src))
                for s in range(3, 23)
            ])

        assert mean_deviation(1000) < mean_deviation(101)  # more samples, less Monte Carlo error

    def test_same_size_draw_is_permutation(self):
        net = make_net(3, 64, seed=12)
        p = compute_partition(net.arch)
        shuffled = transfer(net, p, uniform_plan(p, 64), Rng(13))
        xs = Rng(96).generator().uniform(-2, 2, size=(50, 1))
        assert np.allclose(forward_batch(shuffled, xs), forward_batch(net, xs), atol=1e-12)
        assert not np.array_equal(shuffled.store["v"], net.store["v"])

    def test_gamma_consistency_rows_and_cols_share_index(self):
        # In a 3-layer net, w1 rows and v entries share the same group, and
        # so do u entries and w1 columns: transferred slices must originate
        # from the same source index.
        net = make_net(3, 30, seed=5)
        p = compute_partition(net.arch)
        grown = transfer(net, p, uniform_plan(p, 90), Rng(6))
        # Recover the index choices by matching entries (distinct w.p. 1).
        idx_rows = _recover(net.store["v"], grown.store["v"])
        idx_cols = _recover(net.store["u"], grown.store["u"])
        assert np.array_equal(grown.store["w1"], net.store["w1"][np.ix_(idx_rows, idx_cols)])

    def test_shapes_and_scalars_follow_targets(self):
        net = make_net(3, 16, with_bias=True, input_dim=7, output_dim=4)
        p = compute_partition(net.arch)
        grown = transfer(net, p, uniform_plan(p, 48), Rng(7))
        assert grown.store["w1"].shape == (48, 48)
        assert grown.store["u"].shape == (48, 7)
        assert grown.store["v"].shape == (4, 48)
        assert grown.arch.hidden_widths == {48}

    def test_data_group_resize_rejected(self):
        net = make_net(3, 16, with_bias=True, input_dim=7, output_dim=4)
        p = compute_partition(net.arch)
        data_groups = [i for i in range(len(p)) if not p.resizable[i]]
        plan = TransferPlan(targets={data_groups[0]: 99})
        with pytest.raises(ParameterError, match="data-tied"):
            transfer(net, p, plan, Rng(0))

    def test_deterministic_given_plan_and_seed(self):
        net = make_net(3, 20, seed=8)
        p = compute_partition(net.arch)
        plan = uniform_plan(p, 60, r1=0.3)
        a = transfer(net, p, plan, Rng(123))
        b = transfer(net, p, plan, Rng(123))
        c = transfer(net, p, plan, Rng(124))
        for k in a.store:
            assert np.array_equal(a.store[k], b.store[k])
        assert not np.array_equal(a.store["w1"], c.store["w1"])

    def test_source_untouched(self):
        net = make_net(3, 20, seed=14, with_bias=True)
        before = {k: v.copy() for k, v in net.store.items()}
        p = compute_partition(net.arch)
        transfer(net, p, uniform_plan(p, 40, r1=0.5, r2=0.3), Rng(15))
        for k in before:
            assert np.array_equal(net.store[k], before[k])


def _recover(src, new):
    return np.array([np.argmin(np.abs(src - val)) for val in new])


class TestPruning:
    def test_prune_shapes(self):
        net = make_net(3, 50, seed=9)
        p = compute_partition(net.arch)
        pruned = transfer(net, p, uniform_plan(p, 10, r2=0.5), Rng(10))
        assert pruned.store["w1"].shape == (10, 10)

    def test_r2_filter_drops_small_norms(self):
        net = make_net(2, 10, seed=11)
        # Make sample norms strictly increasing so survivors are known.
        net.store["u"] = np.arange(1.0, 11.0)
        net.store["v"] = np.zeros(10)
        p = compute_partition(net.arch)
        pruned = transfer(net, p, uniform_plan(p, 5, r2=0.5), Rng(12))
        assert set(pruned.store["u"].tolist()) <= {6.0, 7.0, 8.0, 9.0, 10.0}


class TestGrowThenTrain:
    def test_duplication_preserves_initial_loss(self):
        train_data = synth_regression("sine", 256, 0.0, Rng(20))
        test_data = synth_regression("sine", 128, 0.0, Rng(20), split="test")
        small = make_net(2, 40, seed=21)
        opt = OptimizerState.create(small, lr=0.05)
        train(small, train_data, opt, epochs=4, batch_size=32, rng=Rng(22))
        pre_loss, _ = evaluate(small, test_data.inputs, test_data.targets, "square")

        p = compute_partition(small.arch)
        grown = transfer(small, p, uniform_plan(p, 80, strategy=DuplicateStrategy()), Rng(23))
        opt = OptimizerState.create(grown, lr=0.05)
        log = train(grown, train_data, opt, epochs=1, batch_size=32, rng=Rng(24),
                    test_data=test_data)
        # Epoch-0 row holds the post-transfer, pre-training test loss.
        assert log.rows[0][3] == pytest.approx(pre_loss, abs=1e-9)

    def test_function_based_strategy_accepted(self):
        train_data = synth_regression("sine", 128, 0.0, Rng(30))
        small = make_net(2, 30, seed=31)
        p = compute_partition(small.arch)
        strategy = FunctionBasedStrategy(8, 2)
        grown = transfer(small, p, uniform_plan(p, 60, strategy=strategy), Rng(32))
        opt = OptimizerState.create(grown, lr=0.05)
        log = train(grown, train_data, opt, epochs=1, batch_size=32, rng=Rng(33))
        assert len(log.rows) == 2


def store_digest(net):
    """SHA-256 over every weight's name, shape and C-order float64 bytes."""
    h = hashlib.sha256()
    for w in net.arch.weights:
        arr = net.store[w.name]
        h.update(f"{w.name}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def _pin_net(skip):
    if skip:
        return make_net(4, 10, seed=41, with_skip=True, input_dim=5, output_dim=3)
    return make_net(3, 12, seed=40, with_bias=True, input_dim=5, output_dim=3)


_STRATEGIES = {
    "random": RandomStrategy(),
    "group": GroupStrategy(3),
    "function_based": FunctionBasedStrategy(8, 3),
    "duplicate": DuplicateStrategy(),
}

# (net, strategy, target width, r1, r2, noise mode) -> digest of the output.
# The chain nets mix every gather shape: u resizes rows only (5 data-tied
# columns), v columns only (3 data-tied rows), w1 both, bv neither.
TRANSFER_PINS = {
    ("chain", "random", 24, 0.0, 0.0, "perturb"): "14fca6c2b519bf9324b839b1fd6eab593389982c9c388fbf5beac3f8914e5ef8",
    ("chain", "random", 24, 0.5, 0.0, "literal"): "2c981d148d6a6e47621087b586312854773ffe096917cdea8ba744ba85914fad",
    ("chain", "random", 7, 0.5, 0.25, "perturb"): "5a2eceeef6c901d12d1f080c516815608361d030d2010ce5a7cdb908bcf517db",
    ("chain", "group", 30, 0.5, 0.0, "perturb"): "72300684f0ec89e638187686d92f9883f34f22881159df654f6a9faa52d330ef",
    ("chain", "group", 7, 0.0, 0.0, "literal"): "24408ccbabf173999894002124c00c39519bb9d1fd869efa673260758df98d15",
    ("chain", "function_based", 24, 0.0, 0.25, "perturb"): "61033a8d52601e78fe16fdd9696328e009df549ddcd2976ae9332c51200c8890",
    ("chain", "function_based", 7, 0.5, 0.0, "literal"): "469a2503b0c5a3eea3211fa9c8b2cf9c05f500328a4e3502c2ea19e3210ba08b",
    ("chain", "duplicate", 24, 0.0, 0.0, "perturb"): "004289236a8687be98b3211b5b534683a24880499dca7aaa735b2ff51220a6f7",
    ("chain", "duplicate", 36, 0.5, 0.0, "literal"): "14c324cf19ed3a4724f815b2c04ab5b7bcb256b437ea73bcc87ccac9d344503d",
    ("chain", "duplicate", 12, 0.0, 0.0, "perturb"): "5efa46f15adee671044cf6b3cfd6f7c8ff97559439f7e510a4b3edff93048af5",
    ("skip4", "random", 25, 0.5, 0.0, "perturb"): "2b50903c9100376cc1c4dd8eb01737adbbb559e7f79ea49372cb2c5df0b75211",
    ("skip4", "function_based", 6, 0.0, 0.5, "perturb"): "64a444e9b94c21477a95ed7ae269721ccf2e2dd4e92997bedd5bc3fe81b52841",
}


class TestTransferPinned:
    # Digests taken before the gather, noise and copy paths were reworked:
    # every output stays bit-identical.
    @pytest.mark.parametrize("case", list(TRANSFER_PINS), ids=lambda c: "-".join(map(str, c)))
    def test_transfer_output_pinned(self, case):
        topology, strategy, target, r1, r2, mode = case
        net = _pin_net(topology == "skip4")
        p = compute_partition(net.arch)
        plan = uniform_plan(p, target, strategy=_STRATEGIES[strategy], r1=r1, r2=r2,
                            noise_mode=mode)
        out = transfer(net, p, plan, Rng(50))
        assert store_digest(out) == TRANSFER_PINS[case]

    def test_outputs_compute_like_their_checkpoint(self, tmp_path):
        # Transfer returns C-contiguous weights, the layout a checkpoint load
        # gives, so the in-memory net and its round trip round alike.
        arch = build_mlp(3, 16, with_bias=True, input_dim=48, output_dim=10)
        net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(1))
        p = compute_partition(arch)
        for target in (48, 9):
            out = transfer(net, p, uniform_plan(p, target), Rng(2))
            assert all(a.flags.c_contiguous for a in out.store.values())
            save_checkpoint(out, tmp_path / "t.ckpt")
            back = load_checkpoint(tmp_path / "t.ckpt")
            xs = Rng(3).generator().normal(size=(64, 48))
            assert np.array_equal(forward_batch(out, xs), forward_batch(back, xs))

    @pytest.mark.parametrize("mode", ["perturb", "literal"])
    def test_apply_noise_matches_reference_and_spares_input(self, mode):
        w = Rng(51).generator().normal(size=(37, 11))
        before = w.copy()
        out = apply_noise(w, 0.7, mode, Rng(52).substream("n"))
        u = Rng(52).substream("n").uniform(-0.7, 0.7, size=w.shape)
        ref = w * u if mode == "literal" else w * (1.0 + u)
        assert out.tobytes() == ref.tobytes()
        assert np.array_equal(w, before) and w.tobytes() == before.tobytes()
        assert out is not w

    @pytest.mark.parametrize("mode", ["perturb", "literal"])
    @pytest.mark.parametrize("shape", [(5,), (32768,), (32769,), (300, 250), (7, 9363)])
    def test_apply_noise_in_blocks_matches_one_uniform_draw(self, shape, mode):
        # The noise is drawn and applied in blocks, into a new array or in
        # place; either way it equals one full-size uniform draw, bit for bit,
        # also where a block boundary cuts a row.
        w = Rng(53).generator().normal(size=shape)
        for r1 in (1.0, 4.0, 0.5, 1e-3, 0.1):
            u = Rng(54).substream("n").uniform(-r1, r1, size=shape)
            ref = (w * u if mode == "literal" else w * (1.0 + u)).tobytes()
            assert apply_noise(w, r1, mode, Rng(54).substream("n")).tobytes() == ref
            target = w.copy()
            out = apply_noise(target, r1, mode, Rng(54).substream("n"), out=target)
            assert out is target and target.tobytes() == ref

    def test_apply_noise_rejects_an_unusable_out(self):
        w = np.ones((4, 6))
        with pytest.raises(ParameterError):
            apply_noise(w, 0.5, "perturb", Rng(0).generator(), out=np.ones((6, 4)).T)
        with pytest.raises(ParameterError):
            apply_noise(w, 0.5, "perturb", Rng(0).generator(), out=np.ones((4, 5)))
