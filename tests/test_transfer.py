import hashlib
import math
import re

import numpy as np
import pytest

from conftest import stream
from mfgrow.arch import build_mlp
from mfgrow.data import load_checkpoint, save_checkpoint, synth_regression
from mfgrow.errors import ParameterError
from mfgrow.init import initialize, nonzero_mean_default
from mfgrow.measure import STRATEGIES
from mfgrow.net import OptimizerState, _run, evaluate, forward_batch, train, zeros_network
from mfgrow.tensor import Rng
from mfgrow.transfer import (
    TransferPlan,
    apply_noise,
    duplicate_grow,
    index_sets,
    transfer,
    uniform_plan,
)


def make_net(depth, width, seed=0, parametrization="MFP", **kw):
    arch = build_mlp(depth, width, parametrization=parametrization, **kw)
    return initialize(zeros_network(arch), nonzero_mean_default(parametrization, arch), Rng(seed))


def max_rel_dev(a, b):
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


def noised(w, r1, gen):
    """A noised copy of ``w``; apply_noise itself works in place."""
    out = np.array(w, dtype=np.float64, order="C")
    apply_noise(out, r1, gen)
    return out


class TestApplyNoise:
    def test_perturb_r1_zero_is_identity(self):
        w = np.array([1.5, -2.0])
        assert np.array_equal(noised(w, 0.0, stream(0)), w)

    def test_perturb_mean_ratio(self):
        w = np.ones(100_000)
        out = noised(w, 0.1, stream(1))
        assert abs(np.mean(out / w) - 1.0) < 0.002

    def test_negative_r1_rejected(self):
        with pytest.raises(ParameterError):
            apply_noise(np.ones(3), -0.1, stream(0))

    @pytest.mark.parametrize("r1", [np.nan, np.inf])
    def test_non_finite_r1_rejected(self, r1):
        with pytest.raises(ParameterError, match="finite"):
            apply_noise(np.ones(3), r1, stream(0))
        with pytest.raises(ParameterError, match="finite"):
            TransferPlan(r1=r1)


def test_unknown_strategy_rejected():
    with pytest.raises(ParameterError, match="unknown sampling strategy 'bogus'"):
        TransferPlan(strategy="bogus")


# A NumPy integer target once wrapped the address-space product 8 * target
# (with a RuntimeWarning) and reached NumPy's "array is too big" ValueError.
@pytest.mark.parametrize("target", [2**60, np.int64(2**60), np.uint64(2**62)],
                         ids=["int-2**60", "int64-2**60", "uint64-2**62"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_target_past_the_address_space_rejected(target, strategy):
    net = make_net(3, 8)
    plan = TransferPlan({1: target}, strategy=strategy)
    for call in (index_sets, transfer):
        with pytest.raises(ParameterError, match=f"target {target} needs "
                           f"{8 * int(target)} bytes of indices, past the address space"):
            call(net, plan, Rng(0))


class TestIdentityTransfer:
    def test_bit_identical(self):
        net = make_net(3, 12, with_bias=True)
        # An empty plan names no group, so every weight is copied.
        out, _ = transfer(net, TransferPlan(strategy="duplicate"), Rng(0))
        for k in net.store:
            assert np.array_equal(out.store[k], net.store[k])


class TestDuplication:
    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [2, 3])
    def test_function_preservation_chain(self, depth, k):
        net = make_net(depth, 10, seed=depth, with_bias=(depth != 2))
        grown = duplicate_grow(net, k)
        xs = stream(99).uniform(-2, 2, size=(200, 1))
        f_old = forward_batch(net, xs)
        f_new = forward_batch(grown, xs)
        assert max_rel_dev(f_new, f_old) <= 1e-9

    @pytest.mark.parametrize("k", [2, 3])
    def test_function_preservation_skip(self, k):
        net = make_net(4, 8, seed=4, with_bias=True, with_skip=True)
        grown = duplicate_grow(net, k)
        xs = stream(98).uniform(-2, 2, size=(200, 1))
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
        plan = uniform_plan(net.arch, 15, strategy="duplicate")
        with pytest.raises(ParameterError):
            transfer(net, plan, Rng(0))


class TestRandomGrowth:
    def test_grown_function_converges(self):
        # Growing 100 -> 1000 with random resampling draws ten times as many
        # samples from the source measure as growing 100 -> 101 (both with
        # replacement), so over 20 seeds it deviates less from the source
        # function. (A same-size draw is without replacement: a pure
        # permutation, which leaves the function exactly invariant.)
        net = make_net(3, 100, seed=2)
        xs = stream(97).uniform(-2, 2, size=(100, 1))
        f_src = forward_batch(net, xs)

        def mean_deviation(width):
            plan = uniform_plan(net.arch, width)
            return np.mean([
                np.mean(np.abs(forward_batch(transfer(net, plan, Rng(s))[0], xs) - f_src))
                for s in range(3, 23)
            ])

        assert mean_deviation(1000) < mean_deviation(101)  # more samples, less Monte Carlo error

    @pytest.mark.parametrize("depth, width, kw", [
        (3, 64, {}),
        # skip4's merged group moves w1, b1, w2 and b2 rows together.
        (4, 8, dict(with_skip=True)),
    ], ids=["chain", "skip4"])
    def test_same_size_draw_is_permutation(self, depth, width, kw):
        net = make_net(depth, width, seed=12, **kw)
        shuffled, _ = transfer(net, uniform_plan(net.arch, width), Rng(13))
        xs = stream(96).uniform(-2, 2, size=(50, 1))
        assert np.allclose(forward_batch(shuffled, xs), forward_batch(net, xs), atol=1e-12)
        assert not np.array_equal(shuffled.store["v"], net.store["v"])

    def test_gamma_consistency_rows_and_cols_share_index(self):
        # In a 3-layer net, w1 rows and v entries share the same group, and
        # so do u entries and w1 columns: transferred slices must originate
        # from the same source index.
        net = make_net(3, 30, seed=5)
        grown, _ = transfer(net, uniform_plan(net.arch, 90), Rng(6))
        # Recover the index choices by matching entries (distinct w.p. 1).
        idx_rows = _recover(net.store["v"], grown.store["v"])
        idx_cols = _recover(net.store["u"], grown.store["u"])
        assert np.array_equal(grown.store["w1"], net.store["w1"][np.ix_(idx_rows, idx_cols)])

    def test_shapes_and_scalars_follow_targets(self):
        net = make_net(3, 16, with_bias=True, input_dim=7, output_dim=4)
        grown, _ = transfer(net, uniform_plan(net.arch, 48), Rng(7))
        assert grown.store["w1"].shape == (48, 48)
        assert grown.store["u"].shape == (48, 7)
        assert grown.store["v"].shape == (4, 48)
        assert grown.arch.hidden_widths == {48}

    def test_data_group_resize_rejected(self):
        net = make_net(3, 16, with_bias=True, input_dim=7, output_dim=4)
        p = net.arch.partition
        data_groups = [i for i in range(len(p)) if not p.resizable[i]]
        plan = TransferPlan(targets={data_groups[0]: 99})
        with pytest.raises(ParameterError, match="data-tied"):
            transfer(net, plan, Rng(0))

    def test_data_group_at_its_own_width_rejected(self):
        net = make_net(3, 16, with_bias=True, input_dim=7, output_dim=4)
        p = net.arch.partition
        for gi in (i for i in range(len(p)) if not p.resizable[i]):
            width = p.widths[gi]
            with pytest.raises(ParameterError, match=f"group {gi} has a data-tied width {width}; "
                                                     f"cannot resize to {width}"):
                transfer(net, TransferPlan(targets={gi: width}), Rng(0))

    @pytest.mark.parametrize("target", [4.5, np.float64(6.0), "6", True, None])
    def test_non_integer_target_rejected(self, target):
        # A width is never rounded from a float or parsed from a string.
        with pytest.raises(ParameterError, match=re.escape(
                f"plan target for group 1 must be an integer, got {target!r}")):
            TransferPlan(targets={1: target})

    def test_numpy_integer_target_accepted(self):
        grown, _ = transfer(make_net(3, 16), TransferPlan(targets={1: np.int64(6)}), Rng(0))
        assert grown.store["v"].shape == (6,)

    @pytest.mark.parametrize("key", [1.0, True, "1"])
    def test_non_integer_key_rejected(self, key):
        # 1.0 and True compare equal to group 1, but are not its index.
        with pytest.raises(ParameterError, match=re.escape(
                f"plan target {key!r} names no group: a group index is an integer")):
            TransferPlan(targets={key: 6})

    def test_numpy_integer_key_accepted(self):
        net = make_net(3, 16)
        grown, idx = transfer(net, TransferPlan(targets={np.int64(1): 6}), Rng(0))
        ref, ref_idx = transfer(net, TransferPlan(targets={1: 6}), Rng(0))
        assert np.array_equal(idx[1], ref_idx[1])
        for name, arr in ref.store.items():
            assert np.array_equal(grown.store[name], arr), name

    def test_plan_holds_a_read_only_copy_of_its_targets(self):
        # Keys the constructor would reject (True equals group 1, 1.0 hashes
        # like it) cannot reach a plan through the caller's dict afterwards.
        net = make_net(3, 16)
        targets = {1: 6}
        plan = TransferPlan(targets)
        ref, ref_idx = transfer(net, TransferPlan({1: 6}), Rng(0))
        targets[True] = 9
        targets[1.0] = 9
        targets[0] = 9
        out, idx = transfer(net, plan, Rng(0))
        assert dict(plan.targets) == {1: 6}
        assert list(idx) == [1] and np.array_equal(idx[1], ref_idx[1])
        for name, arr in ref.store.items():
            assert np.array_equal(out.store[name], arr), name
        with pytest.raises(TypeError):
            plan.targets[1] = 5
        empty = {}
        plan = TransferPlan(empty)
        empty[True] = 6
        assert dict(transfer(net, plan, Rng(0)).sets) == {}

    @pytest.mark.parametrize("r2", [0.0, 0.5])
    @pytest.mark.parametrize("strategy", ["random", "group", "function_based"])
    @pytest.mark.parametrize("depth, kw", [(3, dict(with_bias=True)), (4, dict(with_skip=True))],
                             ids=["depth3", "skip4"])
    def test_plan_resamples_only_the_groups_it_names(self, depth, kw, strategy, r2):
        # A plan naming one hidden group gathers that group's axes by its
        # index set. Every other axis, and so every weight with no axis in the
        # group, stays bit-identical: a group left out is neither permuted
        # nor passed through the r2 filter.
        net = make_net(depth, 12, seed=16, **kw)
        p = net.arch.partition
        for gi in (i for i in range(len(p)) if p.resizable[i]):
            plan = TransferPlan(targets={gi: 17}, strategy=strategy, r2=r2)
            out, idx = transfer(net, plan, Rng(4))
            for w in net.arch.weights:
                expected = net.store[w.name]
                for axis, ax in enumerate(w.axes):
                    if p.axis_groups[(w.name, ax)] == gi:
                        expected = np.take(expected, idx[gi], axis=axis)
                assert np.array_equal(out.store[w.name], expected), (gi, w.name)
            assert list(idx) == [gi]

    @pytest.mark.parametrize("key", [3, 7, -1])
    def test_target_naming_no_group_rejected(self, key):
        net = make_net(3, 16, with_bias=True)  # groups 0, 1 and the width-1 output group 2
        with pytest.raises(ParameterError, match=f"plan target {key!r} names no group: "
                                                 "the net has 3 groups"):
            transfer(net, TransferPlan(targets={key: 100}), Rng(0))

    def test_deterministic_given_plan_and_seed(self):
        net = make_net(3, 20, seed=8)
        plan = uniform_plan(net.arch, 60, r1=0.3)
        a, _ = transfer(net, plan, Rng(123))
        b, _ = transfer(net, plan, Rng(123))
        c, _ = transfer(net, plan, Rng(124))
        for k in a.store:
            assert np.array_equal(a.store[k], b.store[k])
        assert not np.array_equal(a.store["w1"], c.store["w1"])

    def test_source_untouched(self):
        net = make_net(3, 20, seed=14, with_bias=True)
        before = {k: v.copy() for k, v in net.store.items()}
        transfer(net, uniform_plan(net.arch, 40, r1=0.5, r2=0.3), Rng(15))
        for k in before:
            assert np.array_equal(net.store[k], before[k])


def _recover(src, new):
    return np.array([np.argmin(np.abs(src - val)) for val in new])


class TestPruning:
    def test_prune_shapes(self):
        net = make_net(3, 50, seed=9)
        pruned, _ = transfer(net, uniform_plan(net.arch, 10, r2=0.5), Rng(10))
        assert pruned.store["w1"].shape == (10, 10)

    def test_r2_filter_drops_small_norms(self):
        net = make_net(2, 10, seed=11)
        # Make sample norms strictly increasing so survivors are known.
        net.store["u"] = np.arange(1.0, 11.0)
        net.store["v"] = np.zeros(10)
        pruned, _ = transfer(net, uniform_plan(net.arch, 5, r2=0.5), Rng(12))
        assert set(pruned.store["u"].tolist()) <= {6.0, 7.0, 8.0, 9.0, 10.0}


class TestFinitePopulationOracle:
    """A ``random`` transfer at r1 = 0 that resizes only the group feeding an
    MFP chain's readout samples the output's per-unit terms. Write
    f_P(x) = (1/P) sum_j c_j(x) with c_j = P * s * v_j * phi_j(x), s the
    readout scalar. The r2 norm filter keeps a pool of P' units, the
    ceil((1 - r2) P) largest by the norm of all the group's slices; f_pool(x)
    is their mean term and sigma^2(x) their terms' population variance (at
    r2 = 0 the pool is every unit and f_pool = f_P). Then exactly: subsetting
    to T < P' without replacement gives
    E (f_T - f_P)^2 = (f_pool - f_P)^2 + sigma^2 (P' - T) / (T (P' - 1)),
    and residual growth to T = qP' + r replaces the variance term by
    (r/T)^2 sigma^2 (P' - r) / (r (P' - 1)).

    Each case compares the mean over draws of mean_x (f_T - f_P)^2 on fixed
    probes with the formula's mean over the probes, and requires |z| < 4,
    z being the gap in standard errors of that mean. A subsetting draw with
    replacement has (P - 1)/(P - T) times the variance, 2.5x at 100 -> 60."""

    DRAWS = 1000

    @pytest.fixture(scope="class", params=[2, 3], ids=["depth2", "depth3"])
    def source(self, request):
        net = make_net(request.param, 100, seed=60 + request.param)
        data = synth_regression("sine", 256, 0.0, Rng(70))
        train(net, data, OptimizerState.create(net, lr=0.05), epochs=10, batch_size=32,
              rng=Rng(71))
        return net

    @pytest.mark.parametrize("r2, target", [(0.0, 60), (0.0, 170), (0.5, 30), (0.5, 170)],
                             ids=["subset", "grow", "r2-subset", "r2-grow"])
    def test_mean_squared_deviation_matches_exact_variance(self, source, r2, target):
        probes = np.linspace(-2.0, 2.0, 16)[:, None]
        out, inputs = _run(source, probes, keep=True)
        readout = source.plan.layers[-1]
        v = source.store[readout.weight]
        width = v.shape[-1]
        contrib = width * readout.scalar * inputs[-1] * v  # c_j(x): (probes, P)
        f_src = contrib.mean(axis=1)

        arch = source.arch
        partition = arch.partition
        group = partition.axis_groups[(readout.weight, arch.weight(readout.weight).axes[-1])]
        # Each unit's squared norm over every slice its group indexes.
        squares = sum(
            np.sum(source.store[w.name] ** 2, axis=tuple(a for a in range(len(w.axes)) if a != k))
            for w in arch.weights for k, ax in enumerate(w.axes)
            if partition.axis_groups[(w.name, ax)] == group)
        pool = np.argsort(-squares, kind="stable")[:math.ceil((1.0 - r2) * width)]
        size = pool.size
        sigma2 = contrib[:, pool].var(axis=1)
        bias2 = (contrib[:, pool].mean(axis=1) - f_src) ** 2
        if target < size:
            expected = bias2 + sigma2 * (size - target) / (target * (size - 1))
        else:
            r = target % size
            expected = bias2 + (r / target) ** 2 * sigma2 * (size - r) / (r * (size - 1))

        plan = TransferPlan(targets={group: target}, r2=r2)
        dev = np.empty(self.DRAWS)
        for seed in range(self.DRAWS):
            f_new = contrib[:, index_sets(source, plan, Rng(seed))[group]].mean(axis=1)
            dev[seed] = np.mean((f_new - f_src) ** 2)
        z = (dev.mean() - expected.mean()) / (dev.std(ddof=1) / np.sqrt(self.DRAWS))
        assert abs(z) < 4.0

        # The transferred net outputs exactly the resampled terms' mean, plus
        # the readout bias and rounding: the plan names one group, and every
        # other group keeps its units. The draws above are the ones transfer
        # makes and returns.
        grown, sets = transfer(source, plan, Rng(0))
        assert np.array_equal(sets[group], index_sets(source, plan, Rng(0))[group])
        f_new = contrib[:, sets[group]].mean(axis=1)
        assert np.allclose(forward_batch(grown, probes)[:, 0], f_new + out[:, 0] - f_src,
                           rtol=0.0, atol=1e-12)


class TestGrowThenTrain:
    def test_duplication_preserves_initial_loss(self):
        train_data = synth_regression("sine", 256, 0.0, Rng(20))
        test_data = synth_regression("sine", 128, 0.0, Rng(20), split="test")
        small = make_net(2, 40, seed=21)
        opt = OptimizerState.create(small, lr=0.05)
        train(small, train_data, opt, epochs=4, batch_size=32, rng=Rng(22))
        pre_loss, _ = evaluate(small, test_data.inputs, test_data.targets, "square")

        plan = uniform_plan(small.arch, 80, strategy="duplicate")
        grown, _ = transfer(small, plan, Rng(23))
        opt = OptimizerState.create(grown, lr=0.05)
        log = train(grown, train_data, opt, epochs=1, batch_size=32, rng=Rng(24),
                    test_data=test_data)
        # Epoch-0 row holds the post-transfer, pre-training test loss.
        assert log.rows[0][3] == pytest.approx(pre_loss, abs=1e-9)

    def test_function_based_strategy_accepted(self):
        train_data = synth_regression("sine", 128, 0.0, Rng(30))
        small = make_net(2, 30, seed=31)
        grown, _ = transfer(small, uniform_plan(small.arch, 60, strategy="function_based"), Rng(32))
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


# (net, strategy, target width, r1, r2) -> digest of the output.
# The chain nets mix every gather shape: u resizes rows only (5 data-tied
# columns), v columns only (3 data-tied rows), w1 both, bv neither.
TRANSFER_PINS = {
    ("chain", "random", 24, 0.0, 0.0): "f25ef30d61fbe3354851f0ca71774d70e72133c975bd7e2bcbd32f512078d4bc",
    ("chain", "random", 24, 0.5, 0.0): "2cb39bb15a378a06e3dceb1887a7e7c9c2e19b337591bf9f0217e552cb5e483f",
    ("chain", "random", 7, 0.5, 0.25): "a5fbff67e5d298e22707e8bd78a3326839ca95e34f2fd7de66ec825b319a872f",
    ("chain", "group", 30, 0.5, 0.0): "8f4abb1f951c63070e31d74c923eeb8adff2811bd8d41546814c6a3e9127b0cd",
    ("chain", "group", 7, 0.0, 0.0): "a4bdacff45f687b459b73df35927335be03b5b85c17c1eaf55153c07d5b0fc1b",
    ("chain", "function_based", 24, 0.0, 0.25): "6e3131c7ac6bc494639ebce7c5fd8010da7b4f66ff699b4644fb3f1ccd531323",
    ("chain", "function_based", 7, 0.5, 0.0): "40b14b66d3236b9c9dd114d67a47dedad500983aceefc2801932950d0c5618fc",
    ("chain", "duplicate", 24, 0.0, 0.0): "c1fd999e5d697b06f55dd661aa9e6053bd5c9c0f030967ee59fbaf34c3b21420",
    ("chain", "duplicate", 36, 0.5, 0.0): "2eafe6c6ca94a2be613ccee28ab4ebf5e7a095a09a9c2ea4714b01fad6b27ed2",
    ("chain", "duplicate", 12, 0.0, 0.0): "8dc56ffacbe894c4060cbcad41aedf0e7138fed41f50693510fee6cd64fd4758",
    ("skip4", "random", 25, 0.5, 0.0): "771542e9582897f26083874e352ec6040917361c78b62a0629975272612fe952",
    ("skip4", "function_based", 6, 0.0, 0.5): "3d6803a77998e9a2759df8c3aec456b61b163dc4e77836017e4c6e0ec20d4df4",
}


class TestTransferPinned:
    # Digests under the exactly keyed SFC64 streams and residual growth
    # draws. A change to the draw, gather, noise or copy path that moves any
    # value breaks one.
    @pytest.mark.parametrize("case", list(TRANSFER_PINS), ids=lambda c: "-".join(map(str, c)))
    def test_transfer_output_pinned(self, case):
        topology, strategy, target, r1, r2 = case
        net = _pin_net(topology == "skip4")
        plan = uniform_plan(net.arch, target, strategy=strategy, r1=r1, r2=r2)
        out, _ = transfer(net, plan, Rng(50))
        assert store_digest(out) == TRANSFER_PINS[case]

    def test_outputs_compute_like_their_checkpoint(self, tmp_path):
        # Transfer returns C-contiguous weights, the layout a checkpoint load
        # gives, so the in-memory net and its round trip round alike.
        arch = build_mlp(3, 16, with_bias=True, input_dim=48, output_dim=10)
        net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(1))
        for target in (48, 9):
            out, _ = transfer(net, uniform_plan(arch, target), Rng(2))
            assert all(a.flags.c_contiguous for a in out.store.values())
            save_checkpoint(out, tmp_path / "t.ckpt")
            back = load_checkpoint(tmp_path / "t.ckpt")
            xs = stream(3).normal(size=(64, 48))
            assert np.array_equal(forward_batch(out, xs), forward_batch(back, xs))

    def test_apply_noise_matches_reference_in_place(self):
        w = stream(51).normal(size=(37, 11))
        u = Rng(52).substream("n").uniform(-0.7, 0.7, size=w.shape)
        ref = w * (1.0 + u)
        assert apply_noise(w, 0.7, Rng(52).substream("n")) is None
        assert w.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(5,), (32768,), (32769,), (300, 250), (7, 9363)])
    def test_apply_noise_in_blocks_matches_one_uniform_draw(self, shape):
        # The noise is drawn and applied in blocks, in place; it equals one
        # full-size uniform draw, bit for bit, also where a block boundary
        # cuts a row.
        w = stream(53).normal(size=shape)
        for r1 in (1.0, 4.0, 0.5, 1e-3, 0.1):
            u = Rng(54).substream("n").uniform(-r1, r1, size=shape)
            ref = (w * (1.0 + u)).tobytes()
            assert noised(w, r1, Rng(54).substream("n")).tobytes() == ref

    def test_apply_noise_rejects_an_unusable_w(self):
        # Transposed, float32, a list, read-only.
        for w in (np.ones((6, 4)).T, np.ones((4, 6), dtype=np.float32), [[1.0, 2.0]],
                  np.broadcast_to(np.ones(6), (4, 6))):
            with pytest.raises(ParameterError):
                apply_noise(w, 0.5, stream(0))
