import numpy as np
import pytest

from mfgrow.arch import build_mlp
from mfgrow.data import Dataset, synth_regression
from mfgrow.errors import DivergenceError, ParameterError
from mfgrow.init import initialize, nonzero_mean_default
from mfgrow.net import (
    Network,
    OptimizerState,
    backward_batch,
    check_data,
    evaluate,
    forward_batch,
    lr_multiplier,
    train,
    zeros_network,
)
from mfgrow.tensor import Rng
from mfgrow.transfer import duplicate_grow

from test_transfer import store_digest


def make_net(depth, width, parametrization="MFP", with_bias=False, with_skip=False,
             input_dim=1, output_dim=1, activation="tanh", seed=0):
    arch = build_mlp(depth, width, with_bias=with_bias, with_skip=with_skip,
                     input_dim=input_dim, output_dim=output_dim,
                     parametrization=parametrization, activation=activation)
    return initialize(zeros_network(arch), nonzero_mean_default(parametrization, arch), Rng(seed))


def loss_at(net, X, Y, loss):
    """Mean loss over a batch in the store's dtype (no float64 round-off cast)."""
    out = forward_batch(net, X)
    if loss == "square":
        diff = out - np.asarray(Y, dtype=out.dtype).reshape(out.shape)
        return np.mean(0.5 * np.sum(diff * diff, axis=1))
    shifted = out - out.max(axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=1))
    return np.mean(logz - shifted[np.arange(out.shape[0]), np.asarray(Y, dtype=int)])


def fd_grads(net, X, Y, loss, h=1e-5):
    """Central differences at step h. The perturbed losses are evaluated in
    extended precision so the difference quotient is limited by truncation,
    not by float64 cancellation."""
    work = Network(net.arch, {k: v.astype(np.longdouble) for k, v in net.store.items()})
    grads = {}
    for name, arr in net.store.items():
        g = np.zeros_like(arr)
        flat = work.store[name].reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k].copy()
            flat[k] = orig + h
            lp = loss_at(work, X, Y, loss)
            flat[k] = orig - h
            lm = loss_at(work, X, Y, loss)
            flat[k] = orig
            gflat[k] = float((lp - lm) / (2.0 * h))
        grads[name] = g
    return grads


def assert_matches_fd(analytic, net, X, Y, loss, rtol):
    numeric = fd_grads(net, X, Y, loss)
    for name in net.store:
        a, n = analytic[name], numeric[name]
        mask = np.abs(a) > 1e-8
        if mask.any():
            rel = np.abs(a[mask] - n[mask]) / np.abs(a[mask])
            assert rel.max() < rtol, f"{name}: max rel err {rel.max():.2e}"


def assert_gradcheck(net, x, y, loss, rtol=1e-6):
    """One-row batch gradients from ``backward_batch`` against central differences."""
    X = np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :]
    Y = np.asarray(y).reshape(1, -1) if loss == "square" else np.asarray(y).reshape(1)
    assert_matches_fd(backward_batch(net, X, Y, loss)[0], net, X, Y, loss, rtol)


class TestForward:
    def test_two_layer_mfp_symmetry(self):
        net = make_net(2, 8, activation="identity")
        net.store["u"][:] = 1.0
        net.store["v"][:] = 1.0
        assert forward_batch(net, [[2.0]])[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_two_layer_mfp_loop_oracle(self):
        net = make_net(2, 16, activation="identity", seed=3)
        u, v = net.store["u"], net.store["v"]
        x = 1.7
        expected = np.mean(v * u) * x
        assert forward_batch(net, [[x]])[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_sp_vs_mfp_identity_ratio_is_exactly_n(self):
        # With identity activations and shared weights, each of the two
        # hidden/output contractions contributes a sqrt(N) scalar mismatch.
        n = 16
        sp = make_net(3, n, "SP", activation="identity", seed=5)
        mf = Network(sp.arch.with_parametrization("MFP"), {k: v.copy() for k, v in sp.store.items()})
        x = np.array([[0.83]])
        f_sp = forward_batch(sp, x)[0, 0]
        f_mf = forward_batch(mf, x)[0, 0]
        assert f_sp == n * f_mf

    def test_mup_output_scalar(self):
        n = 16
        mup = make_net(3, n, "muP", activation="identity", seed=5)
        sp = Network(mup.arch.with_parametrization("SP"), {k: v.copy() for k, v in mup.store.items()})
        x = np.array([[0.5]])
        # muP differs from SP only in the output contraction: 1/N vs 1/sqrt(N).
        assert forward_batch(sp, x)[0, 0] == pytest.approx(
            np.sqrt(n) * forward_batch(mup, x)[0, 0], rel=1e-12)

    def test_shape_mismatch(self):
        net = make_net(3, 8)
        with pytest.raises(ParameterError):
            forward_batch(net, np.zeros((2, 3)))

    def test_finite_output(self):
        net = make_net(5, 8, with_bias=True, seed=9)
        out = forward_batch(net, np.linspace(-1, 1, 7)[:, None])
        assert np.isfinite(out).all()


class TestBackward:
    def test_zero_weights_tanh_zero_gradient_on_v(self):
        arch = build_mlp(3, 8, parametrization="MFP")
        net = zeros_network(arch)
        grads, _ = backward_batch(net, [[0.7]], [1.0], "square")
        # tanh(0) = 0 propagates: the output layer sees all-zero features.
        assert np.allclose(grads["v"], 0.0)

    def test_two_layer_closed_form(self):
        n = 32
        net = make_net(2, n, seed=1)
        u, v = net.store["u"], net.store["v"]
        x, y = 0.9, 0.4
        f = forward_batch(net, [[x]])[0, 0]
        zz = np.tanh(u * x)
        dv_closed = (f - y) * zz / n
        du_closed = (f - y) * v * (1.0 - zz**2) * x / n
        grads, _ = backward_batch(net, [[x]], [y], "square")
        assert np.allclose(grads["v"], dv_closed, rtol=0, atol=1e-12)
        assert np.allclose(grads["u"], du_closed, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("parametrization", ["SP", "muP", "MFP"])
    @pytest.mark.parametrize("depth,width", [(2, 24), (3, 12), (5, 8), (7, 6)])
    def test_gradcheck_chain(self, parametrization, depth, width):
        net = make_net(depth, width, parametrization, with_bias=(depth % 2 == 1), seed=depth)
        assert_gradcheck(net, [0.6], [0.2], "square")

    @pytest.mark.parametrize("parametrization", ["SP", "muP", "MFP"])
    def test_gradcheck_skip(self, parametrization):
        net = make_net(4, 10, parametrization, with_bias=True, with_skip=True, seed=11)
        assert_gradcheck(net, [0.4], [-0.3], "square")

    def test_gradcheck_cross_entropy(self):
        net = make_net(3, 8, "MFP", with_bias=True, input_dim=6, output_dim=4, seed=2)
        x = Rng(4).generator().normal(size=6)
        assert_gradcheck(net, x, 2, "cross_entropy")

    def test_gradcheck_multi_output_square(self):
        net = make_net(3, 8, "muP", with_bias=True, input_dim=5, output_dim=3, seed=6)
        gen = Rng(7).generator()
        assert_gradcheck(net, gen.normal(size=5), gen.normal(size=3), "square")

    @pytest.mark.parametrize("parametrization", ["SP", "muP", "MFP"])
    @pytest.mark.parametrize("loss", ["square", "cross_entropy"])
    @pytest.mark.parametrize("depth,with_skip", [(3, False), (4, True)])
    def test_gradcheck_batch(self, parametrization, loss, depth, with_skip):
        # Batch mean gradients of a matrix-input net: pins the scalar / B
        # folded into each weight gradient.
        net = make_net(depth, 8, parametrization, with_bias=True, with_skip=with_skip,
                       input_dim=6, output_dim=4, seed=depth)
        gen = Rng(8).generator()
        X = gen.normal(size=(8, 6))
        Y = gen.normal(size=(8, 4)) if loss == "square" else gen.integers(0, 4, size=8)
        grads, _ = backward_batch(net, X, Y, loss)
        assert_matches_fd(grads, net, X, Y, loss, rtol=1e-6)

    def test_unknown_loss(self):
        net = make_net(2, 4)
        with pytest.raises(ParameterError):
            backward_batch(net, [[0.1]], [0.0], "hinge")


class TestFiveLayerClosedForms:
    def test_gradients_match_update_formulas(self):
        # Independent transcription of the per-weight update expressions for
        # the bias-free 5-layer net; gradient = -(update) / (eta * scalar).
        n1, n2, n3, n4 = 5, 6, 7, 4
        arch = build_mlp(5, [n1, n2, n3, n4], parametrization="MFP")
        net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(8))
        u, w1, w2, w3, v = (net.store[k] for k in ("u", "w1", "w2", "w3", "v"))
        x, y = 0.73, -0.2

        psi, dpsi = np.tanh, lambda a: 1.0 - np.tanh(a) ** 2
        z1 = psi(u * x)
        h2 = w1 @ z1 / n1
        z2 = psi(h2)
        h3 = w2 @ z2 / n2
        z3 = psi(h3)
        h4 = w3 @ z3 / n3
        z4 = psi(h4)
        f = float(v @ z4) / n4
        err = y - f

        dv = err * z4
        dw3 = err * np.outer(v * dpsi(h4), z3)
        inner_w2 = (v * dpsi(h4)) @ w3 / n4
        dw2 = err * np.outer(inner_w2 * dpsi(h3), z2)
        inner_w1 = (inner_w2 * dpsi(h3)) @ w2 / n3
        dw1 = err * np.outer(inner_w1 * dpsi(h2), z1)
        inner_u = (inner_w1 * dpsi(h2)) @ w1 / n2
        du = err * inner_u * dpsi(u * x) * x

        grads, _ = backward_batch(net, [[x]], [y], "square")
        mults = {"v": n4, "w3": n4 * n3, "w2": n3 * n2, "w1": n2 * n1, "u": n1}
        closed = {"v": dv, "w3": dw3, "w2": dw2, "w1": dw1, "u": du}
        for name, delta in closed.items():
            assert np.allclose(grads[name], -delta / mults[name], rtol=1e-10, atol=1e-14)


class TestDuplicationTrajectory:
    """k-fold duplication commutes with MFP SGD: the duplicated net follows
    the small net's trajectory exactly, so the outputs agree to round-off
    after every step (Net2Net, arXiv 1511.05641; mean-field dynamics depend
    only on the empirical measure, arXiv 1804.06561)."""

    @pytest.mark.parametrize("with_skip", [False, True])
    @pytest.mark.parametrize("k", [2, 3])
    def test_sgd_trajectory_preserved(self, with_skip, k):
        small = make_net(4, 8, with_bias=True, with_skip=with_skip, seed=4)
        big = duplicate_grow(small, k)
        opt_small = OptimizerState.create(small, lr=0.05)
        opt_big = OptimizerState.create(big, lr=0.05)
        gen = Rng(12).generator()
        probe = gen.uniform(-2, 2, size=(64, 1))
        for _ in range(20):
            X = gen.uniform(-2, 2, size=(16, 1))
            Y = np.sin(2.0 * X)
            opt_small.apply(small, backward_batch(small, X, Y, rates=opt_small.rates())[0])
            opt_big.apply(big, backward_batch(big, X, Y, rates=opt_big.rates())[0])
            dev = np.abs(forward_batch(small, probe) - forward_batch(big, probe)).max()
            assert dev <= 1e-12


class TestLrMultiplier:
    def test_five_layer_mfp_scalars(self):
        arch = build_mlp(5, [5, 6, 7, 4], parametrization="MFP")
        assert lr_multiplier("v", arch) == 4
        assert lr_multiplier("w3", arch) == 4 * 7
        assert lr_multiplier("w2", arch) == 7 * 6
        assert lr_multiplier("w1", arch) == 6 * 5
        assert lr_multiplier("u", arch) == 5

    def test_sp_is_one(self):
        arch = build_mlp(5, 8, parametrization="SP")
        for w in arch.weights:
            assert lr_multiplier(w.name, arch) == 1.0

    def test_embedding_and_output_matrices(self):
        arch = build_mlp(3, 300, with_bias=True, input_dim=3072, output_dim=10,
                         parametrization="MFP")
        assert lr_multiplier("u", arch) == 300
        assert lr_multiplier("w1", arch) == 300 * 300
        assert lr_multiplier("v", arch) == 300
        assert lr_multiplier("bv", arch) == 1.0


class TestSgdUpdate:
    def test_bit_equal_to_plain_update_on_any_layout(self):
        # u is a C-order matrix, w1 is made Fortran-order, v and the biases
        # are vectors.
        net = make_net(3, 301, with_bias=True, input_dim=1000, seed=4)
        net.store["w1"] = np.asfortranarray(net.store["w1"])
        gen = Rng(5).generator()
        steps = {k: gen.normal(size=v.shape) for k, v in net.store.items()}
        steps_before = {k: g.copy() for k, g in steps.items()}
        before = {k: v.copy() for k, v in net.store.items()}
        arrays = dict(net.store)
        OptimizerState.create(net, lr=0.3).apply(net, steps)
        for name, step in steps.items():
            assert net.store[name] is arrays[name]
            assert np.array_equal(net.store[name], before[name] - step)
            assert np.array_equal(step, steps_before[name])
        assert net.store["w1"].flags.f_contiguous

    @pytest.mark.parametrize("parametrization", ["SP", "muP", "MFP"])
    @pytest.mark.parametrize("dims", [(1, 1), (6, 3)], ids=["vector-ends", "matrix-ends"])
    def test_steps_are_rate_times_gradient(self, parametrization, dims):
        # Vectors and biases keep the rounding of rate * gradient; a matrix's
        # rate is folded into its delta, so it agrees to round-off of the
        # matrix's largest entry.
        net = make_net(4, 12, parametrization, with_bias=True, with_skip=True, input_dim=dims[0],
                       output_dim=dims[1], seed=3)
        gen = Rng(6).generator()
        X, Y = gen.normal(size=(16, dims[0])), gen.normal(size=(16, dims[1]))
        opt = OptimizerState.create(net, lr=0.3, lr_width_exponent=0.5)
        grads, loss = backward_batch(net, X, Y)
        steps, step_loss = backward_batch(net, X, Y, rates=opt.rates())
        assert step_loss == loss and steps.keys() == grads.keys()
        for name, rate in opt.rates().items():
            ref = rate * grads[name]
            if net.store[name].ndim == 2:
                assert np.abs(steps[name] - ref).max() <= 1e-14 * np.abs(ref).max()
            else:
                assert np.array_equal(steps[name], ref)

    @pytest.mark.parametrize("kwargs, message", [
        ({"lr": float("nan")}, "learning rate must be finite"),
        ({"lr_width_exponent": 1000.0}, "width scale 8\\*\\*1000.0 must be finite, got inf"),
        ({"lr_width_exponent": float("nan")}, "width scale .* must be finite, got nan"),
        ({"lr": 1e308, "lr_width_exponent": 2.0}, "rate of u must be finite, got inf"),
    ], ids=["lr-nan", "width-scale-overflows", "width-scale-nan", "rate-overflows"])
    def test_non_finite_rates_rejected(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            OptimizerState.create(make_net(2, 8), **kwargs)

    def test_rates_rounding_to_zero_rejected(self):
        # 8.0 ** -1000 underflows to 0, so a positive lr would train nothing.
        net = make_net(2, 8)
        with pytest.raises(ParameterError, match="rate of u rounds to 0"):
            OptimizerState.create(net, lr=0.05, lr_width_exponent=-1000.0)
        assert set(OptimizerState.create(net, lr=0.0, lr_width_exponent=-1000.0)
                   .rates().values()) == {0.0}


def trained_case(case):
    """(net, optimizer, data, loss) of one trained-weight pin, untrained."""
    kind, param = case
    if kind == "cifar":
        arch = build_mlp(3, 24, with_bias=True, input_dim=3072, output_dim=10,
                         parametrization=param)
        net = initialize(zeros_network(arch), nonzero_mean_default(param, arch), Rng(60))
        gen = Rng(61).generator()
        data = Dataset(gen.uniform(0.0, 1.0, size=(128, 3072)), gen.integers(0, 10, size=128))
        opt = OptimizerState.create(net, lr=0.1, lr_width_exponent=0.0 if param == "MFP" else 1.0)
        return net, opt, data, "cross_entropy"
    depth, kw = {"chain4": (4, {"with_bias": True}), "skip4": (4, {"with_skip": True}),
                 "twolayer": (2, {})}[kind]
    net = make_net(depth, 12, parametrization=param, seed=62, **kw)
    data = synth_regression("sine", 64, 0.1, Rng(63))
    return net, OptimizerState.create(net, lr=0.05), data, "square"


# (net, parametrization) -> digest of the store after 2 SGD epochs, with each
# matrix's rate folded into its delta. The two-layer net has vector weights
# only; its SGD steps round as rate * gradient.
TRAINED_PINS = {
    ("cifar", "SP"): "647646e4e5726bec5981c4ab65259f2d45587b7812727c502258ec854872980f",
    ("cifar", "muP"): "3e980afcc1b5ccbc193c022ea1fec31a9876f2a7374294f0b2f78c3156e76a4c",
    ("cifar", "MFP"): "7fa539c41d53741ecdf8a245552f21887afb621daf6185fd02619f101aa20c8a",
    ("chain4", "MFP"): "be6b30aa316319c4fca1ddf5e4f5f87eccbca502bc8aba816766de7db1a3380f",
    ("skip4", "MFP"): "4050a15a981caf9bebd94cd8e0ab69dbbef74e19b5c2b4005773560e28c1e060",
    ("twolayer", "MFP"): "88b2c1d90a2a048ac46c6bfe1f69b45df20b0717130174f6b3bee5334373b880",
}


class TestTrainedWeightsPinned:
    # Logged losses can stay bit-identical when the weights move by
    # round-off; the weight bytes cannot.
    @pytest.mark.parametrize("case", list(TRAINED_PINS), ids="-".join)
    def test_trained_store_pinned(self, case):
        net, opt, data, loss = trained_case(case)
        train(net, data, opt, epochs=2, batch_size=32, rng=Rng(64), loss=loss)
        assert store_digest(net) == TRAINED_PINS[case]


class TestTrain:
    def test_zero_lr_means_no_change(self):
        net = make_net(2, 16, seed=0)
        before = {k: v.copy() for k, v in net.store.items()}
        data = synth_regression("sine", 64, 0.0, Rng(1))
        opt = OptimizerState.create(net, lr=0.0)
        log = train(net, data, opt, epochs=2, batch_size=16, rng=Rng(2))
        for k in before:
            assert np.array_equal(net.store[k], before[k])
        losses = [row[2] for row in log.rows]
        assert max(losses) == pytest.approx(min(losses), rel=1e-12)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_equals_hand_loop_of_the_public_step(self, kind):
        # train's step is backward_batch (with the SGD rates) then apply.
        def run(by_hand):
            net = make_net(4, 8, with_bias=True, input_dim=3, output_dim=2, seed=7)
            gen = Rng(8).generator()
            data = Dataset(gen.normal(size=(40, 3)), gen.normal(size=(40, 2)))
            opt = OptimizerState.create(net, kind=kind, lr=0.05)
            if not by_hand:
                train(net, data, opt, epochs=2, batch_size=16, rng=Rng(9))
                return net
            order = Rng(9).substream("train/order")
            rates = opt.rates() if kind == "sgd" else None
            for _ in range(2):
                perm = order.permutation(40)
                for start in range(0, 40, 16):
                    idx = perm[start : start + 16]
                    opt.apply(net, backward_batch(net, data.inputs[idx], data.targets[idx],
                                                  rates=rates)[0])
            return net

        assert store_digest(run(by_hand=False)) == store_digest(run(by_hand=True))

    def test_deterministic_log_bytes(self):
        def run():
            net = make_net(2, 16, seed=0)
            data = synth_regression("sine", 128, 0.0, Rng(1))
            opt = OptimizerState.create(net, lr=0.05)
            return train(net, data, opt, epochs=3, batch_size=32, rng=Rng(2)).to_csv()

        assert run() == run()

    def test_divergence_raises_with_step(self):
        net = make_net(2, 8, seed=0)
        data = synth_regression("sine", 64, 0.0, Rng(1))
        opt = OptimizerState.create(net, lr=1e9)
        with pytest.raises(DivergenceError):
            train(net, data, opt, epochs=5, batch_size=8, rng=Rng(2))

    @pytest.mark.parametrize("lr, message", [
        (1e300, "diverged in the last update"),  # finite weights, inf loss
        (2e307, "non-finite weights"),  # finite rates, an overflowing step
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_last_update_divergence_raises(self, lr, message):
        # One batch: its loss is checked before the update that blows up.
        # Targets of 100 sin(x) give gradients above 1, so the largest
        # finite rates overflow the step.
        net = make_net(2, 8, seed=0)
        data = synth_regression("sine", 8, 0.0, Rng(1))
        data = Dataset(data.inputs, 100.0 * data.targets)
        opt = OptimizerState.create(net, lr=lr)
        with pytest.raises(DivergenceError, match=message) as info:
            train(net, data, opt, epochs=1, batch_size=8, rng=Rng(2))
        assert info.value.step == 1

    def test_sine_regression_baseline(self):
        # Frozen regression baseline: 2-layer mean-field net fits sin(x).
        net = make_net(2, 200, seed=0)
        data = synth_regression("sine", 512, 0.0, Rng(1))
        opt = OptimizerState.create(net, lr=0.05)
        steps_per_epoch = (512 + 15) // 16
        epochs = max(1, 2000 // steps_per_epoch)
        log = train(net, data, opt, epochs=epochs, batch_size=16, rng=Rng(2))
        assert log.rows[-1][2] < 0.05

    def test_adam_step_runs_and_learns(self):
        net = make_net(2, 64, seed=0)
        data = synth_regression("sine", 256, 0.0, Rng(1))
        opt = OptimizerState.create(net, kind="adam", lr=0.01)
        log = train(net, data, opt, epochs=20, batch_size=32, rng=Rng(2))
        assert log.rows[-1][2] < log.rows[0][2] * 0.5

    def test_evaluate_empty_rejected(self):
        net = make_net(2, 8)
        with pytest.raises(ParameterError):
            evaluate(net, np.zeros((0, 1)), np.zeros(0))

    @pytest.mark.parametrize("epochs, batch_size, message", [
        (-1, 16, "epochs must be >= 0, got -1"),
        (2, 0, "batch_size must be >= 1, got 0"),
    ])
    def test_bad_schedule_rejected_before_any_step(self, epochs, batch_size, message):
        net = make_net(2, 8)
        before = {k: v.copy() for k, v in net.store.items()}
        data = synth_regression("sine", 32, 0.0, Rng(1))
        opt = OptimizerState.create(net, lr=0.05)
        with pytest.raises(ParameterError, match=message):
            train(net, data, opt, epochs=epochs, batch_size=batch_size, rng=Rng(2))
        assert opt.step_count == 0
        assert all(np.array_equal(net.store[k], before[k]) for k in before)

    @pytest.mark.parametrize("dims, data, loss, message", [
        ({"output_dim": 3}, Dataset(np.zeros((8, 1)), np.zeros((8, 1))), "square",
         r"targets have shape \(8, 1\)"),
        ({"input_dim": 2}, Dataset(np.zeros((8, 1)), np.zeros((8, 1))), "square",
         r"inputs have shape \(8, 1\)"),
        ({"output_dim": 3}, Dataset(np.zeros((8, 1)), np.full(8, 3)), "cross_entropy",
         r"labels must lie in \[0, 3\)"),
        ({"output_dim": 3}, Dataset(np.zeros((8, 1)), np.zeros((8, 1), dtype=int)),
         "cross_entropy", r"targets have shape \(8, 1\), but cross-entropy"),
    ], ids=["targets-too-narrow", "inputs-too-narrow", "label-out-of-range", "labels-2d"])
    def test_data_that_does_not_fit_rejected_before_any_step(self, dims, data, loss, message):
        net = make_net(2, 8, **dims)
        width = net.output_dim()
        targets = np.zeros(8, dtype=int) if loss == "cross_entropy" else np.zeros((8, width))
        fits = Dataset(np.zeros((8, net.input_dim())), targets)
        opt = OptimizerState.create(net, lr=0.05)
        for train_data, test_data in ((data, None), (fits, data)):
            with pytest.raises(ParameterError, match=message):
                train(net, train_data, opt, epochs=1, batch_size=4, rng=Rng(2),
                      test_data=test_data, loss=loss)
        assert opt.step_count == 0

    def test_fitting_shapes_accepted(self):
        net = make_net(2, 8, output_dim=3)
        check_data(net, Dataset(np.zeros((4, 1)), np.array([0, 2, 1, 2])), "cross_entropy")
        check_data(net, Dataset(np.zeros((4, 1)), np.zeros((4, 3))), "square")
        check_data(make_net(2, 8), Dataset(np.zeros((4, 1)), np.zeros(4)), "square")

    def test_zero_epochs_logs_only_the_initial_loss(self):
        net = make_net(2, 8)
        data = synth_regression("sine", 32, 0.0, Rng(1))
        opt = OptimizerState.create(net, lr=0.05)
        log = train(net, data, opt, epochs=0, batch_size=16, rng=Rng(2))
        assert [row[:2] for row in log.rows] == [(0, 0)]
        assert opt.step_count == 0

    def test_negative_lr_rejected(self):
        net = make_net(2, 8)
        with pytest.raises(ParameterError):
            OptimizerState.create(net, lr=-0.1)
