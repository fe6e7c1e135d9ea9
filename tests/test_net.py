import copy
import dataclasses
import itertools

import numpy as np
import pytest

from conftest import stream
from mfgrow.arch import build_mlp
from mfgrow.data import Dataset, synth_regression
from mfgrow.errors import DivergenceError, ParameterError
from mfgrow import net as net_module
from mfgrow.init import initialize, nonzero_mean_default
from mfgrow.net import (
    FactoredGradient,
    Network,
    OptimizerState,
    backward_batch,
    check_data,
    evaluate,
    forward_batch,
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


def dense(grads):
    """Each gradient of ``backward_batch`` as an array: a matrix's factors
    multiplied out."""
    return {name: np.asarray(g) for name, g in grads.items()}


def plain_grads(net, X, Y, loss="square"):
    """``backward_batch`` at unit rates: plain mean gradients, as arrays, and
    the mean loss."""
    grads, loss_value = backward_batch(net, X, Y, loss, dict.fromkeys(net.store, 1.0))
    return dense(grads), loss_value


def assert_gradcheck(net, x, y, loss, rtol=1e-6):
    """One-row batch gradients from ``backward_batch`` against central differences."""
    X = np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :]
    Y = np.asarray(y).reshape(1, -1) if loss == "square" else np.asarray(y).reshape(1)
    assert_matches_fd(plain_grads(net, X, Y, loss)[0], net, X, Y, loss, rtol)


class TestConstruction:
    # A Network holds only a runnable arch and a store of its weights.
    @pytest.mark.parametrize("edit, match", [
        (lambda store: store.pop("w1"), "store is missing weight w1"),
        (lambda store: store.update(w1=np.zeros((8, 7))),
         r"weight w1: stored shape \(8, 7\) != declared \(8, 8\)"),
    ], ids=["missing-weight", "wrong-shape"])
    def test_store_checked(self, edit, match):
        net = make_net(3, 8)
        store = dict(net.store)
        edit(store)
        with pytest.raises(ParameterError, match=match):
            Network(net.arch, store)

    def test_arch_graph_rejects_topology_fragment(self):
        # Every ArchGraph is a chain or a skip4, so every one has a layer plan.
        g = build_mlp(3, 4)
        with pytest.raises(ParameterError, match="unknown topology 'fragment'"):
            dataclasses.replace(g, topology="fragment", layers=(), activations=())


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
        grads, _ = plain_grads(net, [[0.7]], [[1.0]])
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
        grads, _ = plain_grads(net, [[x]], [[y]])
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
        x = stream(4).normal(size=6)
        assert_gradcheck(net, x, 2, "cross_entropy")

    def test_gradcheck_multi_output_square(self):
        net = make_net(3, 8, "muP", with_bias=True, input_dim=5, output_dim=3, seed=6)
        gen = stream(7)
        assert_gradcheck(net, gen.normal(size=5), gen.normal(size=3), "square")

    @pytest.mark.parametrize("parametrization", ["SP", "muP", "MFP"])
    @pytest.mark.parametrize("loss", ["square", "cross_entropy"])
    @pytest.mark.parametrize("depth,with_skip", [(3, False), (4, True)])
    def test_gradcheck_batch(self, parametrization, loss, depth, with_skip):
        # Batch mean gradients of a matrix-input net: pins the scalar / B
        # folded into each weight gradient.
        net = make_net(depth, 8, parametrization, with_bias=True, with_skip=with_skip,
                       input_dim=6, output_dim=4, seed=depth)
        gen = stream(8)
        X = gen.normal(size=(8, 6))
        Y = gen.normal(size=(8, 4)) if loss == "square" else gen.integers(0, 4, size=8)
        grads, _ = plain_grads(net, X, Y, loss)
        assert_matches_fd(grads, net, X, Y, loss, rtol=1e-6)

    def test_unknown_loss(self):
        net = make_net(2, 4)
        with pytest.raises(ParameterError):
            plain_grads(net, [[0.1]], [0.0], "hinge")


class TestTargetRule:
    """``backward_batch`` and ``evaluate`` hold targets to ``check_data``'s
    rule: a target that does not fit its batch is a ParameterError, never a
    broadcast, a wrapped-around label or a bare NumPy error."""

    @pytest.mark.parametrize("loss, n, targets, message", [
        ("square", 5, np.zeros(5), r"targets have shape \(5,\), but the net gives \(n, 3\)"),
        ("square", 5, np.zeros((5, 1)), r"targets have shape \(5, 1\)"),
        ("square", 5, np.zeros((1, 3)), r"targets have shape \(1, 3\)"),
        ("square", 5, np.zeros((4, 3)), r"targets have shape \(4, 3\)"),
        ("cross_entropy", 4, np.array([0, 2, -1, 1]), r"labels must lie in \[0, 3\).*-1 to 2"),
        ("cross_entropy", 4, np.array([0, 2, 3, 1]), r"labels must lie in \[0, 3\).*0 to 3"),
        ("cross_entropy", 4, np.zeros((4, 1), dtype=int),
         r"targets have shape \(4, 1\), but cross-entropy takes \(4,\) labels"),
        ("cross_entropy", 4, np.zeros(3, dtype=int), r"targets have shape \(3,\)"),
        ("cross_entropy", 4, np.array([0.0, 2.5, 1.9, 1.0]),
         r"labels must have an integer dtype, got float64"),
    ], ids=["square-flat", "square-one-column", "square-one-row", "square-short",
            "label-negative", "label-too-large", "labels-2d", "labels-short", "labels-float"])
    def test_misfit_targets_rejected(self, loss, n, targets, message):
        net = make_net(3, 8, input_dim=2, output_dim=3, seed=1)
        X = stream(3).normal(size=(n, 2))
        with pytest.raises(ParameterError, match=message):
            plain_grads(net, X, targets, loss)
        with pytest.raises(ParameterError, match=message):
            evaluate(net, X, targets, loss)

    def test_unknown_loss_rejected_everywhere(self):
        net = make_net(2, 4)
        with pytest.raises(ParameterError, match="unknown loss 'hinge'"):
            evaluate(net, np.zeros((2, 1)), np.zeros(2), "hinge")
        with pytest.raises(ParameterError, match="unknown loss 'hinge'"):
            check_data(net, Dataset(np.zeros((2, 1)), np.zeros(2)), "hinge")


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

        grads, _ = plain_grads(net, [[x]], [[y]])
        mults = {"v": n4, "w3": n4 * n3, "w2": n3 * n2, "w1": n2 * n1, "u": n1}
        closed = {"v": dv, "w3": dw3, "w2": dw2, "w1": dw1, "u": du}
        for name, delta in closed.items():
            assert np.allclose(grads[name], -delta / mults[name], rtol=1e-10, atol=1e-14)


class TestDuplicationTrajectory:
    """k-fold duplication commutes with MFP SGD and Adam: the duplicated net
    follows the small net's trajectory exactly, so the outputs agree to
    round-off after every step (Net2Net, arXiv 1511.05641; mean-field
    dynamics depend only on the empirical measure, arXiv 1804.06561). Adam
    normalizes the multiplier-scaled gradient, which duplication leaves
    unchanged (Tensor Programs IVb, arXiv 2308.01814)."""

    @pytest.mark.parametrize("kind, lr", [("sgd", 0.05), ("adam", 1e-3)])
    @pytest.mark.parametrize("with_skip", [False, True])
    @pytest.mark.parametrize("k", [2, 3])
    def test_trajectory_preserved(self, kind, lr, with_skip, k):
        small = make_net(4, 8, with_bias=True, with_skip=with_skip, seed=4)
        big = duplicate_grow(small, k)
        opt_small = OptimizerState.create(small, kind=kind, lr=lr)
        opt_big = OptimizerState.create(big, kind=kind, lr=lr)
        gen = stream(12)
        probe = gen.uniform(-2, 2, size=(64, 1))
        for _ in range(20):
            X = gen.uniform(-2, 2, size=(16, 1))
            Y = np.sin(2.0 * X)
            opt_small.apply(small, backward_batch(small, X, Y, "square", opt_small.rates)[0])
            opt_big.apply(big, backward_batch(big, X, Y, "square", opt_big.rates)[0])
            dev = np.abs(forward_batch(small, probe) - forward_batch(big, probe)).max()
            assert dev <= 1e-12


class TestRateMultiplier:
    def test_five_layer_mfp_scalars(self):
        arch = build_mlp(5, [5, 6, 7, 4], parametrization="MFP")
        assert arch.rate_multiplier("v") == 4
        assert arch.rate_multiplier("w3") == 4 * 7
        assert arch.rate_multiplier("w2") == 7 * 6
        assert arch.rate_multiplier("w1") == 6 * 5
        assert arch.rate_multiplier("u") == 5

    @pytest.mark.parametrize("parametrization", ["SP", "muP"])
    def test_sp_and_mup_are_one(self, parametrization):
        arch = build_mlp(5, 8, with_bias=True, input_dim=3, output_dim=2,
                         parametrization=parametrization)
        for w in arch.weights:
            assert arch.rate_multiplier(w.name) == 1.0

    def test_embedding_and_output_matrices(self):
        arch = build_mlp(3, 300, with_bias=True, input_dim=3072, output_dim=10,
                         parametrization="MFP")
        assert arch.rate_multiplier("u") == 300
        assert arch.rate_multiplier("w1") == 300 * 300
        assert arch.rate_multiplier("v") == 300
        assert arch.rate_multiplier("b1") == 300
        assert arch.rate_multiplier("bv") == 1.0

    def test_rates_are_step_size_times_multiplier(self):
        net = make_net(3, [6, 5], with_bias=True, input_dim=2, output_dim=3)
        sgd = OptimizerState.create(net, lr=0.25)
        adam = OptimizerState.create(net, kind="adam", lr=0.25)
        for w in net.arch.weights:
            assert sgd.rates[w.name] == 0.25 * net.arch.rate_multiplier(w.name)
            assert adam.rates[w.name] == net.arch.rate_multiplier(w.name)


class TestMupMfpSymmetry:
    """Tensor Programs IV's abc symmetry (Yang & Hu, arXiv 2011.14522): SGD
    runs the same when a layer's forward scalar is multiplied by theta, its
    weights divided by theta and its rate divided by theta**2. muP at its
    scripted rate exponent 1 and MFP form such a pair on a chain with a 1-d
    input and no output bias: the hidden matrices have theta = 1/sqrt(N) and
    rates lr*N and lr*N**2, the embedding and readout keep one scalar and
    rate lr*N. So MFP started from ``W_muP * s_muP / s_MFP`` trains to the
    same bits as muP. At N = 4**k and a batch of 2**j every ratio is a power
    of 2, so every scaling is exact, whatever the BLAS thread count."""

    @pytest.mark.parametrize("depth", [2, 3, 4, 5])
    @pytest.mark.parametrize("k, batch", [(1, 4), (2, 8), (3, 16), (4, 32)],
                             ids=["N4", "N16", "N64", "N256"])
    def test_mapped_mfp_run_is_byte_identical(self, depth, k, batch):
        mup = make_net(depth, 4**k, parametrization="muP", seed=depth)
        arch = mup.arch.with_parametrization("MFP")
        ratios = {a.weight: a.scalar / b.scalar for a, b in zip(mup.plan.layers, arch.plan.layers)}
        mfp = Network(arch, {name: w * ratios[name] for name, w in mup.store.items()})
        train_data = synth_regression("sine", 6 * batch, 0.0, Rng(depth))
        test_data = synth_regression("sine", 64, 0.0, Rng(depth), split="test")
        logs = []
        for net in (mup, mfp):
            opt = OptimizerState.create(
                net, lr=0.05, lr_width_exponent=net_module.DEFAULT_LR_EXPONENT[net.parametrization])
            logs.append(train(net, train_data, opt, 3, batch, Rng(7), test_data=test_data).to_csv())
        assert logs[0] == logs[1]
        assert (forward_batch(mup, test_data.inputs).tobytes()
                == forward_batch(mfp, test_data.inputs).tobytes())
        for name, w in mup.store.items():
            assert (w * ratios[name]).tobytes() == mfp.store[name].tobytes()
        assert any(ratio != 1.0 for ratio in ratios.values()) == (depth > 2)


class TestSgdUpdate:
    def test_bit_equal_to_plain_update_on_any_layout(self):
        # u is a C-order matrix, w1 is made Fortran-order, v and the biases
        # are vectors.
        net = make_net(3, 301, with_bias=True, input_dim=1000, seed=4)
        net.store["w1"] = np.asfortranarray(net.store["w1"])
        gen = stream(5)
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
        gen = stream(6)
        X, Y = gen.normal(size=(16, dims[0])), gen.normal(size=(16, dims[1]))
        opt = OptimizerState.create(net, lr=0.3, lr_width_exponent=0.5)
        grads, loss = plain_grads(net, X, Y)
        steps, step_loss = backward_batch(net, X, Y, "square", opt.rates)
        steps = dense(steps)
        assert step_loss == loss and steps.keys() == grads.keys()
        for name, rate in opt.rates.items():
            ref = rate * grads[name]
            if net.store[name].ndim == 2:
                assert np.abs(steps[name] - ref).max() <= 1e-14 * np.abs(ref).max()
            else:
                assert np.array_equal(steps[name], ref)

    @pytest.mark.parametrize("blas", [True, False], ids=["fused", "fallback"])
    def test_factored_step_bit_equal_to_numpy(self, blas, monkeypatch):
        # The fused GEMM (alpha -1, beta 1) gives the bits of w -= ds.T @ z.
        # 1-row and 1-column weights, where NumPy calls gemv, and a
        # non-contiguous z take the NumPy expression; so does every step
        # without the BLAS binding.
        if not blas:
            monkeypatch.setattr(net_module, "_DGEMM", None)
        gen = stream(80)
        for rows, cols in itertools.product((1, 2, 3, 10, 300), repeat=2):
            for B in range(1, 66):
                w = gen.normal(size=(rows, cols))
                ds = gen.normal(size=(B, rows))
                z = gen.normal(size=(B, 2 * cols))[:, ::2] if B % 5 == 0 else gen.normal(
                    size=(B, cols))
                ref = w.copy()
                ref -= ds.T @ z
                FactoredGradient(ds, z).subtract_from(w)
                assert bits(w) == bits(ref), (rows, cols, B)

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
                   .rates.values()) == {0.0}
        # Adam's rates are the multipliers; its step size carries lr.
        with pytest.raises(ParameterError, match="step size rounds to 0"):
            OptimizerState.create(net, kind="adam", lr=0.05, lr_width_exponent=-1000.0)
        assert OptimizerState.create(net, kind="adam", lr=0.0,
                                     lr_width_exponent=-1000.0).step_size == 0.0


_REFERENCE_ACTIVATIONS = {
    "tanh": (np.tanh, lambda z: 1.0 - z * z),
    "relu": (lambda a: np.maximum(a, 0.0), lambda z: (z > 0.0).astype(np.float64)),
    "identity": (lambda a: a, lambda z: np.ones_like(z)),
}


def broadcast_step(net, X, Y, rates, reduce=np.add.reduce):
    """The square-loss step as it was written before vector layers contracted
    with einsum: broadcast (batch, width) products, np.add.reduce over the
    batch, np.sum and mean. The bit reference for ``backward_batch``.
    ``reduce`` replaces the batch sums of the weight gradients."""
    B = X.shape[0]
    plan = net.plan.layers
    inputs, z, prev = [], X, None
    for i, layer in enumerate(plan):
        w = net.store[layer.weight]
        inputs.append(z)
        if not layer.vector:
            a = z @ w.T
        elif i == 0:
            a = X[:, 0:1] * w[None, :]
        else:
            a = (z @ w)[:, None]
        if layer.scalar != 1.0:
            a *= layer.scalar
        if layer.bias is not None:
            a += net.store[layer.bias]
        if layer.residual:
            a += prev
        prev = a
        z = a if layer.activation is None else _REFERENCE_ACTIVATIONS[layer.activation][0](a)
    delta = z - Y
    losses = 0.5 * np.sum(delta * delta, axis=1)
    grads = {}
    for i in range(len(plan) - 1, -1, -1):
        layer = plan[i]
        w = net.store[layer.weight]
        z = inputs[i]
        if not layer.vector:
            grads[layer.weight] = (delta * (rates[layer.weight] * (layer.scalar / B))).T @ z
        elif i == 0:
            grads[layer.weight] = rates[layer.weight] * (
                reduce(delta * z[:, 0:1], axis=0) / B)
        else:
            grads[layer.weight] = rates[layer.weight] * (
                layer.scalar * (reduce(delta[:, 0:1] * z, axis=0) / B))
        if layer.bias is not None:
            grads[layer.bias] = rates[layer.bias] * (reduce(delta, axis=0) / B)
        if i == 0:
            break
        if not layer.vector:
            back = delta @ w
            if layer.scalar != 1.0:
                back *= layer.scalar
        else:
            back = layer.scalar * delta[:, 0:1] * w[None, :]
        back *= _REFERENCE_ACTIVATIONS[plan[i - 1].activation][1](z)
        if layer.residual:
            back += delta
        delta = back
    return grads, float(losses.mean())


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestVectorStepBits:
    # Vector layers contract with np.einsum: each entry of an outer product
    # is one exact product, and each batch sum adds the exact products in
    # row order, as np.add.reduce(..., axis=0) over the broadcast product
    # does. Only signed zeros can part. einsum's outer product of a zero and
    # a negative factor is +0.0 where the broadcast product gives -0.0; a
    # zero input in every third batch reaches that case, and no sum sees
    # the sign. An all-zero batch sum is +0.0 under einsum. Under an
    # add.reduce that starts from the first row it is -0.0 (NumPy 2.4 starts
    # from +0.0, so the two agree here), and w -= +-0 then differs only for
    # a weight that is itself -0.0.
    # Hidden width 1 is the one rounding change: the (batch, 1) operand is
    # contiguous along the batch, and einsum sums it in SIMD lanes.
    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    @pytest.mark.parametrize("parametrization", ["SP", "muP", "MFP"])
    @pytest.mark.parametrize("depth, kw", [
        (2, {}), (2, {"with_bias": True}), (3, {}), (3, {"with_bias": True}),
        (4, {"with_skip": True})], ids=["twolayer", "twolayer-bias", "chain3", "chain3-bias",
                                        "skip4"])
    def test_step_bit_identical_to_broadcast_products(self, depth, kw, parametrization,
                                                      activation):
        # Every batch size 1..65 runs once, at hidden width 2 + B % 9 (2..10).
        gen = stream(70)
        nets = {width: make_net(depth, width, parametrization, activation=activation,
                                seed=width, **kw) for width in range(2, 11)}
        for B in range(1, 66):
            net = nets[2 + B % 9]
            X, Y = gen.normal(size=(B, 1)), gen.normal(size=(B, 1))
            if B % 3 == 0:
                X[B // 2] = 0.0
            opt = (OptimizerState.create(net, lr=0.05) if B % 2 else
                   OptimizerState.create(net, kind="adam", lr=1e-3))
            grads, loss = backward_batch(net, X, Y, "square", opt.rates)
            ref_grads, ref_loss = broadcast_step(net, X, Y, opt.rates)
            assert bits(loss) == bits(ref_loss), B
            assert grads.keys() == ref_grads.keys()
            for name, g in grads.items():
                assert bits(g) == bits(ref_grads[name]), (B, name)
            new, ref = (Network(net.arch, {k: v.copy() for k, v in net.store.items()})
                        for _ in range(2))
            copy.deepcopy(opt).apply(new, grads)
            opt.apply(ref, ref_grads)
            for name, w in new.store.items():
                assert bits(w) == bits(ref.store[name]), (B, name)

    def test_width_one_agrees_to_round_off(self):
        # At width 1 einsum sums the batch in SIMD lanes, not in row order,
        # so a gradient moves by round-off: within 1e-15 of the sum of its
        # products' magnitudes (sums that cancel move more relative to
        # themselves). The loss keeps its bits.
        gen = stream(71)
        for B in range(1, 66):
            net = make_net(2, 1, seed=B)
            X, Y = gen.normal(size=(B, 1)), gen.normal(size=(B, 1))
            rates = OptimizerState.create(net, lr=0.05).rates
            grads, loss = backward_batch(net, X, Y, "square", rates)
            ref_grads, ref_loss = broadcast_step(net, X, Y, rates)
            scale, _ = broadcast_step(net, X, Y, rates,
                                      reduce=lambda p, axis: np.add.reduce(np.abs(p), axis=axis))
            assert bits(loss) == bits(ref_loss), B
            for name, g in grads.items():
                assert np.all(np.abs(g - ref_grads[name]) <= 1e-15 * scale[name]), (B, name)


def trained_case(case):
    """(net, optimizer, data, loss) of one trained-weight pin, untrained. A
    third entry "adam" trains with Adam at lr 1e-3 instead of SGD."""
    kind, param, *adam = case
    if kind == "cifar":
        arch = build_mlp(3, 24, with_bias=True, input_dim=3072, output_dim=10,
                         parametrization=param)
        net = initialize(zeros_network(arch), nonzero_mean_default(param, arch), Rng(60))
        gen = stream(61)
        data = Dataset(gen.uniform(0.0, 1.0, size=(128, 3072)), gen.integers(0, 10, size=128))
        opt = OptimizerState.create(net, lr=0.1, lr_width_exponent=0.0 if param == "MFP" else 1.0)
        return net, opt, data, "cross_entropy"
    depth, kw = {"chain4": (4, {"with_bias": True}), "skip4": (4, {"with_skip": True}),
                 "twolayer": (2, {})}[kind]
    net = make_net(depth, 12, parametrization=param, seed=62, **kw)
    data = synth_regression("sine", 64, 0.1, Rng(63))
    opt = (OptimizerState.create(net, kind="adam", lr=1e-3) if adam
           else OptimizerState.create(net, lr=0.05))
    return net, opt, data, "square"


# (net, parametrization[, "adam"]) -> digest of the store after 2 epochs, with
# each matrix's rate folded into its delta. The two-layer net has vector
# weights only; its SGD steps round as rate * gradient. SP and muP Adam have
# unit rates and keep the digests of plain-gradient Adam; MFP Adam normalizes
# its multiplier-scaled gradients.
TRAINED_PINS = {
    ("cifar", "SP"): "647646e4e5726bec5981c4ab65259f2d45587b7812727c502258ec854872980f",
    ("cifar", "muP"): "3e980afcc1b5ccbc193c022ea1fec31a9876f2a7374294f0b2f78c3156e76a4c",
    ("cifar", "MFP"): "7fa539c41d53741ecdf8a245552f21887afb621daf6185fd02619f101aa20c8a",
    ("chain4", "MFP"): "be6b30aa316319c4fca1ddf5e4f5f87eccbca502bc8aba816766de7db1a3380f",
    ("skip4", "MFP"): "4050a15a981caf9bebd94cd8e0ab69dbbef74e19b5c2b4005773560e28c1e060",
    ("twolayer", "MFP"): "88b2c1d90a2a048ac46c6bfe1f69b45df20b0717130174f6b3bee5334373b880",
    ("chain4", "SP", "adam"): "e47f1260f02a817b31ae121bbbc7a692de3c78b7e981dd59ef42d33fd18e78e4",
    ("chain4", "muP", "adam"): "d9a4e5465a2e4cd379da601215b5e7e31da803c50a240693f99b89f3e6f64f81",
    ("chain4", "MFP", "adam"): "fedca1847a8cbdc89e2837c195a0c040a4ed4f99da0a561539c81c1fe3efef15",
    ("skip4", "MFP", "adam"): "9ae285f678a8d401e00b07ce62625b6379d3f5804bd57fb2d07c6a63cc01ae8f",
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
        # train's step is backward_batch (with the optimizer's rates) then apply.
        def run(by_hand):
            net = make_net(4, 8, with_bias=True, input_dim=3, output_dim=2, seed=7)
            gen = stream(8)
            data = Dataset(gen.normal(size=(40, 3)), gen.normal(size=(40, 2)))
            opt = OptimizerState.create(net, kind=kind, lr=0.05)
            if not by_hand:
                train(net, data, opt, epochs=2, batch_size=16, rng=Rng(9))
                return net
            order = Rng(9).substream("train/order")
            for _ in range(2):
                perm = order.permutation(40)
                for start in range(0, 40, 16):
                    idx = perm[start : start + 16]
                    opt.apply(net, backward_batch(net, data.inputs[idx], data.targets[idx],
                                                  "square", opt.rates)[0])
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

    @pytest.mark.parametrize("loss, targets", [("square", [[0.0], [1.0]]),
                                               ("cross_entropy", [2, 0])])
    def test_evaluate_takes_lists_like_forward_batch(self, loss, targets):
        net = make_net(3, 8, output_dim=3 if loss == "cross_entropy" else 1, seed=5)
        inputs = [[0.1], [0.2]]
        assert np.array_equal(forward_batch(net, inputs), forward_batch(net, np.array(inputs)))
        got = evaluate(net, inputs, targets, loss)
        want = evaluate(net, np.array(inputs), np.array(targets), loss)
        assert np.array_equal(got, want, equal_nan=True)

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
        width = net.plan.output_dim
        targets = np.zeros(8, dtype=int) if loss == "cross_entropy" else np.zeros((8, width))
        fits = Dataset(np.zeros((8, net.plan.input_dim)), targets)
        opt = OptimizerState.create(net, lr=0.05)
        for train_data, test_data in ((data, None), (fits, data)):
            with pytest.raises(ParameterError, match=message):
                train(net, train_data, opt, epochs=1, batch_size=4, rng=Rng(2),
                      test_data=test_data, loss=loss)
        assert opt.step_count == 0

    def test_one_input_and_target_form(self):
        # Inputs are (batch, input_dim) and square-loss targets (n, output_dim),
        # at input_dim and output_dim 1 too: a single example is no 1-d array,
        # and no (n,) target vector is read as one column.
        net = make_net(2, 8, output_dim=3)
        check_data(net, Dataset(np.zeros((4, 1)), np.array([0, 2, 1, 2])), "cross_entropy")
        check_data(net, Dataset(np.zeros((4, 1)), np.zeros((4, 3))), "square")
        net = make_net(2, 8)
        check_data(net, Dataset(np.zeros((4, 1)), np.zeros((4, 1))), "square")
        flat_input = r"input has shape \(1,\), expected \(batch, 1\)"
        with pytest.raises(ParameterError, match=flat_input):
            forward_batch(net, [0.5])
        with pytest.raises(ParameterError, match=flat_input):
            plain_grads(net, [0.5], [[0.0]])
        with pytest.raises(ParameterError, match=flat_input):
            evaluate(net, [0.5], [[0.0]])
        flat_targets = r"targets have shape \(4,\), but the net gives \(n, 1\)"
        with pytest.raises(ParameterError, match=flat_targets):
            check_data(net, Dataset(np.zeros((4, 1)), np.zeros(4)), "square")
        with pytest.raises(ParameterError, match=flat_targets):
            plain_grads(net, np.zeros((4, 1)), np.zeros(4))
        with pytest.raises(ParameterError, match=flat_targets):
            evaluate(net, np.zeros((4, 1)), np.zeros(4))

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
