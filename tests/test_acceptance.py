"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with: pytest tests/test_acceptance.py -v
The CIFAR-10 criteria (4, 5, 6) need the binary batches on disk; point
MFGROW_CIFAR10_DIR at them, otherwise those tests skip with a notice.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BLOCK_USAGES, _block_table, record_acceptance, stream
import mfgrow
from mfgrow.arch import build_mlp, compute_partition
from mfgrow.data import load_checkpoint, load_cifar10, save_checkpoint, synth_regression
from mfgrow.experiments import (
    accuracy_experiment,
    fig2_grow,
    fig2_prune,
    table1,
    twolayer_regen,
    update_probe,
)
from mfgrow.init import initialize, nonzero_mean_default, rc_spec
from mfgrow.measure import coupling_contrast
from mfgrow.net import (
    OptimizerState,
    forward_batch,
    train,
    zeros_network,
)
from mfgrow.tensor import Rng, gaussian, uniform
from mfgrow.transfer import duplicate_grow

from test_net import fd_grads, plain_grads


def _report(criterion: str, passed: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} — {detail}"
    record_acceptance(line)
    print(line)
    assert passed, line


def _cifar_dir_or_skip() -> str:
    path = os.environ.get("MFGROW_CIFAR10_DIR")
    if not path or not os.path.isdir(path):
        pytest.skip(
            "CIFAR-10 binaries not present; set MFGROW_CIFAR10_DIR to run this "
            "criterion (no download is attempted)"
        )
    return path


def _fresh_net(depth, width, parametrization="MFP", seed=0, **kw):
    arch = build_mlp(depth, width, parametrization=parametrization, **kw)
    return initialize(zeros_network(arch), nonzero_mean_default(parametrization, arch), Rng(seed))


def test_criterion_1_partition_exactness():
    t0 = time.time()
    p_skipnet = build_mlp(4, 64, with_bias=True, with_skip=True).partition
    p_block = compute_partition(*_block_table(BLOCK_USAGES["skip-block"], 32))
    p_attn = compute_partition(*_block_table(BLOCK_USAGES["attention-block"], 32))
    ok = (
        p_skipnet.groups == ((1,), (2, 3), (4,))
        and p_block.groups == ((1,), (2, 5), (3,), (4,))
        and p_attn.groups == ((1,), (2, 3, 4), (5,), (6,), (7,))
    )
    elapsed = time.time() - t0
    _report("1 (partition exactness)", ok and elapsed < 1.0,
            f"three reference partitions exact, {elapsed:.3f}s")


def test_criterion_2_gradient_fidelity():
    t0 = time.time()
    worst = 0.0
    for depth, width in ((2, 32), (3, 24), (5, 12), (7, 8)):
        for param in ("SP", "muP", "MFP"):
            for seed in range(3):
                net = _fresh_net(depth, width, param, seed=100 * depth + seed,
                                 with_bias=(seed % 2 == 0))
                x, y = [[0.6]], [[0.2]]
                analytic, _ = plain_grads(net, x, y)
                numeric = fd_grads(net, x, y, "square")
                for name in net.store:
                    a, n = analytic[name], numeric[name]
                    mask = np.abs(a) > 1e-8
                    if mask.any():
                        rel = float((np.abs(a[mask] - n[mask]) / np.abs(a[mask])).max())
                        worst = max(worst, rel)
    fd_ok = worst <= 1e-6

    # Two-layer closed forms, exact to 1e-12.
    net = _fresh_net(2, 32, seed=1)
    u, v = net.store["u"], net.store["v"]
    x, y = 0.9, 0.4
    f = forward_batch(net, np.array([[x]]))[0, 0]
    zz = np.tanh(u * x)
    grads, _ = plain_grads(net, [[x]], [[y]])
    closed_ok = np.allclose(grads["v"], (f - y) * zz / 32, atol=1e-12, rtol=0) and np.allclose(
        grads["u"], (f - y) * v * (1 - zz**2) * x / 32, atol=1e-12, rtol=0
    )
    elapsed = time.time() - t0
    _report("2 (gradient fidelity)", fd_ok and closed_ok and elapsed < 30.0,
            f"max rel err {worst:.2e} <= 1e-6; closed forms to 1e-12; {elapsed:.1f}s")


def test_criterion_3_function_preservation():
    t0 = time.time()
    xs = stream(321).uniform(-3, 3, size=(1000, 1))
    worst = 0.0
    for k in (2, 3):
        for depth in (2, 3, 4, 5):
            net = _fresh_net(depth, 12, seed=depth, with_bias=(depth > 2))
            grown = duplicate_grow(net, k)
            f_old = forward_batch(net, xs)
            f_new = forward_batch(grown, xs)
            worst = max(worst, float(np.max(np.abs(f_new - f_old) / (1.0 + np.abs(f_old)))))
        skip = _fresh_net(4, 12, seed=9, with_bias=True, with_skip=True)
        grown = duplicate_grow(skip, k)
        f_old = forward_batch(skip, xs)
        f_new = forward_batch(grown, xs)
        worst = max(worst, float(np.max(np.abs(f_new - f_old) / (1.0 + np.abs(f_old)))))
    elapsed = time.time() - t0
    _report("3 (naive-doubling preservation)", worst <= 1e-9 and elapsed < 10.0,
            f"max rel deviation {worst:.2e} <= 1e-9 over k in {{2,3}}, depths 2-5 + skip; "
            f"{elapsed:.1f}s")


def test_criterion_4_cifar_accuracy():
    train_data, test_data = load_cifar10(_cifar_dir_or_skip())
    result = accuracy_experiment(train_data, test_data, width=300, epochs=10, seeds=(0, 1, 2))
    meds = ", ".join(f"{k}={v:.3f}" for k, v in result["medians"].items())
    _report("4 (CIFAR-10 accuracy)", result["passed"], f"medians {meds}, threshold 0.43")


def test_criterion_5_table1_qualitative():
    train_data, test_data = load_cifar10(_cifar_dir_or_skip())
    result = table1(train_data, test_data, width=1000, epochs=10, seeds=(0, 1, 2))
    _report("5 (correlation table)", result["passed"],
            "; ".join(f"{k}={v}" for k, v in result["checks"].items()))


def test_criterion_6_transfer_convergence():
    train_data, test_data = load_cifar10(_cifar_dir_or_skip())
    grow = fig2_grow(train_data, test_data, seeds=(0,))
    prune = fig2_prune(train_data, test_data, seeds=(0,))
    _report("6 (transfer convergence)", grow["passed"] and prune["passed"],
            f"grow checks {grow['checks']}; prune checks {prune['checks']}")


def test_criterion_7_twolayer_regeneration():
    t0 = time.time()
    result = twolayer_regen(seed=0, source_width=500, target_width=2000)
    elapsed = time.time() - t0
    _report("7 (measure regeneration)", result["passed"] and elapsed < 120.0,
            f"test-MSE ratio {result['ratio']:.3f} <= 1.2 with no retraining; {elapsed:.1f}s")


def test_criterion_8_rc_init_structure():
    arch = build_mlp(4, 16, parametrization="MFP")
    base = zeros_network(arch)
    other = {"u": gaussian(1, 3), "v": gaussian(1, 3)}

    prod = initialize(
        base,
        rc_spec({"w1": (gaussian(1, 1), uniform(-1, 1)),
                 "w2": (gaussian(1, 1), uniform(-1, 1))}, other, phi="product"),
        Rng(5),
    )
    rank1_ok = True
    for name in ("w1", "w2"):
        s = np.linalg.svd(prod.store[name], compute_uv=False)
        rank1_ok &= s[1] <= 1e-9 * max(s[0], 1.0)

    summ = initialize(
        base,
        rc_spec({"w1": (gaussian(0, 1), gaussian(0, 1)),
                 "w2": (gaussian(0, 1), gaussian(0, 1))}, other, phi="sum"),
        Rng(6),
    )
    rank2_ok = True
    for name in ("w1", "w2"):
        s = np.linalg.svd(summ.store[name], compute_uv=False)
        rank2_ok &= s[2] <= 1e-9 * max(s[0], 1.0)

    # Regeneration from the 2N stored values reproduces the matrix exactly.
    r = gaussian(0, 1).draw(Rng(6).substream("init/w1/R"), 16)
    c = gaussian(0, 1).draw(Rng(6).substream("init/w1/C"), 16)
    regen_ok = np.array_equal(summ.store["w1"], r[:, None] + c[None, :])

    _report("8 (rc-init structure)", rank1_ok and rank2_ok and regen_ok,
            "product rank 1, sum rank <= 2 (tol 1e-9), 2N-value regeneration exact")


def test_criterion_9_update_scaling():
    result = update_probe()
    detail = "; ".join(
        f"{p} median={result['results'][p]['median']:.3f}" for p in ("MFP", "SP")
    )
    _report("9 (update-order scaling)", result["passed"],
            detail + " (bands MFP [0.7,1.5], SP [1.5,3.0])")


def test_criterion_10_coupling_contrast():
    n = 10_000
    u = stream(12).normal(0.0, 1.0, size=n)
    paired, decoupled = coupling_contrast(u, u)
    gap = paired - decoupled
    ok = abs(gap - 1.0) <= 3.0 / np.sqrt(n)
    _report("10 (coupling contrast)", ok,
            f"paired-minus-decoupled gap {gap:.4f} within 1 ± {3.0 / np.sqrt(n):.3f}")


# One MFP 3072 -> 300 -> 300 -> 10 training run, wide enough that OpenBLAS
# splits its GEMMs over threads: 256 synthetic examples, batch 64, one epoch.
# It writes the checkpoint to argv[1] + ".ckpt" and the CSV log beside it.
_WIDE_RUN = """
import sys
from mfgrow.arch import build_mlp
from mfgrow.data import Dataset, save_checkpoint
from mfgrow.init import initialize, nonzero_mean_default
from mfgrow.net import OptimizerState, train, zeros_network
from mfgrow.tensor import Rng

arch = build_mlp(3, 300, input_dim=3072, output_dim=10, parametrization="MFP")
net = initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(3))
gen = Rng(4).substream("data")
data = Dataset(gen.normal(size=(256, 3072)), gen.integers(0, 10, size=256))
log = train(net, data, OptimizerState.create(net, lr=0.05), 1, 64, Rng(5), loss="cross_entropy")
save_checkpoint(net, sys.argv[1] + ".ckpt", seed=5)
log.write(sys.argv[1] + ".csv")
"""


def _wide_run(out: Path, threads: int) -> tuple[bytes, bytes]:
    """The checkpoint and CSV log of ``_WIDE_RUN`` in a fresh interpreter
    with ``threads`` OpenBLAS threads."""
    src = str(Path(mfgrow.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _WIDE_RUN, str(out)], env=env, check=True, timeout=300)
    return out.with_suffix(".ckpt").read_bytes(), out.with_suffix(".csv").read_bytes()


def test_criterion_11_determinism_and_serialization(tmp_path):
    # Scope: byte-identical at a fixed BLAS thread count. Across thread
    # counts a split GEMM may round differently, so that is reported only.
    def run():
        net = _fresh_net(3, 24, seed=3)
        data = synth_regression("sine", 256, 0.0, Rng(4))
        opt = OptimizerState.create(net, lr=0.05)
        log = train(net, data, opt, epochs=3, batch_size=32, rng=Rng(5))
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(net, ckpt, seed=5)
        return log.to_csv().encode(), ckpt.read_bytes(), net

    log1, ckpt1, net = run()
    log2, ckpt2, _ = run()
    rerun_ok = log1 == log2 and ckpt1 == ckpt2

    loaded = load_checkpoint(tmp_path / "net.ckpt")
    roundtrip_ok = all(
        np.array_equal(loaded.store[k], net.store[k]) for k in net.store
    )
    save_checkpoint(loaded, tmp_path / "net2.ckpt", seed=5)
    bytes_ok = (tmp_path / "net2.ckpt").read_bytes() == ckpt1

    wide = {t: [_wide_run(tmp_path / f"wide{t}_{i}", t) for i in range(2)] for t in (1, 2)}
    threads_ok = all(a == b for a, b in wide.values())
    (ckpt_1, csv_1), (ckpt_2, csv_2) = wide[1][0], wide[2][0]
    across = (f"checkpoints {'agree' if ckpt_1 == ckpt_2 else 'differ'} and CSV logs "
              f"{'agree' if csv_1 == csv_2 else 'differ'} across 1 and 2 (not required)")

    _report("11 (determinism & serialization)",
            rerun_ok and roundtrip_ok and bytes_ok and threads_ok,
            "seed-identical reruns byte-identical; f64 checkpoint round trip bit-exact; "
            "MFP 3072-300-300-10 checkpoints and CSV logs byte-identical across fresh "
            f"interpreters at 1 and at 2 OpenBLAS threads; {across}")
