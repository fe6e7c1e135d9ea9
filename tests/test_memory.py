"""Traced-heap bounds on the SGD update, the transfer path, checkpoint I/O
and the heatmap writer at the CIFAR shape (3072 -> N -> N -> 10).
tracemalloc sees every NumPy data buffer, so each bound counts the
full-size temporaries a call makes beyond its result.
"""

import tracemalloc

import numpy as np
import pytest

from mfgrow.arch import build_mlp
from mfgrow.data import CIFAR_RECORD, load_checkpoint, load_cifar10, save_checkpoint
from mfgrow.diagnostics import heatmap_export
from mfgrow.init import initialize, nonzero_mean_default
from mfgrow.measure import extract_measures
from mfgrow.net import OptimizerState, backward_batch, zeros_network
from mfgrow.tensor import Rng
from mfgrow.transfer import index_sets, transfer, uniform_plan

MiB = 2**20


def cifar_net(width, seed=0):
    arch = build_mlp(3, width, with_bias=True, input_dim=3072, output_dim=10,
                     parametrization="MFP")
    return initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(seed))


def traced_peak(fn):
    """(result, peak traced bytes above the heap at the call)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


def payload_bytes(net):
    return sum(arr.nbytes for arr in net.store.values())


@pytest.fixture(scope="module")
def wide_net():
    return cifar_net(1000)


def test_sgd_apply_updates_in_place():
    # Each step arrives rate-scaled from backward_batch; apply only
    # subtracts it, so no weight-sized temporary is made.
    net = cifar_net(300)
    opt = OptimizerState.create(net, lr=0.1)
    gen = Rng(3).substream(0)
    X, Y = gen.uniform(0.0, 1.0, size=(64, 3072)), gen.integers(0, 10, size=64)
    steps, _ = backward_batch(net, X, Y, "cross_entropy", opt.rates)
    _, extra = traced_peak(lambda: opt.apply(net, steps))
    assert extra < 0.01 * net.store["u"].nbytes


def test_save_checkpoint_streams_without_copies(wide_net, tmp_path):
    _, extra = traced_peak(lambda: save_checkpoint(wide_net, tmp_path / "w.ckpt"))
    assert extra < 1 * MiB


def test_load_checkpoint_reads_each_payload_once(wide_net, tmp_path):
    path = tmp_path / "w.ckpt"
    save_checkpoint(wide_net, path)
    loaded, extra = traced_peak(lambda: load_checkpoint(path))
    payload = payload_bytes(loaded)
    assert payload == payload_bytes(wide_net)
    assert extra < 1.1 * payload


def test_grow_with_noise_peak_bounded():
    net = cifar_net(100, seed=1)
    plan = uniform_plan(net.arch, 1000, r1=1.0)
    (grown, _), extra = traced_peak(lambda: transfer(net, plan, Rng(2)))
    assert extra < 1.75 * payload_bytes(grown)


def test_grow_applies_noise_in_place():
    # The noise goes onto each freshly gathered weight through one small
    # buffer: no weight is ever held twice.
    net = cifar_net(100, seed=1)
    plan = uniform_plan(net.arch, 1000, r1=1.0)
    (grown, _), extra = traced_peak(lambda: transfer(net, plan, Rng(2)))
    assert extra < 1.1 * payload_bytes(grown)


def test_prune_holds_no_copy_of_its_source(wide_net):
    # The r2 norm filter forms one einsum row-sum vector per slice: a
    # 1000 -> 100 prune adds little to its output beyond the one-axis gather
    # of w1.
    plan = uniform_plan(wide_net.arch, 100)
    (pruned, _), extra = traced_peak(lambda: transfer(wide_net, plan, Rng(2)))
    assert extra < payload_bytes(pruned) + 1 * MiB


def test_function_based_candidates_stay_small():
    # function_based scores its 64 candidates as one (64 x 1000) index matrix
    # per group: a few such matrices at a time, never one per feature.
    net = cifar_net(100, seed=1)
    plan = uniform_plan(net.arch, 1000, strategy="function_based", r2=0.4)
    _, extra = traced_peak(lambda: index_sets(net, plan, Rng(2)))
    assert extra < 4 * MiB


def test_sample_norms_use_one_small_buffer(wide_net):
    # Every group of the 1000-wide net, the 1000 x (3072 + 1 + 1000) hidden
    # group and the 3072-wide input group included.
    for gi, m in enumerate(extract_measures(wide_net)):
        _, extra = traced_peak(m.sample_norms)
        assert extra < 1 * MiB, gi


def test_heatmap_file_costs_no_full_size_text(wide_net, tmp_path):
    # The 1000x1000 grid is written as ~9 MB of text in blocks of rows; the
    # file adds only the blocks' temporaries to the grid's own peak.
    _, without = traced_peak(lambda: heatmap_export(wide_net, "w1"))
    path = tmp_path / "w1.grid"
    _, with_file = traced_peak(lambda: heatmap_export(wide_net, "w1", path=path))
    assert path.stat().st_size > 9_000_000
    assert with_file - without <= 2 * MiB


def test_heatmap_grid_is_its_only_full_size_array(wide_net):
    # The sorted copy is normalized in place: one 8 MB grid, not two.
    grid, extra = traced_peak(lambda: heatmap_export(wide_net, "w1"))
    assert extra < grid.nbytes + 1 * MiB


def write_two_train_files(directory):
    gen = np.random.default_rng(0)
    for name, n in (("data_batch_1.bin", 2048), ("data_batch_2.bin", 2048),
                    ("test_batch.bin", 1024)):
        records = gen.integers(0, 256, size=(n, CIFAR_RECORD), dtype=np.uint8)
        records[:, 0] %= 10
        (directory / name).write_bytes(records.tobytes())


def test_cifar_loader_holds_one_copy_of_the_train_pixels(tmp_path):
    # Two train files and a test file, as the loader meets them on disk: the
    # peak is the concatenated train set beside its per-file parts, not that
    # plus the test set's float temporaries.
    write_two_train_files(tmp_path)
    (train, test), extra = traced_peak(lambda: load_cifar10(tmp_path))
    assert extra < 1.75 * (train.inputs.nbytes + test.inputs.nbytes)


def test_cifar_loader_holds_one_file_beside_its_result(tmp_path):
    # Each split is filled in place, one file at a time: beyond the returned
    # arrays only the raw bytes of the file being read are held.
    write_two_train_files(tmp_path)
    (train, test), extra = traced_peak(lambda: load_cifar10(tmp_path))
    result = sum(ds.inputs.nbytes + ds.targets.nbytes for ds in (train, test))
    largest_file = max(p.stat().st_size for p in tmp_path.iterdir())
    assert extra < result + largest_file + 1 * MiB
