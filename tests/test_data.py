import hashlib
import io
import os
import struct
import threading
import time

import numpy as np
import pytest

from conftest import stream
from mfgrow import data
from mfgrow.arch import build_mlp
from mfgrow.data import (
    CIFAR_RECORD,
    Dataset,
    load_checkpoint,
    load_cifar10,
    save_checkpoint,
    synth_regression,
)
from mfgrow.errors import CheckpointError, DataError, MissingDataError, ParameterError
from mfgrow.init import initialize, nonzero_mean_default
from mfgrow.net import Network, OptimizerState, forward_batch, train, zeros_network
from mfgrow.tensor import Rng


def write_fixture_batch(path, records):
    """records: list of (label, first_pixel). Remaining pixels ramp mod 256."""
    blob = bytearray()
    for label, first in records:
        blob.append(label)
        blob += bytes((first + i) % 256 for i in range(CIFAR_RECORD - 1))
    path.write_bytes(bytes(blob))


class TestCifarLoader:
    def test_well_formed_fixture(self, tmp_path):
        write_fixture_batch(tmp_path / "data_batch_1.bin", [(3, 10), (7, 100)])
        write_fixture_batch(tmp_path / "test_batch.bin", [(1, 0)])
        train, test = load_cifar10(tmp_path)
        assert train.inputs.shape[0] == 2 and test.inputs.shape[0] == 1
        assert train.inputs.shape == (2, 3072)
        assert train.targets.tolist() == [3, 7]
        expected = np.array([(10 + i) % 256 for i in range(3072)]) / 255.0
        assert np.array_equal(train.inputs[0], expected)

    def test_sorted_file_order(self, tmp_path):
        write_fixture_batch(tmp_path / "data_batch_2.bin", [(2, 0)])
        write_fixture_batch(tmp_path / "data_batch_1.bin", [(1, 0)])
        write_fixture_batch(tmp_path / "test_batch.bin", [(0, 0)])
        train, _ = load_cifar10(tmp_path)
        assert train.targets.tolist() == [1, 2]

    def test_truncated_file_reports_offset(self, tmp_path):
        (tmp_path / "data_batch_1.bin").write_bytes(b"\x00" * (CIFAR_RECORD + 5))
        write_fixture_batch(tmp_path / "test_batch.bin", [(0, 0)])
        with pytest.raises(DataError, match=str(CIFAR_RECORD)):
            load_cifar10(tmp_path)

    def test_bad_label(self, tmp_path):
        write_fixture_batch(tmp_path / "data_batch_1.bin", [(12, 0)])
        write_fixture_batch(tmp_path / "test_batch.bin", [(0, 0)])
        with pytest.raises(DataError, match="label 12"):
            load_cifar10(tmp_path)

    def test_missing_dataset(self, tmp_path):
        with pytest.raises(MissingDataError, match="MFGROW_CIFAR10_DIR"):
            load_cifar10(tmp_path)


def write_pinned_batches(directory):
    """Two train files of 7 and 5 records (every label 0-9 between them)
    and a one-record test file. Pixels are SHAKE-256 bytes, the same on
    every platform."""
    files = {"data_batch_1.bin": [3, 0, 9, 5, 1, 7, 2],
             "data_batch_2.bin": [8, 4, 6, 0, 9],
             "test_batch.bin": [6]}
    for name, labels in files.items():
        pixels = hashlib.shake_256(name.encode()).digest(len(labels) * (CIFAR_RECORD - 1))
        blob = bytearray()
        for i, label in enumerate(labels):
            blob.append(label)
            blob += pixels[i * (CIFAR_RECORD - 1):(i + 1) * (CIFAR_RECORD - 1)]
        (directory / name).write_bytes(bytes(blob))


# SHA-256 of the little-endian inputs and targets that the loader returned
# for write_pinned_batches before it filled one array per split.
CIFAR_PINS = {
    ("train", "inputs"): "e2b255287524f54b949d8c1cb3da4b131798fe8a13cba772de7a744438ebe624",
    ("train", "targets"): "7d03758d45a0fe1e545c8b6de70796ecf439f6cb837ce925804e9563ec7755d5",
    ("test", "inputs"): "fc891e510b31917c3e1c36c333ccea716731be2175f385e5b2dc3ec8a3c95128",
    ("test", "targets"): "23d7f42b1cdc1f0d492ebd756ed0fe8003995dda554d99418d47a81813650207",
}


def threads_dividing(monkeypatch, workers, min_rows=1):
    """Make the loader divide each file's rows as if ``workers`` CPUs were
    usable, in blocks of at least ``min_rows`` rows."""
    monkeypatch.setattr(data, "_workers", lambda: workers)
    monkeypatch.setattr(data, "_MIN_BLOCK_ROWS", min_rows)


# 13 is one above the train split's record count: more threads than rows.
@pytest.mark.parametrize("workers", [1, 2, 3, 13])
def test_cifar_arrays_pinned(tmp_path, monkeypatch, workers):
    threads_dividing(monkeypatch, workers)
    write_pinned_batches(tmp_path)
    splits = dict(zip(("train", "test"), load_cifar10(tmp_path)))
    assert (splits["train"].inputs.shape[0], splits["test"].inputs.shape[0]) == (12, 1)
    for (split, field), digest in CIFAR_PINS.items():
        ds = splits[split]
        arr = getattr(ds, field)
        assert ds.split == split
        assert arr.dtype == (np.float64 if field == "inputs" else np.int64)
        assert arr.flags.c_contiguous and arr.shape[1:] == ((3072,) if field == "inputs" else ())
        got = hashlib.sha256(arr.astype(arr.dtype.newbyteorder("<")).tobytes()).hexdigest()
        assert got == digest, (split, field)


class TestParallelDivide:
    @pytest.mark.parametrize("workers, blocks", [(1, [769]), (2, [384, 385]),
                                                 (3, [256, 256, 257]), (4, [256, 256, 257])])
    def test_blocks_of_at_least_256_rows_match_one_divide(self, tmp_path, monkeypatch,
                                                          workers, blocks):
        # 769 = 3 * 256 + 1 rows split evenly into no block count above one,
        # and give no fourth block of 256 rows.
        threads_dividing(monkeypatch, workers, min_rows=data._MIN_BLOCK_ROWS)
        records = np.random.default_rng(5).integers(0, 256, size=(769, CIFAR_RECORD),
                                                    dtype=np.uint8)
        records[:, 0] %= 10
        (tmp_path / "data_batch_1.bin").write_bytes(records.tobytes())
        write_fixture_batch(tmp_path / "test_batch.bin", [(0, 0)])
        sizes = []
        divide = data._divide_block

        def recording(rows, out):
            sizes.append(len(rows))
            divide(rows, out)
        monkeypatch.setattr(data, "_divide_block", recording)
        train, _ = load_cifar10(tmp_path)
        assert train.inputs.tobytes() == (records[:, 1:] / 255.0).tobytes()
        assert sorted(sizes) == [1] + blocks  # the test file's one row, then the train blocks

    def test_threads_end_with_the_load(self, tmp_path, monkeypatch):
        # Workers that finish late still finish before the load returns.
        threads_dividing(monkeypatch, 3)
        write_pinned_batches(tmp_path)
        divide = data._divide_block

        def late_off_the_caller(rows, out):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)
            divide(rows, out)
        monkeypatch.setattr(data, "_divide_block", late_off_the_caller)
        before = threading.active_count()
        load_cifar10(tmp_path)
        assert threading.active_count() == before

    def test_threads_end_on_a_bad_label_in_the_second_file(self, tmp_path, monkeypatch):
        # The first train file is divided by three threads before the
        # second file's label 12 is read.
        threads_dividing(monkeypatch, 3)
        write_pinned_batches(tmp_path)
        write_fixture_batch(tmp_path / "data_batch_2.bin", [(4, 0), (12, 0)])
        before = threading.active_count()
        with pytest.raises(DataError, match="data_batch_2.bin: record 1 has label 12"):
            load_cifar10(tmp_path)
        assert threading.active_count() == before

    def test_a_worker_block_failure_reaches_the_caller(self, tmp_path, monkeypatch):
        threads_dividing(monkeypatch, 3)
        write_pinned_batches(tmp_path)
        divide = data._divide_block
        done = []

        def failing_off_the_caller(rows, out):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker block")
            divide(rows, out)
            done.append(len(rows))
        monkeypatch.setattr(data, "_divide_block", failing_off_the_caller)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="worker block"):
            load_cifar10(tmp_path)
        assert threading.active_count() == before
        assert done == [2]  # the caller's own block of data_batch_1.bin's 7 rows


class TestCifarFiles:
    def test_record_counts_in_load_order(self, tmp_path):
        write_pinned_batches(tmp_path)
        train_files, test_files = data.cifar10_files(tmp_path)
        assert [(p.name, n) for p, n in train_files] == [("data_batch_1.bin", 7),
                                                         ("data_batch_2.bin", 5)]
        assert [(p.name, n) for p, n in test_files] == [("test_batch.bin", 1)]

    @pytest.mark.parametrize("name", ["data_batch_1.bin", "test_batch.bin"])
    def test_directory_batch_rejected(self, tmp_path, name):
        write_pinned_batches(tmp_path)
        (tmp_path / name).unlink()
        (tmp_path / name).mkdir()
        with pytest.raises(DataError, match="not a regular file"):
            data.cifar10_files(tmp_path)

    def test_truncated_batch_rejected_before_reading(self, tmp_path):
        write_pinned_batches(tmp_path)
        os.truncate(tmp_path / "data_batch_2.bin", 2 * CIFAR_RECORD + 7)
        with pytest.raises(DataError, match=f"truncated after byte {2 * CIFAR_RECORD}"):
            data.cifar10_files(tmp_path)

    def _after_stat(self, monkeypatch, change):
        """Make ``load_cifar10`` meet ``change`` between the size check and
        the read."""
        checked = data.cifar10_files

        def check_then_change(directory):
            files = checked(directory)
            change()
            return files
        monkeypatch.setattr(data, "cifar10_files", check_then_change)

    def test_batch_shrunk_after_stat(self, tmp_path, monkeypatch):
        write_pinned_batches(tmp_path)
        self._after_stat(monkeypatch, lambda: os.truncate(tmp_path / "data_batch_2.bin",
                                                          CIFAR_RECORD))
        with pytest.raises(DataError, match=f"read {CIFAR_RECORD} of its {5 * CIFAR_RECORD}"):
            load_cifar10(tmp_path)

    def test_unreadable_batch_raises_data_error(self, tmp_path, monkeypatch):
        write_pinned_batches(tmp_path)
        batch = tmp_path / "test_batch.bin"
        self._after_stat(monkeypatch, lambda: (batch.unlink(), batch.mkdir()))
        with pytest.raises(DataError, match="cannot read CIFAR-10 batch"):
            load_cifar10(tmp_path)


class TestSynth:
    def test_sine_exact_when_noiseless(self):
        data = synth_regression("sine", 1000, 0.0, Rng(0))
        assert np.array_equal(data.targets[:, 0], np.sin(data.inputs[:, 0]))

    def test_deterministic(self):
        a = synth_regression("sine", 100, 0.1, Rng(3))
        b = synth_regression("sine", 100, 0.1, Rng(3))
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_noise_std_calibrated(self):
        data = synth_regression("cubic", 100_000, 0.1, Rng(5))
        resid = data.targets[:, 0] - data.inputs[:, 0] ** 3
        assert abs(resid.std() - 0.1) < 0.01

    def test_inputs_in_range(self):
        data = synth_regression("sine", 1000, 0.0, Rng(1))
        assert (np.abs(data.inputs) <= np.pi).all()


def example_net(seed=0):
    arch = build_mlp(4, 10, with_bias=True, with_skip=True, parametrization="MFP")
    return initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(seed))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = example_net()
        path = tmp_path / "a.ckpt"
        save_checkpoint(net, path, seed=42)
        loaded = load_checkpoint(path)
        assert struct.unpack_from("<Q", path.read_bytes(), 8) == (42,)
        assert loaded.arch == net.arch
        for k in net.store:
            assert np.array_equal(loaded.store[k], net.store[k])

    def test_save_load_save_idempotent(self, tmp_path):
        net = example_net()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1, seed=7)
        save_checkpoint(load_checkpoint(p1), p2, seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_preserved_on_round_trip(self, tmp_path):
        net = example_net(3)
        path = tmp_path / "c.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        xs = stream(9).normal(size=(100, 1))
        assert np.array_equal(forward_batch(loaded, xs), forward_batch(net, xs))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    # The arch JSON starts after the 21-byte header (magic, version, seed,
    # param code, JSON length), so byte 30 lies inside it. The first weight's
    # name follows the JSON, the weight count and the name length; its ndim
    # byte follows the name and the dtype byte, which is always 1 (float64).
    @pytest.mark.parametrize("where, value, match", [
        ("arch_json", 0xFF, "not UTF-8"),
        ("weight_name", 0xFF, "not UTF-8"),
        ("ndim", 0x50, "dimensions"),
        ("dtype", 0, "dtype code 0"),
        ("dtype", 7, "dtype code 7"),
    ])
    def test_hostile_bytes_raise_checkpoint_error(self, tmp_path, where, value, match):
        net = example_net()
        path = tmp_path / "h.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        name_at = 21 + int.from_bytes(raw[17:21], "little") + 4 + 2
        dtype_at = name_at + len(net.arch.weights[0].name)
        offset = {"arch_json": 30, "weight_name": name_at, "dtype": dtype_at,
                  "ndim": dtype_at + 1}[where]
        raw[offset] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        net = example_net()
        path = tmp_path / "e.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


    # The dims of the first weight follow its ndim byte; 0xFFFFFFFF there
    # declares a payload far larger than the file.
    def test_oversized_dims_report_truncation(self, tmp_path):
        net = example_net()
        path = tmp_path / "big.ckpt"
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        name_at = 21 + int.from_bytes(raw[17:21], "little") + 4 + 2
        dims_at = name_at + len(net.arch.weights[0].name) + 2
        raw[dims_at:dims_at + 4] = b"\xff" * 4
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_detected(self, tmp_path):
        net = example_net()
        path = tmp_path / "t.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(CheckpointError, match="3 trailing bytes"):
            load_checkpoint(path)

    # The payload is read against the arch: its weights, in its order, each
    # once. The header and arch JSON end at byte 21 + JSON length; the
    # weight count follows them. A second u once replaced the first.
    @pytest.mark.parametrize("edit, match", [
        (lambda ws: ws + [("extra", np.zeros(3))], "payload holds 9 weights, arch declares 8"),
        (lambda ws: ws + [("u", ws[0][1] + 1.0)], "payload holds 9 weights, arch declares 8"),
        (lambda ws: [ws[1], ws[0], *ws[2:]], "'bu' where the arch declares 'u'"),
    ], ids=["undeclared-weight", "repeated-u", "reordered"])
    def test_payload_must_match_the_arch(self, tmp_path, edit, match):
        net = example_net()
        path = tmp_path / "p.ckpt"
        save_checkpoint(net, path)
        raw = path.read_bytes()
        head = raw[:21 + int.from_bytes(raw[17:21], "little")]

        def payload(weights):
            out = [struct.pack("<I", len(weights))]
            for name, arr in weights:
                out += [struct.pack("<H", len(name)), name.encode(),
                        struct.pack(f"<BB{arr.ndim}I", 1, arr.ndim, *arr.shape), arr.tobytes()]
            return b"".join(out)

        weights = [(w.name, net.store[w.name]) for w in net.arch.weights]
        assert head + payload(weights) == raw
        path.write_bytes(head + payload(edit(weights)))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2.5, "7", True])
    def test_bad_seed_rejected_before_the_file_opens(self, tmp_path, seed):
        # The header's seed field holds exactly Rng's seeds: a negative seed
        # is not wrapped to 2**64 - 1, and a float or string is not cast.
        path = tmp_path / "w.ckpt"
        with pytest.raises(ParameterError, match="seed must be a 64-bit unsigned integer"):
            save_checkpoint(example_net(), path, seed=seed)
        assert not path.exists()
        path.write_bytes(b"old")
        with pytest.raises(ParameterError):
            save_checkpoint(example_net(), path, seed=seed)
        assert path.read_bytes() == b"old"

    def test_loaded_weights_are_owned_and_trainable(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(example_net(), path)
        loaded = load_checkpoint(path)
        for arr in loaded.store.values():
            assert arr.dtype == np.float64
            assert arr.flags.writeable and arr.flags.owndata
        data = synth_regression("sine", 16, 0.0, Rng(3))
        before = {k: v.copy() for k, v in loaded.store.items()}
        train(loaded, data, OptimizerState.create(loaded, lr=0.05), epochs=1,
              batch_size=16, rng=Rng(4))
        assert any(not np.array_equal(loaded.store[k], before[k]) for k in before)


def chain_net(seed=0, width=9):
    arch = build_mlp(3, width, with_bias=True, input_dim=4, output_dim=3, parametrization="MFP")
    return initialize(zeros_network(arch), nonzero_mean_default("MFP", arch), Rng(seed))


# SHA-256 of v1 checkpoint bytes: the format must not move.
CHECKPOINT_PINS = {
    ("chain", "f64"): "72f6ea95f8e558d3db6ec2884d0074b60e9b43689572a2f4fcc9c7981d4a60e3",
    ("skip4", "f64"): "51313b635be9eb9b01f6c1d5021ca017a90c8f92d094e46e0de2ff15cc751d69",
}


@pytest.mark.parametrize("case", list(CHECKPOINT_PINS), ids="-".join)
def test_checkpoint_bytes_pinned(tmp_path, case):
    topology, _ = case
    net = chain_net(6) if topology == "chain" else example_net(6)
    path = tmp_path / "p.ckpt"
    save_checkpoint(net, path, seed=2**64 - 3)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == CHECKPOINT_PINS[case]
    # Column-major weights are written in the same row-major bytes.
    fortran = Network(net.arch, {k: np.asfortranarray(v) for k, v in net.store.items()})
    save_checkpoint(fortran, tmp_path / "f.ckpt", seed=2**64 - 3)
    assert (tmp_path / "f.ckpt").read_bytes() == raw
    loaded = load_checkpoint(path)
    for k in net.store:
        assert loaded.store[k].tobytes() == net.store[k].tobytes()


class TestOverwrite:
    """A save over an existing file rewrites it in place and puts the magic
    in last."""

    @pytest.mark.parametrize("old_width, new_width", [(8, 40), (40, 8)],
                             ids=["big-over-small", "small-over-big"])
    def test_same_bytes_as_a_fresh_file(self, tmp_path, old_width, new_width):
        fresh, over = tmp_path / "fresh.ckpt", tmp_path / "over.ckpt"
        save_checkpoint(chain_net(1, old_width), over, seed=5)
        save_checkpoint(chain_net(0, new_width), over, seed=9)
        save_checkpoint(chain_net(0, new_width), fresh, seed=9)
        assert over.stat().st_size == fresh.stat().st_size
        assert over.read_bytes() == fresh.read_bytes()

    def test_interrupted_save_does_not_load(self, tmp_path, monkeypatch):
        path = tmp_path / "x.ckpt"
        save_checkpoint(chain_net(1, 20), path)
        old = path.read_bytes()
        net = chain_net(2, 20)
        payload = memoryview(net.store[net.arch.weights[0].name]).cast("B").tobytes()

        class FailsAfterFirstPayload(io.BufferedWriter):
            def write(self, b):
                n = super().write(b)
                if bytes(b) == payload:
                    raise OSError("stopped after the first payload")
                return n

        with monkeypatch.context() as m:
            m.setattr(data, "open", lambda fd, mode: FailsAfterFirstPayload(io.FileIO(fd, "w")),
                      raising=False)
            with pytest.raises(CheckpointError, match="cannot write checkpoint.*first payload"):
                save_checkpoint(net, path)
        raw = path.read_bytes()
        assert len(raw) == len(old) and raw[4:] != old[4:]
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_new_file_mode_follows_umask(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        save_checkpoint(example_net(), tmp_path / "new.ckpt")
        with open(tmp_path / "plain", "wb"):
            pass
        mode = (tmp_path / "new.ckpt").stat().st_mode
        assert mode == (tmp_path / "plain").stat().st_mode
        assert mode & 0o777 == 0o666 & ~umask

    def test_pipe_gets_the_file_bytes_in_order(self, tmp_path):
        net = example_net()
        save_checkpoint(net, tmp_path / "file.ckpt")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        save_checkpoint(net, fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [(tmp_path / "file.ckpt").read_bytes()]


class TestDataset:
    def test_classification_flag(self):
        d = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))
        assert d.classification
        r = Dataset(np.zeros((3, 1)), np.zeros((3, 1)))
        assert not r.classification
