"""Dataset ingestion (CIFAR-10 binary batches, synthetic 1-d regression) and
checkpoint serialization.

A CIFAR-10 split is read one batch file at a time straight into its one
float64 pixel array and int64 label array. Each file's rows are divided by
255 in contiguous blocks of at least 256 rows, one thread per usable CPU;
division is elementwise, so the arrays are bit-identical whatever the
thread count. Loading holds one copy of each split plus one file's raw
bytes and one cast buffer per thread.

Checkpoint layout (all little-endian, fixed regardless of host):
  magic "MFW1" | version u32=1 | seed u64 | parametrization u8 (0=SP, 1=muP,
  2=MFP) | arch-JSON length u32 + UTF-8 bytes | weight count u32 | per
  weight: name length u16 + UTF-8 name, dtype u8 (always 1: float64), ndim
  u8, dims u32 each, raw float64 values row-major. The weights are the
  arch's, in its order, each once.
A round trip is bit-exact.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arch import arch_from_json, arch_to_json
from .errors import CheckpointError, DataError, MissingDataError, ParameterError
from .net import Network
from .tensor import Rng, as_f64

CIFAR_RECORD = 3073  # 1 label byte + 3 x 1024 channel-major pixel bytes
CIFAR_INPUT_DIM = 3072
CIFAR_CLASSES = 10
_MIN_BLOCK_ROWS = 256  # a file of fewer rows is divided by the caller alone

_MAGIC = b"MFW1"
_VERSION = 1
_PARAM_CODE = {"SP": 0, "muP": 1, "MFP": 2}
_PARAM_NAME = {v: k for k, v in _PARAM_CODE.items()}
_F64_CODE = 1  # the dtype byte of every weight


@dataclass
class Dataset:
    """Inputs (n, d) float64; targets are int labels (n,) for classification
    or float arrays (n, d_y) for regression."""

    inputs: np.ndarray
    targets: np.ndarray
    split: str = ""

    @property
    def classification(self) -> bool:
        return np.issubdtype(self.targets.dtype, np.integer)


def _batch_records(path: Path) -> int:
    """The record count of one batch file: a regular file whose size is a
    positive multiple of CIFAR_RECORD, else ``DataError``."""
    try:
        st = path.stat()
    except OSError as exc:
        raise DataError(f"cannot read CIFAR-10 batch {path}: {exc}") from None
    if not stat.S_ISREG(st.st_mode):
        raise DataError(f"{path}: not a regular file")
    size = st.st_size
    if size == 0 or size % CIFAR_RECORD != 0:
        offset = (size // CIFAR_RECORD) * CIFAR_RECORD
        raise DataError(
            f"{path}: size {size} is not a positive multiple of {CIFAR_RECORD} "
            f"(truncated after byte {offset})"
        )
    return size // CIFAR_RECORD


def cifar10_files(directory) -> tuple[list[tuple[Path, int]], list[tuple[Path, int]]]:
    """The train batches data_batch_*.bin in sorted name order and
    test_batch.bin under ``directory``, each paired with its record count.
    ``MissingDataError`` if either is absent; ``DataError`` for a batch that
    is not a regular file or whose size is not a whole number of records."""
    directory = Path(directory)
    train_files = sorted(directory.glob("data_batch_*.bin"))
    test_file = directory / "test_batch.bin"
    if not train_files or not test_file.exists():
        raise MissingDataError(
            f"CIFAR-10 binary batches not found under {directory}. Place the "
            "cifar-10-batches-bin files (data_batch_1.bin .. data_batch_5.bin, "
            "test_batch.bin) there, or point MFGROW_CIFAR10_DIR at them. "
            "No download is attempted."
        )
    return ([(f, _batch_records(f)) for f in train_files],
            [(test_file, _batch_records(test_file))])


def _workers() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _divide_block(records: np.ndarray, out: np.ndarray) -> None:
    # The bytes convert exactly, to the floats of records[:, 1:] / 255.0.
    np.divide(records[:, 1:], 255.0, out=out)


def _divide_rows(records: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = records[:, 1:] / 255.0`` in contiguous row blocks: the
    caller divides the first, a pool thread each the others. An exception
    from any block is raised here once every pool thread has ended."""
    count = len(records)
    blocks = max(1, min(_workers(), count // _MIN_BLOCK_ROWS))
    bounds = [count * i // blocks for i in range(blocks + 1)]
    with ThreadPoolExecutor(max(1, blocks - 1)) as pool:
        rest = [pool.submit(_divide_block, records[a:b], out[a:b])
                for a, b in zip(bounds[1:-1], bounds[2:])]
        _divide_block(records[:bounds[1]], out[:bounds[1]])
    for block in rest:
        block.result()


def _load_split(files: list[tuple[Path, int]], split: str) -> Dataset:
    """Read ``files`` one at a time into one float64 pixel array and one
    int64 label array, both sized from the record counts."""
    n = sum(count for _, count in files)
    inputs = np.empty((n, CIFAR_INPUT_DIM))
    targets = np.empty(n, dtype=np.int64)
    start = 0
    for path, count in files:
        records = np.empty((count, CIFAR_RECORD), dtype=np.uint8)
        try:
            with open(path, "rb") as f:
                got = f.readinto(memoryview(records).cast("B"))
        except OSError as exc:
            raise DataError(f"cannot read CIFAR-10 batch {path}: {exc}") from None
        if got < records.nbytes:
            raise DataError(f"{path}: read {got} of its {records.nbytes} bytes")
        labels = records[:, 0]
        if labels.max() >= CIFAR_CLASSES:
            bad = int(np.argmax(labels >= CIFAR_CLASSES))
            raise DataError(f"{path}: record {bad} has label {labels[bad]} >= {CIFAR_CLASSES}")
        stop = start + count
        targets[start:stop] = labels
        _divide_rows(records, inputs[start:stop])
        start = stop
    return Dataset(inputs, targets, split=split)


def load_cifar10(directory) -> tuple[Dataset, Dataset]:
    """Load the standard binary batches from a directory: the train files
    data_batch_*.bin in sorted name order, then test_batch.bin. Pixels are
    scaled to [0, 1]. Each split is one float64 array filled file by file;
    a file's rows are divided in parallel blocks of at least 256 rows, one
    thread per usable CPU, and the result is bit-identical whatever the
    count. Loading holds the result plus one file's bytes and one cast
    buffer per thread."""
    train_files, test_files = cifar10_files(directory)
    return _load_split(train_files, "train"), _load_split(test_files, "test")


_SYNTH_FUNCS = {
    "sine": np.sin,
    "cubic": lambda x: x**3,
}


def synth_regression(kind: str, n: int, noise_std: float, rng: Rng,
                     split: str = "train") -> Dataset:
    """1-d regression: x ~ uniform(-pi, pi), y = g(x) + gaussian noise."""
    if kind not in _SYNTH_FUNCS:
        raise ParameterError(f"unknown synthetic kind {kind!r}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if noise_std < 0:
        raise ParameterError(f"noise_std must be >= 0, got {noise_std}")
    gen = rng.substream(f"synth/{kind}/{split}")
    x = gen.uniform(-math.pi, math.pi, size=n)
    y = _SYNTH_FUNCS[kind](x)
    if noise_std > 0:
        y = y + noise_std * gen.normal(size=n)
    return Dataset(x[:, None], y[:, None], split=split)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(net: Network, path, seed: int = 0) -> None:
    """Write ``net`` in the v1 layout above.

    Every weight is checked before the file is opened. The payloads then
    stream out one weight at a time: a C-contiguous float64 weight is written
    straight from its buffer, and any other is converted alone, so no copy
    of the whole network is ever held.

    An existing regular file is overwritten in place, not truncated first:
    truncating a file to zero and rewriting it makes ext4 flush it on close.
    The magic goes in last, after the file is cut to the written length, so
    a save that stops partway leaves a file that ``load_checkpoint`` rejects.
    Other targets (``/dev/null``, a pipe) get the bytes in order.
    """
    for w in net.arch.weights:
        if any(d >= 2**32 for d in np.shape(net.store[w.name])):
            raise CheckpointError(f"weight {w.name}: dimension overflow")
    arch_json = arch_to_json(net.arch).encode("utf-8")
    try:
        # No O_TRUNC; the mode and umask rules are those of open(path, "wb").
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
            f.write(b"\0" * len(_MAGIC) if regular else _MAGIC)
            f.write(struct.pack("<I", _VERSION))
            f.write(struct.pack("<Q", int(seed) & (2**64 - 1)))
            f.write(struct.pack("<B", _PARAM_CODE[net.parametrization]))
            f.write(struct.pack("<I", len(arch_json)))
            f.write(arch_json)
            f.write(struct.pack("<I", len(net.arch.weights)))
            for w in net.arch.weights:
                arr = np.ascontiguousarray(net.store[w.name], dtype="<f8")
                name = w.name.encode("utf-8")
                f.write(struct.pack("<H", len(name)))
                f.write(name)
                f.write(struct.pack("<BB", _F64_CODE, arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(memoryview(arr).cast("B"))
            if regular:
                f.truncate()  # flushes, then cuts at the written length
                f.seek(0)
                f.write(_MAGIC)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from None


class _Reader:
    """Reads a checkpoint field by field from an open file, checking every
    length against the bytes left before reading or allocating."""

    def __init__(self, f, size: int, path):
        self.f = f
        self.size = size
        self.pos = 0
        self.path = path

    def _claim(self, n: int) -> None:
        if self.pos + n > self.size:
            raise CheckpointError(f"{self.path}: truncated at byte {self.pos}")

    def _advance(self, got: int, n: int) -> None:
        if got != n:  # the file shrank after it was opened
            raise CheckpointError(f"{self.path}: truncated at byte {self.pos}")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.f.read(n)
        self._advance(len(out), n)
        return out

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        """A new little-endian float64 array of ``shape`` filled straight
        from the file."""
        nbytes = math.prod(shape) * 8
        self._claim(nbytes)
        arr = np.empty(shape, dtype="<f8")
        self._advance(self.f.readinto(memoryview(arr).cast("B")), nbytes)
        return arr

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def text(self, n: int) -> str:
        start = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: bytes at {start} are not UTF-8: {exc}") from exc


def load_checkpoint(path) -> Network:
    """Read a v1 checkpoint. The payload must hold the arch's weights in the
    arch's order, each once and of its declared shape. Every weight comes back
    as its own writeable float64 array, read from the file without an
    intermediate copy."""
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    with f:
        r = _Reader(f, os.fstat(f.fileno()).st_size, path)
        if r.take(4) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        version = r.unpack("<I")
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        r.unpack("<Q")  # the seed, which nothing reads back
        param_code = r.unpack("<B")
        if param_code not in _PARAM_NAME:
            raise CheckpointError(f"{path}: unknown parametrization code {param_code}")
        arch_len = r.unpack("<I")
        arch = arch_from_json(r.text(arch_len))
        if arch.parametrization != _PARAM_NAME[param_code]:
            raise CheckpointError(f"{path}: parametrization byte disagrees with arch JSON")
        count = r.unpack("<I")
        if count != len(arch.weights):
            raise CheckpointError(
                f"{path}: payload holds {count} weights, arch declares {len(arch.weights)}")
        store: dict[str, np.ndarray] = {}
        for w in arch.weights:
            name = r.text(r.unpack("<H"))
            if name != w.name:
                raise CheckpointError(f"{path}: payload weight {name!r} where the arch "
                                      f"declares {w.name!r}")
            dtype_code = r.unpack("<B")
            if dtype_code != _F64_CODE:
                raise CheckpointError(f"{path}: weight {name}: dtype code {dtype_code}, "
                                      f"expected {_F64_CODE} (float64)")
            ndim = r.unpack("<B")
            if ndim not in (1, 2):
                raise CheckpointError(f"{path}: weight {name}: {ndim} dimensions, expected 1 or 2")
            shape = tuple(r.unpack("<I") for _ in range(ndim))
            store[name] = as_f64(r.array(shape))
            if shape != w.shape:
                raise CheckpointError(
                    f"{path}: weight {name} has shape {shape}, arch says {w.shape}")
        if r.pos != r.size:
            raise CheckpointError(f"{path}: {r.size - r.pos} trailing bytes")
    return Network(arch, store)
