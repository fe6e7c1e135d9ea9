"""Dataset ingestion (CIFAR-10 binary batches, synthetic 1-d regression) and
checkpoint serialization.

Checkpoint layout (all little-endian, fixed regardless of host):
  magic "MFW1" | version u32=1 | seed u64 | parametrization u8 (0=SP, 1=muP,
  2=MFP) | arch-JSON length u32 + UTF-8 bytes | weight count u32 | per
  weight: name length u16 + UTF-8 name, dtype u8 (0=f32, 1=f64), ndim u8,
  dims u32 each, raw values row-major.
A float64 round trip is bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
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

_MAGIC = b"MFW1"
_VERSION = 1
_PARAM_CODE = {"SP": 0, "muP": 1, "MFP": 2}
_PARAM_NAME = {v: k for k, v in _PARAM_CODE.items()}
_DTYPE_CODE = {"f32": 0, "f64": 1}


@dataclass
class Dataset:
    """Inputs (n, d) float64; targets are int labels (n,) for classification
    or float arrays (n, d_y) for regression."""

    inputs: np.ndarray
    targets: np.ndarray
    split: str = ""

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def classification(self) -> bool:
        return np.issubdtype(self.targets.dtype, np.integer)


def _parse_cifar_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = path.read_bytes()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
        offset = (len(raw) // CIFAR_RECORD) * CIFAR_RECORD
        raise DataError(
            f"{path}: size {len(raw)} is not a positive multiple of {CIFAR_RECORD} "
            f"(truncated after byte {offset})"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) >= CIFAR_CLASSES:
        bad = int(np.argmax(labels >= CIFAR_CLASSES))
        raise DataError(f"{path}: record {bad} has label {labels[bad]} >= {CIFAR_CLASSES}")
    pixels = records[:, 1:] / 255.0  # one float64 array; the bytes convert exactly
    return pixels, labels


def load_cifar10(directory) -> tuple[Dataset, Dataset]:
    """Load the standard binary batches from a directory: train files
    data_batch_*.bin concatenated in sorted name order, plus test_batch.bin.
    Pixels are scaled to [0, 1]."""
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
    xs, ys = [], []
    for f in train_files:
        px, lb = _parse_cifar_file(f)
        xs.append(px)
        ys.append(lb)
    train = Dataset(np.concatenate(xs), np.concatenate(ys), split="train")
    # Free the per-file arrays before the test file is parsed, so the test
    # set never sits beside both copies of the train set.
    del xs, ys, px, lb
    px, lb = _parse_cifar_file(test_file)
    test = Dataset(px, lb, split="test")
    return train, test


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


def save_checkpoint(net: Network, path, seed: int = 0, dtype: str = "f64") -> None:
    """Write ``net`` in the v1 layout above.

    Every weight is checked before the file is opened. The payloads then
    stream out one weight at a time: a C-contiguous float64 weight is written
    straight from its buffer, and any other (or any weight under
    ``dtype="f32"``) is converted alone, so no copy of the whole network is
    ever held.
    """
    if dtype not in _DTYPE_CODE:
        raise ParameterError(f"unknown checkpoint dtype {dtype!r}")
    for w in net.arch.weights:
        if any(d >= 2**32 for d in np.shape(net.store[w.name])):
            raise CheckpointError(f"weight {w.name}: dimension overflow")
    arch_json = arch_to_json(net.arch).encode("utf-8")
    np_dtype = "<f4" if dtype == "f32" else "<f8"
    try:
        f = open(path, "wb")
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from None
    with f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<Q", int(seed) & (2**64 - 1)))
        f.write(struct.pack("<B", _PARAM_CODE[net.parametrization]))
        f.write(struct.pack("<I", len(arch_json)))
        f.write(arch_json)
        f.write(struct.pack("<I", len(net.arch.weights)))
        for w in net.arch.weights:
            arr = np.ascontiguousarray(net.store[w.name], dtype=np_dtype)
            name = w.name.encode("utf-8")
            f.write(struct.pack("<H", len(name)))
            f.write(name)
            f.write(struct.pack("<BB", _DTYPE_CODE[dtype], arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(memoryview(arr).cast("B"))


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

    def array(self, shape: tuple[int, ...], np_dtype: str) -> np.ndarray:
        """A new array of ``shape`` filled straight from the file."""
        nbytes = math.prod(shape) * np.dtype(np_dtype).itemsize
        self._claim(nbytes)
        arr = np.empty(shape, dtype=np_dtype)
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
    """Read a v1 checkpoint. Every weight comes back as its own writeable
    float64 array, read from the file without an intermediate copy."""
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
        seed = r.unpack("<Q")
        param_code = r.unpack("<B")
        if param_code not in _PARAM_NAME:
            raise CheckpointError(f"{path}: unknown parametrization code {param_code}")
        arch_len = r.unpack("<I")
        arch = arch_from_json(r.text(arch_len))
        if arch.parametrization != _PARAM_NAME[param_code]:
            raise CheckpointError(f"{path}: parametrization byte disagrees with arch JSON")
        count = r.unpack("<I")
        store: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = r.unpack("<H")
            name = r.text(name_len)
            dtype_code = r.unpack("<B")
            if dtype_code not in (0, 1):
                raise CheckpointError(f"{path}: weight {name}: unknown dtype code {dtype_code}")
            ndim = r.unpack("<B")
            if ndim not in (1, 2):
                raise CheckpointError(f"{path}: weight {name}: {ndim} dimensions, expected 1 or 2")
            shape = tuple(r.unpack("<I") for _ in range(ndim))
            store[name] = as_f64(r.array(shape, "<f4" if dtype_code == 0 else "<f8"))
        if r.pos != r.size:
            raise CheckpointError(f"{path}: {r.size - r.pos} trailing bytes")
    net = Network(arch, store, meta={"seed": seed})
    net.arch.validate()
    for w in arch.weights:
        if w.name not in store:
            raise CheckpointError(f"{path}: arch declares weight {w.name} but data is missing")
        if tuple(store[w.name].shape) != w.shape:
            raise CheckpointError(
                f"{path}: weight {w.name} has shape {store[w.name].shape}, arch says {w.shape}"
            )
    return net
