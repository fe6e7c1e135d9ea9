"""Synthetic CIFAR-10 binary batches, seeded from the workload seed.

Records follow the cifar-10-batches-bin layout: one label byte, then 3072
pixel bytes (three 32x32 channel planes). Pixels are uniform bytes. The
label is the index of the largest of ten sums over disjoint random pixel
subsets, so it is a linear, learnable function of the pixels, classes are
balanced, and integer sums make the labels exact on any platform.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

PIXELS = 3072
CLASSES = 10


def pixel_groups(seed: int) -> np.ndarray:
    """The ten disjoint pixel subsets that define the labels for ``seed``."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 0xC1FA11]))
    subset = PIXELS // CLASSES
    return gen.permutation(PIXELS)[: subset * CLASSES].reshape(CLASSES, subset)


def label_of(pixels: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Labels of (n, 3072) uint8 pixel rows: the subset with the largest sum."""
    sums = pixels[:, groups].sum(axis=2, dtype=np.int64)
    return np.argmax(sums, axis=1).astype(np.uint8)


def write_cifar(directory: Path, seed: int, n_train: int, n_test: int,
                train_files: int = 2) -> None:
    """Write data_batch_1.bin .. data_batch_<train_files>.bin and test_batch.bin."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 0xC1FA10]))
    groups = pixel_groups(seed)

    def write(path: Path, n: int) -> None:
        pixels = gen.integers(0, 256, size=(n, PIXELS), dtype=np.uint8)
        labels = label_of(pixels, groups)
        path.write_bytes(np.concatenate([labels[:, None], pixels], axis=1).tobytes())

    per_file = -(-n_train // train_files)
    for i in range(train_files):
        n = min(per_file, n_train - i * per_file)
        write(directory / f"data_batch_{i + 1}.bin", n)
    write(directory / "test_batch.bin", n_test)
