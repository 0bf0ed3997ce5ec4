"""Seeded, class-structured synthetic images in the CIFAR-10 binary format.

Each class has its own dominant colour plane and stripe frequencies, so a
small network can learn the labels; Gaussian noise keeps the task non-trivial.
The same seed always gives the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from minitrain.data import NUM_CLASSES, Dataset, write_cifar_binary

NOISE = 60.0  # standard deviation of the Gaussian pixel noise


def make_dataset(per_class: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:32, 0:32]
    bases = np.zeros((NUM_CLASSES, 3, 32, 32))
    for c in range(NUM_CLASSES):
        bases[c, c % 3] = 110.0 + 12.0 * c
        bases[c] += 40.0 * np.sin(xx * (c + 1) / 4.0)
        bases[c] += 25.0 * np.cos(yy * ((c % 5) + 1) / 3.0)
    labels = rng.permutation(np.repeat(np.arange(NUM_CLASSES), per_class))
    images = bases[labels] + rng.normal(0.0, NOISE, size=(labels.size, 3, 32, 32))
    return Dataset(images=np.clip(images, 0, 255).astype(np.uint8), labels=labels.astype(np.int64))


def write_dataset_dir(directory, train_per_class: int, test_per_class: int, seed: int) -> Path:
    """Write ``data_batch_1.bin`` and ``test_batch.bin`` under ``directory``."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    train_seed, test_seed = np.random.SeedSequence(seed).generate_state(2)
    write_cifar_binary(make_dataset(train_per_class, int(train_seed)), d / "data_batch_1.bin")
    write_cifar_binary(make_dataset(test_per_class, int(test_seed)), d / "test_batch.bin")
    return d
