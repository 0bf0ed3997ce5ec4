"""Test data: class-structured synthetic images, and real CIFAR-10 when present.

A plain module rather than part of ``conftest.py``, so test files import it
by a name no other suite's ``conftest`` shadows.
"""

import os

import numpy as np

from minitrain.data import Dataset


def make_synthetic_dataset(per_class: int, seed: int, noise: float = 60.0) -> Dataset:
    """Class-structured random images in the CIFAR-10 layout.

    Each class gets a distinct dominant color plane and stripe frequency so a
    small network can actually learn the labels; noise keeps it non-trivial.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:32, 0:32]
    images, labels = [], []
    for c in range(10):
        base = np.zeros((3, 32, 32))
        base[c % 3] = 110.0 + 12.0 * c
        base += 40.0 * np.sin(xx * (c + 1) / 4.0)
        base += 25.0 * np.cos(yy * ((c % 5) + 1) / 3.0)
        for _ in range(per_class):
            img = base + rng.normal(0.0, noise, size=(3, 32, 32))
            images.append(np.clip(img, 0, 255).astype(np.uint8))
            labels.append(c)
    return Dataset(images=np.array(images), labels=np.array(labels, dtype=np.int64))


def find_real_cifar():
    """Locate real CIFAR-10 binary batches, if the environment provides them."""
    candidates = []
    if os.environ.get("CIFAR_DIR"):
        candidates.append(os.environ["CIFAR_DIR"])
    candidates.append(os.path.join(os.path.dirname(__file__), "data", "cifar-10-batches-bin"))
    for c in candidates:
        if os.path.isdir(c) and any(f.startswith("data_batch") for f in os.listdir(c)):
            return c
    return None
