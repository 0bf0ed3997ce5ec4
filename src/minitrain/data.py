"""CIFAR-10 binary ingestion, class-balanced subsetting, normalization,
augmentation, and PCA patch-whitening filter fitting.

The input format is the public CIFAR-10 binary layout: 3073-byte records,
1 label byte followed by 3072 pixel bytes in planar R,G,B row-major order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tensor import ConfigError

RECORD_BYTES = 3073
NUM_CLASSES = 10
AUGMENT_PAD = 4  # pixels of reflect padding that a random crop can shift by
_STD_FLOOR = 1e-8


class DataFormatError(ValueError):
    """Input bytes do not parse as CIFAR-10 binary records."""


@dataclass
class Dataset:
    """Raw-byte image store; pixels stay uint8 until normalization. ``images``
    may be a strided view of the loaded records; every consumer copies it."""

    images: np.ndarray  # uint8 [M, 3, 32, 32]
    labels: np.ndarray  # int64 [M]
    split: str = "train"
    source_digest: str = ""

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )

    def __len__(self):
        return int(self.labels.shape[0])


def load_cifar_binary(paths: Sequence, split: str = "train") -> Dataset:
    """Parse one or more CIFAR-10 binary batch files into a Dataset.

    Each file is read into its rows of one record array, where its labels are
    checked and its bytes hashed; ``images`` is a view of that array."""
    paths = [Path(p) for p in paths]
    if not paths:
        raise DataFormatError("no input files given")
    sizes = [p.stat().st_size for p in paths]
    records = np.empty((sum(sizes) // RECORD_BYTES, RECORD_BYTES), dtype=np.uint8)
    digest, end = hashlib.sha256(), 0
    for p, size in zip(paths, sizes):
        if not size or size % RECORD_BYTES:
            raise DataFormatError(f"{p}: length {size} is not a positive multiple of {RECORD_BYTES}")
        start, end = end, end + size // RECORD_BYTES
        rec = records[start:end]
        with open(p, "rb") as fh:
            if fh.readinto(rec) != size:
                raise DataFormatError(f"{p}: file shrank while it was read")
        bad = np.nonzero(rec[:, 0] >= NUM_CLASSES)[0]
        if bad.size:
            raise DataFormatError(f"{p}: record {bad[0]} has label byte {rec[bad[0], 0]} > {NUM_CLASSES - 1}")
        digest.update(rec)
    return Dataset(records[:, 1:].reshape(-1, 3, 32, 32), records[:, 0].astype(np.int64), split, digest.hexdigest())


def write_cifar_binary(ds: Dataset, path) -> None:
    """Inverse of load_cifar_binary; used for fixtures and round-trip checks."""
    recs = np.empty((len(ds), RECORD_BYTES), dtype=np.uint8)
    recs[:, 0] = ds.labels
    recs[:, 1:] = ds.images.reshape(len(ds), 3072)
    Path(path).write_bytes(recs.tobytes())


def sample_subset(ds: Dataset, per_class: int, seed: int) -> Dataset:
    """Draw a class-balanced subset without replacement; order is shuffled."""
    rng = np.random.default_rng(seed)
    picked = []
    for c in range(NUM_CLASSES):
        members = np.nonzero(ds.labels == c)[0]
        if members.size < per_class:
            raise ConfigError(f"per_class {per_class} is more than the {members.size} "
                              f"images of class {c}")
        picked.append(rng.choice(members, size=per_class, replace=False))
    idx = np.concatenate(picked)
    rng.shuffle(idx)
    return Dataset(
        images=ds.images[idx],  # fancy indexing already copies
        labels=ds.labels[idx],
        split=ds.split,
        source_digest=ds.source_digest,
    )


@dataclass
class NormStats:
    """Per-channel mean/std of x/255, frozen from the training subset."""

    mean: np.ndarray  # [3]
    std: np.ndarray  # [3]

    @classmethod
    def fit(cls, ds: Dataset) -> "NormStats":
        x = ds.images.astype(np.float64)
        x /= 255.0
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        x -= mean  # the steps of x.std, in place: centre, square, mean, root
        x *= x
        return cls(mean=mean.reshape(3), std=np.maximum(np.sqrt(x.mean(axis=(0, 2, 3))), _STD_FLOOR))

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}


def normalize(images: np.ndarray, stats: NormStats, dtype=np.float32) -> np.ndarray:
    """uint8 [.,3,32,32] -> float, per-channel standardized."""
    x = images.astype(dtype)
    x /= dtype(255.0)
    x -= stats.mean.astype(dtype).reshape(1, 3, 1, 1)
    x /= stats.std.astype(dtype).reshape(1, 3, 1, 1)
    return x


def augment(batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Reflect-pad by AUGMENT_PAD, random 32x32 crop, horizontal flip with p=0.5, per image."""
    n, c, h, w = batch.shape
    padded = np.pad(batch, ((0, 0), (0, 0), (AUGMENT_PAD,) * 2, (AUGMENT_PAD,) * 2), mode="reflect")
    offs = rng.integers(0, 2 * AUGMENT_PAD + 1, size=(n, 2))
    flips = rng.random(n) < 0.5
    windows = np.lib.stride_tricks.sliding_window_view(padded, (h, w), axis=(2, 3))  # [n, c, oy, ox, h, w]
    out = windows[np.arange(n), :, offs[:, 0], offs[:, 1]]
    out[flips] = out[flips, :, :, ::-1]
    return out


@dataclass
class WhiteningFilters:
    """PCA whitening of 3x3x3 patches, laid out as a fixed conv kernel bank."""

    filters: np.ndarray  # [27, 3, 3, 3]
    eigvals: np.ndarray  # [27], descending
    eps: float
    fit_digest: str

    def __post_init__(self):
        if np.any(np.diff(self.eigvals) > 1e-12):
            raise ValueError("whitening eigenvalues must be sorted descending")


def extract_patches(images: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random 3x3 patches from normalized images, flattened to [count, 27]."""
    n, c, h, w = images.shape
    idx = rng.integers(0, n, size=count)
    ys = rng.integers(0, h - 2, size=count)
    xs = rng.integers(0, w - 2, size=count)
    windows = np.lib.stride_tricks.sliding_window_view(images, (3, 3), axis=(2, 3))
    return windows[idx, :, ys, xs].reshape(count, c * 9).astype(np.float64, copy=False)


def fit_whitening(
    images: np.ndarray,
    sample_patches: int = 100_000,
    eps: float = 1e-3,
    seed: int = 0,
) -> WhiteningFilters:
    """Fit PCA whitening filters on random 3x3 patches of normalized images.

    Covariance of mean-centered flattened patches is eigendecomposed; filter
    row i is v_i / sqrt(l_i + eps) in descending eigenvalue order.
    """
    if sample_patches < 27:
        raise ConfigError(f"need at least 27 patches, got {sample_patches}")
    rng = np.random.default_rng(seed)
    patches = extract_patches(images, sample_patches, rng)
    centered = patches - patches.mean(axis=0)
    cov = centered.T @ centered / sample_patches
    if not np.isfinite(cov).all():
        raise ValueError("whitening covariance is not finite")
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    filters = (eigvecs / np.sqrt(eigvals + eps)).T.reshape(27, 3, 3, 3)
    digest = hashlib.sha256(patches.tobytes()).hexdigest()
    return WhiteningFilters(filters=filters, eigvals=eigvals, eps=eps, fit_digest=digest)

