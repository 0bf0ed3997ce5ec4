"""CIFAR-10 binary ingestion, class-balanced subsetting, normalization,
augmentation, batching, and PCA patch-whitening filter fitting.

The input format is the public CIFAR-10 binary layout: 3073-byte records,
1 label byte followed by 3072 pixel bytes in planar R,G,B row-major order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .tensor import ConfigError

RECORD_BYTES = 3073
NUM_CLASSES = 10
_STD_FLOOR = 1e-8


class DataFormatError(ValueError):
    """Input bytes do not parse as CIFAR-10 binary records."""


@dataclass
class Dataset:
    """Raw-byte image store; pixels stay uint8 until normalization."""

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
    """Parse one or more CIFAR-10 binary batch files into a Dataset."""
    paths = [Path(p) for p in paths]
    if not paths:
        raise DataFormatError("no input files given")
    digest = hashlib.sha256()
    images, labels = [], []
    for p in paths:
        raw = p.read_bytes()
        if not raw or len(raw) % RECORD_BYTES != 0:
            raise DataFormatError(
                f"{p}: length {len(raw)} is not a positive multiple of {RECORD_BYTES}"
            )
        digest.update(raw)
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
        lab = arr[:, 0].astype(np.int64)
        bad = np.nonzero(lab > 9)[0]
        if bad.size:
            idx = int(bad[0])
            raise DataFormatError(f"{p}: record {idx} has label byte {lab[idx]} > 9")
        labels.append(lab)
        images.append(arr[:, 1:].reshape(-1, 3, 32, 32))
    return Dataset(
        images=np.concatenate(images),
        labels=np.concatenate(labels),
        split=split,
        source_digest=digest.hexdigest(),
    )


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
        x = ds.images.astype(np.float64) / 255.0
        mean = x.mean(axis=(0, 2, 3))
        std = np.maximum(x.std(axis=(0, 2, 3)), _STD_FLOOR)
        return cls(mean=mean, std=std)

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}


def normalize(images: np.ndarray, stats: NormStats, dtype=np.float32) -> np.ndarray:
    """uint8 [.,3,32,32] -> float, per-channel standardized."""
    x = images.astype(dtype) / dtype(255.0)
    mean = stats.mean.astype(dtype).reshape(1, 3, 1, 1)
    std = stats.std.astype(dtype).reshape(1, 3, 1, 1)
    return (x - mean) / std


def augment(batch: np.ndarray, rng: np.random.Generator, pad: int = 4) -> np.ndarray:
    """Reflect-pad, random 32x32 crop, horizontal flip with p=0.5, per image."""
    n, c, h, w = batch.shape
    padded = np.pad(batch, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="reflect")
    offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
    flips = rng.random(n) < 0.5
    out = np.empty_like(batch)
    for i in range(n):
        oy, ox = offs[i]
        img = padded[i, :, oy : oy + h, ox : ox + w]
        out[i] = img[:, :, ::-1] if flips[i] else img
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
    patches = extract_patches(np.asarray(images, dtype=np.float64), sample_patches, rng)
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


def batch_iterator(
    m: int, batch_size: int, shuffle: bool, seed: int, epoch: int = 0
) -> Iterator[np.ndarray]:
    """Yield index batches covering 0..m-1 exactly once; order seeded per epoch."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    idx = np.arange(m)
    if shuffle:
        np.random.default_rng([seed, epoch]).shuffle(idx)
    for start in range(0, m, batch_size):
        yield idx[start : start + batch_size]
