"""Shared training-loop machinery: batch closures, epoch runner, evaluation
and batchnorm recalibration. The wall-clock budget is kept by
``harness.run_training``."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .data import augment
from .models import Model
from .optim import OptConfig, OptState, schedule_lr, train_step
from .tensor import ConfigError, ShapeError, Tensor, backward, smoothed_cross_entropy, tape


def make_closure(model: Model, xb: np.ndarray, yb: np.ndarray, ls_alpha: float):
    """Build the loss-recompute closure for one mini-batch.

    Each call zeroes the gradients of ``model.params``, runs the taped forward
    in train mode, applies smoothed cross-entropy, backpropagates, and returns
    the loss value.
    """
    k = model.spec.classes

    def closure() -> float:
        model.params.zero_grads()
        with tape():
            logits = model.forward(Tensor(xb, dtype=xb.dtype), mode="train")
            loss, _ = smoothed_cross_entropy(logits, yb, ls_alpha, k)
            backward(loss)
        return loss.item()

    return closure


def run_epoch(
    model: Model,
    state: OptState,
    cfg: OptConfig,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    ls_alpha: float,
    shuffle_seed: int,
    epoch: int,
    augment_rng: Optional[np.random.Generator] = None,
) -> float:
    """One pass over (images, labels) that updates ``model.params``; returns the mean batch loss.

    Batches are consecutive ``batch_size`` runs of a permutation seeded by ``[shuffle_seed, epoch]``.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if len(images) != len(labels):
        raise ShapeError(f"{len(images)} images but {len(labels)} labels")
    order = np.random.default_rng([shuffle_seed, epoch]).permutation(len(labels))
    losses = []
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        xb = images[idx]
        if augment_rng is not None:
            xb = augment(xb, augment_rng)
        lr = schedule_lr(cfg, state.step_index)
        loss = train_step(model.params, state, lr, cfg, make_closure(model, xb, labels[idx], ls_alpha))
        losses.append(loss)
    return float(np.mean(losses)) if losses else float("nan")


def evaluate(model: Model, images: np.ndarray, labels: np.ndarray, batch_size: int) -> float:
    """Top-1 accuracy in percent over consecutive ``batch_size`` slices of the
    arrays; logit ties break to the lowest class index."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if len(images) != len(labels):
        raise ShapeError(f"{len(images)} images but {len(labels)} labels")
    if len(labels) == 0:
        raise ValueError("evaluate: empty dataset")
    correct = 0
    for start in range(0, len(labels), batch_size):
        end = start + batch_size
        logits = model.forward(Tensor(images[start:end], dtype=images.dtype), mode="eval")
        pred = np.argmax(logits.data, axis=1)  # first max = lowest index on ties
        correct += int((pred == labels[start:end]).sum())
    return 100.0 * correct / len(labels)


def calibrate_batchnorm(model: Model, images: np.ndarray, batch_size: int) -> None:
    """Reset running stats and set them to the mean of per-batch statistics,
    over consecutive ``batch_size`` slices of ``images``.

    Momentum 1/(i+1) on batch i turns the running update into an arithmetic
    mean over the calibration pass.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    for st in model.bn_states():
        st.reset()
    for i, start in enumerate(range(0, len(images), batch_size)):
        batch = images[start : start + batch_size]
        model.forward(Tensor(batch, dtype=images.dtype), mode="train", bn_momentum=1.0 / (i + 1))
