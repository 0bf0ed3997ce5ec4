"""Shared training-loop machinery: batch closures, epoch runner, evaluation,
the wall-clock budget guard, and batchnorm recalibration."""

from __future__ import annotations

import time
from typing import Callable, Optional

import numpy as np

from .data import augment, batch_iterator
from .models import Model
from .optim import OptConfig, OptState, schedule_lr, train_step
from .tensor import Tensor, backward, smoothed_cross_entropy, tape


class BudgetClock:
    """End-to-end wall-clock guard, started at run begin (loading included).

    ``should_start(estimate)`` is the pre-block check: it refuses to start a
    work block whose predicted duration would overshoot the budget. The clock
    function is injectable so tests can drive time deterministically.
    """

    def __init__(self, budget_seconds: float, clock: Callable[[], float] = time.monotonic):
        if not budget_seconds > 0:  # NaN fails too
            raise ValueError(f"budget_seconds must be positive, got {budget_seconds}")
        self.budget = float(budget_seconds)
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        return self.budget - self.elapsed()

    def should_start(self, estimate: float) -> bool:
        return self.remaining() > estimate


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
    """One pass over (images, labels) that updates ``model.params``; returns the mean batch loss."""
    losses = []
    for idx in batch_iterator(len(labels), batch_size, shuffle=True, seed=shuffle_seed, epoch=epoch):
        xb = images[idx]
        if augment_rng is not None:
            xb = augment(xb, augment_rng)
        lr = schedule_lr(cfg, state.step_index)
        loss = train_step(model.params, state, lr, cfg, make_closure(model, xb, labels[idx], ls_alpha))
        losses.append(loss)
    return float(np.mean(losses)) if losses else float("nan")


def evaluate(model: Model, images: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
    """Top-1 accuracy in percent; logit ties break to the lowest class index."""
    if len(labels) == 0:
        raise ValueError("evaluate: empty dataset")
    correct = 0
    for idx in batch_iterator(len(labels), batch_size, shuffle=False, seed=0):
        logits = model.forward(Tensor(images[idx], dtype=images.dtype), mode="eval")
        pred = np.argmax(logits.data, axis=1)  # first max = lowest index on ties
        correct += int((pred == labels[idx]).sum())
    return 100.0 * correct / len(labels)


def calibrate_batchnorm(model: Model, images: np.ndarray, batch_size: int = 256) -> None:
    """Reset running stats and set them to the mean of per-batch statistics.

    Momentum 1/(i+1) on batch i turns the running update into an arithmetic
    mean over the calibration pass.
    """
    for st in model.bn_states():
        st.reset()
    for i, idx in enumerate(batch_iterator(len(images), batch_size, shuffle=False, seed=0)):
        model.forward(Tensor(images[idx], dtype=images.dtype), mode="train", bn_momentum=1.0 / (i + 1))
