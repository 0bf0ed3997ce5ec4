"""Two-task meta-learning: split the subset into class-balanced halves, adapt
the shared weights on each task for one epoch (``train.run_epoch`` on the
run's optimizer state, with its velocity zeroed), and pull the shared weights
toward the mean of the adapted weights (first-order interpolation, as in
Reptile).

``split_tasks`` returns one index array per task into the normalized images
and labels. ``mltp_train`` runs one meta-round, slicing one task at a time;
the budgeted loop over rounds, the batchnorm calibration after each round and
the evaluation live in ``harness.run_training``, which holds the one
``OptState`` that epochs and rounds share.
"""

from __future__ import annotations

import logging

import numpy as np

from .models import Model, ParamSet
from .optim import OptConfig, OptState
from .tensor import ShapeError
from .train import run_epoch
# Unused here, but perfbench/spans.py wraps these names on this module.
from .optim import train_step  # noqa: F401
from .train import calibrate_batchnorm, make_closure  # noqa: F401

log = logging.getLogger(__name__)

NUM_TASKS = 2


def split_tasks(labels: np.ndarray, seed: int) -> list[np.ndarray]:
    """Split sample indices into two disjoint class-balanced tasks; odd remainders are dropped."""
    rng = np.random.default_rng(seed)
    per_task: list[list[np.ndarray]] = [[] for _ in range(NUM_TASKS)]
    for c in np.unique(labels):
        members = np.nonzero(labels == c)[0]
        if members.size < NUM_TASKS:
            raise ValueError(f"class {c} has only {members.size} samples, need {NUM_TASKS}")
        rng.shuffle(members)
        quota = members.size // NUM_TASKS
        if quota * NUM_TASKS != members.size:
            log.warning("class %d: dropping %d samples to balance the split",
                        c, members.size - quota * NUM_TASKS)
        for t in range(NUM_TASKS):
            per_task[t].append(members[t * quota : (t + 1) * quota])
    tasks = [np.concatenate(parts) for parts in per_task]
    for idx in tasks:
        rng.shuffle(idx)
    return tasks


def inner_loop(
    model: Model,
    state: OptState,
    cfg: OptConfig,
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    ls_alpha: float,
    shuffle_seed: int,
    epoch: int,
) -> tuple[dict[str, np.ndarray], float]:
    """Adapt the shared weights by one epoch on one task, from ``state.step_index`` on.

    Takes the arguments of ``train.run_epoch`` and never augments. The
    velocity is zeroed first, so momentum starts fresh for every adaptation;
    ``state.step_index`` advances by the epoch's steps. ``model.params`` are
    restored bit-exactly on every exit, an ``OptimizerAbort`` mid-task
    included; only the adapted values and the mean batch loss leave this
    function. The batchnorm running stats keep what the train-mode forwards
    wrote: no train-mode forward reads them, and ``harness.run_training``
    recalibrates them after every round.
    """
    params = model.params
    shared = params.snapshot()
    for v in state.velocity.values():
        v.fill(0)
    try:
        loss = run_epoch(model, state, cfg, images, labels, batch_size, ls_alpha,
                         shuffle_seed=shuffle_seed, epoch=epoch)
        adapted = params.snapshot()
    finally:
        params.load(shared)
    return adapted, loss


def meta_update(params: ParamSet, adapted: list[dict[str, np.ndarray]], beta: float) -> float:
    """Pull shared weights toward the adapted sets: w += beta * mean(w_t - w).

    Returns the L2 norm of the applied delta.
    """
    sq = 0.0
    for e in params:
        deltas = []
        for a in adapted:
            if a[e.name].shape != e.tensor.shape:
                raise ShapeError(f"meta_update: {e.name} shape {a[e.name].shape} != {e.tensor.shape}")
            deltas.append(a[e.name] - e.tensor.data)
        step = beta * np.mean(deltas, axis=0)
        e.tensor.data += step
        sq += float(np.vdot(step, step))
    return float(np.sqrt(sq))


def mltp_train(
    model: Model,
    state: OptState,
    cfg: OptConfig,
    images: np.ndarray,
    labels: np.ndarray,
    tasks: list[np.ndarray],
    batch_size: int,
    ls_alpha: float,
    beta: float,
    rnd: int,
) -> list[float]:
    """Run meta-round ``rnd``: adapt ``model.params`` on each task, then interpolate.

    A task is an index array into ``images`` and ``labels``, as ``split_tasks``
    returns; only the task being adapted on is sliced out. Every task starts
    at the round's first ``state.step_index``, and the round leaves the
    counter one task-epoch on, so the shared schedule moves as it does for an
    epoch over one task. Returns the mean inner loss of each task.
    """
    start = state.step_index
    adapted, task_losses = [], []
    for t, idx in enumerate(tasks):
        state.step_index = start
        a, loss = inner_loop(model, state, cfg, images[idx], labels[idx], batch_size, ls_alpha,
                             shuffle_seed=1000 + t, epoch=rnd * 1000)
        adapted.append(a)
        task_losses.append(loss)
    meta_update(model.params, adapted, beta)
    return task_losses
