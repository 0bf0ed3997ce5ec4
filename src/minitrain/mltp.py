"""Two-task meta-learning: split the subset into class-balanced halves, adapt
the shared weights on each task for one epoch (``train.run_epoch`` with fresh
momentum), and pull the shared weights toward the mean of the adapted weights
(first-order interpolation, as in Reptile).

``split_tasks`` returns one index array per task, with which the caller
slices its normalized images and labels. ``mltp_train`` runs one meta-round;
the budgeted loop over rounds, the batchnorm calibration after each round and
the evaluation live in ``harness.run_training``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .models import Model, ParamSet
from .optim import OptConfig, OptState
from .tensor import ConfigError, ShapeError
from .train import run_epoch
# Unused here, but perfbench/spans.py wraps these names on this module.
from .optim import train_step  # noqa: F401
from .train import calibrate_batchnorm, make_closure  # noqa: F401

log = logging.getLogger(__name__)


@dataclass
class MltpConfig:
    inner_opt: OptConfig
    beta: float = 0.5  # outer interpolation rate
    batch_size: int = 256
    ls_alpha: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0,1], got {self.beta}")


def split_tasks(labels: np.ndarray, seed: int, num_tasks: int = 2) -> list[np.ndarray]:
    """Split sample indices into disjoint class-balanced tasks; odd remainders are dropped."""
    rng = np.random.default_rng(seed)
    per_task: list[list[np.ndarray]] = [[] for _ in range(num_tasks)]
    for c in np.unique(labels):
        members = np.nonzero(labels == c)[0]
        if members.size < num_tasks:
            raise ValueError(f"class {c} has only {members.size} samples, need {num_tasks}")
        rng.shuffle(members)
        quota = members.size // num_tasks
        if quota * num_tasks != members.size:
            log.warning("class %d: dropping %d samples to balance the split",
                        c, members.size - quota * num_tasks)
        for t in range(num_tasks):
            per_task[t].append(members[t * quota : (t + 1) * quota])
    tasks = [np.concatenate(parts) for parts in per_task]
    for idx in tasks:
        rng.shuffle(idx)
    return tasks


def inner_loop(
    model: Model,
    images: np.ndarray,
    labels: np.ndarray,
    cfg: MltpConfig,
    step_offset: int = 0,
    epoch: int = 0,
    shuffle_seed: int = 0,
) -> tuple[dict[str, np.ndarray], float]:
    """Adapt the shared weights by one epoch on one task.

    ``model.params`` are restored bit-exactly before returning; only the
    adapted values and the mean batch loss leave this function. Momentum
    starts fresh for every adaptation. The batchnorm running stats keep what
    the train-mode forwards wrote: no train-mode forward reads them, and
    ``harness.run_training`` recalibrates them after every round.
    """
    params = model.params
    shared = params.snapshot()
    state = OptState.create(params)
    state.step_index = step_offset
    loss = run_epoch(model, state, cfg.inner_opt, images, labels, cfg.batch_size,
                     cfg.ls_alpha, shuffle_seed=shuffle_seed, epoch=epoch * 1000)
    adapted = params.snapshot()
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


def steps_per_round(tasks: list[tuple[np.ndarray, np.ndarray]], cfg: MltpConfig) -> int:
    """Inner-optimizer steps one meta-round advances the shared schedule by."""
    return max(1, int(np.ceil(max(len(t[1]) for t in tasks) / cfg.batch_size)))


def mltp_train(
    model: Model,
    tasks: list[tuple[np.ndarray, np.ndarray]],
    cfg: MltpConfig,
    rnd: int,
) -> list[float]:
    """Run meta-round ``rnd``: adapt ``model.params`` on each task, then interpolate.

    Inner steps continue the schedule at ``rnd * steps_per_round``. Returns
    the mean inner loss of each task.
    """
    step_offset = rnd * steps_per_round(tasks, cfg)
    adapted, task_losses = [], []
    for t, (imgs, labs) in enumerate(tasks):
        a, loss = inner_loop(model, imgs, labs, cfg, step_offset=step_offset,
                             epoch=rnd, shuffle_seed=1000 + t)
        adapted.append(a)
        task_losses.append(loss)
    meta_update(model.params, adapted, cfg.beta)
    return task_losses
