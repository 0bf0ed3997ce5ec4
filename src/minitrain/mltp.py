"""Two-task meta-learning: split the subset into class-balanced halves, adapt
a copy of the shared weights on each task for one epoch (``train.run_epoch``
with fresh momentum), and pull the shared weights toward the mean of the
adapted weights (first-order interpolation).

``mltp_train`` runs one meta-round; the budgeted loop over rounds, the
batchnorm calibration after each round and the evaluation live in
``harness.run_training``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import Model, ParamSet
from .optim import OptConfig, OptState
from .tensor import ConfigError, ShapeError
from .train import run_epoch
# Unused here, but perfbench/spans.py wraps these names on this module.
from .optim import train_step  # noqa: F401
from .train import calibrate_batchnorm, make_closure  # noqa: F401

log = logging.getLogger(__name__)


@dataclass
class TaskSplit:
    tasks: list[Dataset]
    per_class_per_task: int
    seed: int


@dataclass
class MltpConfig:
    inner_opt: OptConfig
    beta: float = 0.5  # outer interpolation rate
    batch_size: int = 256
    ls_alpha: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0,1], got {self.beta}")


def split_tasks(ds: Dataset, seed: int, num_tasks: int = 2) -> TaskSplit:
    """Split into disjoint class-balanced tasks; odd remainders are dropped."""
    rng = np.random.default_rng(seed)
    per_task: list[list[np.ndarray]] = [[] for _ in range(num_tasks)]
    per_class = None
    for c in np.unique(ds.labels):
        members = np.nonzero(ds.labels == c)[0]
        if members.size < num_tasks:
            raise ValueError(f"class {c} has only {members.size} samples, need {num_tasks}")
        rng.shuffle(members)
        quota = members.size // num_tasks
        if quota * num_tasks != members.size:
            log.warning("class %d: dropping %d samples to balance the split",
                        c, members.size - quota * num_tasks)
        per_class = quota if per_class is None else min(per_class, quota)
        for t in range(num_tasks):
            per_task[t].append(members[t * quota : (t + 1) * quota])
    tasks = []
    for t in range(num_tasks):
        idx = np.concatenate(per_task[t])
        rng.shuffle(idx)
        tasks.append(Dataset(images=ds.images[idx].copy(), labels=ds.labels[idx].copy(),
                             split=ds.split, source_digest=ds.source_digest))
    return TaskSplit(tasks=tasks, per_class_per_task=per_class, seed=seed)


def inner_loop(
    model: Model,
    params: ParamSet,
    images: np.ndarray,
    labels: np.ndarray,
    cfg: MltpConfig,
    step_offset: int = 0,
    epoch: int = 0,
    shuffle_seed: int = 0,
) -> tuple[dict[str, np.ndarray], float]:
    """Adapt a snapshot of the shared weights by one epoch on one task.

    The shared parameters and batchnorm stats are restored bit-exactly before
    returning; only the adapted values and the mean batch loss leave this
    function. Momentum starts fresh for every adaptation.
    """
    shared = params.snapshot()
    bn_saved = [st.copy() for st in model.bn_states()]
    state = OptState.create(params)
    state.step_index = step_offset
    loss = run_epoch(model, params, state, cfg.inner_opt, images, labels, cfg.batch_size,
                     cfg.ls_alpha, shuffle_seed=shuffle_seed, epoch=epoch * 1000)
    adapted = params.snapshot()
    params.load(shared)
    for st, saved in zip(model.bn_states(), bn_saved):
        st.running_mean[...] = saved.running_mean
        st.running_var[...] = saved.running_var
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
    params: ParamSet,
    tasks: list[tuple[np.ndarray, np.ndarray]],
    cfg: MltpConfig,
    rnd: int,
) -> list[float]:
    """Run meta-round ``rnd``: adapt on each task, then interpolate.

    Inner steps continue the schedule at ``rnd * steps_per_round``. Returns
    the mean inner loss of each task.
    """
    step_offset = rnd * steps_per_round(tasks, cfg)
    adapted, task_losses = [], []
    for t, (imgs, labs) in enumerate(tasks):
        a, loss = inner_loop(model, params, imgs, labs, cfg, step_offset=step_offset,
                             epoch=rnd, shuffle_seed=1000 + t)
        adapted.append(a)
        task_losses.append(loss)
    meta_update(params, adapted, cfg.beta)
    return task_losses
