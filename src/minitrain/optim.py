"""Parameter updates: the sharpness-aware step (momentum SGD with coupled
weight decay, optional gradient centralization) and the one-cycle LR schedule.
Plain SGD is the sharpness-aware step at rho = 0.

Per-step flow is fixed: backward -> (centralize) -> (if rho > 0: ascend,
re-backward, centralize) -> decay -> momentum -> update. Weight decay enters
the gradient as +2*lambda*w (the quadratic penalty added to the loss,
differentiated). Shape decides a parameter's role: centralization and decay
apply to tensors with two or more axes (conv kernels, linear weights), never
to single-axis ones (batchnorm scales and shifts, biases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .models import ParamSet
from .tensor import ConfigError

WARMUP_FRACTION = 0.2  # share of the one-cycle spent ramping up to lr_peak


class OptimizerAbort(RuntimeError):
    """A step hit non-finite numbers; carries the offending parameter name."""


@dataclass
class OptConfig:
    lr_peak: float = 0.4
    momentum: float = 0.9
    decay: float = 0.0  # lambda in the quadratic weight penalty
    rho: float = 0.0  # sharpness neighborhood radius; 0 is plain SGD
    gc_enabled: bool = False
    total_steps: int = 1

    def __post_init__(self):
        if not 0 < self.lr_peak < math.inf:  # NaN fails too
            raise ConfigError(f"lr_peak must be positive and finite, got {self.lr_peak}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0,1), got {self.momentum}")
        if not 0 <= self.decay < math.inf:
            raise ConfigError(f"decay must be finite and >= 0, got {self.decay}")
        if not 0 <= self.rho < math.inf:
            raise ConfigError(f"rho must be finite and >= 0, got {self.rho}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")


@dataclass
class OptState:
    velocity: dict[str, np.ndarray] = field(default_factory=dict)
    step_index: int = 0

    @classmethod
    def create(cls, params: ParamSet) -> "OptState":
        return cls(velocity={e.name: np.zeros_like(e.tensor.data) for e in params})


def centralize_gradients(params: ParamSet) -> None:
    """Subtract the per-output-slice mean from every multi-axis gradient.

    For a conv kernel [Cout, Cin, kH, kW] the mean is over the trailing three
    axes per output channel; for a linear weight [K, D], over D per row.
    Single-axis parameters are left untouched. Idempotent.
    """
    for e in params:
        if e.tensor.ndim < 2:
            continue
        g = e.tensor.grad
        if g is None:
            raise OptimizerAbort(f"centralize_gradients: parameter {e.name} has no gradient")
        axes = tuple(range(1, g.ndim))
        g -= g.mean(axis=axes, keepdims=True)


def sgd_step(params: ParamSet, state: OptState, lr: float, cfg: OptConfig) -> None:
    """One momentum-SGD update from the gradients currently in place.

    Every gradient is checked, present and finite, before any parameter or
    velocity moves, so an abort leaves parameters, velocities and
    ``step_index`` as they were.
    """
    for e in params:
        if e.tensor.grad is None:
            raise OptimizerAbort(f"sgd_step: parameter {e.name} has no gradient")
        if not np.isfinite(e.tensor.grad).all():
            raise OptimizerAbort(f"sgd_step: non-finite gradient in parameter {e.name}")
    for e in params:
        g = e.tensor.grad
        if cfg.decay and e.tensor.ndim >= 2:
            g = g + (2.0 * cfg.decay) * e.tensor.data
        v = state.velocity[e.name]
        v *= cfg.momentum
        v += g
        e.tensor.data -= lr * v
    state.step_index += 1


def _global_grad_norm(params: ParamSet) -> float:
    sq = 0.0
    for e in params:
        if e.tensor.grad is not None:
            sq += float(np.vdot(e.tensor.grad, e.tensor.grad))
    return float(np.sqrt(sq))


def sam_step(
    params: ParamSet,
    state: OptState,
    lr: float,
    cfg: OptConfig,
    closure: Callable[[], float],
) -> tuple[float, float]:
    """Sharpness-aware two-step update.

    ``closure`` zeroes gradients, recomputes the loss at the current
    parameters, runs backward, and returns the loss value. The step ascends by
    rho * g / ||g||2 (one global norm over all trainable gradients), re-runs
    the closure at the perturbed point, restores the saved parameters exactly,
    and descends with the perturbed-point gradients. With rho == 0 (plain
    SGD: the norm is not computed) or a zero gradient it is one sgd_step.

    Returns (loss at the original point, loss at the perturbed point).
    """
    loss0 = closure()
    if cfg.gc_enabled:
        centralize_gradients(params)

    gnorm = _global_grad_norm(params) if cfg.rho > 0 else 0.0
    if gnorm == 0.0:
        sgd_step(params, state, lr, cfg)
        return loss0, loss0

    scale = cfg.rho / gnorm
    backup = params.snapshot()
    for e in params:
        e.tensor.data += scale * e.tensor.grad

    loss1 = closure()
    if not np.isfinite(loss1):
        params.load(backup)
        raise OptimizerAbort(f"sam_step: non-finite loss {loss1} at perturbed point")
    if cfg.gc_enabled:
        centralize_gradients(params)

    params.load(backup)  # bit-exact restore before the descent update
    sgd_step(params, state, lr, cfg)
    return loss0, loss1


def schedule_lr(cfg: OptConfig, step: int) -> float:
    """One-cycle learning rate at a given step; out-of-range steps clamp to endpoints."""
    step = min(max(step, 0), cfg.total_steps)
    peak_at = WARMUP_FRACTION * cfg.total_steps
    if step <= peak_at:
        return cfg.lr_peak * (step / peak_at)
    return cfg.lr_peak * (cfg.total_steps - step) / (cfg.total_steps - peak_at)


def train_step(
    params: ParamSet,
    state: OptState,
    lr: float,
    cfg: OptConfig,
    closure: Callable[[], float],
) -> float:
    """One update, a ``sam_step`` (plain SGD at rho = 0); returns the batch loss."""
    return sam_step(params, state, lr, cfg, closure)[0]
