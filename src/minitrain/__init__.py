"""Time-budgeted ResNet-9 training on small CIFAR-10 subsets, built on a
from-scratch reverse-mode autodiff engine."""

__version__ = "0.1.0"

from .tensor import (  # noqa: F401
    ConfigError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    backward,
    grad_check,
    tape,
)
from .models import CheckpointError, ModelSpec, ParamSet, build_resnet9, load_checkpoint, save_checkpoint  # noqa: F401
from .optim import OptConfig, OptState, centralize_gradients, sam_step, schedule_lr, sgd_step  # noqa: F401
from .data import Dataset, NormStats, WhiteningFilters, fit_whitening, load_cifar_binary, sample_subset  # noqa: F401
from .mltp import meta_update, mltp_train, split_tasks  # noqa: F401
from .harness import MetricsRecord, RunConfig, RunResult, recipe_matrix, run_training, write_metrics  # noqa: F401
from .train import evaluate  # noqa: F401
