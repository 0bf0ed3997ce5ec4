"""Experiment driver: resolved run configuration, the one budgeted block loop
(epochs, or MLTP meta-rounds), evaluation, metrics/manifest emission, and the
recipe comparison matrix."""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .data import (
    NUM_CLASSES,
    Dataset,
    NormStats,
    fit_whitening,
    load_cifar_binary,
    normalize,
    sample_subset,
)
from .mltp import MltpConfig, mltp_train, split_tasks, steps_per_round
from .models import ModelSpec, build_resnet9, save_checkpoint
from .optim import OptConfig, OptState, schedule_lr
from .tensor import ConfigError
from .train import BudgetClock, calibrate_batchnorm, evaluate, run_epoch

IP_LS_ALPHA = 0.1
IP_CELU_ALPHA = 0.3
IP_DECAY = 0.0005


@dataclass
class RunConfig:
    """Full experiment description; flag combinations map onto the recipes."""

    data_dir: str = ""
    per_class: int = 500
    seed: int = 0
    budget_seconds: float = 600.0
    optimizer: str = "sgd"  # "sgd" | "sam"
    gc: bool = False
    ip: bool = False
    mltp: bool = False
    max_epochs: int = 200
    batch_size: int = 256
    lr_peak: float = 0.4
    momentum: float = 0.9
    rho: float = 0.05
    decay: Optional[float] = None  # None -> 0.0005 with ip, else 0
    precision: int = 32
    metrics_out: str = "metrics.csv"
    checkpoint_out: Optional[str] = None
    augment: bool = True
    widths: tuple = (64, 128, 256, 512)
    beta: float = 0.5  # meta-learning outer rate
    meta_iterations: Optional[int] = None  # None -> max_epochs

    def __post_init__(self):
        if not self.budget_seconds > 0:  # NaN fails too
            raise ConfigError(f"budget_seconds must be positive, got {self.budget_seconds}")
        if self.optimizer not in ("sgd", "sam"):
            raise ConfigError(f"optimizer must be sgd or sam, got {self.optimizer!r}")
        if self.precision not in (32, 64):
            raise ConfigError(f"precision must be 32 or 64, got {self.precision}")
        for name in ("per_class", "max_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mltp and self.per_class < 2:
            raise ConfigError(f"mltp splits every class over two tasks, so per_class must be >= 2, "
                              f"got {self.per_class}")
        if self.decay is not None and not self.decay >= 0:
            raise ConfigError(f"decay must be >= 0, got {self.decay}")
        if self.meta_iterations is not None and self.meta_iterations < 1:
            raise ConfigError(f"meta_iterations must be >= 1, got {self.meta_iterations}")
        self.widths = tuple(self.widths)

    @property
    def recipe(self) -> str:
        parts = []
        if self.optimizer == "sam":
            parts.append("sam")
        if self.ip:
            parts.append("ip")
        if self.gc:
            parts.append("gc")
        if self.mltp:
            parts.append("mltp")
        return "+".join(parts) if parts else "baseline"

    def resolved_decay(self) -> float:
        if self.decay is not None:
            return self.decay
        return IP_DECAY if self.ip else 0.0

    def ls_alpha(self) -> float:
        return IP_LS_ALPHA if self.ip else 0.0


@dataclass
class MetricsRecord:
    epoch: int
    wall_seconds: float
    train_loss: float
    test_accuracy: float
    lr: float
    recipe: str


CSV_HEADER = [f.name for f in fields(MetricsRecord)]
_CSV_TYPES = get_type_hints(MetricsRecord)  # a float column is written with 6 decimals


def manifest_path(metrics_out) -> Path:
    return Path(metrics_out).with_suffix(".manifest.json")


def check_writable(path) -> None:
    """Pre-flight: raise ConfigError before any data is read if ``path`` cannot be written.

    Leaves no file that was not there before.
    """
    p = Path(path)
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        existed = p.exists()
        with open(p, "a", encoding="utf-8"):
            pass
        if not existed:
            p.unlink()
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e


def write_metrics(records: list[MetricsRecord], manifest: dict, path) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([f"{getattr(r, n):.6f}" if _CSV_TYPES[n] is float else getattr(r, n)
                             for n in CSV_HEADER])
    with open(manifest_path(p), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def read_metrics(path) -> list[MetricsRecord]:
    with open(path, encoding="utf-8") as fh:
        return [MetricsRecord(**{n: _CSV_TYPES[n](row[n]) for n in CSV_HEADER})
                for row in csv.DictReader(fh)]


def find_data_files(data_dir) -> tuple[list[Path], list[Path]]:
    d = Path(data_dir)
    if not d.is_dir():
        raise FileNotFoundError(f"data directory {d} does not exist")
    train = sorted(d.glob("data_batch*.bin"))
    test = sorted(d.glob("test_batch*.bin"))
    if not train:
        raise FileNotFoundError(f"no data_batch*.bin files under {d}")
    if not test:
        raise FileNotFoundError(f"no test_batch*.bin files under {d}")
    return train, test


def _derived_seeds(seed: int) -> dict[str, int]:
    kids = np.random.SeedSequence(seed).spawn(4)
    names = ["subset", "init", "whitening", "augment"]
    return {n: int(k.generate_state(1)[0]) for n, k in zip(names, kids)}


@dataclass
class RunResult:
    records: list[MetricsRecord]
    manifest: dict
    final_accuracy: float
    epochs_completed: int
    model: object = field(repr=False, default=None)


def _settings(cfg: RunConfig) -> tuple[ModelSpec, OptConfig, Optional[MltpConfig]]:
    """The model, optimizer and MLTP settings of a run; a bad value raises ConfigError."""
    spec = ModelSpec(
        widths=cfg.widths,
        activation="celu" if cfg.ip else "relu",
        celu_alpha=IP_CELU_ALPHA,
        stem="whitened" if cfg.ip else "plain",
        classes=NUM_CLASSES,
        head_scale=0.125,
    )
    steps_per_epoch = math.ceil(NUM_CLASSES * cfg.per_class / cfg.batch_size)
    opt_cfg = OptConfig(
        lr_peak=cfg.lr_peak,
        momentum=cfg.momentum,
        decay=cfg.resolved_decay(),
        rho=cfg.rho,
        gc_enabled=cfg.gc,
        sam_enabled=cfg.optimizer == "sam",
        schedule="onecycle",
        total_steps=cfg.max_epochs * steps_per_epoch,
    )
    mcfg = None
    if cfg.mltp:
        mcfg = MltpConfig(inner_opt=opt_cfg, beta=cfg.beta, batch_size=cfg.batch_size,
                          ls_alpha=cfg.ls_alpha())
    return spec, opt_cfg, mcfg


def run_training(cfg: RunConfig, clock=time.monotonic, extra_manifest: Optional[dict] = None) -> RunResult:
    """Execute one recipe end to end under the wall-clock budget.

    Training runs in blocks: an epoch, or for MLTP one meta-round followed by
    batchnorm calibration. Every block ends with the test pass and one
    metrics record. The clock starts before data loading; a block only starts
    if the longest block so far, timed on ``clock`` through its evaluation,
    still fits in the remaining budget, so total time never exceeds budget +
    one block. If a block raises, even on an interrupt, the metrics of the
    completed blocks and a manifest naming the error are written before the
    exception propagates.
    """
    budget = BudgetClock(cfg.budget_seconds, clock=clock)
    dtype = np.float32 if cfg.precision == 32 else np.float64
    spec, opt_cfg, mcfg = _settings(cfg)  # every setting is checked before any file is touched
    check_writable(cfg.metrics_out)
    if cfg.checkpoint_out:
        check_writable(cfg.checkpoint_out)
    seeds = _derived_seeds(cfg.seed)

    train_files, test_files = find_data_files(cfg.data_dir)
    full_train = load_cifar_binary(train_files, split="train")
    test_ds = load_cifar_binary(test_files, split="test")
    subset = sample_subset(full_train, cfg.per_class, seeds["subset"])
    stats = NormStats.fit(subset)
    train_x = normalize(subset.images, stats, dtype=dtype)
    test_x = normalize(test_ds.images, stats, dtype=dtype)

    whitening = None
    if cfg.ip:
        whitening = fit_whitening(train_x, seed=seeds["whitening"])
    model, _ = build_resnet9(
        spec, seeds["init"],
        whitening_filters=whitening.filters if whitening else None,
        dtype=dtype,
    )

    manifest = {
        "config": asdict(cfg),
        "recipe": cfg.recipe,
        "version": __version__,
        "seeds": seeds,
        "source_digest": full_train.source_digest,
        "subset_size": len(subset),
        "subset_digest": _dataset_digest(subset),
        "norm_stats": stats.to_dict(),
        "whitening": {"fit_digest": whitening.fit_digest, "eps": whitening.eps} if whitening else None,
        "param_count": model.params.num_elements(),
    }
    if extra_manifest:
        manifest.update(extra_manifest)

    records: list[MetricsRecord] = []
    augment_rng = np.random.default_rng(seeds["augment"]) if cfg.augment else None

    if cfg.mltp:
        tasks = [(train_x[idx], subset.labels[idx]) for idx in split_tasks(subset.labels, seeds["subset"])]
        round_steps = steps_per_round(tasks, mcfg)
        blocks = cfg.meta_iterations or cfg.max_epochs
    else:
        state = OptState.create(model.params)
        blocks = cfg.max_epochs

    longest_block = 0.0
    try:
        for b in range(1, blocks + 1):
            if not budget.should_start(longest_block):
                break
            t0 = budget.elapsed()
            if cfg.mltp:
                loss = float(np.mean(mltp_train(model, tasks, mcfg, b - 1)))
                calibrate_batchnorm(model, train_x, cfg.batch_size)
                steps = b * round_steps
            else:
                loss = run_epoch(
                    model, state, opt_cfg,
                    train_x, subset.labels, cfg.batch_size, cfg.ls_alpha(),
                    shuffle_seed=cfg.seed, epoch=b,
                    augment_rng=augment_rng,
                )
                steps = state.step_index
            acc = evaluate(model, test_x, test_ds.labels, cfg.batch_size)
            wall = budget.elapsed()
            longest_block = max(longest_block, wall - t0)
            records.append(MetricsRecord(epoch=b, wall_seconds=wall, train_loss=loss, test_accuracy=acc,
                                         lr=schedule_lr(opt_cfg, steps), recipe=cfg.recipe))
        if not records:
            # Nothing fit in the budget; still report where the model stands.
            acc = evaluate(model, test_x, test_ds.labels, cfg.batch_size)
            records.append(MetricsRecord(epoch=0, wall_seconds=budget.elapsed(), train_loss=float("nan"),
                                         test_accuracy=acc, lr=0.0, recipe=cfg.recipe))
        manifest["final_accuracy"] = records[-1].test_accuracy
    except BaseException as e:
        # a failed run still leaves its completed blocks and the reason on disk
        manifest["error"] = {"type": type(e).__name__, "message": str(e)}
        raise
    finally:
        manifest["epochs_completed"] = records[-1].epoch if records else 0
        manifest["total_wall_seconds"] = budget.elapsed()
        write_metrics(records, manifest, cfg.metrics_out)

    if cfg.checkpoint_out:
        save_checkpoint(model, cfg.checkpoint_out, seed=seeds["init"])
    return RunResult(
        records=records,
        manifest=manifest,
        final_accuracy=manifest["final_accuracy"],
        epochs_completed=manifest["epochs_completed"],
        model=model,
    )


def _dataset_digest(ds: Dataset) -> str:
    import hashlib

    h = hashlib.sha256()
    h.update(ds.images.tobytes())
    h.update(ds.labels.tobytes())
    return h.hexdigest()


RECIPES = {
    "baseline": {"optimizer": "sgd", "gc": False, "ip": False, "mltp": False},
    "sam": {"optimizer": "sam", "gc": False, "ip": False, "mltp": False},
    "sam+ip": {"optimizer": "sam", "gc": False, "ip": True, "mltp": False},
    "sam+gc": {"optimizer": "sam", "gc": True, "ip": False, "mltp": False},
    "mltp": {"optimizer": "sgd", "gc": False, "ip": False, "mltp": True},
}


def recipe_matrix(base: RunConfig, recipes: Optional[list[str]] = None,
                  extra_manifest: Optional[dict] = None) -> list[dict]:
    """Run each recipe with its own budget and collect a comparison table.

    Each recipe writes its metrics to ``<metrics stem>_<tag>.csv`` and, when
    ``checkpoint_out`` is set, its model to ``<checkpoint stem>_<tag><suffix>``,
    where the tag is the recipe name with ``+`` as ``_``. Every recipe's
    configuration is checked before the first one runs. A recipe that fails
    while running is recorded and the rest still run. ``extra_manifest`` goes
    into every recipe's manifest, as in ``run_training``.
    """
    out_base = Path(base.metrics_out)
    ckpt_base = Path(base.checkpoint_out) if base.checkpoint_out else None
    configs = []
    for name in recipes or list(RECIPES):
        if name not in RECIPES:
            raise ConfigError(f"unknown recipe {name!r}; choose from {sorted(RECIPES)}")
        tag = name.replace("+", "_")
        ckpt = (None if ckpt_base is None
                else str(ckpt_base.with_name(f"{ckpt_base.stem}_{tag}{ckpt_base.suffix}")))
        cfg = replace(base, metrics_out=str(out_base.with_name(f"{out_base.stem}_{tag}.csv")),
                      checkpoint_out=ckpt, **RECIPES[name])
        _settings(cfg)
        configs.append((name, cfg))
    rows = []
    for name, cfg in configs:
        try:
            result = run_training(cfg, extra_manifest=extra_manifest)
            rows.append({
                "recipe": name,
                "status": "ok",
                "final_accuracy": result.final_accuracy,
                "epochs": result.epochs_completed,
                "wall_seconds": result.manifest["total_wall_seconds"],
            })
        except Exception as exc:  # noqa: BLE001 - a bad recipe must not kill the matrix
            rows.append({"recipe": name, "status": f"failed: {exc}",
                         "final_accuracy": float("nan"), "epochs": 0,
                         "wall_seconds": float("nan")})
    return rows
