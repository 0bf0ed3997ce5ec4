"""Experiment driver: resolved run configuration, the one budgeted block loop
(epochs, or MLTP meta-rounds), evaluation, metrics/manifest emission, and the
recipe comparison matrix."""

from __future__ import annotations

import csv
import hashlib
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
    NormStats,
    fit_whitening,
    load_cifar_binary,
    normalize,
    sample_subset,
)
from .mltp import NUM_TASKS, mltp_train, split_tasks
from .models import ModelSpec, build_resnet9, save_checkpoint
from .optim import OptConfig, OptState, schedule_lr
from .tensor import ConfigError
from .train import calibrate_batchnorm, evaluate, run_epoch

IP_LS_ALPHA = 0.1
IP_CELU_ALPHA = 0.3
IP_DECAY = 0.0005
# A recipe name joins the switches it turns on, in this order. "sam" is optimizer="sam"; the others
# are the boolean RunConfig fields of the same name.
SWITCHES = ("sam", "ip", "gc", "mltp")
SWITCH_FIELDS = ("optimizer", *SWITCHES[1:])  # the RunConfig fields a recipe name sets
DATA_FILES = {"train": "data_batch*.bin", "test": "test_batch*.bin"}  # the files a run reads from data_dir


@dataclass
class RunConfig:
    """Full experiment description; flag combinations map onto the recipes. Building one checks
    every setting, and builds the ``spec`` and ``opt`` it derives, so a run can start from it."""

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
        if self.mltp and self.per_class < NUM_TASKS:
            raise ConfigError(f"mltp splits every class over {NUM_TASKS} tasks, so per_class must be "
                              f">= {NUM_TASKS}, got {self.per_class}")
        if not 0.0 < self.beta <= 1.0:  # NaN fails too
            raise ConfigError(f"beta must be in (0,1], got {self.beta}")
        if self.meta_iterations is not None and self.meta_iterations < 1:
            raise ConfigError(f"meta_iterations must be >= 1, got {self.meta_iterations}")
        if _shared_output(self.outputs):  # the metrics file and its manifest never share a name
            raise ConfigError(f"checkpoint_out {self.checkpoint_out} is metrics_out {self.metrics_out} "
                              f"or its manifest")
        data_dir = Path(self.data_dir).resolve()
        for out in self.outputs:
            p = Path(out).resolve()
            if p.parent == data_dir and any(p.match(g) for g in DATA_FILES.values()):
                raise ConfigError(f"output {out} would be a data file of data_dir {self.data_dir}")
        self.widths = tuple(self.widths)
        self.spec, self.opt  # the model and optimizer settings check the rest

    @property
    def recipe(self) -> str:
        on = (self.optimizer == "sam", self.ip, self.gc, self.mltp)
        return "+".join(s for s, o in zip(SWITCHES, on) if o) or "baseline"

    @property
    def outputs(self) -> tuple[str, ...]:
        """The files a run writes, as given: the metrics CSV, its manifest and the checkpoint if set."""
        checkpoint = (self.checkpoint_out,) if self.checkpoint_out else ()
        return (self.metrics_out, str(manifest_path(self.metrics_out)), *checkpoint)

    @property
    def spec(self) -> ModelSpec:
        return ModelSpec(widths=self.widths, activation="celu" if self.ip else "relu", celu_alpha=IP_CELU_ALPHA,
                         stem="whitened" if self.ip else "plain", classes=NUM_CLASSES, head_scale=0.125)

    @property
    def opt(self) -> OptConfig:
        steps_per_epoch = math.ceil(NUM_CLASSES * self.per_class / self.batch_size)
        opt = OptConfig(lr_peak=self.lr_peak, momentum=self.momentum, rho=self.rho,  # rho checked for sgd too
                        decay=self.decay if self.decay is not None else IP_DECAY if self.ip else 0.0,
                        gc_enabled=self.gc, total_steps=self.max_epochs * steps_per_epoch)
        return opt if self.optimizer == "sam" else replace(opt, rho=0.0)  # SGD is the SAM step at rho 0

    @property
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


def _shared_output(paths) -> Optional[Path]:
    """The first of ``paths`` that resolves to the same file as an earlier one, or None."""
    resolved = [Path(p).resolve() for p in paths]
    return next((p for i, p in enumerate(resolved) if p in resolved[:i]), None)


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
    train = sorted(d.glob(DATA_FILES["train"]))
    test = sorted(d.glob(DATA_FILES["test"]))
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


def run_training(cfg: RunConfig, clock=time.monotonic, extra_manifest: Optional[dict] = None) -> RunResult:
    """Execute one recipe end to end under the wall-clock budget.

    Training runs in blocks: an epoch, or for MLTP one meta-round followed by
    batchnorm calibration. Both kinds step one ``OptState``, and every block
    ends with the test pass and one metrics record, whose ``lr`` is the
    schedule at the state's step counter. The clock starts before data
    loading; a block only starts if the budget left is more than the longest
    block so far, timed on ``clock`` through its evaluation, so total time
    never exceeds budget + one block. If no block fits, one epoch-0 record
    reports the untrained model. ``cfg`` checked its settings when it was
    built, and unwritable output paths raise before any file is written.
    Anything that raises after that, from data loading on and even an
    interrupt or a failed checkpoint save, still leaves the metrics of the
    completed blocks and a manifest naming the error before it propagates.
    """
    start = clock()

    def elapsed() -> float:
        return clock() - start

    dtype = np.float32 if cfg.precision == 32 else np.float64
    opt_cfg = cfg.opt
    for out in cfg.outputs:
        check_writable(out)
    seeds = _derived_seeds(cfg.seed)
    manifest = {"config": asdict(cfg), "recipe": cfg.recipe, "version": __version__, "seeds": seeds,
                **(extra_manifest or {})}
    records: list[MetricsRecord] = []

    try:
        train_files, test_files = find_data_files(cfg.data_dir)
        # the run keeps only the arrays it reads: the subset, not the whole training file, and
        # the normalized test images, not their bytes
        test_ds = load_cifar_binary(test_files, split="test")
        subset = sample_subset(load_cifar_binary(train_files, split="train"), cfg.per_class, seeds["subset"])
        stats = NormStats.fit(subset)
        train_x = normalize(subset.images, stats, dtype=dtype)
        test_x, test_y = normalize(test_ds.images, stats, dtype=dtype), test_ds.labels
        del test_ds

        whitening = None
        if cfg.ip:
            whitening = fit_whitening(train_x, seed=seeds["whitening"])
        model, _ = build_resnet9(
            cfg.spec, seeds["init"],
            whitening_filters=whitening.filters if whitening else None,
            dtype=dtype,
        )
        manifest.update({
            "source_digest": subset.source_digest,
            "subset_size": len(subset),
            "subset_digest": hashlib.sha256(b"".join((subset.images, subset.labels))).hexdigest(),
            "norm_stats": stats.to_dict(),
            "whitening": {"fit_digest": whitening.fit_digest, "eps": whitening.eps} if whitening else None,
            "param_count": model.params.num_elements(),
        })

        augment_rng = np.random.default_rng(seeds["augment"]) if cfg.augment else None
        state = OptState.create(model.params)
        blocks = cfg.max_epochs
        if cfg.mltp:
            tasks = split_tasks(subset.labels, seeds["subset"])
            blocks = cfg.meta_iterations or cfg.max_epochs

        def record(epoch: int, loss: float) -> None:
            acc = evaluate(model, test_x, test_y, cfg.batch_size)
            records.append(MetricsRecord(epoch=epoch, wall_seconds=elapsed(), train_loss=loss, test_accuracy=acc,
                                         lr=schedule_lr(opt_cfg, state.step_index), recipe=cfg.recipe))

        longest_block = 0.0
        for b in range(1, blocks + 1):
            if not cfg.budget_seconds - elapsed() > longest_block:
                break
            t0 = elapsed()
            if cfg.mltp:
                loss = float(np.mean(mltp_train(model, state, opt_cfg, train_x, subset.labels, tasks,
                                                cfg.batch_size, cfg.ls_alpha, cfg.beta, b - 1)))
                calibrate_batchnorm(model, train_x, cfg.batch_size)
            else:
                loss = run_epoch(
                    model, state, opt_cfg,
                    train_x, subset.labels, cfg.batch_size, cfg.ls_alpha,
                    shuffle_seed=cfg.seed, epoch=b,
                    augment_rng=augment_rng,
                )
            record(b, loss)
            longest_block = max(longest_block, records[-1].wall_seconds - t0)
        if not records:
            record(0, float("nan"))  # nothing fit in the budget; still report where the model stands
        manifest["final_accuracy"] = records[-1].test_accuracy
        if cfg.checkpoint_out:
            save_checkpoint(model, cfg.checkpoint_out, seed=seeds["init"])
    except BaseException as e:
        # a failed run still leaves its completed blocks and the reason on disk
        manifest["error"] = {"type": type(e).__name__, "message": str(e)}
        raise
    finally:
        manifest["epochs_completed"] = records[-1].epoch if records else 0
        manifest["total_wall_seconds"] = elapsed()
        write_metrics(records, manifest, cfg.metrics_out)
    return RunResult(
        records=records,
        manifest=manifest,
        final_accuracy=manifest["final_accuracy"],
        epochs_completed=manifest["epochs_completed"],
        model=model,
    )


RECIPE_GRAMMAR = f"baseline, or a +-joined subset of {', '.join(SWITCHES)} in that order"
# the full recipe, the recipes that each leave one switch out of it, and the baseline
DEFAULT_MATRIX = ("+".join(SWITCHES), *("+".join(s for s in SWITCHES if s != out) for out in SWITCHES), "baseline")


def recipe_switches(name: str) -> dict:
    """The switch fields of recipe ``name``: the inverse of ``RunConfig.recipe``."""
    on = name.split("+")
    switches = {"optimizer": "sam" if "sam" in on else "sgd", **{s: s in on for s in SWITCH_FIELDS[1:]}}
    if RunConfig(**switches).recipe != name:
        raise ConfigError(f"unknown recipe {name!r}; a recipe is {RECIPE_GRAMMAR}")
    return switches


def recipe_matrix(base: RunConfig, recipes: Optional[list[str]] = None,
                  extra_manifest: Optional[dict] = None) -> list[dict]:
    """Run each recipe with its own budget and collect a comparison table.

    ``recipes`` defaults to ``DEFAULT_MATRIX``: the full recipe, the four
    recipes that each leave one switch out of it, and the baseline; each name
    is read by ``recipe_switches``. Each recipe writes its metrics to
    ``<metrics stem>_<tag>.csv`` and, when ``checkpoint_out`` is set, its model
    to ``<checkpoint stem>_<tag><suffix>``, where the tag is the recipe name
    with ``+`` as ``_``. The recipe sets the ``SWITCH_FIELDS``, whatever
    ``base`` holds there. Every recipe's ``RunConfig`` is built, and so
    checked, before the first one runs, so an empty list, a malformed or
    repeated name, a setting that some recipe cannot take, or two recipes
    that would write the same file raises ConfigError before any file is
    written. A recipe that fails while
    running is recorded and the rest still run. ``extra_manifest`` goes into
    every recipe's manifest, as in ``run_training``.
    """
    out_base = Path(base.metrics_out)
    ckpt_base = Path(base.checkpoint_out) if base.checkpoint_out else None
    names = DEFAULT_MATRIX if recipes is None else recipes
    if not names:
        raise ConfigError("the recipe matrix needs at least one recipe")
    configs = []
    for name in names:
        switches = recipe_switches(name)
        if name in (n for n, _ in configs):
            raise ConfigError(f"recipe {name!r} is listed twice")
        tag = name.replace("+", "_")
        ckpt = (None if ckpt_base is None
                else str(ckpt_base.with_name(f"{ckpt_base.stem}_{tag}{ckpt_base.suffix}")))
        configs.append((name, replace(base, metrics_out=str(out_base.with_name(f"{out_base.stem}_{tag}.csv")),
                                      checkpoint_out=ckpt, **switches)))
    if clash := _shared_output(p for _, cfg in configs for p in cfg.outputs):
        raise ConfigError(f"two recipes of the matrix would both write {clash}")
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
