"""Command-line entry point.

Precedence for every setting: CLI flag > config file > built-in default. The
config file is plain ``key = value`` lines (``#`` comments allowed) with keys
named after RunConfig fields. Conflicting file/flag values are both echoed
into the run manifest.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional

from .harness import RECIPES, RunConfig, recipe_matrix, run_training
from .tensor import ConfigError

log = logging.getLogger("minitrain")

_BOOL_FIELDS = {"gc", "ip", "mltp", "augment"}


def _coerce(name: str, raw: str):
    if name in _BOOL_FIELDS:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config file: {name} must be boolean, got {raw!r}")
    if name == "widths":
        return tuple(int(v) for v in raw.split(","))
    int_fields = {"per_class", "seed", "max_epochs", "batch_size", "precision", "meta_iterations"}
    float_fields = {"budget_seconds", "lr_peak", "momentum", "rho", "decay", "beta"}
    if name in int_fields:
        return int(raw)
    if name in float_fields:
        return float(raw)
    return raw


def read_config_file(path) -> dict:
    valid = {f.name for f in fields(RunConfig)}
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "lambda":
            key = "decay"
        if key not in valid:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="minitrain",
        description="Train ResNet-9 on a small CIFAR-10 subset under a wall-clock budget.",
    )
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--data-dir", help="directory with CIFAR-10 binary batches (or set CIFAR_DIR)")
    p.add_argument("--per-class", type=int, help="training images per class (default 500)")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget-seconds", type=float, help="end-to-end wall-clock cap (default 600)")
    p.add_argument("--optimizer", choices=["sgd", "sam"])
    p.add_argument("--gc", action="store_true", default=None, help="centralize multi-axis gradients")
    p.add_argument("--ip", action="store_true", default=None,
                   help="improved preprocessing: label smoothing, CELU, whitened stem, weight decay")
    p.add_argument("--mltp", action="store_true", default=None, help="2-task meta-learning procedure")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr-peak", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--rho", type=float, help="sharpness neighborhood radius")
    p.add_argument("--lambda", dest="decay", type=float, help="weight decay factor")
    p.add_argument("--precision", type=int, choices=[32, 64])
    p.add_argument("--metrics-out")
    p.add_argument("--checkpoint-out")
    p.add_argument("--augment", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--widths", help="comma-separated channel plan, e.g. 32,64,128,256")
    p.add_argument("--beta", type=float, help="meta-learning outer interpolation rate")
    p.add_argument("--meta-iterations", type=int)
    p.add_argument("--recipe-matrix", nargs="?", const=",".join(RECIPES), metavar="RECIPES",
                   help="run a comma-separated recipe list (default: all five) and print a table")
    return p


def parse_config(argv, env: Optional[dict] = None):
    """Resolve CLI + config file + env into a RunConfig.

    Returns (config, provenance, matrix) where provenance holds the raw file
    and flag values for the manifest and matrix is the recipe list or None.
    """
    env = env if env is not None else os.environ
    args = build_parser().parse_args(argv)

    file_values = read_config_file(args.config) if args.config else {}
    flag_values = {}
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            flag_values[f.name] = tuple(int(x) for x in v.split(",")) if f.name == "widths" else v

    merged = dict(file_values)
    merged.update(flag_values)
    if "data_dir" not in merged and env.get("CIFAR_DIR"):
        merged["data_dir"] = env["CIFAR_DIR"]
    cfg = RunConfig(**merged)

    if cfg.mltp and cfg.budget_seconds < 60:
        log.warning("budget of %.1fs may be too small for a single meta-round", cfg.budget_seconds)

    provenance = {"config_file": args.config, "file_values": file_values,
                  "flag_values": {k: list(v) if isinstance(v, tuple) else v
                                  for k, v in flag_values.items()}}
    matrix = args.recipe_matrix.split(",") if args.recipe_matrix else None
    return cfg, provenance, matrix


def _print_matrix(rows) -> None:
    print(f"{'recipe':<10} {'status':<12} {'accuracy':>9} {'epochs':>7} {'wall(s)':>9}")
    for r in rows:
        status = r["status"] if len(r["status"]) <= 12 else r["status"][:12]
        print(f"{r['recipe']:<10} {status:<12} {r['final_accuracy']:>9.2f} "
              f"{r['epochs']:>7} {r['wall_seconds']:>9.1f}")
        if r["status"] != "ok":
            print(f"  -> {r['status']}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg, provenance, matrix = parse_config(argv if argv is not None else sys.argv[1:])
        if not cfg.data_dir:
            print("error: no data directory (use --data-dir or CIFAR_DIR)", file=sys.stderr)
            return 2
        if matrix:
            rows = recipe_matrix(cfg, matrix)
            _print_matrix(rows)
            return 0 if all(r["status"] == "ok" for r in rows) else 1
        result = run_training(cfg, extra_manifest={"cli": provenance})
        last = result.records[-1]
        print(f"recipe={cfg.recipe} epochs={result.epochs_completed} "
              f"accuracy={last.test_accuracy:.2f}% wall={last.wall_seconds:.1f}s "
              f"metrics={cfg.metrics_out}")
        return 0
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
