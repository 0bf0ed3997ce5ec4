"""Command-line entry point.

RunConfig alone declares each setting's name, type and allowed values. Every
field is a flag (``--per-class`` for ``per_class``; ``decay`` is ``--lambda``)
and a key of the ``key = value`` config file (``#`` comments allowed), and
both are parsed by the same code, keyed on the field's type. A boolean setting
also has a ``--no-`` flag, so a flag can switch off a value the file switched
on. Precedence: flag > config file > default (``CIFAR_DIR`` fills a missing
``data_dir``). A repeated flag keeps its last value, but a config file sets
each setting at most once, under either spelling. File and flag values are
both echoed into the run manifest. A malformed or invalid value, a setting
repeated in the file, or an output path that cannot be written, exits with
code 2 before any data is read. So does a switch setting (a field in
``SWITCH_FIELDS``, by flag or by file) given with ``--recipe-matrix``, whose
recipe names set those fields themselves.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from .data import DataFormatError
from .harness import DEFAULT_MATRIX, RECIPE_GRAMMAR, SWITCH_FIELDS, RunConfig, recipe_matrix, run_training
from .tensor import ConfigError

_SPELLING = {"decay": "lambda"}  # `lambda` is a Python keyword, so the field is `decay`

_HELP = {
    "data_dir": "directory with CIFAR-10 binary batches (or set CIFAR_DIR)",
    "per_class": "training images per class (default 500)",
    "budget_seconds": "end-to-end wall-clock cap (default 600)",
    "optimizer": "sgd or sam",
    "gc": "centralize multi-axis gradients",
    "ip": "improved preprocessing: label smoothing, CELU, whitened stem, weight decay",
    "mltp": "2-task meta-learning procedure",
    "rho": "sharpness neighborhood radius",
    "decay": "weight decay factor",
    "precision": "32 or 64",
    "widths": "comma-separated channel plan, e.g. 32,64,128,256",
    "beta": "meta-learning outer interpolation rate",
}

# Each setting's type, with Optional[...] unwrapped.
_TYPES = {name: next((a for a in get_args(hint) if a is not type(None)), hint)
          for name, hint in get_type_hints(RunConfig).items()}

_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)

_PARSERS = {  # type -> (parser of the raw text, what the text must be)
    bool: (lambda raw: _BOOLS[raw.lower()], "boolean"),
    int: (int, "an integer"),
    float: (float, "a number"),
    tuple: (lambda raw: tuple(int(v) for v in raw.split(",")), "comma-separated integers"),
    str: (str, "text"),
}


def _flag(name: str) -> str:
    return "--" + _SPELLING.get(name, name).replace("_", "-")


def _coerce(name: str, raw: str, where: str):
    """Parse one raw setting; ``where`` (``file:line`` or a flag) leads any error."""
    parse, kind = _PARSERS[_TYPES[name]]
    try:
        return parse(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}: {name} must be {kind}, got {raw!r}") from None


def read_config_file(path) -> dict:
    keys = {}
    for f in fields(RunConfig):
        keys[f.name] = keys[_SPELLING.get(f.name, f.name)] = f.name
    values, first_line = {}, {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        name = keys[key]
        if name in first_line:
            raise ConfigError(f"{path}:{lineno}: {name} is already set on line {first_line[name]}")
        first_line[name] = lineno
        values[name] = _coerce(name, raw, f"{path}:{lineno}")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="minitrain",
        description="Train ResNet-9 on a small CIFAR-10 subset under a wall-clock budget.",
    )
    p.add_argument("--config", help="key = value config file; flags override it")
    for f in fields(RunConfig):
        switch = dict(action=argparse.BooleanOptionalAction, default=None) if _TYPES[f.name] is bool else {}
        p.add_argument(_flag(f.name), dest=f.name, help=_HELP.get(f.name), **switch)
    p.add_argument("--recipe-matrix", nargs="?", const=",".join(DEFAULT_MATRIX), metavar="RECIPES",
                   help=f"run each recipe of a comma-separated list with its own budget and print a table; "
                        f"a recipe is {RECIPE_GRAMMAR} (default: {', '.join(DEFAULT_MATRIX)})")
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
        v = getattr(args, f.name)
        if v is not None:  # a boolean flag pair stores the bool itself
            flag_values[f.name] = v if isinstance(v, bool) else _coerce(f.name, v, _flag(f.name))

    merged = dict(file_values)
    merged.update(flag_values)
    owned = [name for name in SWITCH_FIELDS if name in merged]
    if args.recipe_matrix is not None and owned:
        raise ConfigError(f"--recipe-matrix sets {', '.join(SWITCH_FIELDS)} from each recipe name, "
                          f"so they cannot be set; got {', '.join(owned)}")
    if "data_dir" not in merged and env.get("CIFAR_DIR"):
        merged["data_dir"] = env["CIFAR_DIR"]
    cfg = RunConfig(**merged)

    provenance = {"config_file": args.config, "file_values": file_values,
                  "flag_values": {k: list(v) if isinstance(v, tuple) else v
                                  for k, v in flag_values.items()}}
    matrix = args.recipe_matrix.split(",") if args.recipe_matrix is not None else None
    return cfg, provenance, matrix


def _print_matrix(rows) -> None:
    w = max(len(name) for name in ["recipe", *(r["recipe"] for r in rows)])
    print(f"{'recipe':<{w}} {'accuracy':>9} {'epochs':>7} {'wall(s)':>9} status")
    for r in rows:
        print(f"{r['recipe']:<{w}} {r['final_accuracy']:>9.2f} {r['epochs']:>7} {r['wall_seconds']:>9.1f} "
              f"{r['status']}")


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg, provenance, matrix = parse_config(argv if argv is not None else sys.argv[1:])
        if not cfg.data_dir:
            print("error: no data directory (use --data-dir or CIFAR_DIR)", file=sys.stderr)
            return 2
        if matrix is not None:
            rows = recipe_matrix(cfg, matrix, extra_manifest={"cli": provenance})
            _print_matrix(rows)
            return 0 if all(r["status"] == "ok" for r in rows) else 1
        result = run_training(cfg, extra_manifest={"cli": provenance})
        last = result.records[-1]
        print(f"recipe={cfg.recipe} epochs={result.epochs_completed} "
              f"accuracy={last.test_accuracy:.2f}% wall={last.wall_seconds:.1f}s "
              f"metrics={cfg.metrics_out}")
        return 0
    except (ConfigError, DataFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
