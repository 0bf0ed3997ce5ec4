"""The minitrain benchmark: workloads, units of fixed work, metrics and checks.

A run repeats one unit of fixed work, through the entry points users call,
until its seconds are spent; it starts no unit that is predicted to end past
them. The budget handed to ``run_training`` never stops a unit, so the work,
and therefore the throughput, is comparable across commits.

- ``sam_ip_default``: ``run_training`` with SAM + IP + GC at the default
  widths, one epoch of whole batches, then the per-epoch test pass.
- ``mltp_narrow``: ``run_training`` with MLTP (SGD, plain stem, ReLU) at
  widths 32/64/128/256 for a fixed number of meta-rounds; each round runs BN
  calibration and evaluation.
- ``eval_default``: ``load_checkpoint`` of a ``sam_ip_default``-shaped model,
  ``calibrate_batchnorm`` and ``evaluate`` over a held-out set; no tape.

Inputs are synthetic CIFAR-format files made from the seed; the engine sees
only those files and, for ``eval_default``, a checkpoint written beforehand.
The seed picks one of ``INPUT_SETS`` input sets, each with a recorded
reference loss, so every run's arithmetic is checked exactly; timing does not
depend on the pixel values.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import minitrain.data
import minitrain.harness
import minitrain.models
import minitrain.tensor
import minitrain.train
from layers import catalog, per_layer
from spans import OP_BATCH, OP_STEP, Instrument, Span, Tracer
from synth import write_dataset_dir

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = Path(__file__).with_name("reference.json")
NEVER = 1e9  # a budget no unit reaches
INPUT_SETS = 20  # seeds with a recorded reference; --seed n uses input set n mod INPUT_SETS
DEFAULT_WIDTHS = (64, 128, 256, 512)
NARROW_WIDTHS = (32, 64, 128, 256)
TRAIN_PHASES = ("train.run_epoch", "mltp.inner_loop")


@dataclass(frozen=True)
class Shape:
    widths: tuple
    batch: int
    per_class: int  # training subset (train workloads) or calibration set (eval), per class
    test_per_class: int  # test pass (train workloads) or held-out set (eval), per class
    blocks: int = 1  # epochs (sam_ip_default) or meta-rounds (mltp_narrow)


# Batch 40 keeps a unit of the default-width SAM recipe near 11 s on two
# cores, so a run measures several units. Per-image conv GEMMs are the same as
# at batch 256, but conv's chunk-sized temporaries (im2col buffers and the
# weight-gradient products of backward, up to 227 images for res2) and so
# peak RSS are smaller here than at batch 256; see README.md.
WORKLOADS = {
    "sam_ip_default": Shape(DEFAULT_WIDTHS, batch=40, per_class=8, test_per_class=8, blocks=1),
    "mltp_narrow": Shape(NARROW_WIDTHS, batch=40, per_class=16, test_per_class=8, blocks=2),
    "eval_default": Shape(DEFAULT_WIDTHS, batch=40, per_class=16, test_per_class=16),
}
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "img_per_s": "1/s",
    "op_s_p50": "s",
    "eval_img_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def shape_record(shape: Shape) -> dict:
    """The shape as it reads back from JSON."""
    return json.loads(json.dumps(asdict(shape)))


def kind_of(workload: str) -> str:
    return "eval" if workload == "eval_default" else "train"


# ---------------------------------------------------------------------------
# units of fixed work


@dataclass
class Inputs:
    data_dir: Path
    seed: int
    checkpoint: Optional[Path] = None


def prepare(workload: str, shape: Shape, seed: int, tmp: Path) -> Inputs:
    """Write the seeded inputs; nothing here is timed."""
    data_dir = tmp / "data"
    if kind_of(workload) == "eval":
        write_dataset_dir(data_dir, shape.per_class, shape.test_per_class, seed)
        calib = minitrain.data.load_cifar_binary([data_dir / "data_batch_1.bin"])
        x = minitrain.data.normalize(calib.images, minitrain.data.NormStats.fit(calib))
        spec = minitrain.models.ModelSpec(widths=shape.widths, activation="celu",
                                          celu_alpha=minitrain.harness.IP_CELU_ALPHA,
                                          stem="whitened", head_scale=0.125)
        whitening = minitrain.data.fit_whitening(x, seed=seed)
        model, _ = minitrain.models.build_resnet9(spec, seed, whitening_filters=whitening.filters)
        checkpoint = tmp / "model.mtck"
        minitrain.models.save_checkpoint(model, checkpoint, seed=seed)
        return Inputs(data_dir, seed, checkpoint)
    write_dataset_dir(data_dir, 2 * shape.per_class, shape.test_per_class, seed)
    return Inputs(data_dir, seed)


def train_config(workload: str, shape: Shape, inputs: Inputs, metrics_out: Path):
    common = dict(data_dir=str(inputs.data_dir), per_class=shape.per_class, seed=inputs.seed,
                  budget_seconds=NEVER, batch_size=shape.batch, widths=shape.widths,
                  metrics_out=str(metrics_out), augment=True, max_epochs=shape.blocks)
    if workload == "sam_ip_default":
        return minitrain.harness.RunConfig(optimizer="sam", ip=True, gc=True, **common)
    return minitrain.harness.RunConfig(mltp=True, meta_iterations=shape.blocks, **common)


def run_train_unit(workload: str, shape: Shape, inputs: Inputs, k: int) -> dict:
    metrics_out = inputs.data_dir.parent / f"{workload}-unit{k}.csv"
    result = minitrain.harness.run_training(train_config(workload, shape, inputs, metrics_out))
    return {"records": result.records, "model": result.model, "metrics_out": metrics_out,
            "norm_stats": result.manifest["norm_stats"]}


def run_eval_unit(workload: str, shape: Shape, inputs: Inputs, k: int) -> dict:
    data, models, train = minitrain.data, minitrain.models, minitrain.train
    calib = data.load_cifar_binary([inputs.data_dir / "data_batch_1.bin"], split="train")
    held = data.load_cifar_binary([inputs.data_dir / "test_batch.bin"], split="test")
    stats = data.NormStats.fit(calib)
    calib_x = data.normalize(calib.images, stats)
    held_x = data.normalize(held.images, stats)
    model, _ = models.load_checkpoint(inputs.checkpoint)
    train.calibrate_batchnorm(model, calib_x, batch_size=shape.batch)
    accuracy = train.evaluate(model, held_x, held.labels, shape.batch)
    return {"accuracy": accuracy, "model": model, "norm_stats": stats.to_dict()}


# ---------------------------------------------------------------------------
# correctness


def probe_loss(model, inputs: Inputs, norm_stats: dict, batch: int) -> float:
    """Plain cross-entropy of the final model on the first batch of the training file."""
    ds = minitrain.data.load_cifar_binary([inputs.data_dir / "data_batch_1.bin"])
    stats = minitrain.data.NormStats(np.asarray(norm_stats["mean"]), np.asarray(norm_stats["std"]))
    x = minitrain.data.normalize(ds.images[:batch], stats)
    logits = model.forward(minitrain.tensor.Tensor(x, dtype=x.dtype), mode="eval")
    loss, _ = minitrain.tensor.smoothed_cross_entropy(logits, ds.labels[:batch], 0.0, model.spec.classes)
    return loss.item()


def unit_problems(workload: str, shape: Shape, out: dict) -> list[str]:
    """Checks that hold for every unit: finite losses, accuracies in range,
    and, for training, a metrics CSV and manifest that read back."""
    if kind_of(workload) == "eval":
        acc = out["accuracy"]
        return [] if 0.0 <= acc <= 100.0 else [f"accuracy {acc} outside [0, 100]"]
    problems = []
    records = out["records"]
    for r in records:
        if not math.isfinite(r.train_loss):
            problems.append(f"epoch {r.epoch}: non-finite train loss {r.train_loss}")
        if not 0.0 <= r.test_accuracy <= 100.0:
            problems.append(f"epoch {r.epoch}: accuracy {r.test_accuracy} outside [0, 100]")
    expected = list(range(1, shape.blocks + 1))
    read = minitrain.harness.read_metrics(out["metrics_out"])
    if [r.epoch for r in read] != expected:
        problems.append(f"metrics CSV has epochs {[r.epoch for r in read]}, expected {expected}")
    for a, b in zip(records, read):
        if abs(a.train_loss - b.train_loss) > 1e-6 or abs(a.test_accuracy - b.test_accuracy) > 1e-6:
            problems.append(f"metrics CSV epoch {b.epoch} does not match the run's records")
    manifest = json.loads(minitrain.harness.manifest_path(out["metrics_out"]).read_text(encoding="utf-8"))
    if manifest.get("epochs_completed") != shape.blocks:
        problems.append(f"manifest epochs_completed {manifest.get('epochs_completed')}, expected {shape.blocks}")
    return problems


def signature(out: dict):
    """What a unit of fixed work must reproduce exactly on every repeat."""
    if "accuracy" in out:
        return out["accuracy"]
    return [(r.train_loss, r.test_accuracy) for r in out["records"]]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def reference_problem(workload: str, shape: Shape, input_seed: int, loss: float,
                      reference: dict) -> Optional[str]:
    """Compare the probe loss with the one recorded for this workload and input set.

    Shapes other than the workload's registered one have no reference and
    are not compared.
    """
    if not math.isfinite(loss):
        return f"probe loss {loss} is not finite"
    if WORKLOADS.get(workload) != shape:
        return None
    entry = reference.get("workloads", {}).get(workload)
    if entry is None or entry.get("shape") != shape_record(shape):
        return f"{REFERENCE_PATH.name} has no reference for {workload} at this shape"
    ref = entry["probe_loss"].get(str(input_seed))
    if ref is None:
        return f"{REFERENCE_PATH.name} has no reference for {workload} input set {input_seed}"
    if abs(loss - ref) > reference["tolerance"]:
        return (f"probe loss {loss:.6f} differs from the reference {ref:.6f} for input set "
                f"{input_seed} by more than {reference['tolerance']}")
    return None


# ---------------------------------------------------------------------------
# the measured run


@dataclass
class Unit:
    span: Span
    traced: bool
    spans: list  # every span under this unit
    out: Optional[dict]  # None when the unit raised


def run(workload: str, seed: int, seconds: float, trace: bool, shape: Optional[Shape] = None,
        out_dir: Optional[Path] = None) -> dict:
    """Measure one workload for ``seconds``; returns the full result record.

    ``shape`` overrides the workload's registered shape (the tests use tiny ones).
    """
    shape = shape or WORKLOADS[workload]
    out_dir = out_dir or OUT_DIR
    input_seed = seed % INPUT_SETS
    runner = run_eval_unit if kind_of(workload) == "eval" else run_train_unit
    tracer = Tracer()
    units: list[Unit] = []
    problems: list[str] = []
    probe = None
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=out_dir) as tmp:
        inputs = prepare(workload, shape, input_seed, Path(tmp))
        clock = time.perf_counter
        deadline = clock() + seconds
        longest = 0.0
        while True:
            # A traced run alternates untraced and traced units, so the
            # tracing overhead is measured in the same process.
            traced = trace and len(units) % 2 == 1
            t0 = clock()
            first = len(tracer.spans)
            with Instrument(tracer, full=traced):
                span = tracer.unit(workload)
                out = None
                try:
                    out = runner(workload, shape, inputs, len(units))
                except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                finally:
                    tracer.end(span, failed=out is None)
            unit = Unit(span, traced, tracer.spans[first + 1:], out)
            units.append(unit)
            if out is not None:
                problems += [f"unit {len(units) - 1}: {p}" for p in unit_problems(workload, shape, out)]
                reference_unit = next(u for u in units if u.out is not None)
                if reference_unit is unit:
                    probe = probe_loss(out["model"], inputs, out["norm_stats"], shape.batch)
                    problem = reference_problem(workload, shape, input_seed, probe, load_reference())
                    problems += [problem] if problem else []
                elif signature(out) != signature(reference_unit.out):
                    problems.append(f"unit {len(units) - 1} did not reproduce unit 0's results")
                out.pop("model")
            longest = max(longest, clock() - t0)
            need_both = trace and not ({True, False} <= {u.traced for u in units})
            if clock() + longest > deadline and not need_both:
                break

    attempted = failed = 0
    for u in units:
        ops = [s for s in u.spans if s.op is s]
        attempted += len(ops)
        failed += sum(s.failed for s in ops)
        if u.out is None and not any(s.failed for s in ops):
            attempted += 1
            failed += 1
    correct = not problems and failed == 0 and all(u.out is not None for u in units)

    untraced = [u for u in units if not u.traced and u.out is not None]
    e2e, samples = end_to_end(untraced, shape.batch, kind_of(workload))
    result = {
        "workload": workload,
        "seed": seed,
        "input_seed": input_seed,
        "seconds": seconds,
        "trace": int(trace),
        "shape": shape_record(shape),
        "machine": machine_record(),
        "units": len(units),
        "problems": problems,
        "probe_loss": probe,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": e2e[k], "unit": END_TO_END[k], "samples": samples[k]} for k in END_TO_END},
        "extra": {k: e2e[k] for k in e2e if k not in END_TO_END},
        "failed_share": failed / attempted if attempted else 1.0,
    }
    if trace:
        traced_units = [u for u in units if u.traced and u.out is not None]
        layer = per_layer(
            [s for u in traced_units for s in u.spans],
            [u.span for u in traced_units],
            [u.span for u in untraced],
            OP_BATCH if kind_of(workload) == "eval" else OP_STEP,
            tracer.spec,
            [(setup, first) for unit_span, setup, first in tracer.rss_marks
             if any(unit_span is u.span for u in traced_units)],
        )
        units_of = catalog()
        result["per_layer"] = {k: {"value": layer[k], "unit": units_of[k]} for k in units_of}
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    tracer.dump(out_dir / f"{stem}.spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=2, default=str), encoding="utf-8")
    return result


def _median(xs):
    return statistics.median(xs) if xs else None


def end_to_end(units: list[Unit], batch: int, kind: str) -> tuple[dict, dict]:
    """End-to-end values from the boundary spans of untraced units, with sample counts."""
    setups, runs, ops, op_images = [], [], [], 0
    phase_time = {"train.evaluate": [0.0, 0], "train.calibrate_batchnorm": [0.0, 0]}
    for u in units:
        runs.append(u.span.dur)
        unit_ops = [s for s in u.spans if s.op is s]
        if unit_ops:
            setups.append(unit_ops[0].start - u.span.start)
        if kind == "train":
            for phase in (s for s in u.spans if s.name in TRAIN_PHASES):
                prev = phase.start
                for step in (s for s in u.spans if s.name == OP_STEP and s.parent is phase):
                    # A step also pays the batch gather, augmentation and
                    # schedule lookup that precede it in its phase.
                    ops.append(step.end - prev)
                    prev = step.end
                    op_images += batch
        else:
            batches = [s for s in unit_ops if s.name == OP_BATCH]
            ops += [s.dur for s in batches]
            op_images += sum(s.n for s in batches)
        for s in u.spans:
            if s.name in phase_time:
                phase_time[s.name][0] += s.dur
                phase_time[s.name][1] += s.n

    def rate(pair):
        return pair[1] / pair[0] if pair[0] else None

    values = {
        "setup_s": _median(setups),
        "run_s": _median(runs),
        "img_per_s": op_images / sum(ops) if ops else None,
        "op_s_p50": _median(ops),
        "eval_img_per_s": rate(phase_time["train.evaluate"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calib_img_per_s": rate(phase_time["train.calibrate_batchnorm"]),
    }
    tail = tail_percentile(ops)
    samples = {
        "setup_s": f"{len(setups)} units",
        "run_s": f"{len(runs)} units",
        "img_per_s": f"{len(ops)} {'steps' if kind == 'train' else 'batches'}",
        "op_s_p50": f"{len(ops)} {'steps' if kind == 'train' else 'batches'}"
                    + (f"; p{tail[0]} = {tail[1]:.4f} s" if tail else "; no percentile above p50 has 10 samples beyond it"),
        "eval_img_per_s": f"{phase_time['train.evaluate'][1]} images",
        "peak_rss_mb": "1 process",
    }
    return values, samples


def tail_percentile(samples: list[float]):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


# ---------------------------------------------------------------------------
# machine record


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a repository or without git."""
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def machine_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": git_commit(),
        "machine": platform.machine(),
    }
