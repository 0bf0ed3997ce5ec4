"""Run one workload of the minitrain benchmark and print its result.

    python3 perfbench/run.py --workload sam_ip_default --seed 0 --seconds 40 --trace 0

Run it from anywhere: it imports the engine from ``src/`` of the checkout
that holds this file, never an installed copy, and writes its spans and full
result under ``.bench_out/`` there. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sam_ip_default", "mltp_narrow", "eval_default")
# One process, at most two BLAS threads and never more than the cores it may use.
THREADS = str(max(1, min(2, len(os.sched_getaffinity(0)))))


def load_engine() -> bool:
    """Pin the BLAS threads and import the engine from this checkout's ``src/``.

    Returns False, after saying why, when the checkout has no engine source.
    """
    # BLAS reads these when numpy loads, so they are set before any import of it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = THREADS
    src = ROOT / "src"
    if not (src / "minitrain" / "__init__.py").is_file():
        print(f"error: no engine source under {src}; run from a full checkout", file=sys.stderr)
        return False
    sys.path[:0] = [str(src), str(HERE)]
    import minitrain

    if Path(minitrain.__file__).resolve().parent != (src / "minitrain").resolve():
        print(f"error: imported minitrain from {minitrain.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_engine():
        return 2
    import bench
    from flops import check_default_gmac

    gmac = check_default_gmac()
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result, gmac)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_report(result: dict, gmac: float) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"{result['units']} units in a {result['seconds']:g} s window")
    print(f"shape   {json.dumps(result['shape'])}")
    print(f"machine {json.dumps(result['machine'])}")
    print("end-to-end, from untraced units:")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<18} {_fmt(m['value']):>12} {m['unit']:<4}  n = {m['samples']}")
    extra = result["extra"]
    print(f"  {'calib_img_per_s':<18} {_fmt(extra['calib_img_per_s']):>12} 1/s")
    print(f"  {'failed_share':<18} {_fmt(result['failed_share']):>12}       "
          f"{result['failed']} of {result['attempted']} operations")
    print(f"analytic forward at default widths: {gmac:.4f} GMAC per image")
    if result["problems"]:
        print("checks FAILED:")
        for p in result["problems"]:
            print(f"  - {p}")
    else:
        print(f"checks passed (probe loss {_fmt(result['probe_loss'])})")
    if "per_layer" in result:
        layer = result["per_layer"]
        print("per-layer, from traced units:")
        for name, m in layer.items():
            print(f"  {name:<40} {_fmt(m['value']):>12} {m['unit']}")
        step = layer["optim.train_step_ms"]["value"]
        residual = layer["optim.train_step.residual_ms"]["value"]
        if step:
            print(f"train_step accounting: residual {residual:.3f} ms of {step:.1f} ms "
                  f"({100 * residual / step:.2f}%)")
        print(f"tracing overhead: {layer['bench.trace_overhead_s']['value']:.4f} s per unit")


if __name__ == "__main__":
    sys.exit(main())
