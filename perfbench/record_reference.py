"""Record the reference probe losses that every benchmark run checks against.

    python3 perfbench/record_reference.py

Runs one unit of each workload per input set, at the workload's registered
shape, and rewrites ``perfbench/reference.json``. Re-record only when a workload's
shape or the engine's arithmetic changes on purpose, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from run import WORKLOAD_NAMES, load_engine

TOLERANCE = 2e-3  # fp32 reordering moves the probe loss by ~1e-5; a wrong gradient by far more


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    if not load_engine():
        return 2
    import bench

    workloads = {}
    for name in WORKLOAD_NAMES:
        losses = {}
        for seed in range(bench.INPUT_SETS):
            result = bench.run(name, seed, 0.0, False)
            if result["probe_loss"] is None or result["failed"]:
                print(f"{name} seed {seed}: the unit failed; nothing recorded", file=sys.stderr)
                return 1
            losses[str(seed)] = result["probe_loss"]
            print(f"{name} seed {seed}: probe loss {result['probe_loss']:.6f}", flush=True)
        workloads[name] = {"shape": bench.shape_record(bench.WORKLOADS[name]), "probe_loss": losses}
    reference = {"tolerance": TOLERANCE, "workloads": workloads}
    bench.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
