"""List the lines of a minitrain checkout's ``src/`` that no run reaches.

Usage: python tests/reach.py <checkout> <out-dir>

Runs, under the stdlib ``trace`` module (no coverage package needed):

- the twelve fixed-seed runs and the two train-mode gradient closures of
  ``same_numbers.py``;
- a ``--recipe-matrix`` run over the default matrix (the full recipe, its
  four leave-one-out ablations and the baseline), with the same settings;
- two runs that stop early: one whose budget fits no block, and one whose
  ``--per-class`` is more than the data holds, which fails during setup;
- a checkpoint round trip: ``load_checkpoint`` of the fp32 baseline's
  checkpoint, ``calibrate_batchnorm`` on the training images, ``evaluate``
  on the test images.

Tracing starts before ``minitrain`` is imported, so module-level lines count
as reached. It prints the lines that ``same_numbers.py`` prints (the output
of the other runs is dropped), then one ``path:line: text`` line for every
executable line under ``<checkout>/src`` that none of these runs executed,
and a count. Run it on two checkouts and diff the output to see whether a
change keeps the numbers and what it leaves unreached; ``gate.py`` does
both. Not a test module, so pytest does not collect it.
"""

import contextlib
import io
import sys
import trace
from pathlib import Path

import same_numbers


def work(checkout: Path, out: Path) -> None:
    sys.path.insert(0, str(checkout / "src"))
    digests = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.redirect_stdout(digests):
            codes = {"same_numbers": same_numbers.main(str(checkout), str(out))}
        from minitrain.cli import main as cli_main

        data = out / "data"
        for name, flags in {"matrix": ["--recipe-matrix"], "no_block": ["--budget-seconds", "1e-9"],
                            "setup_failure": ["--per-class", "1000"]}.items():
            codes[name] = cli_main(["--data-dir", str(data), *same_numbers.COMMON, *flags,
                                    "--metrics-out", str(out / f"{name}.csv")])
    sys.stdout.write(digests.getvalue())
    # a run that ends otherwise than planned would reach other lines
    if codes != {"same_numbers": 0, "matrix": 0, "no_block": 0, "setup_failure": 2}:
        raise SystemExit(f"unexpected exit codes: {codes}")

    from minitrain.data import NormStats, load_cifar_binary, normalize
    from minitrain.models import load_checkpoint
    from minitrain.train import calibrate_batchnorm, evaluate

    train = load_cifar_binary([data / "data_batch_1.bin"])
    test = load_cifar_binary([data / "test_batch.bin"])
    stats = NormStats.fit(train)
    model, _ = load_checkpoint(out / "baseline_fp32.ckpt")
    calibrate_batchnorm(model, normalize(train.images, stats), batch_size=20)
    evaluate(model, normalize(test.images, stats), test.labels, batch_size=20)


def main(checkout: str, out_dir: str) -> int:
    root, out = Path(checkout).resolve(), Path(out_dir).resolve()
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(work, root, out)
    coverdir = out / "cover"
    tracer.results().write_results(show_missing=True, coverdir=str(coverdir))

    missed = 0
    for src in sorted((root / "src").rglob("*.py")):
        module = ".".join(src.relative_to(root / "src").with_suffix("").parts)
        lines = (coverdir / f"{module}.cover").read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            if line.startswith(">>>>>> "):
                print(f"{src.relative_to(root)}:{lineno}: {line[7:].strip()}")
                missed += 1
    print(f"{missed} lines not reached")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(sys.argv[1], sys.argv[2]))
