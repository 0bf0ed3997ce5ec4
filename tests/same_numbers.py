"""Fingerprint fixed-seed runs of a minitrain checkout.

Usage: python tests/same_numbers.py <checkout> <out-dir>

Writes the synthetic train/test files that the test suite uses (40 images per
class to train from, 15 per class to test on) under ``<out-dir>``, then runs
``minitrain.cli.main`` from ``<checkout>/src`` over six recipes, each at
fp32 and fp64: seed 3, widths 8/16/16/16, 4 images per class, batch 20,
3 epochs. For each run it prints one line: the sha256 of the metrics CSV rows
without the ``wall_seconds`` column, the sha256 of the checkpoint file, and
the sha256 of the bytes of the eval-mode logits that the loaded checkpoint
gives on the test file (normalized by the statistics of the training file).

Those runs are small enough that every conv fits in one chunk, so four more
lines exercise chunk tails: one ``grads=`` line per shape in ``GRAD_SHAPES``
at fp32 and at fp64. Each holds the sha256 of the loss and of every parameter
gradient and batchnorm running statistic after one train-mode closure on the
first 40 training images, and the sha256 of the eval-mode logits that the
closure's model then gives on those 40 images. At the default widths with the
whitened stem, ``stage1`` alone splits a batch of 40 into 14 chunks at fp32
and 40 (one image each) at fp64.

Run it on two checkouts and diff the output: identical lines mean the same
metrics (apart from wall time), byte-identical checkpoints, the same eval
logits and the same gradients, bit for bit. Not a test module, so pytest does
not collect it.
"""

import contextlib
import csv
import hashlib
import io
import sys
from pathlib import Path

RUNS = {
    "baseline": [],
    "gc": ["--gc"],
    "sam_ip_gc": ["--optimizer", "sam", "--ip", "--gc"],
    "mltp": ["--mltp"],
    "mltp_sam_gc": ["--mltp", "--optimizer", "sam", "--gc"],
    "mltp_momentum_per_class_6": ["--mltp", "--momentum", "0.9", "--per-class", "6"],
}
COMMON = ["--seed", "3", "--widths", "8,16,16,16", "--per-class", "4", "--batch-size", "20",
          "--max-epochs", "3"]
GRAD_SHAPES = {
    "default_whitened_celu": {"widths": (64, 128, 256, 512), "stem": "whitened", "activation": "celu"},
    "narrow_plain_relu": {"widths": (32, 64, 128, 256), "stem": "plain", "activation": "relu"},
}
GRAD_BATCH = 40


def csv_digest(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_seconds")
    kept = "\n".join(",".join(v for i, v in enumerate(row) if i != drop) for row in rows)
    return hashlib.sha256(kept.encode()).hexdigest()


def main(checkout: str, out_dir: str) -> int:
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from minitrain.cli import main as cli_main
    from minitrain.data import NormStats, fit_whitening, load_cifar_binary, normalize, write_cifar_binary
    from minitrain.models import ModelSpec, build_resnet9, load_checkpoint
    import numpy as np

    from minitrain.tensor import Tensor
    from minitrain.train import make_closure
    from synthetic import make_synthetic_dataset

    out = Path(out_dir)
    data = out / "data"
    data.mkdir(parents=True, exist_ok=True)
    write_cifar_binary(make_synthetic_dataset(per_class=40, seed=0), data / "data_batch_1.bin")
    write_cifar_binary(make_synthetic_dataset(per_class=15, seed=99), data / "test_batch.bin")
    train = load_cifar_binary([data / "data_batch_1.bin"])
    stats = NormStats.fit(train)
    test_images = load_cifar_binary([data / "test_batch.bin"]).images

    def logits_digest(ckpt: Path) -> str:
        model, params = load_checkpoint(ckpt)
        x = normalize(test_images, stats, dtype=next(iter(params)).tensor.dtype.type)
        logits = model.forward(Tensor(x, dtype=x.dtype), mode="eval")
        return hashlib.sha256(logits.data.tobytes()).hexdigest()

    status = 0
    for name, flags in RUNS.items():
        for precision in (32, 64):
            tag = f"{name}_fp{precision}"
            metrics, ckpt = out / f"{tag}.csv", out / f"{tag}.ckpt"
            argv = ["--data-dir", str(data), *COMMON, "--precision", str(precision), *flags,
                    "--metrics-out", str(metrics), "--checkpoint-out", str(ckpt)]
            with contextlib.redirect_stdout(io.StringIO()):  # its summary line holds wall time
                rc = cli_main(argv)
            if rc != 0:
                print(f"{tag} exit={rc}")
                status = 1
                continue
            print(f"{tag} csv={csv_digest(metrics)} ckpt={hashlib.sha256(ckpt.read_bytes()).hexdigest()} "
                  f"logits={logits_digest(ckpt)}")

    for precision, dtype in ((32, np.float32), (64, np.float64)):
        train_x = normalize(train.images, stats, dtype=dtype)
        xb, yb = train_x[:GRAD_BATCH], train.labels[:GRAD_BATCH]
        for name, shape in GRAD_SHAPES.items():
            filters = fit_whitening(train_x).filters if shape["stem"] == "whitened" else None
            model, params = build_resnet9(ModelSpec(**shape), seed=3, whitening_filters=filters, dtype=dtype)
            digest = hashlib.sha256(repr(make_closure(model, xb, yb, 0.2)()).encode())
            for e in params:
                digest.update(e.tensor.grad.tobytes())
            for st in model.bn_states():
                digest.update(st.running_mean.tobytes())
                digest.update(st.running_var.tobytes())
            logits = model.forward(Tensor(xb, dtype=dtype), mode="eval")
            print(f"{name}_fp{precision} grads={digest.hexdigest()} "
                  f"logits={hashlib.sha256(logits.data.tobytes()).hexdigest()}")
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(sys.argv[1], sys.argv[2]))
