"""Per-layer metrics from the spans of traced units.

Denominators, stated once: a ``_ms`` metric is milliseconds per operation,
where an operation is an optimizer step on the training workloads and a
forward batch (evaluation or calibration) on ``eval_default``; only work
inside an operation counts, except for ``data.augment_ms``,
``train.run_epoch.self_ms`` and ``models.ParamSet.*_ms``, which run between
steps. ``.batch_ms`` is per evaluation or calibration batch, and
``harness.write_metrics_ms`` per call. A plain ``_s`` metric is seconds per
unit of fixed work; ``mltp.*_s`` (except ``split_tasks_s``) and
``mltp.meta_update_ms`` are per meta-round. Tape counts and sizes are per
closure, which is per tape. A metric whose layer a workload does not run
reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from flops import forward_flops_per_image, layer_plan
from spans import BATCH_PARENTS, OP_BATCH, OP_STEP, Span

TENSOR_OPS = ("conv2d", "maxpool2d", "global_maxpool", "batchnorm2d", "celu", "relu",
              "linear", "add", "mul", "smoothed_cross_entropy")
CONV_BLOCKS = ("stem", "prep", "stage1", "res1.a", "res1.b", "stage2", "stage3", "res2.a", "res2.b")
BN_BLOCKS = CONV_BLOCKS[1:]
DATA_CALLS = ("load_cifar_binary", "sample_subset", "NormStats.fit", "normalize", "fit_whitening")


def catalog() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for op in TENSOR_OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms"
        units[f"tensor.{op}.bwd_ms"] = "ms"
    units.update({
        "tensor.tape.nodes": "count",
        "tensor.tape.backward_ms": "ms",
        "tensor.tape.self_ms": "ms",
        "tensor.tape.activation_mb": "MB",
        "tensor.tape.grad_mb_at_end": "MB",
    })
    for block in CONV_BLOCKS:
        units[f"models.{block}.conv.fwd_ms"] = "ms"
        if block != "stem":
            units[f"models.{block}.conv.bwd_ms"] = "ms"
        units[f"models.{block}.conv.gflops"] = "GFLOP/s"
    for block in BN_BLOCKS:
        units[f"models.{block}.bn.fwd_ms"] = "ms"
        units[f"models.{block}.bn.bwd_ms"] = "ms"
    units.update({
        "models.Model.forward_ms": "ms",
        "models.Model.forward.gflops": "GFLOP/s",
        "models.ParamSet.snapshot_ms": "ms",
        "models.ParamSet.load_ms": "ms",
        "models.ParamSet.zero_grads_ms": "ms",
        "models.load_checkpoint_s": "s",
        "models.build_resnet9_s": "s",
        "optim.train_step_ms": "ms",
        "optim.sgd_step_ms": "ms",
        "optim.centralize_gradients_ms": "ms",
        "optim.sam_step.self_ms": "ms",
        "optim.closures_per_step": "count",
        "optim.train_step.residual_ms": "ms",
        "train.closure_ms": "ms",
        "train.evaluate.batch_ms": "ms",
        "train.calibrate_batchnorm.batch_ms": "ms",
        "train.run_epoch.self_ms": "ms",
    })
    for call in DATA_CALLS:
        units[f"data.{call}_s"] = "s"
    units["data.augment_ms"] = "ms"
    units.update({
        "mltp.split_tasks_s": "s",
        "mltp.inner_loop_s": "s",
        "mltp.inner_loop.self_s": "s",
        "mltp.meta_update_ms": "ms",
        "mltp.on_round_s": "s",
        "mltp.round.self_s": "s",
        "harness.run_training.self_s": "s",
        "harness.write_metrics_ms": "ms",
        "harness.rss_after_setup_mb": "MB",
        "harness.rss_after_first_step_mb": "MB",
        "bench.trace_overhead_s": "s",
    })
    return units


def _per(x: float, d: float) -> float:
    return x / d if d else 0.0


def per_layer(mine: list[Span], traced: list[Span], untraced: list[Span], op_name: str,
              spec, rss_marks: list[tuple[float, float]]) -> dict[str, float]:
    """Aggregate the spans ``mine`` of the ``traced`` units into per-layer values.

    ``untraced`` units give the baseline for the tracing overhead, and
    ``rss_marks`` the (after setup, after first operation) RSS of each traced unit.
    """
    tot, self_, cnt = defaultdict(float), defaultdict(float), defaultdict(int)
    op_tot, op_self, op_cnt = defaultdict(float), defaultdict(float), defaultdict(int)
    tag_tot, tag_n = defaultdict(float), defaultdict(int)
    tapes = []
    for s in mine:
        tot[s.name] += s.dur
        self_[s.name] += s.self_s
        cnt[s.name] += 1
        if s.op is not None and s.op.name == op_name:
            op_tot[s.name] += s.dur
            op_self[s.name] += s.self_s
            op_cnt[s.name] += 1
            if s.tag:
                tag_tot[s.name, s.tag] += s.dur
                tag_n[s.name, s.tag] += s.n
        if s.name == "tensor.tape.backward":
            tapes.append(s)

    ops = op_cnt[op_name]
    units = len(traced)
    rounds = cnt["mltp.meta_update"]
    batches = defaultdict(int)
    for s in mine:
        if s.name == OP_BATCH and s.parent is not None and s.parent.name in BATCH_PARENTS:
            batches[s.parent.name] += 1

    def ms(x):
        return 1000.0 * _per(x, ops)

    m: dict[str, float] = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = ms(op_tot[f"tensor.{op}.fwd"])
        m[f"tensor.{op}.bwd_ms"] = ms(op_tot[f"tensor.{op}.bwd"])
    m["tensor.tape.nodes"] = _per(sum(s.n for s in tapes), len(tapes))
    m["tensor.tape.backward_ms"] = ms(op_tot["tensor.tape.backward"])
    m["tensor.tape.self_ms"] = ms(op_self["tensor.tape.backward"])
    m["tensor.tape.activation_mb"] = _per(sum(s.nbytes for s in tapes), len(tapes)) / 2**20
    m["tensor.tape.grad_mb_at_end"] = _per(sum(s.grad_nbytes for s in tapes), len(tapes)) / 2**20

    plan = {layer.name: layer for layer in layer_plan(spec)} if spec is not None else {}
    for block in CONV_BLOCKS:
        fwd_s = tag_tot["tensor.conv2d.fwd", block]
        bwd_s = tag_tot["tensor.conv2d.bwd", block]
        m[f"models.{block}.conv.fwd_ms"] = ms(fwd_s)
        if block != "stem":
            m[f"models.{block}.conv.bwd_ms"] = ms(bwd_s)
        layer = plan.get(block)
        flops = 0.0
        if layer is not None:
            flops = (tag_n["tensor.conv2d.fwd", block] * layer.fwd_flops
                     + tag_n["tensor.conv2d.bwd", block] * layer.bwd_flops)
        m[f"models.{block}.conv.gflops"] = _per(flops, fwd_s + bwd_s) / 1e9
    for block in BN_BLOCKS:
        m[f"models.{block}.bn.fwd_ms"] = ms(tag_tot["tensor.batchnorm2d.fwd", block])
        m[f"models.{block}.bn.bwd_ms"] = ms(tag_tot["tensor.batchnorm2d.bwd", block])

    m["models.Model.forward_ms"] = ms(op_tot[OP_BATCH])
    fwd_images = sum(s.n for s in mine if s.name == OP_BATCH and s.op is not None and s.op.name == op_name)
    fwd_flops = fwd_images * forward_flops_per_image(spec) if spec is not None else 0
    m["models.Model.forward.gflops"] = _per(fwd_flops, op_tot[OP_BATCH]) / 1e9
    for method in ("snapshot", "load", "zero_grads"):
        m[f"models.ParamSet.{method}_ms"] = ms(tot[f"models.ParamSet.{method}"])
    m["models.load_checkpoint_s"] = _per(tot["models.load_checkpoint"], units)
    m["models.build_resnet9_s"] = _per(tot["models.build_resnet9"], units)

    m["optim.train_step_ms"] = ms(op_tot[OP_STEP])
    m["optim.sgd_step_ms"] = ms(op_tot["optim.sgd_step"])
    m["optim.centralize_gradients_ms"] = ms(op_tot["optim.centralize_gradients"])
    m["optim.sam_step.self_ms"] = ms(op_self["optim.sam_step"])
    m["optim.closures_per_step"] = _per(op_cnt["train.closure"], ops)
    m["train.closure_ms"] = ms(op_tot["train.closure"])
    m["optim.train_step.residual_ms"] = m["optim.train_step_ms"] - (
        m["train.closure_ms"] + m["optim.sam_step.self_ms"] + m["optim.sgd_step_ms"]
        + m["optim.centralize_gradients_ms"])
    for call in ("evaluate", "calibrate_batchnorm"):
        name = f"train.{call}"
        m[f"{name}.batch_ms"] = 1000.0 * _per(tot[name], batches[name])
    m["train.run_epoch.self_ms"] = ms(self_["train.run_epoch"])

    for call in DATA_CALLS:
        m[f"data.{call}_s"] = _per(tot[f"data.{call}"], units)
    m["data.augment_ms"] = ms(tot["data.augment"])

    m["mltp.split_tasks_s"] = _per(tot["mltp.split_tasks"], units)
    m["mltp.inner_loop_s"] = _per(tot["mltp.inner_loop"], rounds)
    m["mltp.inner_loop.self_s"] = _per(self_["mltp.inner_loop"], rounds)
    m["mltp.meta_update_ms"] = 1000.0 * _per(tot["mltp.meta_update"], rounds)
    m["mltp.on_round_s"] = _per(tot["mltp.on_round"], rounds)
    m["mltp.round.self_s"] = _per(self_["mltp.mltp_train"], rounds)

    m["harness.run_training.self_s"] = _per(self_["harness.run_training"], units)
    m["harness.write_metrics_ms"] = 1000.0 * _per(tot["harness.write_metrics"], cnt["harness.write_metrics"])
    m["harness.rss_after_setup_mb"] = statistics.median(s for s, _ in rss_marks) if rss_marks else 0.0
    m["harness.rss_after_first_step_mb"] = statistics.median(f for _, f in rss_marks) if rss_marks else 0.0

    m["bench.trace_overhead_s"] = (
        statistics.median(u.dur for u in traced) - statistics.median(u.dur for u in untraced)
        if traced and untraced else 0.0)
    return m
