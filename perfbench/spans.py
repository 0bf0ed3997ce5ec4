"""In-memory spans and the wrappers that attribute engine time to layers.

The engine's modules import each other's functions by name, so a function is
wrapped on every module attribute through which a caller reaches it, and
restored when the ``Instrument`` context exits. Nothing in ``src/`` changes.

Two wrapper sets exist. ``boundary`` wraps only phase boundaries: the run,
each epoch or inner loop, each optimizer step, each evaluation or
calibration call and each forward batch under them. End-to-end metrics come
from these few spans. ``full`` adds the per-op, per-layer spans of a traced
run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import minitrain.data
import minitrain.harness
import minitrain.mltp
import minitrain.models
import minitrain.optim
import minitrain.tensor
import minitrain.train

OP_STEP = "optim.train_step"
OP_BATCH = "models.Model.forward"
BATCH_PARENTS = ("train.evaluate", "train.calibrate_batchnorm")


@dataclass(eq=False)
class Span:
    index: int
    name: str
    start: float
    parent: Optional["Span"]
    op: Optional["Span"]  # enclosing operation: an optimizer step or a forward batch
    tag: str = ""  # model block, for per-block ops
    n: int = 0  # images for data-carrying spans, nodes for a tape backward
    nbytes: int = 0  # activation bytes recorded on a tape
    grad_nbytes: int = 0  # .grad bytes held by recorded outputs after backward
    end: float = float("nan")
    child_s: float = 0.0
    failed: bool = False

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Records spans (name, start, end, parent) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.blocks: dict[int, str] = {}  # id(weight or gamma) -> block name
        self.spec = None  # ModelSpec of the last model built
        self._tape_bytes: dict[int, int] = {}
        self._rss_pending = False
        self._rss_setup = 0.0
        self.rss_marks: list[tuple[Span, float, float]] = []  # unit, after setup, after first op

    def begin(self, name: str, tag: str = "", is_op: bool = False) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent, parent.op if parent else None, tag)
        if is_op:
            span.op = span
            if self._rss_pending:
                self._rss_setup = current_rss_mb()
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span, failed: bool = False) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.dur
        if span.op is span and self._rss_pending:
            self._rss_pending = False
            self.rss_marks.append((self._stack[0], self._rss_setup, current_rss_mb()))

    def unit(self, name: str) -> Span:
        """Open a root span for one unit of fixed work."""
        if self._stack:
            raise RuntimeError("a unit span must be a root span")
        self._rss_pending = True
        return self.begin(name)

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "i": s.index, "name": s.name, "tag": s.tag,
                    "parent": s.parent.index if s.parent else None,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    "failed": s.failed,
                }) + "\n")


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _timed(tracer: Tracer, fn, name: str, before=None, after=None, is_op=None):
    """Wrap ``fn`` in a span.

    ``before(span, args, kwargs)`` may fill span fields or replace kwargs;
    ``after(span, result, args)`` returns True when the result marks the
    operation failed. ``is_op(tracer)``, asked before the span opens, decides
    whether the span is an operation.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, is_op=bool(is_op and is_op(tracer)))
        failed = True
        try:
            if before is not None:
                before(span, args, kwargs)
            result = fn(*args, **kwargs)
            failed = bool(after(span, result, args)) if after is not None else False
            return result
        finally:
            tracer.end(span, failed)

    return wrapper


class Instrument:
    """Context manager that installs span wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, full: bool):
        self.tracer = tracer
        self.full = full
        self._saved: list[tuple[object, str, object]] = []

    def patches(self) -> list[tuple[object, str, Callable]]:
        """(owner, attribute, wrapper factory) for every wrapped attribute."""
        t = self.tracer
        harness, train, mltp, optim = minitrain.harness, minitrain.train, minitrain.mltp, minitrain.optim
        models, data, tensor = minitrain.models, minitrain.data, minitrain.tensor

        def span(name, **kw):
            return lambda fn: _timed(t, fn, name, **kw)

        def images_arg(i):
            def before(s, args, kwargs):
                s.n = int(args[i].shape[0])
            return before

        def step_failed(s, loss, args):
            return not np.isfinite(loss)

        def batch_is_op(tr):
            parent = tr.current()
            return parent is not None and parent.name in BATCH_PARENTS

        def forward_failed(s, out, args):
            return s.op is s and not np.isfinite(out.data).all()

        table = [
            (harness, "run_training", span("harness.run_training")),
            (harness, "run_epoch", span("train.run_epoch")),
            (mltp, "inner_loop", span("mltp.inner_loop")),
            (train, "train_step", span(OP_STEP, after=step_failed, is_op=lambda tr: True)),
            (mltp, "train_step", span(OP_STEP, after=step_failed, is_op=lambda tr: True)),
            (harness, "evaluate", span("train.evaluate", before=images_arg(1))),
            (train, "evaluate", span("train.evaluate", before=images_arg(1))),
            (harness, "calibrate_batchnorm", span("train.calibrate_batchnorm", before=images_arg(1))),
            (mltp, "calibrate_batchnorm", span("train.calibrate_batchnorm", before=images_arg(1))),
            (train, "calibrate_batchnorm", span("train.calibrate_batchnorm", before=images_arg(1))),
            (models.Model, "forward", span(OP_BATCH, before=images_arg(1), after=forward_failed,
                                           is_op=batch_is_op)),
            (models, "load_checkpoint", span("models.load_checkpoint")),
        ]
        if not self.full:
            return table

        def block_of(i):
            def before(s, args, kwargs):
                s.tag = t.blocks.get(id(args[i]), "")
                s.n = int(args[0].shape[0])
            return before

        for op in ("conv2d", "batchnorm2d", "maxpool2d", "global_maxpool", "celu", "relu",
                   "linear", "add", "mul"):
            before = block_of(1) if op in ("conv2d", "batchnorm2d") else None
            table.append((models, op, span(f"tensor.{op}.fwd", before=before)))
        table.append((train, "smoothed_cross_entropy", span("tensor.smoothed_cross_entropy.fwd")))

        def wrap_record(record):
            @functools.wraps(record)
            def wrapper(tape, out, backward_fn):
                fwd = t.current()
                t._tape_bytes[id(tape)] = t._tape_bytes.get(id(tape), 0) + out.data.nbytes
                name = fwd.name[: -len("fwd")] + "bwd" if fwd and fwd.name.endswith(".fwd") else "tensor.other.bwd"
                tag, n = (fwd.tag, fwd.n) if fwd else ("", 0)

                def timed_backward(g):
                    s = t.begin(name, tag)
                    s.n = n
                    failed = True
                    try:
                        backward_fn(g)
                        failed = False
                    finally:
                        t.end(s, failed)

                return record(tape, out, timed_backward)
            return wrapper

        def wrap_backward(backward):
            @functools.wraps(backward)
            def wrapper(tape, loss):
                s = t.begin("tensor.tape.backward")
                outs = [out for out, _ in tape._nodes]
                s.n = len(outs)
                s.nbytes = t._tape_bytes.pop(id(tape), 0)
                failed = True
                try:
                    backward(tape, loss)
                    failed = False
                finally:
                    s.grad_nbytes = sum(o.grad.nbytes for o in outs if o.grad is not None)
                    del outs
                    t.end(s, failed)
            return wrapper

        def wrap_make_closure(make_closure):
            @functools.wraps(make_closure)
            def wrapper(*args, **kwargs):
                return _timed(t, make_closure(*args, **kwargs), "train.closure")
            return wrapper

        def register_model(s, result, args):
            model, params = result
            t.blocks = {id(e.tensor): e.name.rsplit(".", 2)[0] for e in params
                        if e.name.endswith((".conv.w", ".bn.gamma"))}
            if model.stem_filters is not None:
                t.blocks[id(model.stem_filters)] = "stem"
            t.spec = model.spec
            return False

        def wrap_on_round(s, args, kwargs):
            if kwargs.get("on_round") is not None:
                kwargs["on_round"] = _timed(t, kwargs["on_round"], "mltp.on_round")

        def wrap_classmethod(name):
            def factory(cm):
                return classmethod(_timed(t, cm.__func__, name))
            return factory

        table += [
            (tensor.Tape, "record", wrap_record),
            (tensor.Tape, "backward", wrap_backward),
            (train, "make_closure", wrap_make_closure),
            (mltp, "make_closure", wrap_make_closure),
            (optim, "sam_step", span("optim.sam_step")),
            (optim, "sgd_step", span("optim.sgd_step")),
            (optim, "centralize_gradients", span("optim.centralize_gradients")),
            (train, "augment", span("data.augment")),
            (models.ParamSet, "snapshot", span("models.ParamSet.snapshot")),
            (models.ParamSet, "load", span("models.ParamSet.load")),
            (models.ParamSet, "zero_grads", span("models.ParamSet.zero_grads")),
            (models, "build_resnet9", span("models.build_resnet9", after=register_model)),
            (harness, "build_resnet9", span("models.build_resnet9", after=register_model)),
            (harness, "load_cifar_binary", span("data.load_cifar_binary")),
            (data, "load_cifar_binary", span("data.load_cifar_binary")),
            (harness, "sample_subset", span("data.sample_subset")),
            (harness, "normalize", span("data.normalize")),
            (data, "normalize", span("data.normalize")),
            (data.NormStats, "fit", wrap_classmethod("data.NormStats.fit")),
            (harness, "fit_whitening", span("data.fit_whitening")),
            (harness, "split_tasks", span("mltp.split_tasks")),
            (harness, "mltp_train", span("mltp.mltp_train", before=wrap_on_round)),
            (mltp, "meta_update", span("mltp.meta_update")),
            (harness, "write_metrics", span("harness.write_metrics")),
        ]
        return table

    def __enter__(self) -> "Instrument":
        try:
            for owner, attr, factory in self.patches():
                original = vars(owner)[attr]  # KeyError: the engine renamed or moved it
                self._saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
