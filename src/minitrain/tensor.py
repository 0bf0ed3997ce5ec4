"""Dense tensors with taped reverse-mode differentiation.

Everything in the trainer runs through this module: a ``Tensor`` wrapping a
numpy buffer, a ``Tape`` that records backward rules in execution order, the
operator set needed by ResNet-9 (convolution, pooling, batchnorm,
activations, linear, smoothed cross-entropy), and a central-finite-difference
gradient checker used as the independent oracle for the whole engine: it
checks the float64 taped gradient against differences taken in
``np.longdouble``.

The ops take only what ResNet-9 passes: convolution is a bias-free "same"
conv (stride 1, an odd square k x k kernel, zero padding (k - 1) / 2, so the
output keeps the input's H x W), max pooling is 2 x 2 with stride 2 on maps
of even H and W, and linear always has a bias. ``batchnorm2d`` is train mode
and ``batchnorm2d_eval`` eval mode; only the latter has no backward rule.
``tsum`` and tensor-by-tensor ``mul`` serve ``grad_check``, which projects an
op's output to a scalar as ``tsum(mul(op(x), c))``; the model calls neither.

Activations are shaped [N, C, H, W] but laid out channel-major: every 4-D
array an op returns, and every gradient of one, is a transposed view of a
C-contiguous [C, N, H, W] buffer, so a channel's values for the whole batch
are one row of N·H·W. Conv's GEMMs read and write those rows in place, with
no transposed copy, and each batchnorm reduction runs along a row. The shapes
stay [N, C, H, W] so that callers index images first. Elementwise ops and max
pooling keep the memory order they are given; conv, batchnorm and the global
pool also accept a C-contiguous input, which they read through one
channel-major copy. The layout changes no number: batchnorm sums each
(channel, image) block and then adds those sums image after image, as numpy
reduces a C-contiguous [N, C, H, W] array over (0, 2, 3).

The active tape is a context variable, so each thread records on its own:
one active tape per training thread. Tensors built without an explicit dtype
are float32. Kernels are plain numpy and deterministic for a fixed input.

The engine may use a second thread, held in a context variable as the tape
is. ``engine_threads()`` owns the BLAS thread count while it is open: if
numpy's OpenBLAS runs exactly two threads, it sets the count to one, starts
one worker and, on exit by any path, joins it and restores the count.
``harness.run_training`` opens it around its block loop only, so setup,
the checkpoint save and every call outside ``run_training`` run serially,
with BLAS as the process set it. With a worker, conv splits its forward by
images and its backward by task, in chunks of one size either way, and
batchnorm, the activations and max pooling split by channel halves
(contiguous rows of channel-major memory). ``_split`` runs one part on the
calling thread and the other on the worker, which runs numpy kernels only,
records nothing and writes only buffers the calling thread allocated. A
split divides whole dot products and whole channels, so the numbers are
those of the serial path bit for bit, given a BLAS that computes each
element of a product alike whatever its width (see ``conv2d``).

Gradients are owned, not shared. ``backward`` takes each op output's ``.grad``
away before running its rule, so after ``backward`` only leaf tensors (those
no op produced, such as parameters) keep a ``.grad``; intermediate gradients
and the arrays their rules captured are freed as backward proceeds. A rule
may therefore overwrite the gradient it is handed, and it passes
``Tensor._accumulate`` only arrays that nothing else holds, which lets the
first gradient a tensor receives become its ``.grad`` without a copy. A
gradient is laid out as its tensor's ``data`` is.

``celu`` and ``relu`` take ``inplace=True`` to write their output into their
input's buffer instead of a new one. The input tensor then holds the
activation's output in ``data``, and still receives its gradient. A caller
may ask for this only when nothing reads the input's values afterwards: no
other op consumes the input, and the rule of the op that produced it does
not read its own output. Batchnorm's rule reads only its own input, so a
conv block applies its activation in place on the batchnorm output and keeps
two full-size buffers alive, not three. A graph that fans an activation's
input out, such as ``add(relu(t), t)``, must use the default.

An eval-mode conv block runs the same conv and activation as a training one;
only its batchnorm differs. ``batchnorm2d_eval`` normalizes the conv output in
place by the running statistics, through the same helpers as ``batchnorm2d``,
and the activation then overwrites it, so an eval block fills one full-size
buffer. Eval batchnorm has no backward rule, so the model's eval forward runs
under ``no_tape()`` and records nothing.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


class ConfigError(ValueError):
    """An op or module was configured with an invalid hyperparameter."""


class TapeError(RuntimeError):
    """Tape misuse: backward on a consumed tape or with no tape, or an op without a rule on a tape."""


class Tensor:
    """Dense n-dimensional array with an optional gradient slot.

    ``data`` is a numpy array: C-contiguous when the tensor is built from
    values, and for a 4-D op output the [N, C, H, W] view of channel-major
    memory (see the module docstring). ``grad`` is lazily allocated with the
    shape and memory order of ``data`` during backward. ``tape`` links an op
    output back to the tape it was recorded on.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.ascontiguousarray(data, dtype=dtype or np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.tape: Optional["Tape"] = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal: adopt an array without dtype conversion (op outputs).
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        t.tape = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``, adopting it as ``grad`` when it is the first.

        The caller hands over ``g``: nothing else may hold it. It is adopted
        only if it is writeable and matches ``data`` in dtype, shape and
        layout (the strides of every axis longer than 1); otherwise it is
        copied, bit for bit, into a buffer laid out as ``data`` is.
        """
        if self.grad is not None:
            self.grad += g
        elif (g.dtype == self.data.dtype and g.shape == self.data.shape and g.flags.writeable
              and all(a == b for a, b, d in zip(g.strides, self.data.strides, g.shape) if d > 1)):
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of op backward rules.

    Nodes are appended in forward execution order, so replaying them in
    reverse is a valid topological traversal. A tape can be consumed by
    ``backward`` exactly once; it pops each node as it runs it.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._consumed = False

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._nodes.append((out, backward_fn))

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        if self._consumed:
            raise TapeError("backward() called on an already-consumed tape")
        if loss.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        nodes = self._nodes
        while nodes:
            out, fn = nodes.pop()
            # the rule owns the gradient it is handed; the output keeps none
            g, out.grad = out.grad, None
            if g is not None:
                fn(g)


_active_tape: contextvars.ContextVar[Optional[Tape]] = contextvars.ContextVar("active_tape", default=None)


@contextlib.contextmanager
def _activate(t: Optional[Tape]):
    token = _active_tape.set(t)
    try:
        yield t
    finally:
        _active_tape.reset(token)


def tape():
    """Context manager installing a fresh active tape in this thread's context."""
    return _activate(Tape())


def no_tape():
    """Context manager under which ops record on no tape, even inside ``tape()``."""
    return _activate(None)


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(tensor) into every requires_grad tensor on the tape."""
    if loss.tape is None:
        raise TapeError("loss was not produced under an active tape")
    loss.tape.backward(loss)


def _recording(inputs: tuple) -> Optional[Tape]:
    """The active tape if some input needs a gradient, else None: where an op with these inputs records."""
    t = _active_tape.get()
    if t is None or not any(i is not None and i.requires_grad for i in inputs):
        return None
    return t


def _record(out: Tensor, inputs: tuple, backward_fn: Callable[[np.ndarray], None]) -> None:
    """Record ``backward_fn`` for ``out`` only if some input needs a gradient, so the
    rule of a single-input op need not check its input."""
    t = _recording(inputs)
    if t is None:
        return
    out.requires_grad = True
    out.tape = t
    t.record(out, backward_fn)


# ---------------------------------------------------------------------------
# the engine's second thread

_worker: contextvars.ContextVar[Optional[ThreadPoolExecutor]] = contextvars.ContextVar("engine_worker", default=None)


def _openblas():
    """The thread-count getter and setter of the OpenBLAS that numpy loaded, or None without one."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # already loaded, so this is the library numpy calls
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _worker_thread():
    """Context in which the split ops run their second half on one worker thread, joined on exit."""
    with ThreadPoolExecutor(1, thread_name_prefix="minitrain-engine") as pool:
        token = _worker.set(pool)
        try:
            yield
        finally:
            _worker.reset(token)


@contextlib.contextmanager
def engine_threads():
    """Give the ops this thread runs both cores of a two-thread BLAS; yields the thread counts of BLAS and of the engine.

    If OpenBLAS runs exactly two threads, its count is set to one and a
    worker thread is started in this context; on exit, whatever ends it, the
    worker is joined and the count restored. Otherwise nothing changes and
    the engine runs on the calling thread alone. The BLAS count is None when
    numpy's OpenBLAS or its thread-count symbols are not found.
    """
    blas = _openblas()
    count = blas[0]() if blas else None
    if count != 2:
        yield count, 1
        return
    blas[1](1)
    try:
        with _worker_thread():
            yield 1, 2
    finally:
        blas[1](count)


def _halves(n: int) -> list[slice]:
    """range(n) as the parts ``_split`` runs at once: two halves with a worker and n > 1, else one."""
    if _worker.get() is None or n < 2:
        return [slice(0, n)]
    h = (n + 1) // 2
    return [slice(0, h), slice(h, n)]


def _channel_halves(*arrays: np.ndarray) -> list:
    """Indices of the channel halves of [N, C, H, W] arrays that are all channel-major, each half
    one contiguous block of every array; one index, the whole array, for any other layout."""
    if all(a.ndim == 4 and a.transpose(1, 0, 2, 3).flags.c_contiguous for a in arrays):
        return [(slice(None), s) for s in _halves(arrays[0].shape[1])]
    return [...]


def _split(fn: Callable, parts: list) -> None:
    """``fn(part)`` for one or two parts: the second on the worker while this thread runs the first,
    or both here, in order, without a worker. Returns when both are done; either's error is raised."""
    worker = _worker.get()
    if worker is None or len(parts) < 2:
        for part in parts:
            fn(part)
        return
    first, second = parts
    pending = worker.submit(fn, second)
    try:
        fn(first)
    finally:
        pending.result()


# ---------------------------------------------------------------------------
# elementwise / reduction basics


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if not isinstance(b, Tensor) or a.shape != b.shape:
        raise ShapeError(f"add: needs two tensors of one shape, got {a.shape} and {np.shape(b)}")
    out = Tensor._wrap(a.data + b.data)

    def bwd(g):
        # the first input may adopt g, so the second gets a copy
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.copy(order="K") if a.requires_grad else g)

    _record(out, (a, b), bwd)
    return out


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product of ``a`` with a tensor of its shape or a scalar."""
    other = b if isinstance(b, Tensor) else None
    if other is not None and a.shape != other.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {other.shape} differ")
    b_data = b if other is None else other.data
    out = Tensor._wrap(a.data * b_data)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * b_data)
        if other is not None and other.requires_grad:
            other._accumulate(g * a.data)

    _record(out, (a, other), bwd)
    return out


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor._wrap(np.asarray(x.data.sum(), dtype=x.dtype))

    def bwd(g):
        x._accumulate(np.full(x.shape, g, dtype=x.dtype))

    _record(out, (x,), bwd)
    return out


# ---------------------------------------------------------------------------
# convolution

# Cap on one thread's im2col buffer. Conv lowers a chunk of the batch to one
# column matrix of shape (C·k·k, chunk·H·W), channel-major, and every product
# of a call walks chunks of one size, the most images whose matrix fits under
# the cap. A 1 x 1 conv reads its columns straight from the input's rows, but
# chunks alike.
#
# 8 MiB keeps the columns and the dX product of a chunk below glibc's largest
# mmap threshold (32 MiB), so the allocator reuses their pages instead of
# mapping and faulting them in again on every call, and keeps them nearer the
# cache. Conv forward/backward ms in one train closure at the default widths
# (whitened stem, CELU), batch 40, 2 cores with OpenBLAS, medians of 11, in
# two sweeps: 4 MiB 263/563 and 281/584, 8 MiB 250/529 and 281/578, 16 MiB
# 259/493 and 305/571. No cap wins both sweeps beyond the host's drift; with
# the padded lowering, 64 MiB measured 339/736 against 301/677 at 8 MiB, and
# 2 MiB and 1 MiB were slower. At ResNet-9's layer shapes the forward output
# and dX come out bit-identical for any cap (each element is one dot product
# over the same K, which OpenBLAS computes alike whatever the product's width
# there; see conv2d); the weight gradient sums over chunks, so its last bits move.
_COL_BUDGET_BYTES = 8 << 20


def _channel_rows(a: np.ndarray) -> np.ndarray:
    """The [C, N·H·W] rows of an [N, C, H, W] array: a view when its memory is
    channel-major, otherwise a channel-major copy."""
    n, c, h, w = a.shape
    return a.transpose(1, 0, 2, 3).reshape(c, n * h * w)


def _as_nchw(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """The [N, C, H, W] view, of the given shape, of C-contiguous channel rows."""
    n, c, h, w = shape
    return rows.reshape(c, n, h, w).transpose(1, 0, 2, 3)


def _taps(k: int, w: int, length: int):
    """Every tap (i, j) of a same conv on maps of width w, in row-major order,
    with its run over a channel's rows of ``length`` values: the slice of
    positions t whose source t + d, d = (i - p)·w + (j - p), is also in the
    rows, and the slice of those sources. The run crosses image boundaries,
    and may be empty; ``_zero_outside`` clears what it must not carry."""
    p = (k - 1) // 2
    for i in range(k):
        for j in range(k):
            d = (i - p) * w + (j - p)
            lo, run = max(0, -d), max(0, length - abs(d))
            yield i, j, slice(lo, lo + run), slice(lo + d, lo + d + run)


def _zero_outside(tap: np.ndarray, i: int, j: int, k: int) -> None:
    """Zero the entries of tap (i, j)'s columns, as [C, N, H, W], whose source
    pixel lies outside the image: output row y where y + i - p leaves [0, H),
    and output column x where x + j - p leaves [0, W). A flat shift fills the
    first kind from the neighbouring image, or not at all at the ends of the
    rows, and the second across a row edge."""
    h, w = tap.shape[2:]
    s, t = i - (k - 1) // 2, j - (k - 1) // 2
    if s < 0:
        tap[:, :, :-s] = 0.0
    elif s > 0:
        tap[:, :, max(0, h - s) :] = 0.0
    if t < 0:
        tap[:, :, :, :-t] = 0.0
    elif t > 0:
        tap[:, :, :, max(0, w - t) :] = 0.0


def _im2col(x: np.ndarray, k: int, buf: np.ndarray) -> np.ndarray:
    """[N,C,H,W] -> columns [C·k·k, N·H·W] of a same conv; row (c, i, j) holds tap (i, j) of channel c.

    ``x`` is read as its channel rows (a view when it is channel-major), and
    those rows are a 1 x 1 conv's columns. For a larger kernel each tap is
    one flat shifted copy per channel, across all N images at once, after
    which ``_zero_outside`` zeroes the tap's entries whose source lies outside
    the image while they are still in cache. The columns are written to the
    front of the flat ``buf``, which a 1 x 1 conv does not touch.
    """
    n, c, h, w = x.shape
    src = _channel_rows(x)
    if k == 1:
        return src
    size = c * k * k * src.shape[1]
    cols = buf[:size].reshape(c, k, k, -1)
    for i, j, t, st in _taps(k, w, src.shape[1]):
        cols[:, i, j, t] = src[:, st]
        _zero_outside(cols[:, i, j].reshape(c, n, h, w), i, j, k)
    return cols.reshape(c * k * k, -1)


def _col2im(cols: np.ndarray, gx: np.ndarray, k: int) -> None:
    """Adjoint of ``_im2col``: add the columns into ``gx``, a zeroed [N,C,H,W] view of channel-major memory.

    ``cols`` is scratch. Tap by tap, in row-major order, ``_zero_outside``
    zeroes the entries whose source lies outside the image, and the tap is
    added into gx's channel rows as one flat shifted run across the images.
    So every element receives the same additions in the same order as when
    summed tap by tap into a zero-padded buffer and cropped. The zeroed +0.0
    adds change nothing: a sum that starts at +0.0 is never -0.0.
    """
    n, c, h, w = gx.shape
    dst = np.reshape(gx.transpose(1, 0, 2, 3), (c, n * h * w), copy=False)  # raises unless channel-major
    cols = cols.reshape(c, k, k, -1)
    for i, j, t, st in _taps(k, w, dst.shape[1]):
        _zero_outside(cols[:, i, j].reshape(c, n, h, w), i, j, k)
        dst[:, st] += cols[:, i, j, t]


def _conv_chunk(c: int, k2: int, l: int, itemsize: int) -> int:
    """Images per chunk whose columns fit in the cap."""
    per_image = c * k2 * l * itemsize
    return max(1, _COL_BUDGET_BYTES // max(1, per_image))


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Same 2D cross-correlation of an [N,C,H,W] input: stride 1, no bias, and
    zero padding (k - 1) / 2 for an odd k x k kernel, so the output keeps the
    input's H x W. An even or non-square kernel raises ``ShapeError``.

    The input is read, and the output written, as channel rows [C, N·H·W]
    (see the module docstring); an input that is not channel-major is copied
    to that layout once. Each chunk of the batch is lowered to columns
    [Cin·k·k, chunk·H·W], so every product is one GEMM per chunk on those
    rows: the forward ``w2d @ cols`` writes the chunk's block of the output
    rows, and backward takes the weight gradient ``g @ cols.T`` and the input
    gradient ``w2d.T @ g`` from the chunk's block of the output gradient's
    rows, in place. Backward rebuilds the columns rather than keeping them
    alive on the tape. Since output and input share H·W, tap (i, j) of output
    pixel q reads input pixel q + (i - p)·W + (j - p): the lowering copies,
    and the input gradient adds back, each tap as one flat shifted run per
    channel, with no padded buffer (see ``_im2col`` and ``_col2im``). Train
    and eval run this one conv; under ``no_tape()`` it records nothing.

    Every product walks chunks of ``_conv_chunk`` images, with a worker or
    without one; the column cap is per thread. With a worker (see
    ``engine_threads``) the forward splits the images in two halves, one per
    thread, and backward takes the weight gradient on the worker, summing its
    chunks in the serial order, and the input gradient here. Each element of
    the output and of the input gradient is one dot product whatever the
    chunk, so the splits keep every bit wherever the BLAS computes an element
    alike whatever the product's width. OpenBLAS does at every layer shape of
    ResNet-9, for 1 to 40 images per product; products of other shapes, such
    as 6 x 6 maps (36 columns an image), were seen to differ in the last bit.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4D x and w, got {x.shape} and {w.shape}")
    n, cin, h, wd = x.shape
    cout, cw, k, kw = w.shape
    if cin != cw:
        raise ShapeError(
            f"conv2d: x has {cin} input channels but w expects {cw} (x {x.shape}, w {w.shape})"
        )
    if k != kw or k % 2 == 0:
        raise ShapeError(f"conv2d: a same conv needs an odd square kernel, got {k}x{kw}")
    w2d = w.data.reshape(cout, cw * k * k)
    hw = h * wd
    xs = _as_nchw(_channel_rows(x.data), x.shape)
    chunk = _conv_chunk(cin, k * k, hw, x.data.dtype.itemsize)
    image_cols = cin * k * k * hw if k > 1 else 0  # per image; a 1 x 1 conv's columns are its input's rows
    out = np.empty((cout, n * hw), dtype=x.dtype)

    def forward(part: tuple) -> None:
        images, cols = part
        for n0 in range(images.start, images.stop, chunk):
            n1 = min(n0 + chunk, images.stop)
            np.matmul(w2d, _im2col(xs[n0:n1], k, cols), out=out[:, n0 * hw : n1 * hw])

    _split(forward, [(p, np.empty(image_cols * min(chunk, p.stop - p.start), dtype=x.dtype))
                     for p in _halves(n)])
    res = Tensor._wrap(_as_nchw(out, (n, cout, h, wd)))

    def bwd(g):
        g = _channel_rows(g)
        tasks = []
        if x.requires_grad:
            gx = _as_nchw(np.zeros((cin, n * hw), dtype=x.dtype), x.shape)

            def input_grad() -> None:
                for n0 in range(0, n, chunk):
                    _col2im(w2d.T @ g[:, n0 * hw : (n0 + chunk) * hw], gx[n0 : n0 + chunk], k)

            tasks.append(input_grad)
        if w.requires_grad:
            gw = np.zeros((cout, cw * k * k), dtype=w.dtype)
            prod = np.empty_like(gw)
            cols = np.empty(image_cols * min(chunk, n), dtype=x.dtype)

            def weight_grad() -> None:
                for n0 in range(0, n, chunk):
                    np.matmul(g[:, n0 * hw : (n0 + chunk) * hw], _im2col(xs[n0 : n0 + chunk], k, cols).T,
                              out=prod)
                    np.add(gw, prod, out=gw)

            tasks.append(weight_grad)
        _split(lambda task: task(), tasks)
        if w.requires_grad:
            w._accumulate(gw.reshape(w.shape))
        if x.requires_grad:
            x._accumulate(gx)

    _record(res, (x, w), bwd)
    return res


# ---------------------------------------------------------------------------
# pooling


def maxpool2d(x: Tensor) -> Tensor:
    """2 x 2 max pooling with stride 2, the only pool ResNet-9 runs; gradient flows to each
    window's first (row-major) argmax. An odd H or W raises ``ShapeError``.

    The pool is taken in two passes: the max of each horizontal pair of
    pixels, then of each vertical pair of those maxima. The left pixel wins a
    tie, and so does the top row, which keeps the first row-major argmax; a
    tie between -0.0 and +0.0 may give either zero as the output. Only a
    forward that records on a tape keeps the two passes' masks, and backward
    routes the gradient back through them, vertical pass first. The output
    and the input gradient keep the input's memory order; with a worker, each
    pass runs on channel halves of channel-major memory.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects 4D input, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d: a 2x2 pool needs an even H and W, got {h}x{w}")
    a = x.data
    pair_max = np.empty_like(a[..., ::2])  # [N, C, H, W/2], in a's memory order
    out = np.empty_like(a[:, :, ::2, ::2])
    taped = _recording((x,)) is not None
    left = np.empty_like(pair_max, dtype=bool) if taped else None  # the left pixel is its pair's max
    top = np.empty_like(out, dtype=bool) if taped else None  # the top pair is its window's max

    def forward(i) -> None:
        ai, mi = a[i], pair_max[i]
        np.maximum(ai[..., 0::2], ai[..., 1::2], out=mi)
        np.maximum(mi[:, :, 0::2], mi[:, :, 1::2], out=out[i])
        if taped:
            np.greater_equal(ai[..., 0::2], ai[..., 1::2], out=left[i])
            np.greater_equal(mi[:, :, 0::2], mi[:, :, 1::2], out=top[i])

    _split(forward, _channel_halves(a, pair_max, out))
    res = Tensor._wrap(out)

    def bwd(g):
        # routed entries get 0.0 + g, as summing into zeros would (-0.0 becomes +0.0); the
        # rest get +0.0, which g * False would not for negative g, so the masks multiply g's
        # bit patterns, and the other entry of a pair gets the difference
        bits = f"u{g.itemsize}"
        g_pair = np.empty_like(left, dtype=g.dtype)
        gx = np.empty_like(a)

        def backward(i) -> None:
            g[i] += 0.0
            gi, gp, gxi = g[i].view(bits), g_pair[i].view(bits), gx[i].view(bits)
            np.multiply(gi, top[i], out=gp[:, :, 0::2])
            np.subtract(gi, gp[:, :, 0::2], out=gp[:, :, 1::2])
            np.multiply(gp, left[i], out=gxi[..., 0::2])
            np.subtract(gp, gxi[..., 0::2], out=gxi[..., 1::2])

        _split(backward, _channel_halves(g, g_pair, gx))
        x._accumulate(gx)

    _record(res, (x,), bwd)
    return res


def global_maxpool(x: Tensor) -> Tensor:
    """Per-channel spatial max: [N,C,H,W] -> [N,C]."""
    if x.ndim != 4:
        raise ShapeError(f"global_maxpool expects 4D input, got {x.shape}")
    n, c, h, w = x.shape
    maps = _channel_rows(x.data).reshape(c, n, h * w)
    arg = maps.argmax(axis=2)[:, :, None]
    out = np.take_along_axis(maps, arg, axis=2)[:, :, 0]
    res = Tensor._wrap(np.ascontiguousarray(out.T))

    def bwd(g):
        gmaps = np.zeros((c, n, h * w), dtype=x.dtype)
        np.put_along_axis(gmaps, arg, g.T[:, :, None], axis=2)
        x._accumulate(_as_nchw(gmaps, x.shape))

    _record(res, (x,), bwd)
    return res


# ---------------------------------------------------------------------------
# linear


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x[N,D] @ w[K,D]^T + b[K]."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear expects 2D x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: inner dims differ (x {x.shape}, w {w.shape})")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"linear: bias shape {b.shape} != ({w.shape[0]},)")
    res = Tensor._wrap(x.data @ w.data.T + b.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g @ w.data)
        if w.requires_grad:
            w._accumulate(g.T @ x.data)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    _record(res, (x, w, b), bwd)
    return res


# ---------------------------------------------------------------------------
# batch normalization


@dataclass
class BatchNormState:
    """Per-channel running statistics, updated only in train mode."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def create(cls, channels: int, dtype=None) -> "BatchNormState":
        dt = dtype or np.float32
        return cls(np.zeros(channels, dtype=dt), np.ones(channels, dtype=dt))

    def reset(self) -> None:
        self.running_mean[:] = 0.0
        self.running_var[:] = 1.0


_BN_EPS = 1e-5


def _inv_std(var: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(var + _BN_EPS)


def _channel_sum(a: np.ndarray, n: int, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-channel sum of channel rows ``a`` [C, n·H·W], or of ``a * b``, where ``n`` is the
    batch's image count, or 1 for the rows of a tensor of one channel.

    Bit for bit what ``x.sum(axis=(0, 2, 3))``, or ``np.einsum("nchw,nchw->c",
    x, y)``, gives for the same values as C-contiguous [N, C, H, W] arrays:
    numpy reduces those one (image, channel) block of H·W at a time and adds
    each block's sum into the channel's total, image after image. Here each
    block of a row is reduced by the same numpy loop into an [n, C] array,
    whose rows are then added in image order. A single channel's N·H·W
    values are contiguous in both layouts, and numpy reduces them as one
    block, hence ``n`` = 1 there. Any subset of a tensor's rows, such as the
    half of its channels one thread takes, sums as in the whole.
    """
    c = a.shape[0]
    # numpy sums the rows of a one-column array pairwise, and of a wider one in order, so a
    # lone row gets a zero column beside it
    blocks = np.zeros((n, max(c, 2)), dtype=a.dtype)
    if b is None:
        np.add.reduce(a.reshape(c, n, -1), axis=2, out=blocks[:, :c].T)
    else:
        np.einsum("cnk,cnk->cn", a.reshape(c, n, -1), b.reshape(c, n, -1), out=blocks[:, :c].T)
    return np.add.reduce(blocks, axis=0)[:c]


def _scale_shift(xc: np.ndarray, inv_std: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> None:
    """Finish batchnorm in place on the centred ``xc``: ``xc * inv_std * gamma + beta``.

    The per-channel operands broadcast against ``xc``, and each is applied in
    its own rounding step, in that order. ``batchnorm2d`` and
    ``batchnorm2d_eval`` both finish through here, so they round alike.
    """
    xc *= inv_std
    xc *= gamma
    xc += beta


def _bn_channels(op: str, x: Tensor, gamma: Tensor, beta: Tensor) -> int:
    """The channel count of a batchnorm's [N, C, H, W] input, whose gamma and beta have shape (C,)."""
    if x.ndim != 4:
        raise ShapeError(f"{op} expects 4D input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"{op}: gamma/beta must have shape ({c},)")
    return c


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    momentum: float = 0.1,
) -> Tensor:
    """Train-mode channel-wise batch normalization over (N, H, W).

    Normalizes by the batch statistics (biased variance) and folds them into
    the running stats with the given momentum. Eval mode, which normalizes by
    the running stats, is ``batchnorm2d_eval``; both add the one
    ``eps = _BN_EPS`` to the variance, so train and eval normalize alike.

    The input is centred once into the buffer that becomes the output, and
    1/std, gamma and beta are applied to it in place, in that order, so the
    output rounds exactly as ``gamma * ((x - mean) * inv_std) + beta`` with
    ``inv_std = 1 / sqrt(x.var + eps)`` does (fixed-seed fp32 training
    amplifies any last-bit change in the forward pass). Backward centres the
    input again into the buffer that becomes its gradient, so no normalized
    copy stays alive on the tape; it needs only the per-channel sums of g and
    of g * xhat. All of it runs on the channel rows [C, N·H·W], and the output
    and the input gradient are channel-major. Each per-channel sum adds the
    same numbers in the same order as numpy's reduction of an [N, C, H, W]
    array over (0, 2, 3) (see ``_channel_sum``), so the mean, the variance and
    both gradient sums equal ``x.mean``, ``np.square(xc).mean``, ``g.sum`` and
    ``np.einsum("nchw,nchw->c", g, xc)`` bit for bit. The squares are taken a
    few channels at a time, in a buffer of about 1 MiB, so the output is the
    forward's only full-size allocation. With a worker, each half of the
    channels runs on its own thread.
    """
    c = _bn_channels("batchnorm2d", x, gamma, beta)
    rows = _channel_rows(x.data)
    m = rows.shape[1]
    blocks = x.shape[0] if c > 1 else 1  # see _channel_sum
    mean, var, inv_std = (np.empty(c, dtype=rows.dtype) for _ in range(3))
    out = np.empty_like(rows)
    step = max(1, (1 << 20) // (m * rows.itemsize))  # channels whose squares fit in 1 MiB

    def forward(part: tuple) -> None:
        s, squares = part
        mean[s] = _channel_sum(rows[s], blocks) / m
        np.subtract(rows[s], mean[s, None], out=out[s])
        for c0 in range(s.start, s.stop, step):  # x.var, from the one centring, a few rows at a time
            b = slice(c0, min(c0 + step, s.stop))
            var[b] = _channel_sum(np.square(out[b], out=squares[: b.stop - b.start]), blocks) / m
        state.running_mean[s] += momentum * (mean[s] - state.running_mean[s])
        state.running_var[s] += momentum * (var[s] - state.running_var[s])
        inv_std[s] = _inv_std(var[s])
        _scale_shift(out[s], inv_std[s, None], gamma.data[s, None], beta.data[s, None])

    _split(forward, [(p, np.empty((min(step, p.stop - p.start), m), dtype=rows.dtype)) for p in _halves(c)])
    res = Tensor._wrap(_as_nchw(out, x.shape))

    def bwd(g):
        g = _channel_rows(g)
        rows = _channel_rows(x.data)
        xc = np.empty_like(rows)
        sum_g, sum_g_xhat = np.empty(c, dtype=g.dtype), np.empty(c, dtype=g.dtype)

        def backward(s: slice) -> None:
            np.subtract(rows[s], mean[s, None], out=xc[s])
            sum_g[s] = _channel_sum(g[s], blocks)
            sum_g_xhat[s] = _channel_sum(g[s], blocks, xc[s]) * inv_std[s]
            if not x.requires_grad:
                return
            scale = gamma.data[s] * inv_std[s]
            g[s] *= scale[:, None]
            # gx = scale * (g - sum_g / m - xhat * sum_g_xhat / m), built in xc
            xc[s] *= (-scale * inv_std[s] * sum_g_xhat[s] / m)[:, None]
            xc[s] -= (scale * sum_g[s] / m)[:, None]
            xc[s] += g[s]

        _split(backward, _halves(c))
        if gamma.requires_grad:
            gamma._accumulate(sum_g_xhat)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if x.requires_grad:
            x._accumulate(_as_nchw(xc, x.shape))

    _record(res, (x, gamma, beta), bwd)
    return res


def batchnorm2d_eval(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState) -> Tensor:
    """Eval-mode batch normalization of ``x`` in place, by the running statistics; returns ``x``.

    ``x.data`` is centred by the running mean, and 1/std, gamma and beta are
    applied to it through ``_scale_shift``, so it rounds exactly as
    ``gamma * ((x - running_mean) * inv_std) + beta`` with ``inv_std = 1 /
    sqrt(running_var + eps)`` does, and as ``batchnorm2d`` would with those
    statistics. Every step is elementwise, with the per-channel operands
    broadcast over (N, H, W), so any memory order gives the same bits.

    It has no backward rule and records nothing, so it refuses an ``x`` that
    needs a gradient while a tape is active: its values would no longer be
    those the tape recorded. Running the eval forward under ``no_tape()``
    keeps it off the tape.
    """
    c = _bn_channels("batchnorm2d_eval", x, gamma, beta)
    if x.requires_grad and _active_tape.get() is not None:
        raise TapeError("batchnorm2d_eval has no backward rule; run it under no_tape()")
    col = (c, 1, 1)  # per-channel operands broadcast over (N, H, W)
    x.data -= state.running_mean.reshape(col)
    _scale_shift(x.data, _inv_std(state.running_var).reshape(col), gamma.data.reshape(col),
                 beta.data.reshape(col))
    return x


# ---------------------------------------------------------------------------
# activations


def celu(x: Tensor, alpha: float, inplace: bool = False) -> Tensor:
    """x for x >= 0, alpha * (exp(x/alpha) - 1) otherwise. Approaches ReLU as alpha -> 0.

    With ``inplace=True`` the output is written into ``x.data`` (see the module
    docstring for when a caller may ask for that). Either way the negative
    part is computed in a full-size temporary first. With a worker, channel
    halves of channel-major memory run one per thread.
    """
    if alpha <= 0:
        raise ConfigError(f"celu: alpha must be positive, got {alpha}")
    a = x.data
    out = a if inplace else np.empty_like(a)
    neg = np.empty_like(a)

    def forward(i) -> None:
        # alpha * expm1(min(x, 0) / alpha) + max(x, 0); the max goes to the destination
        np.minimum(a[i], 0.0, out=neg[i])
        neg[i] /= alpha
        np.expm1(neg[i], out=neg[i])
        neg[i] *= alpha
        np.maximum(a[i], 0.0, out=out[i])
        out[i] += neg[i]

    _split(forward, _channel_halves(a, out, neg))
    res = Tensor._wrap(out)

    def bwd(g):
        slope = np.empty_like(out)

        def backward(i) -> None:
            # the slope from the output: exp(x / alpha) = out / alpha + 1 below 0
            np.minimum(out[i], 0.0, out=slope[i])
            slope[i] /= alpha
            slope[i] += 1.0
            g[i] *= slope[i]

        _split(backward, _channel_halves(out, slope, g))
        x._accumulate(g)

    _record(res, (x,), bwd)
    return res


def relu(x: Tensor, inplace: bool = False) -> Tensor:
    """max(x, 0); with ``inplace=True`` written into ``x.data``. With a worker, channel halves
    of channel-major memory run one per thread."""
    a = x.data
    out = a if inplace else np.empty_like(a)
    _split(lambda i: np.maximum(a[i], 0, out=out[i]), _channel_halves(a, out))
    res = Tensor._wrap(out)

    def bwd(g):
        positive = np.empty_like(out, dtype=bool)

        def backward(i) -> None:
            np.greater(out[i], 0, out=positive[i])
            g[i] *= positive[i]

        _split(backward, _channel_halves(out, positive, g))
        x._accumulate(g)

    _record(res, (x,), bwd)
    return res


# ---------------------------------------------------------------------------
# loss


def smoothed_targets(labels: np.ndarray, alpha: float, num_classes: int) -> np.ndarray:
    """Blend one-hot targets with a uniform distribution: (1-alpha)*onehot + alpha/K."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"smoothing factor must be in [0,1], got {alpha}")
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = int(np.argmax((labels < 0) | (labels >= num_classes)))
        raise ValueError(f"label {labels[bad]} at index {bad} outside [0,{num_classes})")
    t = np.full((labels.shape[0], num_classes), alpha / num_classes, dtype=np.float64)
    t[np.arange(labels.shape[0]), labels] += 1.0 - alpha
    return t


def smoothed_cross_entropy(logits: Tensor, labels: np.ndarray, alpha: float, num_classes: int):
    """Mean cross-entropy against label-smoothed targets.

    Returns (scalar loss tensor, target distribution array). Softmax uses
    max-subtraction so the loss is finite for any finite logits.
    """
    if logits.ndim != 2 or logits.shape[1] != num_classes:
        raise ShapeError(f"logits must be [N,{num_classes}], got {logits.shape}")
    targets = smoothed_targets(labels, alpha, num_classes).astype(logits.dtype)
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss_val = -(targets * logp).sum(axis=1).mean()
    res = Tensor._wrap(np.asarray(loss_val, dtype=logits.dtype))

    def bwd(g):
        softmax = np.exp(logp)
        logits._accumulate((softmax - targets) * (g / n))

    _record(res, (logits,), bwd)
    return res, targets


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    step: float
    coords_checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    step: float = 1e-5,
    tol: float = 1e-6,
    max_coords: Optional[int] = None,
) -> GradCheckReport:
    """Compare taped gradients of a scalar function against central differences.

    The taped gradient is float64, whatever the input dtype; the central
    differences evaluate ``f`` at ``np.longdouble`` points, so ``f`` must
    accept a long-double input tensor. Where ``np.longdouble`` is float64 the
    check is the float64 one. Wider differences keep their rounding noise,
    about eps·|f| / step, below what a tolerance resolves on a large |f|.
    Relative error uses a 1e-6 magnitude floor in the denominator so near-zero
    coordinates are compared absolutely. ``max_coords`` samples a coordinate
    subset for large inputs, the same one on every call for a given size.
    """
    base = np.array(x.data, dtype=np.float64)
    xt = Tensor(base.copy(), requires_grad=True, dtype=np.float64)
    with tape():
        out = f(xt)
        if out.size != 1:
            raise ShapeError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
        if not np.isfinite(out.data).all():
            raise ValueError("grad_check: f(x) is not finite")
        backward(out)
    analytic = xt.grad if xt.grad is not None else np.zeros_like(base)
    analytic = analytic.reshape(-1)

    flat = base.reshape(-1)
    coords = np.arange(flat.size)
    if max_coords is not None and max_coords < flat.size:
        coords = np.random.default_rng(0).choice(flat.size, size=max_coords, replace=False)

    def value_at(arr: np.ndarray) -> np.longdouble:
        return f(Tensor(arr, dtype=np.longdouble)).data.item()

    max_err = 0.0
    work = base.astype(np.longdouble)
    wf = work.reshape(-1)
    for idx in coords:
        orig = wf[idx]
        wf[idx] = orig + step
        fp = value_at(work)
        wf[idx] = orig - step
        fm = value_at(work)
        wf[idx] = orig
        numeric = float((fp - fm) / (2.0 * step))
        a = analytic[idx]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        max_err = max(max_err, err)
    return GradCheckReport(max_rel_error=max_err, tol=tol, step=step, coords_checked=len(coords))
