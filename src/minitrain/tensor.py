"""Dense tensors with taped reverse-mode differentiation.

Everything in the trainer runs through this module: a ``Tensor`` wrapping a
contiguous numpy buffer, a ``Tape`` that records backward rules in execution
order, the operator set needed by ResNet-9 (convolution, pooling, batchnorm,
activations, linear, smoothed cross-entropy), and a central-finite-difference
gradient checker used as the independent oracle for the whole engine.

The active tape is a context variable, so each thread records on its own:
one active tape per training thread. Tensors built without an explicit dtype
are float32. Kernels are plain numpy and deterministic for a fixed input.

Gradients are owned, not shared. ``backward`` takes each op output's ``.grad``
away before running its rule, so after ``backward`` only leaf tensors (those
no op produced, such as parameters) keep a ``.grad``; intermediate gradients
and the arrays their rules captured are freed as backward proceeds. A rule
may therefore overwrite the gradient it is handed, and it passes
``Tensor._accumulate`` only arrays that nothing else holds, which lets the
first gradient a tensor receives become its ``.grad`` without a copy.

``celu`` and ``relu`` take ``inplace=True`` to write their output into their
input's buffer instead of a new one. The input tensor then holds the
activation's output in ``data``, and still receives its gradient. A caller
may ask for this only when nothing reads the input's values afterwards: no
other op consumes the input, and the rule of the op that produced it does
not read its own output. Batchnorm's rule reads only its own input, so a
conv block applies its activation in place on the batchnorm output and keeps
two full-size buffers alive, not three. A graph that fans an activation's
input out, such as ``add(relu(t), t)``, must use the default.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested op."""


class ConfigError(ValueError):
    """An op or module was configured with an invalid hyperparameter."""


class TapeError(RuntimeError):
    """Tape misuse: backward on a consumed tape, or no tape at all."""


class Tensor:
    """Dense n-dimensional array with an optional gradient slot.

    ``data`` is always a contiguous numpy array. ``grad`` is lazily allocated
    with the same shape during backward. ``tape`` links an op output back to
    the tape it was recorded on.
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

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``, adopting it as ``grad`` when it is the first.

        The caller hands over ``g``: nothing else may hold it. It is adopted
        only if it matches ``data`` in dtype and shape and is writeable and
        C-contiguous; otherwise it is added into a zeroed buffer.
        """
        if self.grad is not None:
            self.grad += g
        elif (g.dtype == self.data.dtype and g.shape == self.data.shape
              and g.flags.writeable and g.flags.c_contiguous):
            self.grad = g
        else:
            self.grad = np.zeros_like(self.data)
            self.grad += g

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
def tape():
    """Context manager installing a fresh active tape in this thread's context."""
    t = Tape()
    token = _active_tape.set(t)
    try:
        yield t
    finally:
        _active_tape.reset(token)


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(tensor) into every requires_grad tensor on the tape."""
    if loss.tape is None:
        raise TapeError("loss was not produced under an active tape")
    loss.tape.backward(loss)


def _record(out: Tensor, inputs: tuple, backward_fn: Callable[[np.ndarray], None]) -> None:
    t = _active_tape.get()
    if t is None:
        return
    if not any(i is not None and i.requires_grad for i in inputs):
        return
    out.requires_grad = True
    out.tape = t
    t.record(out, backward_fn)


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
            b._accumulate(g.copy() if a.requires_grad else g)

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
        if x.requires_grad:
            x._accumulate(np.full(x.shape, g, dtype=x.dtype))

    _record(out, (x,), bwd)
    return out


def tmean(x: Tensor) -> Tensor:
    return mul(tsum(x), 1.0 / x.size)


# ---------------------------------------------------------------------------
# convolution

# Cap on the im2col buffer of one chunk. Conv lowers a chunk of the batch to
# one column matrix of shape (C·kh·kw, chunk·Ho·Wo), channel-major, and splits
# the batch into as many chunks as keep that matrix under the cap.
#
# 8 MiB keeps the columns and the dX product of a chunk below glibc's largest
# mmap threshold (32 MiB), so the allocator reuses their pages instead of
# mapping and faulting them in again on every call, and keeps them nearer the
# cache. Measured conv forward/backward ms per SAM closure at the default
# widths, batch 40, 2 cores with OpenBLAS: 64 MiB 339/736, 8 MiB 301/677,
# 4 MiB 289/713; 2 MiB and 1 MiB were slower. At fp32 the forward output and
# dX come out bit-identical for any cap (each element is one dot product over
# the same K); the weight gradient sums over chunks, so its last bits move.
_COL_BUDGET_BYTES = 8 << 20


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """[N,C,H,W] -> columns [C·kh·kw, N·Ho·Wo]; row (c, i, j) holds tap (i, j) of channel c."""
    n, c, h, w = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(c * kh * kw, n * ho * wo)


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of ``_im2col``: sum columns back into an [N,C,H,W] view."""
    n, c, h, w = x_shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.zeros((c, n, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(c, kh, kw, n, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols6[:, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w].transpose(1, 0, 2, 3)


def _conv_chunk(c: int, k2: int, l: int, itemsize: int) -> int:
    per_image = c * k2 * l * itemsize
    return max(1, _COL_BUDGET_BYTES // max(1, per_image))


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor] = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2D cross-correlation with zero padding, NCHW layout.

    Each chunk of the batch is lowered to columns [Cin·kh·kw, chunk·Ho·Wo], so
    every product is one GEMM per chunk: the forward ``w2d @ cols``, the
    weight gradient ``g_t @ cols.T`` and the input gradient ``w2d.T @ g_t``,
    where ``g_t`` is the chunk's output gradient as [Cout, chunk·Ho·Wo].
    Backward rebuilds the columns rather than keeping them alive on the tape.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4D x and w, got {x.shape} and {w.shape}")
    n, cin, h, wd = x.shape
    cout, cw, kh, kw = w.shape
    if cin != cw:
        raise ShapeError(
            f"conv2d: x has {cin} input channels but w expects {cw} (x {x.shape}, w {w.shape})"
        )
    if kh > h + 2 * pad or kw > wd + 2 * pad:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{wd + 2 * pad}")
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    w2d = w.data.reshape(cout, cw * kh * kw)
    chunk = _conv_chunk(cin, kh * kw, ho * wo, x.data.dtype.itemsize)

    out = np.empty((n, cout, ho, wo), dtype=x.dtype)
    for n0 in range(0, n, chunk):
        cols = _im2col(x.data[n0 : n0 + chunk], kh, kw, stride, pad)
        out[n0 : n0 + chunk] = (w2d @ cols).reshape(cout, -1, ho, wo).transpose(1, 0, 2, 3)
        del cols  # free before the next chunk allocates its columns
    if b is not None:
        if b.shape != (cout,):
            raise ShapeError(f"conv2d: bias shape {b.shape} != ({cout},)")
        out += b.data.reshape(1, cout, 1, 1)
    res = Tensor._wrap(out)

    def bwd(g):
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2, 3)))
        need_x, need_w = x.requires_grad, w.requires_grad
        if not (need_x or need_w):
            return
        gw = np.zeros((cout, cw * kh * kw), dtype=w.dtype) if need_w else None
        gx = np.empty_like(x.data) if need_x else None
        for n0 in range(0, n, chunk):
            n1 = min(n0 + chunk, n)
            g_t = g[n0:n1].transpose(1, 0, 2, 3).reshape(cout, -1)
            if need_w:
                gw += g_t @ _im2col(x.data[n0:n1], kh, kw, stride, pad).T
            if need_x:
                gx[n0:n1] = _col2im(w2d.T @ g_t, (n1 - n0, cin, h, wd), kh, kw, stride, pad)
        if need_w:
            w._accumulate(gw.reshape(w.shape))
        if need_x:
            x._accumulate(gx)

    _record(res, (x, w, b), bwd)
    return res


# ---------------------------------------------------------------------------
# pooling


def _pool_views(a: np.ndarray, k: int, stride: int, ho: int, wo: int):
    """The k*k strided [N,C,Ho,Wo] views of ``a``, one per window tap, row-major."""
    for i in range(k):
        for j in range(k):
            yield a[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]


def maxpool2d(x: Tensor, k: int, stride: Optional[int] = None) -> Tensor:
    """k x k max pooling; gradient flows to each window's first (row-major) argmax."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects 4D input, got {x.shape}")
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ShapeError(f"maxpool2d: window {k} exceeds input {h}x{w}")
    stride = stride or k
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    taps = _pool_views(x.data, k, stride, ho, wo)
    out = next(taps).copy()
    for v in taps:
        np.maximum(out, v, out=out)
    res = Tensor._wrap(out)

    def bwd(g):
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        taken = np.zeros(out.shape, dtype=bool)
        for v, gv in zip(_pool_views(x.data, k, stride, ho, wo), _pool_views(gx, k, stride, ho, wo)):
            hit = (v == out) & ~taken
            gv += g * hit
            taken |= hit
        x._accumulate(gx)

    _record(res, (x,), bwd)
    return res


def global_maxpool(x: Tensor) -> Tensor:
    """Per-channel spatial max: [N,C,H,W] -> [N,C]."""
    if x.ndim != 4:
        raise ShapeError(f"global_maxpool expects 4D input, got {x.shape}")
    n, c, h, w = x.shape
    flat = x.data.reshape(n, c, h * w)
    arg = flat.argmax(axis=2)
    out = np.take_along_axis(flat, arg[:, :, None], axis=2)[:, :, 0]
    res = Tensor._wrap(np.ascontiguousarray(out))

    def bwd(g):
        if not x.requires_grad:
            return
        gflat = np.zeros((n, c, h * w), dtype=x.dtype)
        np.put_along_axis(gflat, arg[:, :, None], g[:, :, None], axis=2)
        x._accumulate(gflat.reshape(x.shape))

    _record(res, (x,), bwd)
    return res


# ---------------------------------------------------------------------------
# linear


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x[N,D] @ w[K,D]^T + b[K]."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear expects 2D x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: inner dims differ (x {x.shape}, w {w.shape})")
    out = x.data @ w.data.T
    if b is not None:
        if b.shape != (w.shape[0],):
            raise ShapeError(f"linear: bias shape {b.shape} != ({w.shape[0]},)")
        out = out + b.data
    res = Tensor._wrap(out)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g @ w.data)
        if w.requires_grad:
            w._accumulate(g.T @ x.data)
        if b is not None and b.requires_grad:
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


def batchnorm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    state: BatchNormState,
    mode: str = "train",
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Channel-wise batch normalization over (N, H, W).

    Train mode normalizes by batch statistics (biased variance) and folds them
    into the running stats with the given momentum; eval mode uses the running
    stats. With momentum=1 one train step makes eval reproduce train exactly.

    The input is centred once into the buffer that becomes the output, and
    1/std, gamma and beta are applied to it in place, in that order, so the
    output rounds exactly as ``gamma * ((x - mean) * inv_std) + beta`` with
    ``inv_std = 1 / sqrt(x.var + eps)`` does (fixed-seed fp32 training
    amplifies any last-bit change in the forward pass). Backward centres the input again into the buffer that
    becomes its gradient, so no normalized copy stays alive on the tape; it
    needs only the per-channel sums of g and of g * xhat.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d expects 4D input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm2d: gamma/beta must have shape ({c},)")
    if mode not in ("train", "eval"):
        raise ConfigError(f"batchnorm2d: unknown mode {mode!r}")

    axes, per_channel = (0, 2, 3), (1, c, 1, 1)
    m = x.size // c
    if mode == "train":
        mean = x.data.mean(axis=axes)
        out = x.data - mean.reshape(per_channel)
        var = np.square(out).mean(axis=axes)  # what x.var computes, from the one centring
        state.running_mean += momentum * (mean - state.running_mean)
        state.running_var += momentum * (var - state.running_var)
    else:
        # copies: backward must see the statistics this forward used
        mean, var = state.running_mean.copy(), state.running_var.copy()
        out = x.data - mean.reshape(per_channel)

    inv_std = 1.0 / np.sqrt(var + eps)
    out *= inv_std.reshape(per_channel)
    out *= gamma.data.reshape(per_channel)
    out += beta.data.reshape(per_channel)
    res = Tensor._wrap(out)

    def bwd(g):
        xc = x.data - mean.reshape(per_channel)
        sum_g = g.sum(axis=axes)
        sum_g_xhat = np.einsum("nchw,nchw->c", g, xc) * inv_std
        if gamma.requires_grad:
            gamma._accumulate(sum_g_xhat)
        if beta.requires_grad:
            beta._accumulate(sum_g)
        if not x.requires_grad:
            return
        scale = gamma.data * inv_std
        g *= scale.reshape(per_channel)
        if mode == "train":
            # gx = scale * (g - sum_g / m - xhat * sum_g_xhat / m), built in xc
            xc *= (-scale * inv_std * sum_g_xhat / m).reshape(per_channel)
            xc -= (scale * sum_g / m).reshape(per_channel)
            xc += g
            g = xc
        x._accumulate(g)

    _record(res, (x, gamma, beta), bwd)
    return res


# ---------------------------------------------------------------------------
# activations


def celu(x: Tensor, alpha: float, inplace: bool = False) -> Tensor:
    """x for x >= 0, alpha * (exp(x/alpha) - 1) otherwise. Approaches ReLU as alpha -> 0.

    With ``inplace=True`` the output is written into ``x.data`` (see the module
    docstring for when a caller may ask for that).
    """
    if alpha <= 0:
        raise ConfigError(f"celu: alpha must be positive, got {alpha}")
    # alpha * expm1(min(x, 0) / alpha) + max(x, 0); the max goes to the destination
    neg = np.minimum(x.data, 0.0)
    neg /= alpha
    np.expm1(neg, out=neg)
    neg *= alpha
    out = np.maximum(x.data, 0.0, out=x.data if inplace else None)
    out += neg
    res = Tensor._wrap(out)

    def bwd(g):
        if x.requires_grad:
            # the slope from the output: exp(x / alpha) = out / alpha + 1 below 0
            slope = np.minimum(out, 0.0)
            slope /= alpha
            slope += 1.0
            g *= slope
            x._accumulate(g)

    _record(res, (x,), bwd)
    return res


def relu(x: Tensor, inplace: bool = False) -> Tensor:
    """max(x, 0); with ``inplace=True`` written into ``x.data``."""
    out = np.maximum(x.data, 0, out=x.data if inplace else None)
    res = Tensor._wrap(out)

    def bwd(g):
        if x.requires_grad:
            g *= out > 0
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
        if logits.requires_grad:
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
    rng: Optional[np.random.Generator] = None,
) -> GradCheckReport:
    """Compare taped gradients of a scalar function against central differences.

    Runs in float64 regardless of the input dtype. Relative error uses a 1e-6
    magnitude floor in the denominator so near-zero coordinates are compared
    absolutely. ``max_coords`` samples a coordinate subset for large inputs.
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
        gen = rng or np.random.default_rng(0)
        coords = gen.choice(flat.size, size=max_coords, replace=False)

    def value_at(arr: np.ndarray) -> float:
        return float(f(Tensor(arr, dtype=np.float64)).data)

    max_err = 0.0
    work = base.copy()
    wf = work.reshape(-1)
    for idx in coords:
        orig = wf[idx]
        wf[idx] = orig + step
        fp = value_at(work)
        wf[idx] = orig - step
        fm = value_at(work)
        wf[idx] = orig
        numeric = (fp - fm) / (2.0 * step)
        a = analytic[idx]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        max_err = max(max_err, err)
    return GradCheckReport(max_rel_error=max_err, tol=tol, step=step, coords_checked=len(coords))
