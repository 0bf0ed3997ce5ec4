"""Dense tensors with taped reverse-mode differentiation.

Everything in the trainer runs through this module: a ``Tensor`` wrapping a
contiguous numpy buffer, a ``Tape`` that records backward rules in execution
order, the operator set needed by ResNet-9 (convolution, pooling, batchnorm,
activations, linear, smoothed cross-entropy), and a central-finite-difference
gradient checker used as the independent oracle for the whole engine.

The ops take only what ResNet-9 passes: convolution is a bias-free "same"
conv (stride 1, an odd square k x k kernel, zero padding (k - 1) / 2, so the
output keeps the input's H x W), k x k max pooling has stride k, and linear
always has a bias. Because a same conv's output and input share H·W, its
im2col lowering copies each kernel tap as one flat shifted run of H·W values
per channel and image, then zeroes the entries that fall outside the image or
wrap across a row edge; there is no padded copy of the input. The input
gradient adds the taps back the same way. Batchnorm as an op is train mode
only; eval mode is the conv epilogue below. ``tsum`` and tensor-by-tensor
``mul`` serve ``grad_check``, which projects an op's output to a scalar as
``tsum(mul(op(x), c))``; the model calls neither.

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

``conv2d`` takes an optional ``epilogue`` that transforms each chunk of its
output in place while the chunk is in cache; such a conv records nothing.
The model's eval forward runs each conv block as one conv whose epilogue,
``conv_block_epilogue``, applies eval batchnorm and the activation through the
same arithmetic helpers as ``batchnorm2d`` and ``celu``/``relu``, so the
logits round exactly as separate eval-mode ops would. Eval records no tape.
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


def _record(out: Tensor, inputs: tuple, backward_fn: Callable[[np.ndarray], None]) -> None:
    """Record ``backward_fn`` for ``out`` only if some input needs a gradient, so the
    rule of a single-input op need not check its input."""
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
        x._accumulate(np.full(x.shape, g, dtype=x.dtype))

    _record(out, (x,), bwd)
    return out


# ---------------------------------------------------------------------------
# convolution

# Cap on the im2col buffer of one chunk. Conv lowers a chunk of the batch to
# one column matrix of shape (C·k·k, chunk·H·W), channel-major, and splits
# the batch into as many chunks as keep that matrix under the cap.
#
# 8 MiB keeps the columns and the dX product of a chunk below glibc's largest
# mmap threshold (32 MiB), so the allocator reuses their pages instead of
# mapping and faulting them in again on every call, and keeps them nearer the
# cache. Conv forward/backward ms in one train closure at the default widths
# (whitened stem, CELU), batch 40, 2 cores with OpenBLAS, medians of 11, in
# two sweeps: 4 MiB 263/563 and 281/584, 8 MiB 250/529 and 281/578, 16 MiB
# 259/493 and 305/571. No cap wins both sweeps beyond the host's drift; with
# the padded lowering, 64 MiB measured 339/736 against 301/677 at 8 MiB, and
# 2 MiB and 1 MiB were slower. At fp32 the forward output and dX come out
# bit-identical for any cap (each element is one dot product over the same
# K); the weight gradient sums over chunks, so its last bits move.
_COL_BUDGET_BYTES = 8 << 20


def _taps(k: int, h: int, w: int):
    """Per tap (i, j) of a same conv on an h x w map, in row-major order: the
    run of flat output pixels q whose input pixel q + d, d = (i - p)·w + (j - p),
    lies in the map, as the slices of q and of q + d."""
    p, hw = (k - 1) // 2, h * w
    for i in range(k):
        for j in range(k):
            d = (i - p) * w + (j - p)
            if abs(d) < hw:
                yield i, j, slice(max(0, -d), hw - max(0, d)), slice(max(0, d), hw - max(0, -d))


def _zero_wrapped(cols6: np.ndarray, k: int) -> None:
    """Zero the entries of columns [C, k, k, N, H, W] that a flat shift carries
    across a row edge: output column x of kernel column j where x + j - p
    leaves [0, W)."""
    w, p = cols6.shape[-1], (k - 1) // 2
    for j in range(k):
        s = j - p
        if s < 0:
            cols6[:, :, j, :, :, :-s] = 0.0
        elif s > 0:
            cols6[:, :, j, :, :, max(0, w - s) :] = 0.0


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """[N,C,H,W] -> columns [C·k·k, N·H·W] of a same conv; row (c, i, j) holds tap (i, j) of channel c.

    Each tap is one flat shifted copy of up to H·W values per channel and
    image, straight from the input. The tap's rows that fall above or below
    the image and its columns that wrapped across a row edge are then zeroed.
    """
    n, c, h, w = x.shape
    p = (k - 1) // 2
    src = x.reshape(n, c, h * w).transpose(1, 0, 2)
    cols = np.empty((c, k, k, n, h * w), dtype=x.dtype)
    for i, j, q, xq in _taps(k, h, w):
        cols[:, i, j, :, q] = src[:, :, xq]
    for i in range(k):
        s = i - p
        if s < 0:
            cols[:, i, :, :, : -s * w] = 0.0
        elif s > 0:
            cols[:, i, :, :, max(0, h - s) * w :] = 0.0
    _zero_wrapped(cols.reshape(c, k, k, n, h, w), k)
    return cols.reshape(c * k * k, n * h * w)


def _col2im(cols: np.ndarray, gx: np.ndarray, k: int) -> None:
    """Adjoint of ``_im2col``: add the columns into ``gx``, a zeroed [N,C,H,W] array.

    ``cols`` is scratch: its entries that wrapped across a row edge are zeroed
    first. Then each tap is added into ``gx`` as one flat shifted run, in
    row-major tap order, so every element receives the same additions in the
    same order as when summed tap by tap into a zero-padded buffer and
    cropped. The wrapped +0.0 adds change nothing: a sum that starts at +0.0
    is never -0.0.
    """
    n, c, h, w = gx.shape
    _zero_wrapped(cols.reshape(c, k, k, n, h, w), k)
    cols5 = cols.reshape(c, k, k, n, h * w)
    dst = gx.reshape(n, c, h * w).transpose(1, 0, 2)
    for i, j, q, xq in _taps(k, h, w):
        dst[:, :, xq] += cols5[:, i, j, :, q]


def _conv_chunk(c: int, k2: int, l: int, itemsize: int) -> int:
    per_image = c * k2 * l * itemsize
    return max(1, _COL_BUDGET_BYTES // max(1, per_image))


def conv2d(x: Tensor, w: Tensor, epilogue: Optional[Callable[[np.ndarray], None]] = None) -> Tensor:
    """Same 2D cross-correlation, NCHW layout: stride 1, no bias, and zero
    padding (k - 1) / 2 for an odd k x k kernel, so the output keeps the input's
    H x W. An even or non-square kernel raises ``ShapeError``.

    Each chunk of the batch is lowered to columns [Cin·k·k, chunk·H·W], so
    every product is one GEMM per chunk: the forward ``w2d @ cols``, the
    weight gradient ``g_t @ cols.T`` and the input gradient ``w2d.T @ g_t``,
    where ``g_t`` is the chunk's output gradient as [Cout, chunk·H·W].
    Backward rebuilds the columns rather than keeping them alive on the tape.
    Since output and input share H·W, tap (i, j) of output pixel q reads input
    pixel q + (i - p)·W + (j - p): the lowering copies, and the input gradient
    adds back, each tap as one flat shifted run per channel and image, with no
    padded buffer (see ``_im2col`` and ``_col2im``).

    ``epilogue``, if given, transforms each chunk's product [Cout, chunk·H·W]
    in place, elementwise, before it is written to the output, while the
    product is still in cache. A conv with an epilogue records nothing on the
    tape: it has no backward rule.
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
    chunk = _conv_chunk(cin, k * k, h * wd, x.data.dtype.itemsize)

    out = np.empty((n, cout, h, wd), dtype=x.dtype)
    for n0 in range(0, n, chunk):
        cols = _im2col(x.data[n0 : n0 + chunk], k)
        r = w2d @ cols
        if epilogue is not None:
            epilogue(r)
        out[n0 : n0 + chunk] = r.reshape(cout, -1, h, wd).transpose(1, 0, 2, 3)
        del cols, r  # free before the next chunk allocates its own
    res = Tensor._wrap(out)
    if epilogue is not None:
        return res

    def bwd(g):
        need_x, need_w = x.requires_grad, w.requires_grad
        gw = np.zeros((cout, cw * k * k), dtype=w.dtype) if need_w else None
        gx = np.zeros_like(x.data) if need_x else None
        for n0 in range(0, n, chunk):
            n1 = min(n0 + chunk, n)
            g_t = g[n0:n1].transpose(1, 0, 2, 3).reshape(cout, -1)
            if need_w:
                gw += g_t @ _im2col(x.data[n0:n1], k).T
            if need_x:
                _col2im(w2d.T @ g_t, gx[n0:n1], k)
        if need_w:
            w._accumulate(gw.reshape(w.shape))
        if need_x:
            x._accumulate(gx)

    _record(res, (x, w), bwd)
    return res


# ---------------------------------------------------------------------------
# pooling


def _pool_views(a: np.ndarray, k: int, ho: int, wo: int):
    """The k*k stride-k [N,C,Ho,Wo] views of ``a``, one per window tap, row-major."""
    for i in range(k):
        for j in range(k):
            yield a[:, :, i : i + k * ho : k, j : j + k * wo : k]


def maxpool2d(x: Tensor, k: int) -> Tensor:
    """k x k max pooling with stride k; gradient flows to each window's first (row-major) argmax."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects 4D input, got {x.shape}")
    n, c, h, w = x.shape
    if k > h or k > w:
        raise ShapeError(f"maxpool2d: window {k} exceeds input {h}x{w}")
    ho, wo = h // k, w // k
    taps = _pool_views(x.data, k, ho, wo)
    out = next(taps).copy()
    for v in taps:
        np.maximum(out, v, out=out)
    res = Tensor._wrap(out)

    def bwd(g):
        # windows do not overlap, so each tap's view of gx is written once;
        # rows and columns that no window covers get no gradient
        gx = np.empty_like(x.data)
        gx[:, :, k * ho :] = 0.0
        gx[:, :, :, k * wo :] = 0.0
        # routed entries get 0.0 + g, as summing into zeros would (-0.0 becomes +0.0);
        # the rest get +0.0, which g * False would not for negative g, so the mask
        # multiplies g's bit patterns
        g += 0.0
        bits = f"u{g.itemsize}"
        free = np.ones(out.shape, dtype=bool)  # windows whose argmax is not yet found
        hit = np.empty(out.shape, dtype=bool)
        for v, gv in zip(_pool_views(x.data, k, ho, wo), _pool_views(gx, k, ho, wo)):
            np.equal(v, out, out=hit)
            hit &= free
            free ^= hit
            np.multiply(g.view(bits), hit, out=gv.view(bits))
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
        gflat = np.zeros((n, c, h * w), dtype=x.dtype)
        np.put_along_axis(gflat, arg[:, :, None], g[:, :, None], axis=2)
        x._accumulate(gflat.reshape(x.shape))

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


def _scale_shift(xc: np.ndarray, inv_std: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> None:
    """Finish batchnorm in place on the centred ``xc``: ``xc * inv_std * gamma + beta``.

    The per-channel operands broadcast against ``xc``, and each is applied in
    its own rounding step, in that order. ``batchnorm2d`` and the eval conv
    epilogue both finish through here, so they round alike.
    """
    xc *= inv_std
    xc *= gamma
    xc += beta


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
    the running stats, is ``conv_block_epilogue``; both add the one
    ``eps = _BN_EPS`` to the variance, so train and eval normalize alike.

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

    axes, per_channel = (0, 2, 3), (1, c, 1, 1)
    m = x.size // c
    mean = x.data.mean(axis=axes)
    out = x.data - mean.reshape(per_channel)
    var = np.square(out).mean(axis=axes)  # what x.var computes, from the one centring
    state.running_mean += momentum * (mean - state.running_mean)
    state.running_var += momentum * (var - state.running_var)

    inv_std = _inv_std(var)
    _scale_shift(out, inv_std.reshape(per_channel), gamma.data.reshape(per_channel),
                 beta.data.reshape(per_channel))
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
        # gx = scale * (g - sum_g / m - xhat * sum_g_xhat / m), built in xc
        xc *= (-scale * inv_std * sum_g_xhat / m).reshape(per_channel)
        xc -= (scale * sum_g / m).reshape(per_channel)
        xc += g
        x._accumulate(xc)

    _record(res, (x, gamma, beta), bwd)
    return res


# ---------------------------------------------------------------------------
# activations


def _celu(x: np.ndarray, alpha: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """CELU's forward arithmetic into ``out``, which may be ``x``.

    ``celu`` and the eval conv epilogue both compute through here.
    """
    # alpha * expm1(min(x, 0) / alpha) + max(x, 0); the max goes to the destination
    neg = np.minimum(x, 0.0)
    neg /= alpha
    np.expm1(neg, out=neg)
    neg *= alpha
    out = np.maximum(x, 0.0, out=out)
    out += neg
    return out


def _relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """ReLU's forward arithmetic into ``out``, which may be ``x``; shared as ``_celu`` is."""
    return np.maximum(x, 0, out=out)


def celu(x: Tensor, alpha: float, inplace: bool = False) -> Tensor:
    """x for x >= 0, alpha * (exp(x/alpha) - 1) otherwise. Approaches ReLU as alpha -> 0.

    With ``inplace=True`` the output is written into ``x.data`` (see the module
    docstring for when a caller may ask for that).
    """
    if alpha <= 0:
        raise ConfigError(f"celu: alpha must be positive, got {alpha}")
    out = _celu(x.data, alpha, out=x.data if inplace else None)
    res = Tensor._wrap(out)

    def bwd(g):
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
    out = _relu(x.data, out=x.data if inplace else None)
    res = Tensor._wrap(out)

    def bwd(g):
        g *= out > 0
        x._accumulate(g)

    _record(res, (x,), bwd)
    return res


def conv_block_epilogue(gamma: Tensor, beta: Tensor, state: BatchNormState, activation: str,
                        celu_alpha: float) -> Callable[[np.ndarray], None]:
    """A ``conv2d`` epilogue that applies an eval-mode conv block's batchnorm and activation.

    On each conv product [Cout, chunk·H·W] it centres by the running mean,
    finishes batchnorm and applies ``activation`` ("relu" or "celu"), all in
    place. It rounds exactly as ``gamma * ((x - running_mean) * inv_std) + beta``
    with ``inv_std = 1 / sqrt(running_var + eps)``, followed by ``relu`` or
    ``celu``, does: batchnorm finishes through the same helpers as
    ``batchnorm2d``, and the activation through those of ``relu`` and ``celu``.
    """
    rows = (-1, 1)  # one row per output channel
    mean = state.running_mean.reshape(rows)
    inv_std = _inv_std(state.running_var).reshape(rows)
    g, b = gamma.data.reshape(rows), beta.data.reshape(rows)

    def epilogue(a: np.ndarray) -> None:
        a -= mean
        _scale_shift(a, inv_std, g, b)
        if activation == "celu":
            _celu(a, celu_alpha, out=a)
        else:
            _relu(a, out=a)

    return epilogue


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
