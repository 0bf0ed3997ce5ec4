"""The engine's two threads give the numbers of its one: the split ops, a
training closure and a SAM+GC step, bit for bit."""

import contextlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minitrain import tensor as T
from minitrain.models import ModelSpec, build_resnet9
from minitrain.optim import OptConfig, OptState, train_step
from minitrain.tensor import BatchNormState, Tensor, backward, tape, tsum
from minitrain.train import make_closure

F64 = np.float64


def _bits(a):
    a = np.asarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _same_bits(got, ref, names):
    assert len(got) == len(ref) == len(names)
    for name, a, b in zip(names, got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=name)


@contextlib.contextmanager
def _worker():
    """The engine's worker context, whatever BLAS runs; yields the list of tasks handed to the worker.
    The interpreter switches threads every 10 microseconds meanwhile, so the two halves interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with T._worker_thread():
            pool, handed = T._worker.get(), []
            submit = pool.submit
            pool.submit = lambda fn, *args: handed.append(fn) or submit(fn, *args)
            yield handed
    finally:
        sys.setswitchinterval(interval)


def _channel_major(a):
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


@st.composite
def split_cases(draw):
    """A dtype and a channel-major [N, C, H, W] array with C in 1, 2, 3 and 5; nine images make
    numpy sum one column of per-image block sums pairwise, and a wider one image after image."""
    dtype = draw(st.sampled_from([np.float32, F64]), label="dtype")
    shape = (draw(st.sampled_from([1, 2, 9]), label="n"), draw(st.sampled_from([1, 2, 3, 5]), label="c"),
             2 * draw(st.integers(1, 2), label="h/2"), 2 * draw(st.integers(1, 3), label="w/2"))
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    # tie-heavy levels for the pool, with signed zeros, then Gaussian values
    levels = np.array([-1.0, -0.0, 0.0, 1.0])
    x = levels[rng.integers(0, 4, size=shape)] if draw(st.booleans(), label="ties") else rng.normal(size=shape)
    return dtype, _channel_major(x.astype(dtype)), rng


def _run(f, g, *tensors):
    """``f(*tensors)`` under a tape, then backward of <output, g>; the output and the tensors' gradients."""
    with tape():
        out = f(*tensors)
        backward(tsum(T.mul(out, Tensor(g, dtype=out.dtype))))
    return [out.data] + [t.grad for t in tensors]


def _leaf(a):
    t = Tensor._wrap(a.copy(order="K"))
    t.requires_grad = True
    return t


def _both(run):
    """``run()`` serially and with a worker; returns both results and the tasks the worker got."""
    serial = run()
    with _worker() as handed:
        threaded = run()
    return serial, threaded, handed


@given(split_cases())
def test_batchnorm_halves_keep_every_bit(case):
    dtype, x, rng = case
    c = x.shape[1]
    g = _channel_major(rng.normal(size=x.shape).astype(dtype))
    gamma, beta = rng.normal(size=c).astype(dtype), rng.normal(size=c).astype(dtype)
    running = rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2, size=c).astype(dtype)

    def run():
        state = BatchNormState(running[0].copy(), running[1].copy())
        got = _run(lambda t, gm, bt: T.batchnorm2d(t, gm, bt, state, momentum=0.3), g,
                   _leaf(x), Tensor(gamma, requires_grad=True, dtype=dtype), Tensor(beta, requires_grad=True, dtype=dtype))
        return got + [state.running_mean, state.running_var]

    serial, threaded, handed = _both(run)
    _same_bits(threaded, serial, ["out", "dX", "dgamma", "dbeta", "running_mean", "running_var"])
    assert len(handed) == (2 if c > 1 else 0)  # forward and backward


@given(split_cases(), st.sampled_from(["celu", "relu", "maxpool2d"]), st.booleans())
def test_activation_and_pool_halves_keep_every_bit(case, name, inplace):
    dtype, x, rng = case
    op = {"celu": lambda t: T.celu(t, 0.3, inplace=inplace), "relu": lambda t: T.relu(t, inplace=inplace),
          "maxpool2d": T.maxpool2d}[name]
    out_shape = x[:, :, ::2, ::2].shape if name == "maxpool2d" else x.shape
    levels = np.array([-2.5, -0.0, 0.0, 1.0])
    g = _channel_major(levels[rng.integers(0, 4, size=out_shape)].astype(dtype))

    def run():
        leaf = _leaf(x)
        # an in-place activation overwrites its input, so it gets a buffer of its own
        return _run(lambda t: op(T.mul(t, 1.0) if inplace else t), g, leaf)

    serial, threaded, handed = _both(run)
    _same_bits(threaded, serial, ["out", "dX"])
    assert len(handed) == (2 if x.shape[1] > 1 else 0)


@pytest.mark.parametrize("dtype", [np.float32, F64], ids=["fp32", "fp64"])
def test_conv_walks_one_chunk_size_on_both_threads(monkeypatch, dtype):
    # 13 images at 4 per chunk: the forward halves (7 and 6 images) walk 4+3 and 4+2,
    # and the input and weight gradients 4+4+4+1, with a worker as without one
    rng = np.random.default_rng(5)
    n, cin, cout, k, side = 13, 4, 6, 3, 8  # 64 columns an image: products of any width agree
    x = _channel_major(rng.normal(size=(n, cin, side, side)).astype(dtype))
    wk = rng.normal(size=(cout, cin, k, k)).astype(dtype)
    g = _channel_major(rng.normal(size=(n, cout, side, side)).astype(dtype))
    per_image = cin * k * k * side * side * np.dtype(dtype).itemsize
    monkeypatch.setattr(T, "_COL_BUDGET_BYTES", 4 * per_image + per_image // 2)
    assert T._conv_chunk(cin, k * k, side * side, np.dtype(dtype).itemsize) == 4
    caller, walked, phase = threading.current_thread(), [], {"now": "forward"}

    def spy(kernel, product, images):
        """``kernel``, logging the product it serves, the thread and the images of each call."""
        def run(*args):
            thread = "caller" if threading.current_thread() is caller else "worker"
            walked.append((product(), thread, images(*args)))
            return kernel(*args)
        return run

    monkeypatch.setattr(T, "_im2col", spy(T._im2col, lambda: phase["now"], lambda a, k, buf: a.shape[0]))
    monkeypatch.setattr(T, "_col2im", spy(T._col2im, lambda: "dX", lambda cols, gx, k: gx.shape[0]))

    def run():
        walked.clear()
        phase["now"] = "forward"
        leaf, wt = _leaf(x), Tensor(wk, requires_grad=True, dtype=dtype)
        with tape():
            out = T.conv2d(leaf, wt)
            phase["now"] = "dW"
            backward(tsum(T.mul(out, Tensor(g, dtype=dtype))))
        plan = {}
        for product, thread, images in walked:
            plan.setdefault((product, thread), []).append(images)
        return [out.data, leaf.grad, wt.grad], plan

    (serial, serial_plan), (threaded, threaded_plan), _ = _both(run)
    assert serial_plan == {("forward", "caller"): [4, 4, 4, 1], ("dX", "caller"): [4, 4, 4, 1],
                           ("dW", "caller"): [4, 4, 4, 1]}
    assert threaded_plan == {("forward", "caller"): [4, 3], ("forward", "worker"): [4, 2],
                             ("dX", "caller"): [4, 4, 4, 1], ("dW", "worker"): [4, 4, 4, 1]}
    _same_bits(threaded, serial, ["out", "dX", "dW"])


SHAPES = {
    "default_whitened_celu": {"widths": (64, 128, 256, 512), "stem": "whitened", "activation": "celu"},
    "narrow_plain_relu": {"widths": (32, 64, 128, 256), "stem": "plain", "activation": "relu"},
}


@pytest.mark.parametrize("shape, dtype", [("default_whitened_celu", np.float32), ("default_whitened_celu", F64),
                                          ("narrow_plain_relu", np.float32)],
                         ids=["default-fp32", "default-fp64", "narrow-fp32"])
def test_threaded_closure_and_sam_gc_step_match_serial_bit_for_bit(shape, dtype):
    # batch 40: the convs' chunks of the whole and of half the cap end on tails, and every
    # GEMM shape of a training step runs, on both threads
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3, 32, 32)).astype(dtype)
    y = rng.integers(0, 10, size=40)
    filters = rng.normal(size=(27, 3, 3, 3)) * 0.3 if SHAPES[shape]["stem"] == "whitened" else None
    cfg = OptConfig(lr_peak=0.4, momentum=0.9, decay=5e-4, rho=0.05, gc_enabled=True, total_steps=10)

    def run():
        model, _ = build_resnet9(ModelSpec(celu_alpha=0.3, **SHAPES[shape]), seed=3, whitening_filters=filters,
                                 dtype=dtype)
        closure, numbers = make_closure(model, x, y, 0.1), {}

        def closure_recording_the_first_call():  # SAM's first closure is a plain train closure
            loss = closure()
            if not numbers:
                numbers["closure loss"] = np.asarray(loss, dtype=F64)
                numbers.update({f"closure grad {e.name}": e.tensor.grad.copy() for e in model.params})
                numbers.update({f"closure bn{i} {s}": getattr(bn, s).copy() for i, bn in enumerate(model.bn_states())
                                for s in ("running_mean", "running_var")})
            return loss

        loss = train_step(model.params, OptState.create(model.params), 0.1, cfg, closure_recording_the_first_call)
        numbers["step loss"] = np.asarray(loss, dtype=F64)
        numbers.update({f"step param {e.name}": e.tensor.data for e in model.params})
        numbers.update({f"step grad {e.name}": e.tensor.grad for e in model.params})
        numbers.update({f"step bn{i} {s}": getattr(bn, s) for i, bn in enumerate(model.bn_states())
                        for s in ("running_mean", "running_var")})
        return numbers

    serial, threaded, handed = _both(run)
    assert list(threaded) == list(serial)
    _same_bits(list(threaded.values()), list(serial.values()), list(serial))
    assert len(handed) > 100  # every split op of both closures went to the worker
