import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from minitrain import tensor as T
from minitrain.models import ModelSpec, build_resnet9
from minitrain.tensor import (
    BatchNormState,
    ConfigError,
    ShapeError,
    TapeError,
    Tensor,
    backward,
    batchnorm2d,
    batchnorm2d_eval,
    celu,
    conv2d,
    global_maxpool,
    grad_check,
    linear,
    maxpool2d,
    relu,
    smoothed_cross_entropy,
    smoothed_targets,
    tape,
    tsum,
)

import oracles

F64 = np.float64


def t64(a, rg=False):
    return Tensor(np.asarray(a, dtype=F64), requires_grad=rg, dtype=F64)


# ---------------------------------------------------------------------------
# conv2d


def test_conv_scalar_product():
    out = conv2d(t64([[[[2.0]]]]), t64([[[[3.0]]]]))
    assert out.data.reshape(()) == pytest.approx(6.0)


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(size=(2, 3, 5, 5)))
    w = np.zeros((3, 3, 1, 1))
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = conv2d(x, t64(w))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    out = conv2d(t64(x), t64(w))
    ref = oracles.conv2d_loops(x, w, pad=1)
    np.testing.assert_allclose(out.data, ref, rtol=1e-5)


def test_conv_channel_mismatch_rejected():
    with pytest.raises(ShapeError, match="channels"):
        conv2d(t64(np.zeros((1, 3, 4, 4))), t64(np.zeros((2, 4, 3, 3))))


def test_conv_even_or_non_square_kernel_rejected():
    # every conv is a same conv: an odd square kernel, padded by (k - 1) / 2
    for kh, kw in ((2, 2), (4, 4), (1, 3), (3, 1), (3, 5)):
        with pytest.raises(ShapeError, match="odd square kernel"):
            conv2d(t64(np.zeros((1, 1, 5, 5))), t64(np.zeros((1, 1, kh, kw))))


# ---------------------------------------------------------------------------
# pooling


def test_maxpool_basic():
    out = maxpool2d(t64([[[[1.0, 2.0], [3.0, 4.0]]]]))
    assert out.data.reshape(()) == 4.0


def test_maxpool_tie_routes_to_first_element():
    x = t64(np.ones((1, 1, 2, 2)), rg=True)
    with tape():
        out = maxpool2d(x)
        backward(tsum(out))
    expected = np.zeros((1, 1, 2, 2))
    expected[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 4, 4))
    out = maxpool2d(t64(x))
    np.testing.assert_allclose(out.data, oracles.maxpool2d_loops(x), rtol=1e-12)


def test_maxpool_window_too_large():
    # the 2x2 windows cover no 1-pixel side and leave a row or column of an odd one
    for shape in [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 3, 3), (1, 1, 3, 4), (2, 3, 6, 5)]:
        with pytest.raises(ShapeError, match="even H and W"):
            maxpool2d(t64(np.zeros(shape)))


def test_global_maxpool_basic():
    out = global_maxpool(t64([[[[5.0, 1.0], [2.0, 3.0]]]]))
    assert out.data.tolist() == [[5.0]]


def test_global_maxpool_tie_and_oracle():
    x = t64(np.full((1, 2, 3, 3), 7.0), rg=True)
    with tape():
        out = global_maxpool(x)
        backward(tsum(out))
    assert out.data.tolist() == [[7.0, 7.0]]
    # gradient lands on the first spatial position of each channel
    assert x.grad[0, :, 0, 0].tolist() == [1.0, 1.0]
    assert x.grad.sum() == 2.0

    rng = np.random.default_rng(4)
    r = rng.normal(size=(2, 3, 4, 5))
    np.testing.assert_allclose(global_maxpool(t64(r)).data, oracles.global_maxpool_loops(r), rtol=1e-12)


# ---------------------------------------------------------------------------
# linear


def test_linear_basic():
    out = linear(t64([[1.0, 0.0]]), t64([[3.0, 5.0]]), t64([1.0]))
    assert out.data.tolist() == [[4.0]]


def test_linear_identity():
    x = np.random.default_rng(5).normal(size=(3, 4))
    out = linear(t64(x), t64(np.eye(4)), t64(np.zeros(4)))
    np.testing.assert_array_equal(out.data, x)


def test_linear_matches_loop_oracle():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 8))
    w = rng.normal(size=(10, 8))
    b = rng.normal(size=10)
    out = linear(t64(x), t64(w), t64(b))
    np.testing.assert_allclose(out.data, oracles.linear_loops(x, w, b), rtol=1e-5)


def test_linear_shape_mismatch():
    with pytest.raises(ShapeError):
        linear(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))), t64(np.zeros(4)))


# ---------------------------------------------------------------------------
# batchnorm


def test_batchnorm_two_values():
    x = t64(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
    st = BatchNormState.create(1, dtype=F64)
    out = batchnorm2d(x, t64([1.0]), t64([0.0]), st)
    np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-5)


def test_batchnorm_constant_channel_is_finite_zero():
    x = t64(np.full((2, 1, 3, 3), 4.2))
    st = BatchNormState.create(1, dtype=F64)
    out = batchnorm2d(x, t64([1.0]), t64([0.0]), st)
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, 0.0, atol=1e-8)

    # N*H*W == 1: the one value is its own mean, so the output is beta and no
    # gradient reaches x or gamma.
    x1, gamma = t64(np.full((1, 1, 1, 1), 4.2), rg=True), t64([1.5], rg=True)
    with tape():
        out1 = batchnorm2d(x1, gamma, t64([0.7]), BatchNormState.create(1, dtype=F64))
        backward(tsum(out1))
    assert np.isfinite(out1.data).all()
    assert out1.data.item() == 0.7
    assert (x1.grad == 0).all() and (gamma.grad == 0).all()


def _eval_block(x, gamma, beta, state, alpha=0.3):
    """Eval batchnorm and then CELU on a copy of ``x``, as an eval conv block
    applies them to its conv output: both in place."""
    h = batchnorm2d_eval(Tensor(x.copy(), dtype=x.dtype), gamma, beta, state)
    return celu(h, alpha, inplace=True).data


def _celu_textbook(h, alpha):
    return np.maximum(h, 0.0) + alpha * np.expm1(np.minimum(h, 0.0) / alpha)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batchnorm_forward_rounds_like_the_textbook_formula(mode):
    # fp32 training amplifies last-bit differences in the forward pass, so the
    # in-place kernel keeps the rounding of gamma * ((x - mean) * inv_std) + beta;
    # eval mode is checked through CELU, as a block runs it, which keeps every value's sign
    rng = np.random.default_rng(9)
    x = (rng.normal(size=(6, 5, 7, 7)) * 3 + 1).astype(np.float32)
    g, b = rng.normal(size=5).astype(np.float32), rng.normal(size=5).astype(np.float32)
    st = BatchNormState(rng.normal(size=5).astype(np.float32), rng.uniform(0.5, 2, size=5).astype(np.float32))
    mean, var = (x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))) if mode == "train" else (st.running_mean, st.running_var)
    inv_std = (1.0 / np.sqrt(var + 1e-5)).reshape(1, 5, 1, 1)
    ref = g.reshape(1, 5, 1, 1) * ((x - mean.reshape(1, 5, 1, 1)) * inv_std) + b.reshape(1, 5, 1, 1)
    if mode == "train":
        out = batchnorm2d(Tensor(x), Tensor(g), Tensor(b), st).data
    else:
        out, ref = _eval_block(x, Tensor(g), Tensor(b), st), _celu_textbook(ref, 0.3)
    np.testing.assert_array_equal(out, ref)


def test_batchnorm_momentum_one_makes_eval_match_train():
    rng = np.random.default_rng(7)
    x = t64(rng.normal(size=(4, 3, 5, 5)))
    g, b = t64(rng.normal(size=3)), t64(rng.normal(size=3))
    st = BatchNormState.create(3, dtype=F64)
    train_out = celu(batchnorm2d(x, g, b, st, momentum=1.0), 0.3)
    eval_out = _eval_block(x.data, g, b, st)
    np.testing.assert_allclose(eval_out, train_out.data, rtol=1e-5, atol=1e-7)


def test_batchnorm_eval_works_in_place_in_any_memory_order_and_records_nothing():
    rng = np.random.default_rng(10)
    x = (rng.normal(size=(3, 4, 5, 6)) * 3 + 1).astype(np.float32)
    g, b = (Tensor(rng.normal(size=4), requires_grad=True) for _ in range(2))
    st = BatchNormState(rng.normal(size=4).astype(np.float32), rng.uniform(0.5, 2, size=4).astype(np.float32))
    c_order = Tensor(x.copy())
    # the [N, C, H, W] view of a [C, N, H, W] copy, as conv2d returns
    channel_major = Tensor._wrap(np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3))
    inputs = [c_order, channel_major]
    buffers = [a.data for a in inputs]
    with tape() as t:
        outs = [batchnorm2d_eval(a, g, b, st) for a in inputs]
    assert len(t) == 0
    for a, buf, out in zip(inputs, buffers, outs):
        assert out is a and out.data is buf and out.tape is None and not out.requires_grad
    assert not np.array_equal(c_order.data, x)
    assert c_order.data.tobytes() == channel_major.data.tobytes()  # logical order, bit for bit
    assert channel_major.data.transpose(1, 0, 2, 3).flags.c_contiguous
    # no backward rule: an input that needs a gradient is refused while a tape is active
    with tape(), pytest.raises(TapeError, match="no backward rule"):
        batchnorm2d_eval(Tensor(x, requires_grad=True), g, b, st)


# ---------------------------------------------------------------------------
# activations


def test_celu_values():
    assert celu(t64([1.0]), 0.3).data[0] == 1.0
    assert celu(t64([0.0]), 0.3).data[0] == 0.0
    assert celu(t64([-0.3]), 0.3).data[0] == pytest.approx(0.3 * (np.exp(-1.0) - 1.0), abs=1e-12)
    assert celu(t64([-0.3]), 0.3).data[0] == pytest.approx(-0.1896362, abs=1e-7)


def test_celu_rejects_bad_alpha():
    with pytest.raises(ConfigError):
        celu(t64([1.0]), 0.0)
    with pytest.raises(ConfigError):
        celu(t64([1.0]), -0.5)


def test_relu_values():
    x = np.random.default_rng(8).normal(size=20)
    for inplace in (False, True):
        np.testing.assert_array_equal(relu(t64([-1.0, 0.0, 2.0]), inplace=inplace).data, [0.0, 0.0, 2.0])
        xt = t64(x.copy())  # Tensor adopts a float64 array, and inplace overwrites it
        out = relu(xt, inplace=inplace)
        np.testing.assert_array_equal(out.data, oracles.relu_loops(x))
        assert np.shares_memory(out.data, xt.data) == inplace


def test_celu_limits_to_relu():
    x = np.linspace(-3.0, 3.0, 61)
    diff = celu(t64(x), 1e-6).data - relu(t64(x)).data
    assert np.abs(diff).max() < 1e-5


def test_celu_monotone_continuous_and_bounded_below():
    for alpha in (0.1, 0.3, 1.0, 2.5):
        x = np.linspace(-10.0, 10.0, 5001)
        y = celu(t64(x), alpha).data
        assert (np.diff(y) >= 0).all()
        assert np.abs(np.diff(y)).max() < 0.01  # continuity at grid resolution
        assert (y >= -alpha).all()


# ---------------------------------------------------------------------------
# smoothed cross-entropy


def test_smoothed_targets_paper_values():
    t = smoothed_targets(np.array([3]), alpha=0.1, num_classes=10)
    assert t[0, 3] == pytest.approx(0.91, abs=1e-12)
    off = np.delete(t[0], 3)
    np.testing.assert_allclose(off, 0.01, atol=1e-12)


def test_smoothed_targets_endpoints():
    hard = smoothed_targets(np.array([2]), 0.0, 10)
    np.testing.assert_array_equal(hard[0], np.eye(10)[2])
    uniform = smoothed_targets(np.array([2]), 1.0, 10)
    np.testing.assert_allclose(uniform[0], 0.1, atol=1e-12)


def test_smoothed_targets_rows_sum_to_one():
    rng = np.random.default_rng(9)
    for alpha in (0.0, 0.1, 0.37, 1.0):
        t = smoothed_targets(rng.integers(0, 10, size=50), alpha, 10)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
        assert (t >= 0).all() and (t <= 1).all()


def test_uniform_logits_loss_is_log_k():
    logits = t64(np.zeros((4, 10)))
    for alpha in (0.0, 0.1, 1.0):
        loss, _ = smoothed_cross_entropy(logits, np.array([0, 3, 5, 9]), alpha, 10)
        assert loss.item() == pytest.approx(np.log(10.0), abs=1e-10)


def test_loss_finite_for_extreme_logits():
    logits = t64(np.array([[1e4, -1e4, 0.0, 0, 0, 0, 0, 0, 0, 0]]))
    loss, _ = smoothed_cross_entropy(logits, np.array([1]), 0.1, 10)
    assert np.isfinite(loss.item())


def test_label_out_of_range_rejected():
    with pytest.raises(ValueError, match="label"):
        smoothed_cross_entropy(t64(np.zeros((1, 10))), np.array([10]), 0.1, 10)


# ---------------------------------------------------------------------------
# backward / tape


def test_backward_sum_gives_ones():
    x = t64(np.random.default_rng(10).normal(size=(3, 4)), rg=True)
    with tape():
        backward(tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))
    # the adopted grad is a writeable array of its own: later grads add into it
    x.grad += 1.0
    with tape():
        backward(tsum(x))
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 3.0))


def test_backward_half_square_gives_x():
    x = t64(np.random.default_rng(11).normal(size=7), rg=True)
    with tape():
        loss = T.mul(tsum(T.mul(x, x)), 0.5)
        backward(loss)
    np.testing.assert_allclose(x.grad, x.data, rtol=1e-12)


def test_backward_twice_rejected():
    x = t64([1.0], rg=True)
    with tape():
        loss = tsum(x)
        backward(loss)
        with pytest.raises(TapeError):
            backward(loss)


def test_backward_without_tape_rejected():
    loss = tsum(t64([1.0], rg=True))
    with pytest.raises(TapeError):
        backward(loss)


def test_tape_is_per_thread():
    x = t64([1.0, 2.0], rg=True)
    with tape() as main_tape:
        worker = threading.Thread(target=T.mul, args=(x, 2.0))
        worker.start()
        worker.join()
        assert len(main_tape) == 0


# ---------------------------------------------------------------------------
# gradient ownership: rules hand _accumulate arrays nothing else holds


def test_accumulate_adopts_an_owned_array_and_copies_anything_else():
    x = t64(np.zeros((2, 3)), rg=True)
    g = np.arange(6.0).reshape(2, 3)
    x._accumulate(g)
    assert x.grad is g
    x._accumulate(np.ones((2, 3)))
    np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(2, 3) + 1)

    wide = np.arange(12.0).reshape(2, 6)
    for other in (np.broadcast_to(1.0, (2, 3)), wide[:, ::2], np.ones((2, 3), dtype=np.float32)):
        y = t64(np.zeros((2, 3)), rg=True)
        y._accumulate(other)
        assert y.grad is not other and not np.shares_memory(y.grad, other)
        assert y.grad.dtype == F64 and y.grad.flags.writeable and y.grad.flags.c_contiguous
        np.testing.assert_array_equal(y.grad, other)

    # a copy keeps every bit, signed zeros included
    y = t64(np.zeros((2, 3)), rg=True)
    y._accumulate(np.full((2, 6), -0.0)[:, ::2])
    assert np.signbit(y.grad).all()
    # the strides of an axis of length 1 are no part of the layout
    x = Tensor._wrap(np.zeros((2, 1, 3, 3)).transpose(1, 0, 2, 3))  # one image, channel-major
    g = np.ones((1, 2, 3, 3))
    assert g.strides != x.data.strides
    x._accumulate(g)
    assert x.grad is g


_FAN_W = np.random.default_rng(31).normal(size=(2, 2, 3, 3))
_FAN_C = np.random.default_rng(32).normal(size=(2, 2, 3, 3))


def _residual(t):
    # the block input feeds the identity branch and the conv branch
    h = celu(t, 0.3)
    st = BatchNormState.create(2, dtype=F64)
    branch = celu(batchnorm2d(conv2d(h, t64(_FAN_W)), t64([1.3, 0.7]), t64([0.1, -0.2]), st), 0.3)
    return T.add(h, branch)


@pytest.mark.parametrize("graph", [
    lambda t: T.add(t, t),
    lambda t: T.add(relu(t), t),
    lambda t: T.add(celu(t, 0.3), t),
    lambda t: T.mul(t, t),
    lambda t: T.add(T.add(t, t), celu(T.add(t, t), 0.3)),
    _residual,
], ids=["add_x_x", "add_relu_x", "add_celu_x", "mul_x_x", "nested_add", "residual"])
def test_fan_out_gradients(graph):
    x = _away_from_kinks(np.random.default_rng(33), (2, 2, 3, 3))
    rep = grad_check(lambda t: tsum(T.mul(graph(t), t64(_FAN_C))), t64(x), tol=1e-4)
    assert rep.passed, rep


def test_grad_check_mul_by_scalar():
    x = np.random.default_rng(35).normal(size=(2, 2, 3, 3))
    rep = grad_check(lambda t: tsum(T.mul(T.mul(t, -0.37), t64(_FAN_C))), t64(x), tol=1e-6)
    assert rep.passed, rep


@pytest.mark.parametrize("differentiable", ["first", "second"])
@pytest.mark.parametrize("op", [T.add, T.mul], ids=["add", "mul"])
def test_grad_check_with_one_differentiable_operand(op, differentiable):
    const = t64(_FAN_W)

    def f(t):
        out = op(t, const) if differentiable == "first" else op(const, t)
        return tsum(T.mul(out, t64(_FAN_C)))

    x = np.random.default_rng(36).normal(size=(2, 2, 3, 3))
    rep = grad_check(f, t64(x), tol=1e-6)
    assert rep.passed, rep
    assert const.grad is None


def test_add_takes_two_tensors_of_one_shape():
    x = t64(np.ones((2, 3)))
    for other in (1.0, t64([1.0]), t64(np.ones((3, 2)))):
        with pytest.raises(ShapeError, match="add"):
            T.add(x, other)
    with pytest.raises(ShapeError, match="add"):
        T.add(t64([1.0]), x)


@pytest.mark.parametrize("op", [T.add, T.mul], ids=["add", "mul"])
def test_binary_op_hands_each_operand_its_own_gradient(op):
    a = t64(np.random.default_rng(37).normal(size=(2, 3)), rg=True)
    b = t64(np.random.default_rng(38).normal(size=(2, 3)), rg=True)
    with tape():
        backward(tsum(op(a, b)))
    assert not np.shares_memory(a.grad, b.grad)
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)) if op is T.add else b.data)
    np.testing.assert_array_equal(b.grad, np.ones((2, 3)) if op is T.add else a.data)


def _tiny_model_backward(dtype):
    model, params = build_resnet9(ModelSpec(widths=(4, 4, 4, 4), activation="celu"), seed=0, dtype=dtype)
    x = Tensor(np.random.default_rng(34).normal(size=(2, 3, 32, 32)), dtype=dtype)
    with tape() as tp:
        loss, _ = smoothed_cross_entropy(model.forward(x), np.array([1, 7]), 0.1, 10)
        outs = [out for out, _ in tp._nodes]
        backward(loss)
    return outs, params


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_backward_leaves_grads_only_on_leaves(dtype):
    outs, params = _tiny_model_backward(dtype)
    assert len(outs) > 30
    assert [i for i, out in enumerate(outs) if out.grad is not None] == []
    assert all(e.tensor.grad is not None and e.tensor.grad.dtype == dtype for e in params)


def test_parameter_grads_share_no_memory():
    _, params = _tiny_model_backward(F64)
    grads = [(e.name, e.tensor.grad) for e in params]
    for i, (name_a, a) in enumerate(grads):
        assert a.flags.writeable and a.flags.c_contiguous, name_a
        for name_b, b in grads[i + 1 :]:
            assert not np.shares_memory(a, b), (name_a, name_b)


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    a = conv2d(t64(x), t64(w)).data
    b = conv2d(t64(x), t64(w)).data
    assert (a == b).all()


# ---------------------------------------------------------------------------
# gradient checks (finite-difference oracle)


def test_grad_check_linear_function_exact():
    rep = grad_check(tsum, t64(np.random.default_rng(13).normal(size=10)), step=1e-5, tol=1e-10)
    assert rep.max_rel_error < 1e-10


def test_grad_check_celu_at_negative_point():
    rep = grad_check(lambda t: tsum(celu(t, 0.3)), t64([-0.3]), step=1e-6, tol=1e-6)
    assert rep.passed, rep


def test_grad_check_nonfinite_rejected():
    def f(t):
        return T.mul(tsum(t), np.inf)

    with pytest.raises(ValueError):
        grad_check(f, t64([1.0]))


def _away_from_kinks(rng, shape, margin=0.05):
    x = rng.normal(size=shape)
    return x + np.sign(x) * margin


@pytest.mark.parametrize("trial", range(20))
def test_grad_check_smooth_ops(trial):
    rng = np.random.default_rng(100 + trial)
    x = rng.normal(size=(1, 2, 4, 4))
    w = t64(rng.normal(size=(3, 2, 3, 3)))
    rep = grad_check(lambda t: tsum(T.mul(conv2d(t, w), conv2d(t, w))), t64(x), step=1e-5, tol=1e-6)
    assert rep.passed, f"conv: {rep}"

    xl = rng.normal(size=(2, 5))
    wl = t64(rng.normal(size=(3, 5)))
    bl = t64(rng.normal(size=3))
    rep = grad_check(lambda t: tsum(T.mul(linear(t, wl, bl), linear(t, wl, bl))), t64(xl), step=1e-5, tol=1e-6)
    assert rep.passed, f"linear: {rep}"

    xc = rng.normal(size=(3, 4))
    rep = grad_check(lambda t: tsum(celu(t, 0.3)), t64(xc), step=1e-6, tol=1e-6)
    assert rep.passed, f"celu: {rep}"

    xb = rng.normal(size=(2, 2, 3, 3))
    g = t64(rng.normal(size=2))
    b = t64(rng.normal(size=2))
    # random linear functional: sum(out**2) is nearly x-invariant for a
    # normalized output and would leave only eps-scale gradients to compare
    cb = t64(rng.normal(size=(2, 2, 3, 3)))

    def bn_loss(t):
        st = BatchNormState.create(2, dtype=F64)
        out = batchnorm2d(t, g, b, st)
        return tsum(T.mul(out, cb))

    rep = grad_check(bn_loss, t64(xb), step=1e-5, tol=1e-6)
    assert rep.passed, f"batchnorm: {rep}"

    logits = rng.normal(size=(3, 10))
    labels = rng.integers(0, 10, size=3)
    rep = grad_check(lambda t: smoothed_cross_entropy(t, labels, 0.1, 10)[0], t64(logits), step=1e-5, tol=1e-6)
    assert rep.passed, f"cross-entropy: {rep}"


@pytest.mark.parametrize("trial", range(20))
def test_grad_check_kinked_ops(trial):
    rng = np.random.default_rng(200 + trial)
    x = _away_from_kinks(rng, (3, 5))
    rep = grad_check(lambda t: tsum(T.mul(relu(t), relu(t))), t64(x), step=1e-5, tol=1e-4)
    assert rep.passed, f"relu: {rep}"
    c = t64(rng.normal(size=(3, 5)))
    rep = grad_check(lambda t: tsum(T.mul(relu(_owned(t, True), inplace=True), c)), t64(x), step=1e-5, tol=1e-6)
    assert rep.passed, f"relu inplace: {rep}"

    xp = rng.normal(size=(1, 2, 4, 4))
    rep = grad_check(lambda t: tsum(T.mul(maxpool2d(t), maxpool2d(t))), t64(xp), step=1e-5, tol=1e-4)
    assert rep.passed, f"maxpool: {rep}"

    xg = rng.normal(size=(2, 2, 3, 3))
    rep = grad_check(lambda t: tsum(T.mul(global_maxpool(t), global_maxpool(t))), t64(xg), step=1e-5, tol=1e-4)
    assert rep.passed, f"global_maxpool: {rep}"


def test_grad_check_conv_bn_celu_chain():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 2, 4, 4))
    w = t64(rng.normal(size=(3, 2, 3, 3)))
    g = t64(np.ones(3))
    b = t64(np.zeros(3))

    def chain(t):
        st = BatchNormState.create(3, dtype=F64)
        h = conv2d(t, w)
        h = batchnorm2d(h, g, b, st)
        h = celu(h, 0.3)
        return tsum(T.mul(h, h))

    rep = grad_check(chain, t64(x), step=1e-5, tol=1e-4)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# randomized shapes against the loop oracles (fp64)

_same_kernel = st.sampled_from([1, 3, 5])
# maps smaller than the kernel among them, where every tap's flat shift wraps or leaves the map
_small_maps = st.sampled_from([(1, 1), (1, 4), (4, 1), (2, 2), (1, 5)])
_maps = st.one_of(_small_maps, st.tuples(st.integers(1, 7), st.integers(1, 7)))


@st.composite
def conv_cases(draw):
    # same convs: an odd square kernel k, zero padding (k - 1) / 2
    n = draw(st.integers(1, 2))
    cin, cout = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    h, w = draw(_maps)
    k = draw(_same_kernel)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, cin, h, w))
    wt = rng.normal(size=(cout, cin, k, k))
    return x, wt, (k - 1) // 2


@given(conv_cases())
def test_conv_property_forward_matches_oracle(case):
    x, w, pad = case
    out = conv2d(t64(x), t64(w))
    np.testing.assert_allclose(out.data, oracles.conv2d_loops(x, w, pad=pad), rtol=1e-10, atol=1e-12)


@given(conv_cases())
def test_conv_property_backward_grad_check(case):
    x, w, _ = case
    out_shape = conv2d(t64(x), t64(w)).shape
    assert out_shape == x.shape[:1] + w.shape[:1] + x.shape[2:]
    # random linear functional, so every output coordinate carries gradient
    c = t64(np.random.default_rng(0).normal(size=out_shape))

    def loss(xt, wt):
        return tsum(T.mul(conv2d(xt, wt), c))

    rep = grad_check(lambda t: loss(t, t64(w)), t64(x), max_coords=40)
    assert rep.passed, f"dx: {rep}"
    rep = grad_check(lambda t: loss(t64(x), t), t64(w), max_coords=40)
    assert rep.passed, f"dw: {rep}"


@given(conv_cases())
def test_conv_property_input_grad_matches_oracle(case):
    x, w, pad = case
    xt = t64(x, rg=True)
    with tape():
        out = conv2d(xt, t64(w))
        g = np.random.default_rng(3).normal(size=out.shape)
        backward(tsum(T.mul(out, t64(g))))
    np.testing.assert_allclose(xt.grad, oracles.conv2d_input_grad_loops(g, w, x.shape, pad),
                               rtol=1e-10, atol=1e-12)


def _signed_values(dtype):
    return st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(-20.0, 20.0, width=np.dtype(dtype).itemsize * 8))


@pytest.mark.parametrize("dtype", [np.float32, F64], ids=["fp32", "fp64"])
@given(data=st.data())
def test_flat_lowering_matches_padded_reference_bit_for_bit(dtype, data):
    # the flat shifted copies and adds against the zero-padded short-row kernels,
    # signed zeros included: a padded zero is +0.0, and a wrapped entry must not leak
    k = data.draw(_same_kernel, label="k")
    h, w = data.draw(_maps, label="map")
    n, c = data.draw(st.integers(1, 3), label="n"), data.draw(st.integers(1, 3), label="c")
    pad = (k - 1) // 2
    x = data.draw(hnp.arrays(dtype, (n, c, h, w), elements=_signed_values(dtype)), label="x")
    cols = T._im2col(x, k, np.full(c * k * k * n * h * w, np.nan, dtype=dtype))  # every entry must be written
    np.testing.assert_array_equal(_bits(cols), _bits(oracles.im2col_padded(x, k, pad)))
    cols = data.draw(hnp.arrays(dtype, (c * k * k, n * h * w), elements=_signed_values(dtype)), label="cols")
    gx = np.zeros((c, n, h, w), dtype=dtype).transpose(1, 0, 2, 3)  # channel-major, as conv2d's
    T._col2im(cols.copy(), gx, k)
    np.testing.assert_array_equal(_bits(gx), _bits(oracles.col2im_padded(cols, x.shape, k, pad)))


_even_maps = st.integers(1, 3).map(lambda v: 2 * v)  # the 2x2 pool takes even sides only


@st.composite
def pool_cases(draw):
    dtype = draw(st.sampled_from([np.float32, F64]))
    h, w = draw(_even_maps), draw(_even_maps)
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w)
    # continuous values, or a handful of integer levels with both zeros, so windows often hold
    # tied maxima and the pool must pick between -0.0 and +0.0
    levels = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    x = draw(hnp.arrays(dtype, shape, elements=draw(st.sampled_from([levels, st.floats(-3, 3, width=32)]))))
    # upstream gradients of both signs, signed zeros among them
    g = draw(hnp.arrays(dtype, shape[:2] + (h // 2, w // 2),
                        elements=st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0])))
    return x, g


@given(pool_cases())
def test_maxpool_property_matches_oracles(case):
    # the pool takes horizontal pairs, then vertical ones; both loop oracles see whole windows
    x, g = case
    xt = Tensor(x, requires_grad=True, dtype=x.dtype)
    with tape():
        out = maxpool2d(xt)
        backward(tsum(T.mul(out, Tensor(g, dtype=g.dtype))))
    assert out.dtype == xt.grad.dtype == x.dtype
    # bit patterns, so that -0.0 and +0.0 differ; the oracles compute in float64, which holds
    # every value of either dtype
    np.testing.assert_array_equal(_bits(out.data.astype(F64)), _bits(oracles.maxpool2d_loops(x)))
    np.testing.assert_array_equal(_bits(xt.grad.astype(F64)), _bits(oracles.maxpool2d_grad_loops(x, g)))


def _bn_case(shape, seed, channel, scale):
    """x, gamma, beta and running stats drawn from ``seed``, with gamma[channel] scaled by ``scale``."""
    c = shape[1]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * rng.uniform(0.5, 3.0) + rng.normal()
    gamma = rng.normal(size=c)
    gamma[channel] *= scale
    beta = rng.normal(size=c)
    running = (rng.normal(size=c), rng.uniform(0.2, 3.0, size=c))
    return x, gamma, beta, running


@st.composite
def bn_cases(draw):
    # N*H*W runs from 1 (variance 0) upward
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    seed = draw(st.integers(0, 2**32 - 1))
    return _bn_case(shape, seed, draw(st.integers(0, shape[1] - 1)), draw(st.sampled_from([0.0, 1.0])))


def _bn_state(running):
    return BatchNormState(running[0].copy(), running[1].copy())


@given(bn_cases(), st.sampled_from(["train", "eval"]))
def test_batchnorm_property_forward_matches_oracle(case, mode):
    # eval mode is checked through CELU, as a block runs it, which keeps every value's sign
    x, gamma, beta, running = case
    state = _bn_state(running)
    ref, ref_mean, ref_var = oracles.batchnorm2d_loops(x, gamma, beta, *running, mode, momentum=0.3)
    if mode == "train":
        out = batchnorm2d(t64(x), t64(gamma), t64(beta), state, momentum=0.3).data
    else:
        out, ref = _eval_block(x, t64(gamma), t64(beta), state), oracles.celu_loops(ref, 0.3)
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(state.running_mean, ref_mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(state.running_var, ref_var, rtol=1e-12, atol=1e-12)


# float64 differences of this loss miss the 1e-4 bound on dx (1.35e-4); long double ones do not
@example(_bn_case((1, 3, 3, 3), seed=1, channel=0, scale=1.0))
@given(bn_cases())
def test_batchnorm_property_backward_grad_check(case):
    x, gamma, beta, running = case
    # random linear functional, so every output coordinate carries gradient
    c = np.random.default_rng(1).normal(size=x.shape)

    def loss(xt, gt, bt):
        return tsum(T.mul(batchnorm2d(xt, gt, bt, _bn_state(running)), Tensor(c, dtype=xt.dtype)))

    # every operand at the dtype grad_check passes: float64 on its tape, long double for its differences
    def at(a, t):
        return Tensor(a, dtype=t.dtype)

    for name, f, point in (
        ("dx", lambda t: loss(t, at(gamma, t), at(beta, t)), x),
        ("dgamma", lambda t: loss(at(x, t), t, at(beta, t)), gamma),
        ("dbeta", lambda t: loss(at(x, t), at(gamma, t), t), beta),
    ):
        rep = grad_check(f, t64(point), tol=1e-4, max_coords=30)
        assert rep.passed, f"{name}: {rep}"


@st.composite
def celu_cases(draw):
    alpha = draw(st.floats(0.05, 3.0))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # both signs, kept off the kink at 0 where central differences lose accuracy
    x = rng.normal(size=shape) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    return x + np.sign(x) * 1e-3, alpha


def _owned(t, inplace):
    # an in-place activation overwrites its input, so it gets a buffer of its own
    return T.mul(t, 1.0) if inplace else t


@given(celu_cases())
def test_celu_property_forward_matches_oracle(case):
    x, alpha = case
    for inplace in (False, True):
        xt = t64(x.copy())  # Tensor adopts a float64 array, and inplace overwrites it
        out = celu(xt, alpha, inplace=inplace)
        np.testing.assert_allclose(out.data, oracles.celu_loops(x, alpha), rtol=1e-13, atol=1e-15)
        assert np.shares_memory(out.data, xt.data) == inplace


@given(celu_cases())
def test_celu_property_backward_grad_check(case):
    x, alpha = case
    c = t64(np.random.default_rng(2).normal(size=x.shape))
    for inplace in (False, True):
        rep = grad_check(lambda t: tsum(T.mul(celu(_owned(t, inplace), alpha, inplace=inplace), c)),
                         t64(x), step=1e-4, tol=1e-4)
        assert rep.passed, (inplace, rep)


@st.composite
def signed_zero_cases(draw, dtype):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    return draw(hnp.arrays(dtype, shape, elements=_signed_values(dtype)))


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


@pytest.mark.parametrize("dtype", [np.float32, F64], ids=["fp32", "fp64"])
@pytest.mark.parametrize("name", ["celu", "relu"])
@given(data=st.data())
def test_inplace_activation_is_bit_identical(name, dtype, data):
    x = data.draw(signed_zero_cases(dtype))
    c = np.random.default_rng(4).normal(size=x.shape).astype(dtype)

    def run(inplace):
        xt = Tensor(x.copy(), requires_grad=True, dtype=dtype)
        with tape():
            h = T.mul(xt, 1.0)  # a buffer the activation may consume
            out = celu(h, 0.3, inplace=inplace) if name == "celu" else relu(h, inplace=inplace)
            backward(tsum(T.mul(out, Tensor(c, dtype=dtype))))
        assert np.shares_memory(out.data, h.data) == inplace
        return out.data, xt.grad

    (out_new, g_new), (out_inplace, g_inplace) = run(False), run(True)
    np.testing.assert_array_equal(_bits(out_inplace), _bits(out_new))
    np.testing.assert_array_equal(_bits(g_inplace), _bits(g_new))
    oracle = oracles.celu_loops(x, 0.3) if name == "celu" else oracles.relu_loops(x)
    np.testing.assert_allclose(out_new, oracle, rtol=1e-6 if dtype == np.float32 else 1e-13,
                               atol=1e-7 if dtype == np.float32 else 1e-15)


def _within_reordering_bound(a, ref, x, c, k, dtype):
    """Whether the weight gradients ``a`` and ``ref`` of one conv differ by no more
    than two summation orders of the same products can: each entry sums m = N·H·W
    products, and any order lands within gamma_m = m·u / (1 - m·u) times the sum of
    their magnitudes of the exact value (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 3.1), u being the unit roundoff of ``dtype``."""
    x, c = x.astype(dtype).astype(F64), c.astype(dtype).astype(F64)
    cout = c.shape[1]
    g_t = np.abs(c).transpose(1, 0, 2, 3).reshape(cout, -1)
    magnitude = (g_t @ T._im2col(np.abs(x), k, np.empty(x.size * k * k)).T).reshape(a.shape)
    mu = g_t.shape[1] * np.finfo(dtype).eps / 2
    return bool((np.abs(a.astype(F64) - ref) <= 2 * mu / (1 - mu) * magnitude).all())


# a 3x3 trunk conv and the 1x1 prep conv that follows the whitened stem; ids are kernel-padding
@pytest.mark.parametrize("k", [3, 1], ids=["3-1", "1-0"])
def test_conv_chunked_matches_single_chunk(monkeypatch, k):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(7, 3, 5, 5))
    w = rng.normal(size=(4, 3, k, k))
    c = np.random.default_rng(22).normal(size=(7, 4, 5, 5))

    def run(dtype, images_per_chunk):
        per_image = 3 * k * k * 25 * np.dtype(dtype).itemsize
        monkeypatch.setattr(T, "_COL_BUDGET_BYTES", images_per_chunk * per_image)
        assert T._conv_chunk(3, k * k, 25, np.dtype(dtype).itemsize) == images_per_chunk
        xt, wt = Tensor(x, requires_grad=True, dtype=dtype), Tensor(w, requires_grad=True, dtype=dtype)
        with tape():
            out = conv2d(xt, wt)
            backward(tsum(T.mul(out, Tensor(c, dtype=dtype))))
        return out.data, wt.grad, xt.grad

    for dtype in (F64, np.float32):
        whole, chunked = run(dtype, 7), run(dtype, 3)  # one chunk; chunks of 3, 3 and 1 image
        if dtype == F64:
            for name, a, ref in zip(("out", "dW", "dX"), chunked, whole):
                np.testing.assert_allclose(a, ref, rtol=0, atol=1e-12, err_msg=name)
        else:
            # the training precision: out and dX keep their bits, dW sums over the chunks
            np.testing.assert_array_equal(chunked[0], whole[0], err_msg="out")
            np.testing.assert_array_equal(chunked[2], whole[2], err_msg="dX")
            assert _within_reordering_bound(chunked[1], whole[1], x, c, k, dtype)
            # the bound still sees a 1e-3 relative error in the largest entry
            planted = chunked[1].copy()
            planted.flat[np.argmax(np.abs(planted))] *= 1 + 1e-3
            assert not _within_reordering_bound(planted, whole[1], x, c, k, dtype)


# ---------------------------------------------------------------------------
# channel-major memory: the same bits as [N, C, H, W] order


def _channel_major(a):
    """The same values, shaped [N, C, H, W], in channel-major memory."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def _is_channel_major(a):
    return a.ndim == 4 and a.transpose(1, 0, 2, 3).flags.c_contiguous


def _leaf(a, dtype):
    """A tensor that needs a gradient and keeps ``a``'s memory order (``Tensor(a)`` would
    make it C-contiguous)."""
    t = Tensor._wrap(a.astype(dtype, copy=False))
    t.requires_grad = True
    return t


def _run_rule(f, g, *tensors):
    """``f(*tensors)`` under a tape, then its one recorded rule on a copy of the upstream
    gradient ``g`` laid out as the output is; returns the output and the inputs' gradients."""
    with tape() as tp:
        out = f(*tensors)
    ((_, rule),) = tp._nodes
    handed = np.empty_like(out.data)  # keeps the output's memory order
    handed[...] = g
    rule(handed)
    return [out.data] + [t.grad for t in tensors]


@st.composite
def layout_cases(draw, maps=st.integers(1, 6)):
    """A dtype, and an [N, C, H, W] array of signed values in which some (image, channel)
    blocks are all zeros of either sign."""
    dtype = draw(st.sampled_from([np.float32, F64]), label="dtype")
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 4)),
             draw(maps), draw(maps))
    a = draw(hnp.arrays(dtype, shape, elements=_signed_values(dtype)), label="a")
    zero = draw(hnp.arrays(bool, shape[:2]), label="zero blocks")
    a[zero] = draw(st.sampled_from([0.0, -0.0]), label="zero")
    return dtype, a


def _same_bits(got, ref, names):
    for name, a, b in zip(names, got, ref):
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=name)


@given(layout_cases(), st.data())
def test_batchnorm_channel_major_matches_nchw_reference_bit_for_bit(case, data):
    dtype, x = case
    _, g = data.draw(layout_cases(), label="g")
    g = np.resize(g, x.shape).astype(dtype)  # np.resize repeats g's values, signed zeros included
    n, c = x.shape[:2]
    gamma = data.draw(hnp.arrays(dtype, c, elements=st.floats(-2, 2, width=np.dtype(dtype).itemsize * 8)))
    beta = data.draw(hnp.arrays(dtype, c, elements=_signed_values(dtype)))
    running = (np.zeros(c, dtype), np.ones(c, dtype))
    # the reference: numpy's reductions over (0, 2, 3) of [N, C, H, W] arrays, then batchnorm2d's
    # elementwise steps in its order
    axes, per_channel, m = (0, 2, 3), (1, c, 1, 1), x.size // c
    mean = x.mean(axis=axes)
    xc = x - mean.reshape(per_channel)
    var = np.square(xc).mean(axis=axes)
    inv_std = 1.0 / np.sqrt(var + T._BN_EPS)
    out = xc * inv_std.reshape(per_channel)
    out *= gamma.reshape(per_channel)
    out += beta.reshape(per_channel)
    sum_g = g.sum(axis=axes)
    sum_g_xhat = np.einsum("nchw,nchw->c", g, xc) * inv_std
    scale = gamma * inv_std
    gx = xc * (-scale * inv_std * sum_g_xhat / m).reshape(per_channel)
    gx -= (scale * sum_g / m).reshape(per_channel)
    gx += g * scale.reshape(per_channel)
    ref_state = (running[0] + 0.1 * (mean - running[0]), running[1] + 0.1 * (var - running[1]))

    state = _bn_state(running)
    got = _run_rule(lambda t, gm, bt: batchnorm2d(t, gm, bt, state), g,
                    _leaf(_channel_major(x), dtype),
                    Tensor(gamma, requires_grad=True, dtype=dtype), Tensor(beta, requires_grad=True, dtype=dtype))
    assert _is_channel_major(got[0]) and _is_channel_major(got[1])
    _same_bits(got + [state.running_mean, state.running_var], [out, gx, sum_g_xhat, sum_g, *ref_state],
               ["out", "dX", "dgamma", "dbeta", "running_mean", "running_var"])


@given(layout_cases(maps=st.integers(1, 7)), st.data())
def test_conv_channel_major_matches_nchw_bit_for_bit(case, data):
    dtype, x = case
    n, cin, h, w = x.shape
    k = data.draw(_same_kernel, label="k")
    cout = data.draw(st.integers(1, 3), label="cout")
    wk = data.draw(hnp.arrays(dtype, (cout, cin, k, k), elements=_signed_values(dtype)), label="w")
    g = data.draw(hnp.arrays(dtype, (n, cout, h, w), elements=_signed_values(dtype)), label="g")
    images = data.draw(st.integers(1, n), label="images per chunk")  # several chunks when below n
    with mock.patch.object(T, "_COL_BUDGET_BYTES", images * cin * k * k * h * w * np.dtype(dtype).itemsize):

        def run(xa):
            return _run_rule(conv2d, g, _leaf(xa, dtype),
                             Tensor(wk, requires_grad=True, dtype=dtype))

        nchw, cm = run(x), run(_channel_major(x))
    assert _is_channel_major(nchw[0]) and _is_channel_major(cm[0]) and _is_channel_major(cm[1])
    _same_bits(cm, nchw, ["out", "dX", "dW"])


@given(layout_cases(), layout_cases(maps=_even_maps), st.data())
def test_pooling_channel_major_matches_nchw_bit_for_bit(case, even_case, data):
    # the 2x2 pool takes maps of even sides, the global pool any map
    for op, (dtype, x), pooled in ((maxpool2d, even_case, lambda n, c, h, w: (n, c, h // 2, w // 2)),
                                   (global_maxpool, case, lambda n, c, h, w: (n, c))):
        g = data.draw(hnp.arrays(dtype, pooled(*x.shape), elements=_signed_values(dtype)), label="g")
        nchw = _run_rule(op, g, Tensor(x, requires_grad=True, dtype=dtype))
        cm = _run_rule(op, g, _leaf(_channel_major(x), dtype))
        assert _is_channel_major(cm[1]) and (cm[0].ndim == 2 or _is_channel_major(cm[0]))
        _same_bits(cm, nchw, ["out", "dX"])


@pytest.mark.parametrize("shape", [{"stem": "plain", "activation": "relu"},
                                   {"stem": "whitened", "activation": "celu"}], ids=["plain", "whitened"])
def test_activations_and_their_gradients_stay_channel_major(monkeypatch, shape):
    # an NCHW copy anywhere in the model is a silent slowdown, so it fails here
    from minitrain import models
    from minitrain.train import make_closure

    rng = np.random.default_rng(41)
    filters = rng.normal(size=(27, 3, 3, 3)) if shape["stem"] == "whitened" else None
    model, _ = build_resnet9(ModelSpec(widths=(8, 16, 16, 16), **shape), seed=0, whitening_filters=filters)
    x = rng.normal(size=(6, 3, 32, 32)).astype(np.float32)
    recorded, handed, accumulated = [], [], []
    record, accumulate = T.Tape.record, T.Tensor._accumulate

    def spy_record(self, out, fn):
        def rule(g):
            handed.append((g, out.data))
            fn(g)

        recorded.append(out.data)
        record(self, out, rule)

    def spy_accumulate(self, g):
        accumulated.append((g, self.data))
        accumulate(self, g)

    monkeypatch.setattr(T.Tape, "record", spy_record)
    monkeypatch.setattr(T.Tensor, "_accumulate", spy_accumulate)
    make_closure(model, x, np.arange(6), 0.2)()
    maps = [a for a in recorded if a.ndim == 4]
    assert len(maps) > 20 and all(_is_channel_major(a) for a in maps)
    # every gradient is made in its tensor's layout, so it is adopted, not copied
    assert all(g.strides == a.strides for g, a in handed + accumulated if a.ndim == 4)

    convs = []
    conv = models.conv2d

    def spy_conv(*args, **kwargs):
        out = conv(*args, **kwargs)
        convs.append(out.data)
        return out

    monkeypatch.setattr(models, "conv2d", spy_conv)
    model.forward(Tensor(x), mode="eval")
    assert len(convs) == 8 + (filters is not None) and all(_is_channel_major(a) for a in convs)
