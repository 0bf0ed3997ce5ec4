import threading

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from minitrain import tensor as T
from minitrain.tensor import (
    BatchNormState,
    ConfigError,
    ShapeError,
    TapeError,
    Tensor,
    backward,
    batchnorm2d,
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
    out = conv2d(t64(x), t64(w), pad=1)
    ref = oracles.conv2d_loops(x, w, pad=1)
    np.testing.assert_allclose(out.data, ref, rtol=1e-5)


def test_conv_strided_with_bias_matches_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 7, 6))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out = conv2d(t64(x), t64(w), t64(b), stride=2, pad=1)
    ref = oracles.conv2d_loops(x, w, b, stride=2, pad=1)
    np.testing.assert_allclose(out.data, ref, rtol=1e-5)


def test_conv_channel_mismatch_rejected():
    with pytest.raises(ShapeError, match="channels"):
        conv2d(t64(np.zeros((1, 3, 4, 4))), t64(np.zeros((2, 4, 3, 3))))


def test_conv_kernel_too_large_rejected():
    with pytest.raises(ShapeError):
        conv2d(t64(np.zeros((1, 1, 2, 2))), t64(np.zeros((1, 1, 5, 5))))


# ---------------------------------------------------------------------------
# pooling


def test_maxpool_basic():
    out = maxpool2d(t64([[[[1.0, 2.0], [3.0, 4.0]]]]), k=2)
    assert out.data.reshape(()) == 4.0


def test_maxpool_tie_routes_to_first_element():
    x = t64(np.ones((1, 1, 2, 2)), rg=True)
    with tape():
        out = maxpool2d(x, k=2)
        backward(tsum(out))
    expected = np.zeros((1, 1, 2, 2))
    expected[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 4, 4))
    out = maxpool2d(t64(x), k=2, stride=2)
    np.testing.assert_allclose(out.data, oracles.maxpool2d_loops(x, 2, 2), rtol=1e-12)


def test_maxpool_window_too_large():
    with pytest.raises(ShapeError):
        maxpool2d(t64(np.zeros((1, 1, 2, 2))), k=3)


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
        linear(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))


# ---------------------------------------------------------------------------
# batchnorm


def test_batchnorm_two_values():
    x = t64(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
    st = BatchNormState.create(1, dtype=F64)
    out = batchnorm2d(x, t64([1.0]), t64([0.0]), st, mode="train", eps=1e-12)
    np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-5)


def test_batchnorm_constant_channel_is_finite_zero():
    x = t64(np.full((2, 1, 3, 3), 4.2))
    st = BatchNormState.create(1, dtype=F64)
    out = batchnorm2d(x, t64([1.0]), t64([0.0]), st, mode="train")
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, 0.0, atol=1e-8)

    # N*H*W == 1: the one value is its own mean, so the output is beta and no
    # gradient reaches x or gamma.
    x1, gamma = t64(np.full((1, 1, 1, 1), 4.2), rg=True), t64([1.5], rg=True)
    with tape():
        out1 = batchnorm2d(x1, gamma, t64([0.7]), BatchNormState.create(1, dtype=F64), mode="train")
        backward(tsum(out1))
    assert np.isfinite(out1.data).all()
    assert out1.data.item() == 0.7
    assert (x1.grad == 0).all() and (gamma.grad == 0).all()


def test_batchnorm_momentum_one_makes_eval_match_train():
    rng = np.random.default_rng(7)
    x = t64(rng.normal(size=(4, 3, 5, 5)))
    g, b = t64(rng.normal(size=3)), t64(rng.normal(size=3))
    st = BatchNormState.create(3, dtype=F64)
    train_out = batchnorm2d(x, g, b, st, mode="train", momentum=1.0)
    eval_out = batchnorm2d(x, g, b, st, mode="eval")
    np.testing.assert_allclose(eval_out.data, train_out.data, rtol=1e-5, atol=1e-7)


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
    np.testing.assert_array_equal(relu(t64([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    x = np.abs(np.random.default_rng(8).normal(size=20))
    np.testing.assert_array_equal(relu(t64(x)).data, x)


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


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    a = conv2d(t64(x), t64(w), pad=1).data
    b = conv2d(t64(x), t64(w), pad=1).data
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
    rep = grad_check(lambda t: tsum(T.mul(conv2d(t, w, pad=1), conv2d(t, w, pad=1))), t64(x), step=1e-5, tol=1e-6)
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
        out = batchnorm2d(t, g, b, st, mode="train")
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

    xp = rng.normal(size=(1, 2, 4, 4))
    rep = grad_check(lambda t: tsum(T.mul(maxpool2d(t, 2, 2), maxpool2d(t, 2, 2))), t64(xp), step=1e-5, tol=1e-4)
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
        h = conv2d(t, w, pad=1)
        h = batchnorm2d(h, g, b, st, mode="train")
        h = celu(h, 0.3)
        return tsum(T.mul(h, h))

    rep = grad_check(chain, t64(x), step=1e-5, tol=1e-4)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# randomized shapes against the loop oracles (fp64)

_odd = st.sampled_from([1, 3, 5, 7])


@st.composite
def conv_cases(draw):
    n = draw(st.integers(1, 2))
    cin, cout = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    h, w = draw(_odd), draw(_odd)
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    assume(kh <= h + 2 * pad and kw <= w + 2 * pad)
    with_bias = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, cin, h, w))
    wt = rng.normal(size=(cout, cin, kh, kw))
    b = rng.normal(size=cout) if with_bias else None
    return x, wt, b, stride, pad


@given(conv_cases())
def test_conv_property_forward_matches_oracle(case):
    x, w, b, stride, pad = case
    out = conv2d(t64(x), t64(w), None if b is None else t64(b), stride=stride, pad=pad)
    np.testing.assert_allclose(out.data, oracles.conv2d_loops(x, w, b, stride, pad), rtol=1e-10, atol=1e-12)


@given(conv_cases())
def test_conv_property_backward_grad_check(case):
    x, w, b, stride, pad = case
    out_shape = conv2d(t64(x), t64(w), stride=stride, pad=pad).shape
    # random linear functional, so every output coordinate carries gradient
    c = t64(np.random.default_rng(0).normal(size=out_shape))
    bt = None if b is None else t64(b)

    def loss(xt, wt, btt):
        return tsum(T.mul(conv2d(xt, wt, btt, stride=stride, pad=pad), c))

    rep = grad_check(lambda t: loss(t, t64(w), bt), t64(x), max_coords=40)
    assert rep.passed, f"dx: {rep}"
    rep = grad_check(lambda t: loss(t64(x), t, bt), t64(w), max_coords=40)
    assert rep.passed, f"dw: {rep}"
    if b is not None:
        rep = grad_check(lambda t: loss(t64(x), t64(w), t), t64(b))
        assert rep.passed, f"db: {rep}"


@st.composite
def pool_cases(draw):
    k, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(k, 7)), draw(st.integers(k, 7))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)), h, w)
    # a handful of integer levels, so windows often hold tied maxima
    x = draw(hnp.arrays(F64, shape, elements=st.sampled_from([-1.0, 0.0, 1.0, 2.0])))
    return x, k, stride


@given(pool_cases())
def test_maxpool_property_matches_oracles(case):
    x, k, stride = case
    xt = t64(x, rg=True)
    with tape():
        out = maxpool2d(xt, k, stride)
        # integer upstream gradients keep overlapping sums exact
        g = np.arange(out.size, dtype=F64).reshape(out.shape) % 7 + 1
        backward(tsum(T.mul(out, t64(g))))
    np.testing.assert_array_equal(out.data, oracles.maxpool2d_loops(x, k, stride))
    np.testing.assert_array_equal(xt.grad, oracles.maxpool2d_grad_loops(x, g, k, stride))


@pytest.mark.parametrize("stride,pad,bias", [(1, 1, False), (2, 1, True)])
def test_conv_chunked_matches_single_chunk(monkeypatch, stride, pad, bias):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(7, 3, 5, 5))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4) if bias else None
    ho = (5 + 2 * pad - 3) // stride + 1

    def run():
        xt, wt = t64(x, rg=True), t64(w, rg=True)
        c = t64(np.random.default_rng(22).normal(size=(7, 4, ho, ho)))
        with tape():
            out = conv2d(xt, wt, None if b is None else t64(b), stride=stride, pad=pad)
            backward(tsum(T.mul(out, c)))
        return out.data, wt.grad, xt.grad

    whole = run()
    per_image = 3 * 9 * ho * ho * 8
    monkeypatch.setattr(T, "_COL_BUDGET_BYTES", 3 * per_image)
    assert T._conv_chunk(3, 9, ho * ho, 8) == 3  # chunks of 3, 3 and 1 image
    chunked = run()
    for name, a, ref in zip(("out", "dW", "dX"), chunked, whole):
        np.testing.assert_allclose(a, ref, rtol=0, atol=1e-12, err_msg=name)
