import numpy as np
import pytest

from minitrain.models import ParamSet
from minitrain.optim import (
    OptConfig,
    OptState,
    OptimizerAbort,
    centralize_gradients,
    sam_step,
    schedule_lr,
    sgd_step,
    train_step,
)
from minitrain.tensor import ConfigError, Tensor, backward, mul, tape, tsum

F64 = np.float64


def param_set(**arrays):
    ps = ParamSet()
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=F64)
        ps.add(name, Tensor(arr, dtype=F64))
    return ps


def param(ps, name):
    """The tensor that ``ps`` registered under ``name``."""
    return next(e.tensor for e in ps if e.name == name)


def quadratic_closure(ps, coeffs):
    """L(w) = sum_i 0.5 * a_i * w_i^2 over all parameters, elementwise."""

    def closure():
        ps.zero_grads()
        with tape():
            loss = None
            for e in ps:
                a = coeffs[e.name]
                term = tsum(mul(mul(e.tensor, e.tensor), 0.5 * a))
                loss = term if loss is None else loss + term
            backward(loss)
        return loss.item()

    return closure


# ---------------------------------------------------------------------------
# gradient centralization


def test_gc_subtracts_slice_mean():
    ps = param_set(w=[[1.0, 2.0, 3.0]])
    param(ps, "w").grad = np.array([[1.0, 2.0, 3.0]])
    centralize_gradients(ps)
    np.testing.assert_allclose(param(ps, "w").grad, [[-1.0, 0.0, 1.0]], atol=1e-15)


def test_gc_idempotent():
    ps = param_set(w=np.random.default_rng(0).normal(size=(4, 3, 3, 3)))
    param(ps, "w").grad = np.random.default_rng(1).normal(size=(4, 3, 3, 3))
    centralize_gradients(ps)
    once = param(ps, "w").grad.copy()
    centralize_gradients(ps)
    np.testing.assert_allclose(param(ps, "w").grad, once, atol=1e-12)


def test_gc_postcondition_per_output_channel_mean():
    ps = param_set(w=np.zeros((4, 3, 3, 3)))
    param(ps, "w").grad = np.random.default_rng(2).normal(size=(4, 3, 3, 3))
    centralize_gradients(ps)
    means = param(ps, "w").grad.mean(axis=(1, 2, 3))
    assert np.abs(means).max() <= 1e-12


def test_gc_leaves_single_axis_params_untouched():
    ps = param_set(w=np.zeros((2, 2)), b=np.zeros(3))
    param(ps, "w").grad = np.ones((2, 2))
    g = np.array([1.0, 2.0, 3.0])
    param(ps, "b").grad = g.copy()
    centralize_gradients(ps)
    np.testing.assert_array_equal(param(ps, "b").grad, g)


def test_gc_missing_grad_rejected():
    ps = param_set(w=np.zeros((2, 2)))
    with pytest.raises(OptimizerAbort, match="w"):
        centralize_gradients(ps)


# ---------------------------------------------------------------------------
# sgd


def test_sgd_plain_gradient_descent():
    ps = param_set(w=[1.0, 2.0])
    param(ps, "w").grad = np.array([0.5, -0.5])
    # single-axis param is decay-exempt; use a no-decay config anyway
    cfg = OptConfig(lr_peak=1.0, momentum=0.0, decay=0.0, total_steps=1)
    state = OptState.create(ps)
    sgd_step(ps, state, 0.1, cfg)
    np.testing.assert_allclose(param(ps, "w").data, [0.95, 2.05], rtol=1e-12)
    assert state.step_index == 1


def test_sgd_decay_only_step_matches_paper_lambda():
    ps = param_set(w=[[1.0]])
    param(ps, "w").grad = np.zeros((1, 1))
    cfg = OptConfig(lr_peak=1.0, momentum=0.0, decay=0.0005, total_steps=1)
    sgd_step(ps, OptState.create(ps), 0.1, cfg)
    assert param(ps, "w").data[0, 0] == pytest.approx(0.9999, abs=1e-12)


def test_sgd_momentum_two_step_hand_expansion():
    # constant gradient g: v1 = g, w1 = w0 - lr*g; v2 = mu*g + g, w2 = w1 - lr*(mu+1)*g
    g, lr, mu, w0 = 0.4, 0.1, 0.9, 1.0
    ps = param_set(w=[w0])
    cfg = OptConfig(lr_peak=1.0, momentum=mu, decay=0.0, total_steps=2)
    state = OptState.create(ps)
    for _ in range(2):
        param(ps, "w").grad = np.array([g])
        sgd_step(ps, state, lr, cfg)
    expected = w0 - lr * g - lr * (mu + 1.0) * g
    assert param(ps, "w").data[0] == pytest.approx(expected, rel=1e-12)


def test_sgd_decay_exemption():
    ps = param_set(w=np.ones((2, 2)), gamma=np.ones(2))
    param(ps, "w").grad = np.zeros((2, 2))
    param(ps, "gamma").grad = np.zeros(2)
    cfg = OptConfig(lr_peak=1.0, momentum=0.0, decay=0.01, total_steps=1)
    sgd_step(ps, OptState.create(ps), 0.5, cfg)
    assert (param(ps, "gamma").data == 1.0).all()
    assert (param(ps, "w").data != 1.0).all()


def test_sgd_nonfinite_gradient_aborts_with_name():
    ps = param_set(w=np.ones((2, 2)))
    param(ps, "w").grad = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(OptimizerAbort, match="w"):
        sgd_step(ps, OptState.create(ps), 0.1, OptConfig(lr_peak=1.0, total_steps=1))


def test_sgd_abort_on_later_parameter_moves_nothing():
    ps = param_set(a=np.ones((2, 2)), b=np.ones((2, 2)))
    param(ps, "a").grad = np.full((2, 2), 0.5)
    param(ps, "b").grad = np.array([[0.0, np.inf], [0.0, 0.0]])
    state = OptState.create(ps)
    state.velocity["a"][...] = 0.25
    state.step_index = 7
    with pytest.raises(OptimizerAbort, match="parameter b"):
        sgd_step(ps, state, 0.1, OptConfig(lr_peak=1.0, momentum=0.9, total_steps=1))
    assert (param(ps, "a").data == 1.0).all()
    assert (state.velocity["a"] == 0.25).all()
    assert state.step_index == 7


# ---------------------------------------------------------------------------
# sam


def test_sam_scalar_quadratic_closed_form():
    # L(w) = 0.5*a*w^2, a=2, w=1, rho=0.05, lr=0.1 -> w' = 1 - 0.1*2*1.05 = 0.79
    ps = param_set(w=[1.0])
    cfg = OptConfig(lr_peak=1.0, momentum=0.0, decay=0.0, rho=0.05, total_steps=1)
    closure = quadratic_closure(ps, {"w": 2.0})
    loss0, loss1 = sam_step(ps, OptState.create(ps), 0.1, cfg, closure)
    assert param(ps, "w").data[0] == pytest.approx(0.79, abs=1e-8)
    assert loss0 == pytest.approx(1.0, abs=1e-12)  # 0.5*2*1
    assert loss1 == pytest.approx(0.5 * 2 * 1.05**2, abs=1e-10)


@pytest.mark.parametrize("gc_enabled", [False, True])
def test_sam_rho_zero_identical_to_sgd_bit_for_bit(gc_enabled):
    # train_step at rho=0 against the plain SGD sequence spelled out
    rng = np.random.default_rng(3)
    init = rng.normal(size=(3, 2))
    coeffs = {"w": 1.7}
    ps_a = param_set(w=init.copy())
    ps_b = param_set(w=init.copy())
    cfg = OptConfig(lr_peak=1.0, momentum=0.9, decay=0.001, rho=0.0, gc_enabled=gc_enabled, total_steps=10)
    sa, sb = OptState.create(ps_a), OptState.create(ps_b)
    for _ in range(10):
        train_step(ps_a, sa, 0.05, cfg, quadratic_closure(ps_a, coeffs))
        quadratic_closure(ps_b, coeffs)()
        if gc_enabled:
            centralize_gradients(ps_b)
        sgd_step(ps_b, sb, 0.05, cfg)
        assert (param(ps_a, "w").data == param(ps_b, "w").data).all()


def test_sam_lr_zero_restores_bit_identical():
    ps = param_set(w=np.random.default_rng(4).normal(size=(2, 3)))
    before = param(ps, "w").data.copy()
    cfg = OptConfig(lr_peak=1.0, momentum=0.9, rho=0.5, total_steps=1)
    sam_step(ps, OptState.create(ps), 0.0, cfg, quadratic_closure(ps, {"w": 2.0}))
    assert (param(ps, "w").data == before).all()


def test_sam_zero_gradient_skips_perturbation():
    ps = param_set(w=[0.0])  # gradient of 0.5*a*w^2 is 0 at w=0
    cfg = OptConfig(lr_peak=1.0, momentum=0.0, rho=0.1, total_steps=1)
    loss0, loss1 = sam_step(ps, OptState.create(ps), 0.1, cfg, quadratic_closure(ps, {"w": 2.0}))
    assert loss0 == loss1 == 0.0
    assert param(ps, "w").data[0] == 0.0


def test_sam_two_parameter_quadratic_matches_reference():
    import oracles

    a = np.array([2.0, 0.5])
    w0 = np.array([1.0, -2.0])
    mu, lam, rho, lr = 0.9, 0.001, 0.05, 0.1

    ps = param_set(w=w0.reshape(1, 2).copy())
    cfg = OptConfig(lr_peak=1.0, momentum=mu, decay=lam, rho=rho, total_steps=5)
    state = OptState.create(ps)

    def closure():
        ps.zero_grads()
        with tape():
            w = param(ps, "w")
            loss = tsum(mul(mul(w, w), Tensor(0.5 * a.reshape(1, 2), dtype=F64)))
            backward(loss)
        return loss.item()

    w_ref, v_ref = w0.copy(), np.zeros(2)
    for _ in range(5):
        sam_step(ps, state, lr, cfg, closure)
        w_ref, v_ref = oracles.sam_two_step_reference(
            w_ref, lambda w: a * w, lr, rho, mu, lam, v_ref)
        np.testing.assert_allclose(param(ps, "w").data.reshape(-1), w_ref, rtol=1e-12)


def test_sam_nonfinite_perturbed_loss_aborts():
    ps = param_set(w=[[1.0]])
    cfg = OptConfig(lr_peak=1.0, momentum=0.0, rho=0.05, total_steps=1)
    calls = {"n": 0}

    def closure():
        calls["n"] += 1
        ps.zero_grads()
        param(ps, "w").grad = np.array([[1.0]])
        return 1.0 if calls["n"] == 1 else float("nan")

    before = param(ps, "w").data.copy()
    with pytest.raises(OptimizerAbort):
        sam_step(ps, OptState.create(ps), 0.1, cfg, closure)
    assert (param(ps, "w").data == before).all()


# ---------------------------------------------------------------------------
# schedule


def test_schedule_onecycle_endpoints_and_apex():
    cfg = OptConfig(lr_peak=0.4, total_steps=100)
    assert schedule_lr(cfg, 0) == 0.0
    assert schedule_lr(cfg, 20) == pytest.approx(0.4, abs=0)
    assert schedule_lr(cfg, 100) == 0.0


def test_schedule_decay_midpoint():
    cfg = OptConfig(lr_peak=0.4, total_steps=100)
    assert schedule_lr(cfg, 60) == pytest.approx(0.2, abs=1e-12)


def test_schedule_clamps_out_of_range():
    cfg = OptConfig(lr_peak=0.4, total_steps=100)
    assert schedule_lr(cfg, -5) == 0.0
    assert schedule_lr(cfg, 400) == 0.0


def test_opt_config_validation():
    with pytest.raises(ConfigError):
        OptConfig(lr_peak=0.0, total_steps=1)
    with pytest.raises(ConfigError):
        OptConfig(lr_peak=0.1, momentum=1.0, total_steps=1)
    with pytest.raises(ConfigError):
        OptConfig(lr_peak=0.1, rho=-0.1, total_steps=1)
    with pytest.raises(ConfigError):
        OptConfig(lr_peak=0.1, total_steps=0)
