import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from synthetic import make_synthetic_dataset

import minitrain.mltp as M
from minitrain.harness import RunConfig
from minitrain.mltp import inner_loop, meta_update, mltp_train, split_tasks
from minitrain.models import ModelSpec, ParamSet, build_resnet9
from minitrain.optim import OptConfig, OptState, schedule_lr, sgd_step
from minitrain.tensor import ConfigError, Tensor, backward, linear, smoothed_cross_entropy, tape

F64 = np.float64


class LinearStub:
    """Minimal model protocol: linear softmax classifier on flat features."""

    def __init__(self, w0, classes=10):
        self.params = ParamSet()
        self.w = self.params.add("w", Tensor(np.asarray(w0, dtype=F64), dtype=F64))
        self.b = Tensor(np.zeros(classes), dtype=F64)  # frozen at zero: no parameter
        self.spec = SimpleNamespace(classes=classes)

    def forward(self, x, mode="train", bn_momentum=0.1):
        return linear(x, self.w, self.b)

    def bn_states(self):
        return []


def sgd_only(lr=0.1, total=100):
    return OptConfig(lr_peak=lr, momentum=0.0, decay=0.0, total_steps=total)


class ScheduledLR:
    """The one-cycle LR of each step, in the order the steps run, standing in for
    the constant ``lr`` of ``oracles.reptile_reference``: its n-th product with a
    gradient uses the LR of the n-th step."""

    def __init__(self, cfg, steps):
        self._lrs = iter([schedule_lr(cfg, s) for s in steps])

    def __mul__(self, grad):
        return next(self._lrs) * grad


def reptile_steps(rounds, num_tasks, inner_steps):
    """The ``step_index`` of each inner step of ``mltp_train``, in run order."""
    return [r * inner_steps + i for r in range(rounds) for _ in range(num_tasks) for i in range(inner_steps)]


def make_linear_task(n, d, k, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.integers(0, k, size=n)


def pooled(tasks):
    """``mltp_train``'s (images, labels, task index arrays) for a list of (x, y) tasks."""
    ends = np.cumsum([len(y) for _, y in tasks])
    return (np.concatenate([x for x, _ in tasks]), np.concatenate([y for _, y in tasks]),
            [np.arange(end - len(y), end) for end, (_, y) in zip(ends, tasks)])


# ---------------------------------------------------------------------------
# split_tasks


def test_split_balanced_halves():
    ds = make_synthetic_dataset(per_class=10, seed=0)
    tasks = split_tasks(ds.labels, seed=1)
    assert len(tasks) == 2
    for idx in tasks:
        assert len(idx) == 50
        assert (np.bincount(ds.labels[idx], minlength=10) == 5).all()


def test_split_scaled_20_sample_fixture():
    ds = make_synthetic_dataset(per_class=2, seed=1)
    for idx in split_tasks(ds.labels, seed=0):
        assert len(idx) == 10
        assert (np.bincount(ds.labels[idx], minlength=10) == 1).all()


def test_split_disjoint_and_union():
    ds = make_synthetic_dataset(per_class=4, seed=2)
    a, b = (set(idx.tolist()) for idx in split_tasks(ds.labels, seed=5))
    assert not a & b
    assert a | b == set(range(len(ds)))


def test_split_determinism():
    ds = make_synthetic_dataset(per_class=6, seed=3)
    for ta, tb in zip(split_tasks(ds.labels, seed=9), split_tasks(ds.labels, seed=9)):
        assert (ta == tb).all()


def test_split_tiny_class_rejected():
    labels = np.concatenate([np.repeat(np.arange(9), 2), [9]])  # class 9 has one sample
    with pytest.raises(ValueError, match="class 9"):
        split_tasks(labels, seed=0)


def test_split_odd_counts_dropped_with_warning(caplog):
    ds = make_synthetic_dataset(per_class=3, seed=5)
    with caplog.at_level("WARNING"):
        tasks = split_tasks(ds.labels, seed=0)
    assert "dropping" in caplog.text
    for idx in tasks:
        assert (np.bincount(ds.labels[idx], minlength=10) == 1).all()


# ---------------------------------------------------------------------------
# inner_loop


def test_inner_loop_zero_lr_is_identity():
    xs, ys = make_linear_task(20, 5, 10, seed=0)
    stub = LinearStub(np.random.default_rng(1).normal(size=(10, 5)))
    # one step at step 0 of a one-cycle, where the lr is exactly 0
    onecycle = OptConfig(lr_peak=0.1, momentum=0.0, total_steps=10)
    assert schedule_lr(onecycle, 0) == 0.0
    before = stub.params.snapshot()
    adapted, _ = inner_loop(stub, OptState.create(stub.params), onecycle, xs, ys, 20, 0.0,
                            shuffle_seed=0, epoch=0)
    np.testing.assert_array_equal(adapted["w"], before["w"])


def test_inner_loop_single_sgd_step_hand_computed():
    k, d = 10, 5
    xs, ys = make_linear_task(8, d, k, seed=2)
    w0 = np.random.default_rng(3).normal(size=(k, d))
    stub = LinearStub(w0.copy())
    cfg, step = sgd_only(lr=0.05), 7  # a step where the one-cycle LR is not 0
    state = OptState.create(stub.params)
    state.step_index = step
    adapted, loss = inner_loop(stub, state, cfg, xs, ys, 8, 0.0, shuffle_seed=77, epoch=0)

    # manual: one full-batch softmax CE gradient step (batch is the whole task)
    expected = w0 - schedule_lr(cfg, step) * oracles.softmax_ce_grad(w0, xs, ys, 0.0, k)
    np.testing.assert_allclose(adapted["w"], expected, rtol=1e-10)
    assert np.isfinite(loss)
    # shared weights restored bit-exactly
    assert (stub.params.snapshot()["w"] == w0).all()


def test_inner_loop_leaves_shared_model_untouched():
    ds = make_synthetic_dataset(per_class=2, seed=6)
    model, params = build_resnet9(ModelSpec(widths=(4, 8, 8, 8)), seed=0)
    from minitrain.data import NormStats, normalize

    stats = NormStats.fit(ds)
    imgs = normalize(ds.images, stats)
    before = params.snapshot()
    adapted, _ = inner_loop(model, OptState.create(params), sgd_only(lr=0.05), imgs, ds.labels, 10, 0.0,
                            shuffle_seed=0, epoch=0)
    for e in params:
        assert (e.tensor.data == before[e.name]).all(), e.name
        assert (adapted[e.name] != before[e.name]).any(), e.name


# ---------------------------------------------------------------------------
# meta_update


def test_meta_update_beta_one_adopts_identical_sets():
    stub = LinearStub(np.zeros((10, 4)))
    target = {"w": np.random.default_rng(4).normal(size=(10, 4))}
    meta_update(stub.params, [dict(target), dict(target)], beta=1.0)
    np.testing.assert_allclose(stub.params.snapshot()["w"], target["w"], rtol=1e-15)


def test_meta_update_beta_zero_is_noop():
    w0 = np.random.default_rng(5).normal(size=(10, 4))
    stub = LinearStub(w0.copy())
    meta_update(stub.params, [{"w": w0 + 1.0}], beta=0.0)
    assert (stub.params.snapshot()["w"] == w0).all()


def test_meta_update_scalar_arithmetic():
    stub = LinearStub(np.zeros((1, 1)))
    meta_update(stub.params, [{"w": np.array([[2.0]])}, {"w": np.array([[4.0]])}], beta=0.5)
    assert stub.params.snapshot()["w"][0, 0] == pytest.approx(1.5, abs=1e-15)


def test_meta_update_affine_in_beta():
    w0 = np.random.default_rng(6).normal(size=(10, 4))
    adapted = [{"w": w0 + np.random.default_rng(7).normal(size=(10, 4))},
               {"w": w0 + np.random.default_rng(8).normal(size=(10, 4))}]
    deltas = {}
    for beta in (0.25, 0.5, 1.0):
        stub = LinearStub(w0.copy())
        meta_update(stub.params, [dict(a) for a in adapted], beta=beta)
        deltas[beta] = stub.params.snapshot()["w"] - w0
    np.testing.assert_allclose(deltas[0.5], 2.0 * deltas[0.25], rtol=1e-6)
    np.testing.assert_allclose(deltas[1.0], 4.0 * deltas[0.25], rtol=1e-6)


def test_meta_update_shape_mismatch_rejected():
    from minitrain.tensor import ShapeError

    stub = LinearStub(np.zeros((10, 4)))
    with pytest.raises(ShapeError):
        meta_update(stub.params, [{"w": np.zeros((4, 10))}], beta=0.5)


# ---------------------------------------------------------------------------
# mltp_train


def test_degenerate_single_task_equals_sgd_trajectory():
    k, d = 10, 6
    xs, ys = make_linear_task(30, d, k, seed=9)
    w0 = np.random.default_rng(10).normal(size=(k, d))
    lr = 0.05

    stub = LinearStub(w0.copy())
    cfg = sgd_only(lr=lr, total=5)
    meta_state = OptState.create(stub.params)
    for rnd in range(5):
        mltp_train(stub, meta_state, cfg, *pooled([(xs, ys)]), 30, 0.0, 1.0, rnd)

    # plain momentum-free SGD, same batch schedule (full-batch here)
    ref = LinearStub(w0.copy())
    state = OptState.create(ref.params)
    for rnd in range(5):
        order = np.random.default_rng([1000, rnd * 1000]).permutation(len(ys))
        for start in range(0, len(ys), 30):
            idx = order[start : start + 30]
            ref.params.zero_grads()
            with tape():
                loss, _ = smoothed_cross_entropy(ref.forward(Tensor(xs[idx], dtype=F64)), ys[idx], 0.0, k)
                backward(loss)
            sgd_step(ref.params, state, schedule_lr(cfg, state.step_index), cfg)
    assert (stub.params.snapshot()["w"] == ref.params.snapshot()["w"]).all()


def test_identical_tasks_mean_equals_single_delta():
    k, d = 10, 5
    xs, ys = make_linear_task(16, d, k, seed=11)
    w0 = np.random.default_rng(12).normal(size=(k, d))
    lr, beta = 0.05, 0.5

    cfg, step = sgd_only(lr=lr), 7  # a step where the one-cycle LR is not 0
    twin = LinearStub(w0.copy())
    twin_state = OptState.create(twin.params)
    twin_state.step_index = step
    mltp_train(twin, twin_state, cfg, *pooled([(xs, ys), (xs, ys)]), 16, 0.0, beta, 0)

    single = LinearStub(w0.copy())
    single_state = OptState.create(single.params)
    single_state.step_index = step
    adapted, _ = inner_loop(single, single_state, cfg, xs, ys, 16, 0.0, shuffle_seed=1000, epoch=0)
    expected = w0 + beta * (adapted["w"] - w0)
    np.testing.assert_allclose(twin.params.snapshot()["w"], expected, rtol=1e-12)


def test_two_round_trajectory_matches_reference_script():
    k, d = 10, 6
    t0 = make_linear_task(24, d, k, seed=13)
    t1 = make_linear_task(24, d, k, seed=14)
    w0 = np.random.default_rng(15).normal(size=(k, d))
    lr, beta, rounds, bs = 0.08, 0.5, 2, 8
    inner_steps = 3  # one epoch: 24 images in batches of 8

    cfg = sgd_only(lr=lr, total=rounds * inner_steps)

    stub = LinearStub(w0.copy())
    state = OptState.create(stub.params)
    traj = [stub.params.snapshot()["w"]]
    for rnd in range(rounds):
        mltp_train(stub, state, cfg, *pooled([t0, t1]), bs, 0.0, beta, rnd)
        traj.append(stub.params.snapshot()["w"])

    step_lr = ScheduledLR(cfg, reptile_steps(rounds, 2, inner_steps))
    ref = oracles.reptile_reference(w0, [t0, t1], step_lr, beta, rounds, inner_steps, bs, 0.0, k)
    assert len(traj) == len(ref)
    for a, b in zip(traj, ref):
        np.testing.assert_allclose(a, b, rtol=1e-6)


def test_round_shares_the_optimizer_state(monkeypatch):
    # Two identical tasks under momentum and a one-cycle. Every sample is the
    # same, so each task's shuffle draws the same batches. Each task must start
    # at the round's first step with zero velocity, so both adapt to the same
    # bits as a fresh state would, and the round moves the counter one epoch.
    k, d, n, bs, start = 10, 5, 24, 8, 5
    xs = np.tile(np.random.default_rng(16).normal(size=d), (n, 1))
    ys = np.full(n, 3)
    w0 = np.random.default_rng(17).normal(size=(k, d))
    cfg = OptConfig(lr_peak=0.1, momentum=0.9, total_steps=20)
    seen = []
    monkeypatch.setattr(M, "meta_update", lambda params, adapted, beta: seen.extend(adapted))

    stub = LinearStub(w0.copy())
    state = OptState.create(stub.params)
    state.step_index = start
    state.velocity["w"][...] = 1.0  # left over from earlier steps
    mltp_train(stub, state, cfg, *pooled([(xs, ys), (xs, ys)]), bs, 0.0, 0.5, 0)

    assert len(seen) == 2
    assert (seen[0]["w"] == seen[1]["w"]).all()
    assert state.step_index == start + math.ceil(n / bs)
    single = LinearStub(w0.copy())
    fresh = OptState.create(single.params)
    fresh.step_index = start
    alone, _ = inner_loop(single, fresh, cfg, xs, ys, bs, 0.0, shuffle_seed=1000, epoch=0)
    assert (seen[0]["w"] == alone["w"]).all()
    assert (seen[0]["w"] != w0).all()


def test_mltp_config_validation():
    for beta in (0.0, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="beta"):
            RunConfig(beta=beta)
