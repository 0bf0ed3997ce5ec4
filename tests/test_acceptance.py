"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two experiment
criteria (8, 9) need real CIFAR-10 binaries (point CIFAR_DIR at them) and are
marked slow; they skip with an explanation when the data is absent.
"""

import math
import os
import time

import numpy as np
import pytest

import oracles
from synthetic import find_real_cifar, make_synthetic_dataset

from minitrain import tensor as T
from minitrain.data import NormStats, extract_patches, fit_whitening, normalize
from minitrain.harness import RunConfig, read_metrics, run_training
from minitrain.mltp import mltp_train
from minitrain.models import ModelSpec, ParamSet, build_resnet9
from minitrain.optim import OptConfig, OptState, centralize_gradients, sam_step, sgd_step
from minitrain.tensor import BatchNormState, Tensor, backward, grad_check, linear, mul, tape, tsum

F64 = np.float64


def check(n, desc, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n}: {desc} {detail}"


def skip(n, desc, reason):
    print(f"\n[SKIP] criterion {n}: {desc} — {reason}")
    pytest.skip(reason)


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_oracle_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    reports = []

    def run(f, x, tol, step=1e-5, max_coords=None):
        rep = grad_check(f, Tensor(x, dtype=F64), step=step, tol=tol, max_coords=max_coords)
        reports.append(rep)
        assert rep.passed, rep

    # smooth ops at 1e-6 relative
    a = rng.normal(size=(3, 4))
    run(lambda t: tsum(T.add(t, Tensor(a, dtype=F64))), rng.normal(size=(3, 4)), 1e-6)
    run(lambda t: tsum(mul(t, Tensor(a, dtype=F64))), rng.normal(size=(3, 4)), 1e-6)
    run(lambda t: mul(tsum(mul(t, t)), 1.0 / 5), rng.normal(size=(5,)), 1e-6)
    wl = Tensor(rng.normal(size=(4, 6)), dtype=F64)
    bl = Tensor(rng.normal(size=(4,)), dtype=F64)
    cl = Tensor(rng.normal(size=(2, 4)), dtype=F64)
    run(lambda t: tsum(mul(linear(t, wl, bl), cl)), rng.normal(size=(2, 6)), 1e-6)
    wc = Tensor(rng.normal(size=(3, 2, 3, 3)), dtype=F64)
    cc = rng.normal(size=(2, 3, 5, 5))
    run(lambda t: tsum(mul(T.conv2d(t, wc), Tensor(cc, dtype=F64))),
        rng.normal(size=(2, 2, 5, 5)), 1e-6)
    gamma = Tensor(rng.normal(size=(3,)) + 1.0, dtype=F64)
    beta = Tensor(rng.normal(size=(3,)), dtype=F64)
    cb = rng.normal(size=(2, 3, 4, 4))

    def bn_loss(t):
        st = BatchNormState.create(3, dtype=F64)
        return tsum(mul(T.batchnorm2d(t, gamma, beta, st), Tensor(cb, dtype=F64)))

    run(bn_loss, rng.normal(size=(2, 3, 4, 4)), 1e-6)
    ce = Tensor(rng.normal(size=(4, 4)), dtype=F64)
    run(lambda t: tsum(mul(T.celu(t, 0.3), ce)), rng.normal(size=(4, 4)), 1e-6)
    labels = rng.integers(0, 10, size=3)
    run(lambda t: T.smoothed_cross_entropy(t, labels, 0.1, 10)[0], rng.normal(size=(3, 10)), 1e-6)

    # kinked ops at 1e-4, sampled away from kinks/ties
    x = rng.normal(size=(4, 5))
    x[np.abs(x) < 0.05] += 0.1
    cr = Tensor(rng.normal(size=(4, 5)), dtype=F64)
    run(lambda t: tsum(mul(T.relu(t), cr)), x, 1e-4)
    xp = rng.normal(size=(2, 2, 6, 6)) + np.arange(36).reshape(1, 1, 6, 6) * 0.37
    cp = Tensor(rng.normal(size=(2, 2, 3, 3)), dtype=F64)
    run(lambda t: tsum(mul(T.maxpool2d(t), cp)), xp, 1e-4)
    cg = Tensor(rng.normal(size=(2, 2)), dtype=F64)
    run(lambda t: tsum(mul(T.global_maxpool(t), cg)), xp, 1e-4)

    # full network loss (reduced-width ResNet-9 so the suite stays under 2 min);
    # the input gradient flows through every layer and op backward in the model
    model, _ = build_resnet9(ModelSpec(widths=(4, 4, 8, 8)), seed=1, dtype=F64)
    lab = rng.integers(0, 10, size=2)

    def full_loss(t):
        return T.smoothed_cross_entropy(model.forward(t, mode="train", bn_momentum=1.0), lab, 0.1, 10)[0]

    xin = rng.normal(size=(2, 3, 32, 32))
    run(full_loss, xin, 1e-4, max_coords=40)

    elapsed = time.monotonic() - t0
    worst = max(r.max_rel_error for r in reports)
    check(1, "gradient oracle suite (per-op + full network loss)",
          all(r.passed for r in reports) and elapsed < 120.0,
          f"{len(reports)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_optimizer_algebra():
    # (a) centralization post-condition + idempotence
    ps = ParamSet()
    w = ps.add("w", Tensor(np.zeros((4, 3, 3, 3)), dtype=F64))
    w.grad = np.random.default_rng(1).normal(size=(4, 3, 3, 3))
    centralize_gradients(ps)
    once = w.grad.copy()
    slice_means_ok = np.abs(once.mean(axis=(1, 2, 3))).max() <= 1e-12
    centralize_gradients(ps)
    idempotent = np.allclose(w.grad, once, atol=1e-12)

    # (b) scalar quadratic closed form: w' = 0.79
    ps2 = ParamSet()
    w2 = ps2.add("w", Tensor(np.array([1.0]), dtype=F64))

    def closure():
        ps2.zero_grads()
        with tape():
            loss = tsum(mul(mul(w2, w2), 1.0))  # 0.5*a*w^2, a=2
            backward(loss)
        return loss.item()

    cfg = OptConfig(lr_peak=1.0, momentum=0.0, rho=0.05, total_steps=1)
    sam_step(ps2, OptState.create(ps2), 0.1, cfg, closure)
    closed_form = abs(w2.data[0] - 0.79) <= 1e-8

    # (c) rho=0 is bit-identical to plain SGD over 10 steps
    init = np.random.default_rng(2).normal(size=(3, 2))
    pa, pb = ParamSet(), ParamSet()
    wa = pa.add("w", Tensor(init.copy(), dtype=F64))
    wb = pb.add("w", Tensor(init.copy(), dtype=F64))
    ca = OptConfig(lr_peak=1.0, momentum=0.9, decay=0.001, rho=0.0, total_steps=10)
    cb = OptConfig(lr_peak=1.0, momentum=0.9, decay=0.001, total_steps=10)
    sa, sb = OptState.create(pa), OptState.create(pb)

    def quad(p, w):
        def c():
            p.zero_grads()
            with tape():
                backward(tsum(mul(mul(w, w), 0.85)))
            return 0.0
        return c

    bitwise = True
    for _ in range(10):
        sam_step(pa, sa, 0.05, ca, quad(pa, wa))
        quad(pb, wb)()
        sgd_step(pb, sb, 0.05, cb)
        bitwise &= bool((wa.data == wb.data).all())

    # (d) decay-only step at lambda=0.0005 and lr=0.1: w *= (1 - 2*lr*lambda)
    pd = ParamSet()
    wd = pd.add("w", Tensor(np.array([[1.0]]), dtype=F64))
    wd.grad = np.zeros((1, 1))
    sgd_step(pd, OptState.create(pd), 0.1,
             OptConfig(lr_peak=1.0, momentum=0.0, decay=0.0005, total_steps=1))
    decay_ok = abs(wd.data[0, 0] - 0.9999) <= 1e-12

    check(2, "optimizer algebra (centralization, two-step closed form, rho=0 equivalence, decay)",
          slice_means_ok and idempotent and closed_form and bitwise and decay_ok)


def test_criterion_3_label_smoothing_targets():
    labels = np.arange(10)
    t = T.smoothed_targets(labels, 0.1, 10)
    on_target = np.abs(t[np.arange(10), labels] - 0.91).max() <= 1e-12
    off = t.copy()
    off[np.arange(10), labels] = 0.01
    off_target = np.abs(off - 0.01).max() <= 1e-12
    rows = np.abs(t.sum(axis=1) - 1.0).max() <= 1e-12
    check(3, "smoothed targets are exactly 0.91/0.01 with unit row sums",
          on_target and off_target and rows)


def test_criterion_4_whitening():
    rng = np.random.default_rng(3)
    imgs = rng.normal(size=(100, 3, 32, 32))
    imgs[:, 2] = 0.6 * imgs[:, 0] + 0.4 * imgs[:, 2]
    eps = 1e-3
    wf = fit_whitening(imgs, sample_patches=50_000, eps=eps, seed=4)
    patches = extract_patches(imgs, 50_000, np.random.default_rng(4))
    centered = patches - patches.mean(axis=0)
    projected = centered @ wf.filters.reshape(27, 27).T
    cov = projected.T @ projected / len(projected)
    off_diag = np.abs(cov - np.diag(np.diag(cov))).max()

    model, params = build_resnet9(ModelSpec(widths=(4, 4, 8, 8), stem="whitened"),
                                  seed=5, whitening_filters=wf.filters)
    frozen = model.stem_filters.data.copy()
    x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
    lab = np.array([0, 1])
    cfg = OptConfig(lr_peak=0.05, total_steps=100)
    state = OptState.create(params)
    for _ in range(100):
        params.zero_grads()
        with tape():
            loss, _ = T.smoothed_cross_entropy(model.forward(Tensor(x), mode="train"), lab, 0.1, 10)
            backward(loss)
        sgd_step(params, state, 0.05, cfg)
    unchanged = (model.stem_filters.data == frozen).all()

    check(4, "whitening decorrelates patches and stem stays frozen for 100 steps",
          off_diag <= 1e-3 and unchanged, f"max off-diagonal {off_diag:.2e}")


def test_criterion_5_loop_oracles_and_meta_trajectory():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    conv_ok = np.allclose(T.conv2d(Tensor(x, dtype=F64), Tensor(w, dtype=F64)).data,
                          oracles.conv2d_loops(x, w, pad=1), rtol=1e-5)
    pool_ok = np.allclose(T.maxpool2d(Tensor(x, dtype=F64)).data,
                          oracles.maxpool2d_loops(x), rtol=1e-5)
    gmp_ok = np.allclose(T.global_maxpool(Tensor(x, dtype=F64)).data,
                         oracles.global_maxpool_loops(x), rtol=1e-5)
    xl = rng.normal(size=(3, 7))
    wl = rng.normal(size=(5, 7))
    bl2 = rng.normal(size=5)
    lin_ok = np.allclose(linear(Tensor(xl, dtype=F64), Tensor(wl, dtype=F64), Tensor(bl2, dtype=F64)).data,
                         oracles.linear_loops(xl, wl, bl2), rtol=1e-5)

    # 2-round meta trajectory vs. the independent reference script
    from test_mltp import LinearStub, ScheduledLR, make_linear_task, pooled, reptile_steps, sgd_only

    k, d = 10, 6
    tasks = [make_linear_task(24, d, k, seed=s) for s in (7, 8)]
    w0 = np.random.default_rng(9).normal(size=(k, d))
    cfg = sgd_only(lr=0.08, total=6)
    stub = LinearStub(w0.copy())
    state = OptState.create(stub.params)
    traj = [w0.copy()]
    for rnd in range(2):
        mltp_train(stub, state, cfg, *pooled(tasks), 8, 0.0, 0.5, rnd)
        traj.append(stub.params.snapshot()["w"])
    step_lr = ScheduledLR(cfg, reptile_steps(2, 2, 3))  # 3 steps: one epoch
    ref = oracles.reptile_reference(w0, tasks, step_lr, 0.5, 2, 3, 8, 0.0, k)
    meta_ok = len(traj) == len(ref) and all(
        np.allclose(a, b, rtol=1e-6) for a, b in zip(traj, ref))

    check(5, "loop-oracle equivalence (conv/pool/linear) and 2-round meta trajectory",
          conv_ok and pool_ok and gmp_ok and lin_ok and meta_ok)


def test_criterion_6_budget_contract(synth_data_dir, tmp_path):
    # instrumented clock: every read advances one simulated second
    t = [0.0]

    def clock():
        t[0] += 1.0
        return t[0]

    cfg = RunConfig(data_dir=str(synth_data_dir), metrics_out=str(tmp_path / "b.csv"),
                    widths=(8, 16, 16, 16), per_class=4, batch_size=20,
                    budget_seconds=30.0, max_epochs=50, augment=False)
    result = run_training(cfg, clock=clock)
    wall = result.manifest["total_wall_seconds"]
    max_epoch = max(b - a for a, b in zip([0.0] + [r.wall_seconds for r in result.records],
                                          [r.wall_seconds for r in result.records]))
    within_bound = wall <= 30.0 + max_epoch
    stopped_early = result.epochs_completed < 50

    # budget ~0: still emits an evaluation record
    tiny = [0.0]

    def clock0():
        return 1e9 if tiny[0] else (tiny.__setitem__(0, 1) or 0.0)

    cfg0 = RunConfig(data_dir=str(synth_data_dir), metrics_out=str(tmp_path / "z.csv"),
                     widths=(8, 16, 16, 16), per_class=4, batch_size=20,
                     budget_seconds=0.5, max_epochs=5, augment=False)
    r0 = run_training(cfg0, clock=clock0)
    zero_ok = (r0.epochs_completed == 0 and len(r0.records) == 1
               and math.isnan(r0.records[0].train_loss)
               and 0.0 <= r0.records[0].test_accuracy <= 100.0)

    check(6, "wall time bounded by budget + one epoch; budget~0 still evaluates",
          within_bound and stopped_early and zero_ok,
          f"wall {wall:.0f}s vs budget 30s + epoch {max_epoch:.0f}s")


def test_criterion_7_determinism(synth_data_dir, tmp_path):
    losses = []
    for tag in ("a", "b"):
        cfg = RunConfig(data_dir=str(synth_data_dir), metrics_out=str(tmp_path / f"{tag}.csv"),
                        widths=(8, 16, 16, 16), per_class=4, batch_size=20,
                        budget_seconds=600.0, max_epochs=10, seed=3, augment=True)
        run_training(cfg)
        losses.append([r.train_loss for r in read_metrics(tmp_path / f"{tag}.csv")])
    check(7, "fixed seed reproduces the 10-epoch train_loss column exactly",
          len(losses[0]) == 10 and losses[0] == losses[1])


@pytest.mark.slow
def test_criterion_8_directional_comparison(tmp_path):
    data_dir = find_real_cifar()
    if data_dir is None:
        skip(8, "directional baseline vs sam+ip comparison",
             "real CIFAR-10 binaries not available (set CIFAR_DIR); "
             "cannot be fetched in this environment")
    results = {"baseline": [], "sam+ip": []}
    for seed in (0, 1, 2):
        for name, extra in (("baseline", {}), ("sam+ip", {"optimizer": "sam", "ip": True})):
            cfg = RunConfig(data_dir=data_dir, per_class=100, seed=seed,
                            widths=(32, 64, 128, 256), max_epochs=15,
                            budget_seconds=1800.0,
                            metrics_out=str(tmp_path / f"{name.replace('+', '_')}_{seed}.csv"),
                            **extra)
            results[name].append(run_training(cfg).final_accuracy)
    base = float(np.mean(results["baseline"]))
    samip = float(np.mean(results["sam+ip"]))
    check(8, "mean sam+ip accuracy beats baseline by >= 2 points; baseline >= 35%",
          samip >= base + 2.0 and base >= 35.0,
          f"baseline {base:.2f}%, sam+ip {samip:.2f}%")


@pytest.mark.slow
def test_criterion_9_extended_sanity_floor(tmp_path):
    data_dir = find_real_cifar()
    if data_dir is None or not os.environ.get("MINITRAIN_EXTENDED"):
        skip(9, "extended 5000-image sam+ip sanity floor (optional, non-gating)",
             "needs real CIFAR-10 plus MINITRAIN_EXTENDED=1 (about 2 hours)")
    cfg = RunConfig(data_dir=data_dir, per_class=500, seed=0, optimizer="sam", ip=True,
                    max_epochs=25, budget_seconds=7200.0,
                    metrics_out=str(tmp_path / "extended.csv"))
    acc = run_training(cfg).final_accuracy
    check(9, "25-epoch sam+ip run reaches >= 60% test accuracy", acc >= 60.0, f"{acc:.2f}%")
