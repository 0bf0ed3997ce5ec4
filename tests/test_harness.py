import argparse
import itertools
import json
import math
import weakref
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from synthetic import make_synthetic_dataset

from minitrain.cli import _print_matrix, build_parser, main, parse_config, read_config_file
from minitrain.data import NormStats, normalize, write_cifar_binary
from minitrain.harness import (
    MetricsRecord,
    RunConfig,
    manifest_path,
    read_metrics,
    recipe_matrix,
    recipe_switches,
    run_training,
    write_metrics,
)
from minitrain.models import ModelSpec, build_resnet9, load_checkpoint
from minitrain.optim import OptConfig, OptimizerAbort, OptState, schedule_lr
from minitrain.tensor import ConfigError, ShapeError, Tensor
from minitrain.train import calibrate_batchnorm, evaluate, run_epoch

TINY = dict(widths=(8, 16, 16, 16), per_class=4, max_epochs=2,
            batch_size=20, budget_seconds=120.0, augment=False)


def tiny_cfg(data_dir, out, **kw):
    base = dict(TINY)
    base.update(kw)
    return RunConfig(data_dir=str(data_dir), metrics_out=str(out), **base)


# ---------------------------------------------------------------------------
# config resolution


def test_flag_overrides_file_overrides_default(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("lr-peak = 0.2   # file value\nseed = 5\nip = true\ngc = true\naugment = false\n")
    cfg, prov, _ = parse_config(
        ["--config", str(cfgfile), "--lr-peak", "0.3", "--no-ip", "--augment", "--mltp"], env={})
    assert cfg.lr_peak == 0.3  # flag wins
    assert cfg.seed == 5  # file beats default
    assert cfg.momentum == 0.9  # default
    assert prov["file_values"]["lr_peak"] == 0.2
    assert prov["flag_values"]["lr_peak"] == 0.3
    # boolean flags switch a file value either way
    assert (cfg.ip, cfg.gc, cfg.augment, cfg.mltp) == (False, True, True, True)
    assert prov["flag_values"]["ip"] is False
    assert "gc" not in prov["flag_values"]


def test_env_data_dir_fallback(tmp_path):
    cfg, _, _ = parse_config([], env={"CIFAR_DIR": "/env/path"})
    assert cfg.data_dir == "/env/path"
    cfg, _, _ = parse_config(["--data-dir", "/flag/path"], env={"CIFAR_DIR": "/env/path"})
    assert cfg.data_dir == "/flag/path"


def test_config_file_syntax(tmp_path):
    f = tmp_path / "a.cfg"
    f.write_text("# comment only\nper-class = 100\nlambda = 0.0005\nwidths = 8,16,32,64\nip = true\n")
    vals = read_config_file(f)
    assert vals == {"per_class": 100, "decay": 0.0005, "widths": (8, 16, 32, 64), "ip": True}


def test_config_file_errors(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("nonsense line\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        read_config_file(f)
    f.write_text("unknown_key = 3\n")
    with pytest.raises(ConfigError, match="unknown_key"):
        read_config_file(f)
    f.write_text("ip = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        read_config_file(f)
    f.write_text("# seed next\nseed = abc\n")
    with pytest.raises(ConfigError, match="bad.cfg:2: seed must be an integer"):
        read_config_file(f)
    f.write_text("widths = 8,x,16,16\n")
    with pytest.raises(ConfigError, match="bad.cfg:1: widths"):
        read_config_file(f)


@pytest.mark.parametrize("text, name, first, second", [
    ("lr_peak = 0.1\nlr-peak = 0.2\n", "lr_peak", 1, 2),
    ("decay = 0.001\n# decay's flag spelling\nlambda = 0.002\n", "decay", 1, 3),
], ids=["lr_peak", "decay"])
def test_config_file_repeated_setting_raises(tmp_path, capsys, text, name, first, second):
    f = tmp_path / "dup.cfg"
    f.write_text(text)
    message = f"dup.cfg:{second}: {name} is already set on line {first}"
    with pytest.raises(ConfigError, match=f"{message}$"):
        read_config_file(f)
    assert main(["--config", str(f), "--data-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    # a repeated flag keeps argparse's last value
    cfg, _, _ = parse_config(["--lr-peak", "0.1", "--lr-peak", "0.2"], env={})
    assert cfg.lr_peak == 0.2


# the hand-written recipe table that recipe_switches replaced
OLD_RECIPES = {
    "baseline": {"optimizer": "sgd", "gc": False, "ip": False, "mltp": False},
    "sam": {"optimizer": "sam", "gc": False, "ip": False, "mltp": False},
    "sam+ip": {"optimizer": "sam", "gc": False, "ip": True, "mltp": False},
    "sam+gc": {"optimizer": "sam", "gc": True, "ip": False, "mltp": False},
    "mltp": {"optimizer": "sgd", "gc": False, "ip": False, "mltp": True},
}
DEFAULT_MATRIX = ["sam+ip+gc+mltp", "ip+gc+mltp", "sam+gc+mltp", "sam+ip+mltp", "sam+ip+gc", "baseline"]


def test_recipe_flag_mapping():
    assert RunConfig(data_dir="x").recipe == "baseline"
    assert RunConfig(data_dir="x", optimizer="sam").recipe == "sam"
    assert RunConfig(data_dir="x", optimizer="sam", ip=True).recipe == "sam+ip"
    assert RunConfig(data_dir="x", optimizer="sam", gc=True).recipe == "sam+gc"
    assert RunConfig(data_dir="x", mltp=True).recipe == "mltp"
    for name, switches in OLD_RECIPES.items():
        assert recipe_switches(name) == switches, name
    names = set()
    for sam, ip, gc, mltp in itertools.product((False, True), repeat=4):
        cfg = RunConfig(data_dir="x", optimizer="sam" if sam else "sgd", ip=ip, gc=gc, mltp=mltp)
        assert recipe_switches(cfg.recipe) == {"optimizer": cfg.optimizer, "ip": ip, "gc": gc, "mltp": mltp}
        names.add(cfg.recipe)
    assert len(names) == 16


def test_each_leave_one_out_recipe_drops_one_switch():
    full = recipe_switches(DEFAULT_MATRIX[0])
    assert full == {"optimizer": "sam", "ip": True, "gc": True, "mltp": True}
    for name in DEFAULT_MATRIX[1:5]:
        differ = [k for k, v in recipe_switches(name).items() if v != full[k]]
        assert len(differ) == 1, name
    assert [k for k, v in recipe_switches("baseline").items() if v != full[k]] == list(full)


def test_ip_implies_smoothing_decay_celu():
    on = RunConfig(data_dir="x", ip=True)
    off = RunConfig(data_dir="x", ip=False)
    assert on.ls_alpha == 0.1 and off.ls_alpha == 0.0
    assert on.opt.decay == 0.0005 and off.opt.decay == 0.0
    assert RunConfig(data_dir="x", ip=True, decay=0.001).opt.decay == 0.001
    assert (on.spec.activation, on.spec.stem) == ("celu", "whitened")
    assert (off.spec.activation, off.spec.stem) == ("relu", "plain")


def test_run_config_derives_the_optimizer_settings():
    # 10 classes x 30 per class in batches of 64: 5 steps per epoch
    cfg = RunConfig(data_dir="x", per_class=30, batch_size=64, max_epochs=3, lr_peak=0.2, momentum=0.5,
                    gc=True, rho=0.07)
    assert cfg.opt == OptConfig(lr_peak=0.2, momentum=0.5, decay=0.0, rho=0.0, gc_enabled=True, total_steps=15)
    assert replace(cfg, optimizer="sam").opt.rho == 0.07  # SGD is the SAM step at rho 0
    assert cfg.spec.widths == (64, 128, 256, 512)


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        RunConfig(data_dir="x", budget_seconds=0.0)
    with pytest.raises(ConfigError):
        RunConfig(data_dir="x", optimizer="adam")
    with pytest.raises(ConfigError):
        RunConfig(data_dir="x", precision=16)
    with pytest.raises(ConfigError):
        RunConfig(data_dir="x", meta_iterations=0)
    for bad, named in [(dict(per_class=0), "per_class"), (dict(batch_size=0), "batch_size"),
                       (dict(max_epochs=0), "max_epochs"), (dict(mltp=True, per_class=1), "per_class"),
                       (dict(decay=-0.1), "decay"), (dict(lr_peak=0), "lr_peak"),
                       (dict(lr_peak=float("nan")), "lr_peak"), (dict(momentum=1.0), "momentum"),
                       (dict(widths=(8, 8, 8)), "widths"), (dict(rho=-1.0), "rho"),
                       (dict(rho=-1.0, optimizer="sam"), "rho"), (dict(lr_peak=math.inf), "lr_peak"),
                       (dict(decay=math.inf), "decay"), (dict(rho=math.inf), "rho"),
                       (dict(rho=math.inf, optimizer="sam"), "rho")]:
        with pytest.raises(ConfigError, match=named):
            RunConfig(data_dir="x", **bad)
    RunConfig(data_dir="x", mltp=True, per_class=2, decay=0.0)  # the smallest valid values
    assert RunConfig(data_dir="x", budget_seconds=math.inf).budget_seconds == math.inf  # no budget


def test_checkpoint_path_must_not_be_an_output_of_the_run(synth_data_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for metrics, ckpt in [("a.csv", "a.csv"), ("a.csv", "a.manifest.json"), ("./a.csv", "a.csv"),
                          ("a.csv", "./a.csv"), ("a.csv", str(tmp_path / "a.csv")),
                          ("runs/a.csv", "runs/../runs/a.manifest.json")]:
        with pytest.raises(ConfigError, match="checkpoint_out .* is metrics_out .* or its manifest"):
            RunConfig(data_dir="x", metrics_out=metrics, checkpoint_out=ckpt)
    for ckpt in ("a.npz", "b/a.csv", "a.manifest.npz"):
        RunConfig(data_dir="x", metrics_out="a.csv", checkpoint_out=ckpt)
    # a config that no longer holds once its fields are changed is refused by the matrix, which
    # builds every recipe's config before the first recipe runs
    base = tiny_cfg(synth_data_dir, tmp_path / "m.csv", checkpoint_out=str(tmp_path / "model.npz"))
    base.checkpoint_out = base.metrics_out
    with pytest.raises(ConfigError, match="is metrics_out"):
        recipe_matrix(base, ["baseline", "sam"])
    assert list(tmp_path.iterdir()) == []
    # nor may one recipe's checkpoint be another's metrics: "ip" would save m_sam_ip.csv, which "sam+ip" writes
    base = tiny_cfg(synth_data_dir, tmp_path / "m.csv", checkpoint_out=str(tmp_path / "m_sam.csv"))
    with pytest.raises(ConfigError, match="two recipes of the matrix would both write .*m_sam_ip.csv"):
        recipe_matrix(base, ["ip", "sam+ip"])
    assert list(tmp_path.iterdir()) == []


def test_flag_and_config_key_parse_alike(tmp_path):
    """For every setting, a flag and the config-file key with the same raw text
    give the same value, or the same error after the ``where`` prefix."""
    actions = {a.dest: a for a in build_parser()._actions}
    cfgfile = tmp_path / "run.cfg"

    def outcome(argv, where):
        try:
            return "value", getattr(parse_config(argv, env={})[0], name)
        except ConfigError as e:
            return "error", str(e).removeprefix(f"{where}: ")

    for name in (f.name for f in fields(RunConfig)):
        flag = actions[name].option_strings[0]
        if isinstance(actions[name], argparse.BooleanOptionalAction):
            cases = [("true", [flag]), ("false", [actions[name].option_strings[1]])]
        else:
            cases = [(raw, [flag, raw]) for raw in ("1", "64", "0.5", "sam", "8,16,16,16", "abc")]
        accepted = 0
        for raw, argv in cases:
            cfgfile.write_text(f"{name} = {raw}\n")
            from_flag = outcome(argv, flag)
            assert from_flag == outcome(["--config", str(cfgfile)], f"{cfgfile}:1"), (name, raw)
            accepted += from_flag[0] == "value"
        assert accepted, name


def test_parser_flag_set():
    options = {s for a in build_parser()._actions for s in a.option_strings}
    assert options == {
        "-h", "--help", "--config", "--recipe-matrix", "--data-dir", "--per-class", "--seed",
        "--budget-seconds", "--optimizer", "--gc", "--no-gc", "--ip", "--no-ip", "--mltp", "--no-mltp",
        "--max-epochs", "--batch-size", "--lr-peak", "--momentum", "--rho", "--lambda", "--precision",
        "--metrics-out", "--checkpoint-out", "--augment", "--no-augment", "--widths", "--beta",
        "--meta-iterations"}


def test_parser_lists_all_recipes_in_matrix_const():
    parser = build_parser()
    args = parser.parse_args(["--recipe-matrix"])
    assert args.recipe_matrix.split(",") == DEFAULT_MATRIX
    assert f"(default: {', '.join(DEFAULT_MATRIX)})" in " ".join(parser.format_help().split())


# ---------------------------------------------------------------------------
# metrics io


def test_metrics_round_trip(tmp_path):
    recs = [MetricsRecord(1, 1.5, 2.302585, 10.0, 0.04, "baseline"),
            MetricsRecord(2, 3.0, 1.9, 22.5, 0.08, "baseline")]
    p = tmp_path / "m.csv"
    write_metrics(recs, {"k": "v"}, p)
    back = read_metrics(p)
    assert [r.epoch for r in back] == [1, 2]
    assert back[0].train_loss == pytest.approx(2.302585, abs=1e-6)
    assert back[1].test_accuracy == 22.5
    header = p.read_text().splitlines()[0]
    assert header == "epoch,wall_seconds,train_loss,test_accuracy,lr,recipe"
    assert json.loads(manifest_path(p).read_text()) == {"k": "v"}


# ---------------------------------------------------------------------------
# evaluation examples


def test_evaluate_constant_logits_score_chance():
    ds = make_synthetic_dataset(per_class=3, seed=0)
    stats = NormStats.fit(ds)
    x = normalize(ds.images, stats)

    # constant-logit model scores exactly 10% on a balanced set
    class Constant:
        def forward(self, t, mode="eval"):
            return Tensor(np.tile(np.arange(10.0), (t.shape[0], 1)))

    acc = evaluate(Constant(), x, ds.labels, batch_size=8)
    assert acc == pytest.approx(10.0)


def test_evaluate_oracle_is_100():
    ds = make_synthetic_dataset(per_class=2, seed=1)
    stats = NormStats.fit(ds)
    x = normalize(ds.images, stats)
    labels = ds.labels

    class Oracle:
        def __init__(self):
            self.cursor = 0

        def forward(self, t, mode="eval"):
            n = t.shape[0]
            out = np.eye(10)[labels[self.cursor:self.cursor + n]] * 5.0
            self.cursor += n
            return Tensor(out)

    assert evaluate(Oracle(), x, labels, batch_size=7) == 100.0


def test_evaluate_fresh_model_near_chance():
    ds = make_synthetic_dataset(per_class=5, seed=2)
    stats = NormStats.fit(ds)
    x = normalize(ds.images, stats)
    model, _ = build_resnet9(ModelSpec(widths=(4, 8, 8, 8)), seed=0)
    acc = evaluate(model, x, ds.labels, batch_size=25)
    assert 0.0 <= acc <= 60.0  # untrained: nowhere near perfect


def test_evaluate_and_calibration_leave_their_arrays_unchanged():
    ds = make_synthetic_dataset(per_class=3, seed=4)
    x = normalize(ds.images, NormStats.fit(ds))
    before = x.copy()
    model, _ = build_resnet9(ModelSpec(widths=(4, 8, 8, 8)), seed=0)
    calibrate_batchnorm(model, x, batch_size=8)
    evaluate(model, x, ds.labels, batch_size=8)
    np.testing.assert_array_equal(x, before)


@pytest.mark.parametrize("batch_size", [0, -5])
@pytest.mark.parametrize("call", [
    lambda model, x, y, batch_size: evaluate(model, x, y, batch_size),
    lambda model, x, y, batch_size: calibrate_batchnorm(model, x, batch_size),
    lambda model, x, y, batch_size: run_epoch(model, OptState.create(model.params), OptConfig(), x, y,
                                              batch_size, ls_alpha=0.0, shuffle_seed=0, epoch=0),
], ids=["evaluate", "calibrate_batchnorm", "run_epoch"])
def test_batch_size_below_one_raises_before_any_forward(call, batch_size):
    ds = make_synthetic_dataset(per_class=2, seed=4)
    x = normalize(ds.images, NormStats.fit(ds))
    model, params = build_resnet9(ModelSpec(widths=(4, 8, 8, 8)), seed=0)
    calibrate_batchnorm(model, x, batch_size=8)  # running stats away from their reset values
    weights = params.snapshot()
    stats = [(st.running_mean.copy(), st.running_var.copy()) for st in model.bn_states()]
    with pytest.raises(ConfigError, match=f"^batch_size must be >= 1, got {batch_size}$"):
        call(model, x, ds.labels, batch_size)
    for name, value in params.snapshot().items():
        np.testing.assert_array_equal(value, weights[name])
    for st, (mean, var) in zip(model.bn_states(), stats):
        np.testing.assert_array_equal(st.running_mean, mean)
        np.testing.assert_array_equal(st.running_var, var)


@pytest.mark.parametrize("n_images", [1, 7])
@pytest.mark.parametrize("call", [
    lambda model, state, x, y: evaluate(model, x, y, batch_size=4),
    lambda model, state, x, y: run_epoch(model, state, OptConfig(), x, y, 4, ls_alpha=0.0, shuffle_seed=0,
                                         epoch=0),
], ids=["evaluate", "run_epoch"])
def test_images_and_labels_of_different_lengths_raise_before_any_forward(call, n_images):
    ds = make_synthetic_dataset(per_class=1, seed=4)
    x = normalize(ds.images, NormStats.fit(ds))
    model, params = build_resnet9(ModelSpec(widths=(4, 8, 8, 8)), seed=0)
    calibrate_batchnorm(model, x, batch_size=8)  # running stats away from their reset values
    state = OptState.create(params)
    weights = params.snapshot()
    stats = [(st.running_mean.copy(), st.running_var.copy()) for st in model.bn_states()]
    with pytest.raises(ShapeError, match=f"^{n_images} images but 5 labels$"):
        call(model, state, x[:n_images], ds.labels[:5])
    assert state.step_index == 0
    for name, value in params.snapshot().items():
        np.testing.assert_array_equal(value, weights[name])
    for st, (mean, var) in zip(model.bn_states(), stats):
        np.testing.assert_array_equal(st.running_mean, mean)
        np.testing.assert_array_equal(st.running_var, var)


# ---------------------------------------------------------------------------
# epoch order


def test_run_epoch_visits_each_example_once_in_a_seeded_order(monkeypatch):
    import minitrain.train as TR

    def epoch_batches(shuffle_seed, epoch):
        batches = []

        def closure(model, xb, yb, ls_alpha):
            np.testing.assert_array_equal(xb, yb)  # images and labels gathered alike
            batches.append(yb)
            return lambda: 0.0

        monkeypatch.setattr(TR, "make_closure", closure)
        monkeypatch.setattr(TR, "train_step", lambda params, state, lr, cfg, closure: closure())
        n = np.arange(23)
        run_epoch(SimpleNamespace(params=None), SimpleNamespace(step_index=0), OptConfig(),
                  n, n, batch_size=5, ls_alpha=0.0, shuffle_seed=shuffle_seed, epoch=epoch)
        return batches

    batches = epoch_batches(7, 3)
    assert [len(b) for b in batches] == [5, 5, 5, 5, 3]
    order = np.concatenate(batches)
    assert sorted(order.tolist()) == list(range(23))
    np.testing.assert_array_equal(order, np.random.default_rng([7, 3]).permutation(23))
    np.testing.assert_array_equal(np.concatenate(epoch_batches(7, 3)), order)
    assert (np.concatenate(epoch_batches(7, 4)) != order).any()


# ---------------------------------------------------------------------------
# run_training end-to-end on synthetic data


def test_run_training_baseline_outputs(synth_data_dir, tmp_path):
    out = tmp_path / "base.csv"
    cfg = tiny_cfg(synth_data_dir, out)
    result = run_training(cfg)
    assert result.epochs_completed == 2
    recs = read_metrics(out)
    assert [r.epoch for r in recs] == [1, 2]
    assert all(r.recipe == "baseline" for r in recs)
    assert all(np.isfinite(r.train_loss) for r in recs)
    assert recs[0].wall_seconds < recs[1].wall_seconds

    man = json.loads(manifest_path(out).read_text())
    assert man["param_count"] == result.model.params.num_elements()
    assert man["epochs_completed"] == 2
    assert list(man)[-3:] == ["final_accuracy", "epochs_completed", "total_wall_seconds"]
    assert set(man["seeds"]) == {"subset", "init", "whitening", "augment"}
    assert man["subset_size"] == 40
    assert man["whitening"] is None


def test_run_writes_exactly_the_outputs_its_config_lists(synth_data_dir, tmp_path):
    # the path checks read cfg.outputs, so a file the run writes without listing it goes unchecked
    cfg = tiny_cfg(synth_data_dir, tmp_path / "m.csv", checkpoint_out=str(tmp_path / "model.npz"), max_epochs=1)
    run_training(cfg)
    assert sorted(p.resolve() for p in tmp_path.iterdir()) == sorted(Path(p).resolve() for p in cfg.outputs)
    assert len(cfg.outputs) == 3


def test_run_training_deterministic_repeat(synth_data_dir, tmp_path):
    kw = dict(per_class=4, max_epochs=3)
    r1 = run_training(tiny_cfg(synth_data_dir, tmp_path / "a.csv", **kw))
    r2 = run_training(tiny_cfg(synth_data_dir, tmp_path / "b.csv", **kw))
    assert [r.train_loss for r in r1.records] == [r.train_loss for r in r2.records]
    assert [r.test_accuracy for r in r1.records] == [r.test_accuracy for r in r2.records]
    assert r1.manifest["subset_digest"] == r2.manifest["subset_digest"]


def test_run_training_seed_changes_subset(synth_data_dir, tmp_path):
    r1 = run_training(tiny_cfg(synth_data_dir, tmp_path / "a.csv", seed=0, max_epochs=1))
    r2 = run_training(tiny_cfg(synth_data_dir, tmp_path / "b.csv", seed=1, max_epochs=1))
    assert r1.manifest["subset_digest"] != r2.manifest["subset_digest"]


def test_run_training_sam_ip_manifest(synth_data_dir, tmp_path):
    out = tmp_path / "samip.csv"
    cfg = tiny_cfg(synth_data_dir, out, optimizer="sam", ip=True, max_epochs=1)
    result = run_training(cfg)
    man = result.manifest
    assert man["recipe"] == "sam+ip"
    assert man["whitening"] is not None and man["whitening"]["eps"] == 1e-3
    assert read_metrics(out)[0].recipe == "sam+ip"


def test_run_training_mltp_rounds(synth_data_dir, tmp_path):
    out = tmp_path / "mltp.csv"
    cfg = tiny_cfg(synth_data_dir, out, mltp=True, meta_iterations=2)
    result = run_training(cfg)
    assert result.epochs_completed == 2
    assert all(np.isfinite(r.train_loss) for r in result.records)


@pytest.mark.parametrize("mltp", [False, True], ids=["epochs", "mltp"])
def test_budget_zero_epochs_emits_eval_record(synth_data_dir, tmp_path, mltp):
    # clock jumps far past the budget immediately after start
    times = iter([0.0])

    def clock():
        return next(times, 1e9)

    out = tmp_path / "tiny.csv"
    cfg = tiny_cfg(synth_data_dir, out, budget_seconds=0.5, mltp=mltp)
    result = run_training(cfg, clock=clock)
    assert result.epochs_completed == 0
    recs = read_metrics(out)
    assert len(recs) == 1 and recs[0].epoch == 0
    assert result.manifest["final_accuracy"] == result.final_accuracy
    assert result.final_accuracy == pytest.approx(recs[0].test_accuracy, abs=1e-6)
    assert math.isnan(recs[0].train_loss)
    assert 0.0 <= recs[0].test_accuracy <= 100.0


@pytest.mark.parametrize("mltp", [False, True], ids=["epochs", "mltp"])
def test_budget_never_exceeded_by_more_than_one_epoch(synth_data_dir, tmp_path, mltp):
    # simulated clock: each call advances 1s; blocks span several calls, so
    # the run must stop once remaining < longest block observed.
    t = [0.0]

    def clock():
        t[0] += 1.0
        return t[0]

    cfg = tiny_cfg(synth_data_dir, tmp_path / "b.csv", budget_seconds=30.0, max_epochs=50, mltp=mltp)
    result = run_training(cfg, clock=clock)
    per_epoch = max(r.wall_seconds for r in result.records) / len(result.records)
    assert result.manifest["total_wall_seconds"] <= 30.0 + 2 * per_epoch
    assert 0 < result.epochs_completed < 50


def test_block_time_includes_calibration_and_eval(synth_data_dir, tmp_path, monkeypatch):
    # Only calibration and evaluation move the clock: 40 s each. The first
    # MLTP round therefore takes 80 s, and the 20 s left cannot fit a second.
    import minitrain.harness as H

    now = [0.0]

    def taking(fn, seconds):
        def timed(*args, **kwargs):
            now[0] += seconds
            return fn(*args, **kwargs)
        return timed

    monkeypatch.setattr(H, "calibrate_batchnorm", taking(H.calibrate_batchnorm, 40.0))
    monkeypatch.setattr(H, "evaluate", taking(H.evaluate, 40.0))
    cfg = tiny_cfg(synth_data_dir, tmp_path / "clk.csv", mltp=True, max_epochs=3,
                   budget_seconds=100.0)
    result = run_training(cfg, clock=lambda: now[0])
    assert [(r.epoch, r.wall_seconds) for r in result.records] == [(1, 80.0)]
    assert result.manifest["total_wall_seconds"] == 80.0


@pytest.mark.parametrize("spare", [0.0, 1.0], ids=["exactly_one_block_left", "one_block_and_1s_left"])
def test_block_starts_only_if_more_than_the_longest_block_is_left(synth_data_dir, tmp_path, monkeypatch,
                                                                  spare):
    # Only evaluation moves the clock, so block 1 takes L seconds. Block 2
    # then has L + spare seconds left, and starts only if that is more than L.
    import minitrain.harness as H

    L, now = 40.0, [0.0]

    def timed_evaluate(*args, **kwargs):
        now[0] += L
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(H, "evaluate", timed_evaluate)
    cfg = tiny_cfg(synth_data_dir, tmp_path / "edge.csv", max_epochs=3, budget_seconds=2 * L + spare)
    result = run_training(cfg, clock=lambda: now[0])
    expected = [(1, L)] if spare == 0.0 else [(1, L), (2, 2 * L)]
    assert [(r.epoch, r.wall_seconds) for r in result.records] == expected


def test_mltp_lr_column_follows_inner_schedule(synth_data_dir, tmp_path):
    cfg = tiny_cfg(synth_data_dir, tmp_path / "lr.csv", mltp=True, max_epochs=4)
    result = run_training(cfg)
    # 40 images in batches of 20: the one-cycle spans 4 epochs of 2 steps.
    # Each round adapts on two 20-image tasks, one step each.
    opt_cfg = OptConfig(lr_peak=cfg.lr_peak, total_steps=4 * 2)
    task_epoch_steps = 1
    assert [r.lr for r in result.records] == [schedule_lr(opt_cfg, b * task_epoch_steps)
                                              for b in (1, 2, 3, 4)]


def test_precision_64_does_not_leak_into_later_tensors(synth_data_dir, tmp_path):
    result = run_training(tiny_cfg(synth_data_dir, tmp_path / "p64.csv", precision=64, max_epochs=1))
    assert all(e.tensor.dtype == np.float64 for e in result.model.params)
    assert Tensor(np.zeros(2)).dtype == np.float32


@pytest.mark.parametrize("mltp", [False, True], ids=["epochs", "mltp"])
def test_data_files_are_freed_before_the_first_test_pass(synth_data_dir, tmp_path, monkeypatch, mltp):
    # the run keeps the subset and the normalized test images, not the arrays of the files
    import minitrain.harness as H

    real_load, real_evaluate = H.load_cifar_binary, H.evaluate
    images, alive = {}, []

    def load(paths, split="train"):
        ds = real_load(paths, split=split)
        images[split] = weakref.ref(ds.images)
        return ds

    def evaluate(*args, **kwargs):
        alive.append({split: ref() is not None for split, ref in images.items()})
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(H, "load_cifar_binary", load)
    monkeypatch.setattr(H, "evaluate", evaluate)
    run_training(tiny_cfg(synth_data_dir, tmp_path / "m.csv", max_epochs=1, mltp=mltp))
    assert alive == [{"train": False, "test": False}]


@pytest.mark.parametrize("failing_block", [1, 2], ids=["block1", "block2"])
def test_failed_run_writes_completed_blocks_and_error(synth_data_dir, tmp_path, monkeypatch,
                                                      failing_block):
    import minitrain.harness as H

    real, calls = H.run_epoch, []

    def abort_on_failing_block(*args, **kwargs):
        calls.append(kwargs["epoch"])
        if kwargs["epoch"] == failing_block:
            raise OptimizerAbort("sgd_step: non-finite gradient in parameter head.w")
        return real(*args, **kwargs)

    monkeypatch.setattr(H, "run_epoch", abort_on_failing_block)
    out = tmp_path / "fail.csv"
    with pytest.raises(OptimizerAbort, match="head.w"):
        run_training(tiny_cfg(synth_data_dir, out, max_epochs=3))
    assert calls == list(range(1, failing_block + 1))
    records = read_metrics(out)
    assert [r.epoch for r in records] == list(range(1, failing_block))
    assert len(out.read_text().splitlines()) == failing_block  # header + completed blocks
    manifest = json.loads(manifest_path(out).read_text())
    assert list(manifest)[-3:] == ["error", "epochs_completed", "total_wall_seconds"]
    assert manifest["error"] == {"type": "OptimizerAbort",
                                 "message": "sgd_step: non-finite gradient in parameter head.w"}
    assert manifest["epochs_completed"] == failing_block - 1
    assert manifest["total_wall_seconds"] >= max((r.wall_seconds for r in records), default=0.0)
    assert "final_accuracy" not in manifest


def test_failed_checkpoint_save_names_the_error(synth_data_dir, tmp_path, monkeypatch):
    import minitrain.harness as H

    def disk_full(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(H, "save_checkpoint", disk_full)
    out = tmp_path / "ckpt.csv"
    with pytest.raises(OSError, match="No space left"):
        run_training(tiny_cfg(synth_data_dir, out, max_epochs=1, checkpoint_out=str(tmp_path / "model.npz")))
    assert [r.epoch for r in read_metrics(out)] == [1]
    manifest = json.loads(manifest_path(out).read_text())
    assert manifest["error"] == {"type": "OSError", "message": "[Errno 28] No space left on device"}
    assert manifest["epochs_completed"] == 1
    assert manifest["final_accuracy"] == pytest.approx(read_metrics(out)[-1].test_accuracy, abs=1e-6)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.csv", "ckpt.manifest.json"]


def test_interrupted_run_names_the_interrupt(synth_data_dir, tmp_path, monkeypatch):
    import minitrain.harness as H

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(H, "run_epoch", interrupt)
    out = tmp_path / "int.csv"
    with pytest.raises(KeyboardInterrupt):
        run_training(tiny_cfg(synth_data_dir, out))
    assert read_metrics(out) == []
    manifest = json.loads(manifest_path(out).read_text())
    assert manifest["error"] == {"type": "KeyboardInterrupt", "message": ""}
    assert manifest["epochs_completed"] == 0


def test_missing_data_dir_fails_before_training(tmp_path):
    cfg = tiny_cfg(tmp_path / "nope", tmp_path / "m.csv")
    with pytest.raises(FileNotFoundError):
        run_training(cfg)


def test_unwritable_metrics_path_fails_early(synth_data_dir, tmp_path):
    (tmp_path / "file").write_text("")
    for out in ("metrics_out", "checkpoint_out"):
        bad = str(tmp_path / "file" / "x")
        cfg = replace(tiny_cfg(synth_data_dir, tmp_path / "m.csv"), **{out: bad})
        with pytest.raises(ConfigError, match=f"cannot write {bad}"):
            run_training(cfg)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    manifest = manifest_path(tmp_path / "m.csv")
    manifest.mkdir()  # the metrics file could be written, its manifest could not
    with pytest.raises(ConfigError, match=f"cannot write {manifest}"):
        run_training(tiny_cfg(synth_data_dir, tmp_path / "m.csv"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "m.manifest.json"]
    assert not any(manifest.iterdir())


# ---------------------------------------------------------------------------
# recipe matrix + CLI


def test_recipe_matrix_continues_after_failure(synth_data_dir, tmp_path, monkeypatch):
    import minitrain.harness as H

    real = H.run_training

    def flaky(cfg, *a, **kw):
        if cfg.recipe == "sam":
            raise RuntimeError("boom")
        return real(cfg, *a, **kw)

    monkeypatch.setattr(H, "run_training", flaky)
    base = tiny_cfg(synth_data_dir, tmp_path / "mat.csv", max_epochs=1)
    rows = H.recipe_matrix(base, ["baseline", "sam"])
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("failed")
    assert (tmp_path / "mat_baseline.csv").exists()


def test_recipe_matrix_gives_each_recipe_its_own_checkpoint(synth_data_dir, tmp_path):
    base = tiny_cfg(synth_data_dir, tmp_path / "mat.csv", max_epochs=1,
                    checkpoint_out=str(tmp_path / "model.ckpt"))
    rows = recipe_matrix(base, ["baseline", "sam+ip"])
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert not (tmp_path / "model.ckpt").exists()
    stems = {name: load_checkpoint(tmp_path / f"model_{name}.ckpt")[0].spec.stem
             for name in ("baseline", "sam_ip")}
    assert stems == {"baseline": "plain", "sam_ip": "whitened"}


def test_recipe_matrix_checks_every_recipe_before_running(synth_data_dir, tmp_path):
    # per_class=1 only fails the mltp recipe; beta=2.0 fails at construction
    for bad, named in [(dict(per_class=1), "per_class"), (dict(beta=2.0), "beta")]:
        with pytest.raises(ConfigError, match=named):
            recipe_matrix(tiny_cfg(synth_data_dir, tmp_path / "m.csv", **bad), ["baseline", "mltp"])
        assert not (tmp_path / "m_baseline.csv").exists()


def test_recipe_matrix_unknown_recipe(synth_data_dir, tmp_path):
    base = tiny_cfg(synth_data_dir, tmp_path / "m.csv")
    for name in ["nope", "", "sam+", "ip+sam", "sam+sam", "baseline+sam", "SAM", "sam+ip+gc+mltp+x"]:
        with pytest.raises(ConfigError, match="unknown recipe"):
            recipe_matrix(base, ["baseline", name])
    with pytest.raises(ConfigError, match="at least one recipe"):
        recipe_matrix(base, [])
    with pytest.raises(ConfigError, match="'baseline' is listed twice"):
        recipe_matrix(base, ["baseline", "sam", "baseline"])
    assert list(tmp_path.iterdir()) == []


def test_matrix_table_aligns_at_the_longest_name(capsys):
    rows = [{"recipe": "sam+ip+gc+mltp", "status": "ok", "final_accuracy": 91.5, "epochs": 3,
             "wall_seconds": 12.0},
            {"recipe": "sam", "status": "failed: a message longer than twelve characters",
             "final_accuracy": float("nan"), "epochs": 0, "wall_seconds": float("nan")}]
    _print_matrix(rows)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    status = lines[0].index(" status") + 1  # the last column, printed whole
    assert lines[1][status:] == "ok" and lines[2][status:] == rows[1]["status"]
    accuracy = lines[0].index("accuracy") + len("accuracy")
    assert lines[1][:accuracy].endswith(" 91.50") and lines[2][:accuracy].endswith(" nan")


def test_cli_main_happy_path(synth_data_dir, tmp_path, capsys):
    out = tmp_path / "cli.csv"
    rc = main(["--data-dir", str(synth_data_dir), "--per-class", "4",
               "--max-epochs", "1", "--batch-size", "20", "--widths", "8,16,16,16",
               "--no-augment", "--metrics-out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "recipe=baseline" in printed and "accuracy=" in printed
    assert out.exists()
    # CLI provenance lands in the manifest
    man = json.loads(manifest_path(out).read_text())
    assert man["cli"]["flag_values"]["per_class"] == 4


def test_cli_main_budget_seconds_inf_means_no_budget(synth_data_dir, tmp_path, capsys):
    out = tmp_path / "inf.csv"
    rc = main(["--data-dir", str(synth_data_dir), "--per-class", "4", "--budget-seconds", "inf",
               "--max-epochs", "2", "--batch-size", "20", "--widths", "8,16,16,16",
               "--no-augment", "--metrics-out", str(out)])
    assert rc == 0 and "epochs=2" in capsys.readouterr().out
    assert json.loads(manifest_path(out).read_text())["config"]["budget_seconds"] == math.inf


def test_cli_main_no_data_dir_is_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CIFAR_DIR", raising=False)
    rc = main(["--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "no data directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_main_config_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("optimizer = adam\n")
    rc = main(["--config", str(f), "--data-dir", "/x"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--widths", "8,x,16,16"],
    ["--per-class", "0"],
    ["--batch-size", "0"],
    ["--max-epochs", "0"],
    ["--mltp", "--per-class", "1"],
    ["--lambda", "-0.5"],
    ["--widths", "8,16,16"],
    ["--lr-peak", "0"],
    ["--momentum", "1.5"],
    ["--rho", "-1"],
    ["--mltp", "--beta", "2"],
    ["--recipe-matrix", "baseline,sam", "--lr-peak", "0"],
    ["--recipe-matrix", ""],
    ["--recipe-matrix", "baseline,baseline"],
    ["--recipe-matrix", "baseline,ip+sam"],
    ["--recipe-matrix", "--optimizer", "sam"],
    ["--recipe-matrix", "--ip"],
    ["--recipe-matrix", "--no-gc"],
    ["--recipe-matrix", "baseline,sam", "--mltp"],
    ["--recipe-matrix", "baseline", "--config", "{tmp}/ip.cfg"],
    ["--metrics-out", "{tmp}/file/m.csv"],
    ["--checkpoint-out", "{tmp}/file/model.ckpt"],
    ["--per-class", "abc"],
    ["--seed", "1.5"],
    ["--precision", "16"],
    ["--optimizer", "adam"],
    ["--seed", "-1"],
    ["--budget-seconds", "nan"],
    ["--lr-peak", "nan"],
    ["--lambda", "nan"],
    ["--rho", "nan"],
    ["--beta", "0"],
    ["--beta", "2"],
    ["--beta", "nan"],
    ["--lr-peak", "inf"],
    ["--lambda", "inf"],
    ["--rho", "inf", "--optimizer", "sam"],
    ["--checkpoint-out", "{tmp}/m.csv"],
    ["--checkpoint-out", "{tmp}/m.manifest.json"],
    ["--checkpoint-out", "{tmp}/./m.csv"],
    ["--recipe-matrix", "baseline,sam", "--checkpoint-out", "{tmp}/m.csv"],
    ["--recipe-matrix", "ip,sam+ip", "--checkpoint-out", "{tmp}/m_sam.csv"],
    ["--metrics-out", "{tmp}/data_batch_1.bin"],
    ["--checkpoint-out", "{tmp}/test_batch.bin"],
    ["--checkpoint-out", "{tmp}/./data_batch_2.bin"],
    ["--recipe-matrix", "baseline,sam", "--checkpoint-out", "{tmp}/test_batch.bin"],
], ids=["malformed_widths", "per_class", "batch_size", "max_epochs", "mltp_per_class", "decay",
        "three_widths", "lr_peak", "momentum", "rho", "beta", "matrix_lr_peak",
        "matrix_empty", "matrix_repeated", "matrix_malformed",
        "matrix_optimizer", "matrix_ip", "matrix_no_gc", "matrix_mltp", "matrix_ip_in_file",
        "metrics_under_file", "checkpoint_under_file",
        "per_class_text", "seed_fraction", "precision", "optimizer", "negative_seed",
        "nan_budget_seconds", "nan_lr_peak", "nan_decay", "nan_rho",
        "beta_zero_without_mltp", "beta_above_one_without_mltp", "nan_beta_without_mltp",
        "inf_lr_peak", "inf_decay", "inf_rho_sam", "checkpoint_is_metrics", "checkpoint_is_manifest",
        "checkpoint_is_metrics_dotted", "matrix_checkpoint_is_metrics", "matrix_checkpoint_is_other_metrics",
        "metrics_is_train_data", "checkpoint_is_test_data", "checkpoint_would_be_train_data",
        "matrix_checkpoint_is_test_data"])
def test_cli_main_invalid_value_exits_2_before_reading_data(argv, tmp_path, capsys, monkeypatch):
    import minitrain.harness as H

    def no_data(*args, **kwargs):
        raise AssertionError("data was read")

    monkeypatch.setattr(H, "load_cifar_binary", no_data)
    data = {name: name.encode() for name in ("data_batch_1.bin", "test_batch.bin")}
    for name, content in data.items():  # found, so only a bad setting can exit 2
        (tmp_path / name).write_bytes(content)
    (tmp_path / "file").write_text("")  # a regular file, so no path under it can be written
    (tmp_path / "ip.cfg").write_text("ip = true\n")
    rc = main(["--data-dir", str(tmp_path), "--metrics-out", str(tmp_path / "m.csv")]
              + [a.format(tmp=tmp_path) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(f.name for f in tmp_path.iterdir()) == ["data_batch_1.bin", "file", "ip.cfg", "test_batch.bin"]
    assert all((tmp_path / name).read_bytes() == content for name, content in data.items())


def test_recipe_matrix_refuses_the_switches_it_sets(tmp_path):
    (tmp_path / "ip.cfg").write_text("ip = true\n")
    for argv, named in [(["--optimizer", "sam"], "optimizer"), (["--optimizer", "sgd"], "optimizer"),
                        (["--ip"], "ip"), (["--no-gc"], "gc"), (["--mltp"], "mltp"),
                        (["--config", str(tmp_path / "ip.cfg")], "ip"), (["--no-ip", "--gc"], "ip, gc")]:
        with pytest.raises(ConfigError, match=f"recipe name, so they cannot be set; got {named}$"):
            parse_config(["--recipe-matrix", "baseline", *argv], env={})
        parse_config(argv, env={})  # without the matrix the same settings are taken
    _, _, matrix = parse_config(["--recipe-matrix", "baseline,sam", "--rho", "0.1", "--no-augment"], env={})
    assert matrix == ["baseline", "sam"]


def test_cli_main_per_class_above_the_data_exits_2(tmp_path, capsys):
    write_cifar_binary(make_synthetic_dataset(per_class=5, seed=0), tmp_path / "data_batch_1.bin")
    write_cifar_binary(make_synthetic_dataset(per_class=2, seed=1), tmp_path / "test_batch.bin")
    rc = main(["--data-dir", str(tmp_path), "--per-class", "6",
               "--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "per_class 6" in err and "5 images of class 0" in err
    assert read_metrics(tmp_path / "m.csv") == []
    manifest = json.loads(manifest_path(tmp_path / "m.csv").read_text())
    assert manifest["error"]["type"] == "ConfigError" and manifest["epochs_completed"] == 0


def test_cli_main_malformed_data_file_exits_2(tmp_path, capsys):
    (tmp_path / "data_batch_1.bin").write_bytes(b"7 bytes")
    write_cifar_binary(make_synthetic_dataset(per_class=2, seed=1), tmp_path / "test_batch.bin")
    rc = main(["--data-dir", str(tmp_path), "--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3073" in err and err.count("\n") == 1
    assert read_metrics(tmp_path / "m.csv") == []
    manifest = json.loads(manifest_path(tmp_path / "m.csv").read_text())
    assert manifest["error"]["type"] == "DataFormatError" and manifest["epochs_completed"] == 0


def test_cli_main_empty_data_file_exits_2_before_training(tmp_path, capsys, monkeypatch):
    import minitrain.harness as H

    monkeypatch.setattr(H, "run_epoch", lambda *a, **kw: pytest.fail("a block trained"))
    write_cifar_binary(make_synthetic_dataset(per_class=5, seed=0), tmp_path / "data_batch_1.bin")
    (tmp_path / "test_batch.bin").write_bytes(b"")  # 0 bytes: a multiple of 3073 with no record
    rc = main(["--data-dir", str(tmp_path), "--per-class", "2", "--widths", "8,16,16,16",
               "--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "test_batch.bin: length 0" in err and err.count("\n") == 1
    assert read_metrics(tmp_path / "m.csv") == []
    manifest = json.loads(manifest_path(tmp_path / "m.csv").read_text())
    assert manifest["error"]["type"] == "DataFormatError" and manifest["epochs_completed"] == 0


def test_cli_main_recipe_matrix_manifests_hold_cli_provenance(synth_data_dir, tmp_path, capsys):
    rc = main(["--data-dir", str(synth_data_dir), "--recipe-matrix", "baseline,sam", "--per-class", "4",
               "--max-epochs", "1", "--batch-size", "20", "--widths", "8,16,16,16", "--no-augment",
               "--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 0
    for tag in ("baseline", "sam"):
        man = json.loads(manifest_path(tmp_path / f"m_{tag}.csv").read_text())
        assert man["cli"]["flag_values"]["per_class"] == 4
        assert man["cli"]["flag_values"]["widths"] == [8, 16, 16, 16]

