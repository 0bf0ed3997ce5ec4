import argparse
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from synthetic import make_synthetic_dataset

from minitrain.cli import build_parser, main, parse_config, read_config_file
from minitrain.data import NormStats, normalize, write_cifar_binary
from minitrain.harness import (
    RECIPES,
    MetricsRecord,
    RunConfig,
    manifest_path,
    read_metrics,
    recipe_matrix,
    run_training,
    write_metrics,
)
from minitrain.models import ModelSpec, build_resnet9, load_checkpoint
from minitrain.optim import OptConfig, OptimizerAbort, schedule_lr
from minitrain.tensor import ConfigError, Tensor
from minitrain.train import BudgetClock, evaluate

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


def test_recipe_flag_mapping():
    assert RunConfig(data_dir="x").recipe == "baseline"
    assert RunConfig(data_dir="x", optimizer="sam").recipe == "sam"
    assert RunConfig(data_dir="x", optimizer="sam", ip=True).recipe == "sam+ip"
    assert RunConfig(data_dir="x", optimizer="sam", gc=True).recipe == "sam+gc"
    assert RunConfig(data_dir="x", mltp=True).recipe == "mltp"


def test_ip_implies_smoothing_decay_celu():
    on = RunConfig(data_dir="x", ip=True)
    off = RunConfig(data_dir="x", ip=False)
    assert on.ls_alpha() == 0.1 and off.ls_alpha() == 0.0
    assert on.resolved_decay() == 0.0005 and off.resolved_decay() == 0.0
    assert RunConfig(data_dir="x", ip=True, decay=0.001).resolved_decay() == 0.001


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
                       (dict(decay=-0.1), "decay")]:
        with pytest.raises(ConfigError, match=named):
            RunConfig(data_dir="x", **bad)
    RunConfig(data_dir="x", mltp=True, per_class=2, decay=0.0)  # the smallest valid values


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
    assert set(args.recipe_matrix.split(",")) == set(RECIPES)


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


def test_mltp_lr_column_follows_inner_schedule(synth_data_dir, tmp_path):
    cfg = tiny_cfg(synth_data_dir, tmp_path / "lr.csv", mltp=True, max_epochs=4)
    result = run_training(cfg)
    # 40 images in batches of 20: the one-cycle spans 4 epochs of 2 steps.
    # Each round adapts on two 20-image tasks, one step each.
    opt_cfg = OptConfig(lr_peak=cfg.lr_peak, total_steps=4 * 2)
    steps_per_round = 1
    assert [r.lr for r in result.records] == [schedule_lr(opt_cfg, b * steps_per_round)
                                              for b in (1, 2, 3, 4)]


def test_precision_64_does_not_leak_into_later_tensors(synth_data_dir, tmp_path):
    result = run_training(tiny_cfg(synth_data_dir, tmp_path / "p64.csv", precision=64, max_epochs=1))
    assert all(e.tensor.dtype == np.float64 for e in result.model.params)
    assert Tensor(np.zeros(2)).dtype == np.float32


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
    for bad, named in [(dict(per_class=1), "per_class"), (dict(beta=2.0), "beta")]:
        base = tiny_cfg(synth_data_dir, tmp_path / "m.csv", **bad)
        with pytest.raises(ConfigError, match=named):
            recipe_matrix(base, ["baseline", "mltp"])
        assert not (tmp_path / "m_baseline.csv").exists()


def test_recipe_matrix_unknown_recipe(synth_data_dir, tmp_path):
    base = tiny_cfg(synth_data_dir, tmp_path / "m.csv")
    with pytest.raises(ConfigError, match="unknown recipe"):
        recipe_matrix(base, ["nope"])


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


def test_cli_main_no_data_dir_is_error(capsys):
    rc = main([])
    assert rc == 2
    assert "data directory" in capsys.readouterr().err


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
], ids=["malformed_widths", "per_class", "batch_size", "max_epochs", "mltp_per_class", "decay",
        "three_widths", "lr_peak", "momentum", "rho", "beta", "matrix_lr_peak",
        "metrics_under_file", "checkpoint_under_file",
        "per_class_text", "seed_fraction", "precision", "optimizer", "negative_seed",
        "nan_budget_seconds", "nan_lr_peak", "nan_decay", "nan_rho"])
def test_cli_main_invalid_value_exits_2_before_reading_data(argv, tmp_path, capsys, monkeypatch):
    import minitrain.harness as H

    def no_data(*args, **kwargs):
        raise AssertionError("data was read")

    monkeypatch.setattr(H, "load_cifar_binary", no_data)
    for name in ("data_batch_1.bin", "test_batch.bin"):  # found, so only a bad setting can exit 2
        (tmp_path / name).write_bytes(b"")
    (tmp_path / "file").write_text("")  # a regular file, so no path under it can be written
    rc = main(["--data-dir", str(tmp_path), "--metrics-out", str(tmp_path / "m.csv")]
              + [a.format(tmp=tmp_path) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "m.csv").exists()


def test_cli_main_per_class_above_the_data_exits_2(tmp_path, capsys):
    write_cifar_binary(make_synthetic_dataset(per_class=5, seed=0), tmp_path / "data_batch_1.bin")
    write_cifar_binary(make_synthetic_dataset(per_class=2, seed=1), tmp_path / "test_batch.bin")
    rc = main(["--data-dir", str(tmp_path), "--per-class", "6",
               "--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "per_class 6" in err and "5 images of class 0" in err


def test_cli_main_malformed_data_file_exits_2(tmp_path, capsys):
    (tmp_path / "data_batch_1.bin").write_bytes(b"7 bytes")
    write_cifar_binary(make_synthetic_dataset(per_class=2, seed=1), tmp_path / "test_batch.bin")
    rc = main(["--data-dir", str(tmp_path), "--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3073" in err and err.count("\n") == 1


def test_cli_main_recipe_matrix_manifests_hold_cli_provenance(synth_data_dir, tmp_path, capsys):
    rc = main(["--data-dir", str(synth_data_dir), "--recipe-matrix", "baseline,sam", "--per-class", "4",
               "--max-epochs", "1", "--batch-size", "20", "--widths", "8,16,16,16", "--no-augment",
               "--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 0
    for tag in ("baseline", "sam"):
        man = json.loads(manifest_path(tmp_path / f"m_{tag}.csv").read_text())
        assert man["cli"]["flag_values"]["per_class"] == 4
        assert man["cli"]["flag_values"]["widths"] == [8, 16, 16, 16]


def test_budget_clock_contract():
    vals = iter([10.0, 11.0, 14.0, 21.0])
    clk = lambda: next(vals)
    b = BudgetClock(10.0, clock=clk)
    assert b.elapsed() == 1.0
    assert b.should_start(5.0)  # remaining 6 >= 5
    assert not b.should_start(5.0)  # remaining -1
