"""Smoke tests of the benchmark at tiny shapes.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import layers
import minitrain.data
import minitrain.harness
import minitrain.models
import minitrain.tensor
import minitrain.train
import run
from flops import check_default_gmac, layer_plan
from spans import Instrument, Tracer
from synth import make_dataset, write_dataset_dir

ROOT = Path(__file__).resolve().parents[2]
TINY = {
    "sam_ip_default": bench.Shape((8, 8, 8, 8), batch=8, per_class=4, test_per_class=2, blocks=1),
    "mltp_narrow": bench.Shape((8, 8, 8, 8), batch=8, per_class=8, test_per_class=2, blocks=2),
    "eval_default": bench.Shape((8, 8, 8, 8), batch=8, per_class=2, test_per_class=2),
}


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench_out")


@pytest.fixture(scope="module")
def tiny(out_dir):
    """Every workload at a tiny shape, untraced and traced."""
    return {(w, trace): bench.run(w, 0, 0.0, trace, shape=shape, out_dir=out_dir)
            for w, shape in TINY.items() for trace in (False, True)}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.catalog()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted_with_its_unit(tiny, workload):
    plain, traced = tiny[workload, False], tiny[workload, True]
    for result in (plain, traced):
        assert result["correct"], result["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
    e2e = plain["end_to_end"]
    assert {k: v["unit"] for k, v in e2e.items()} == bench.END_TO_END
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in e2e.values())
    per_layer = traced["per_layer"]
    assert {k: v["unit"] for k, v in per_layer.items()} == layers.catalog()
    assert all(math.isfinite(v["value"]) for v in per_layer.values())
    if workload == "sam_ip_default":
        assert per_layer["optim.closures_per_step"]["value"] == 2
        assert per_layer["models.stage3.conv.bwd_ms"]["value"] > 0
        step = per_layer["optim.train_step_ms"]["value"]
        assert abs(per_layer["optim.train_step.residual_ms"]["value"]) < 0.05 * step
    if workload == "eval_default":
        assert per_layer["tensor.tape.nodes"]["value"] == 0
        assert per_layer["models.load_checkpoint_s"]["value"] > 0


def test_cli_prints_the_result_as_its_last_line(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(bench.WORKLOADS, "eval_default", TINY["eval_default"])
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(os, "environ", dict(os.environ))
    for trace, names in (("0", bench.END_TO_END), ("1", layers.catalog())):
        assert run.main(["--workload", "eval_default", "--seed", "1", "--seconds", "0", "--trace", trace]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == names


def test_every_wrapped_attribute_resolves_and_is_restored():
    inst = Instrument(Tracer(), full=True)
    targets = [(owner, attr) for owner, attr, _ in inst.patches()]
    originals = [vars(owner)[attr] for owner, attr in targets]
    with inst:
        for (owner, attr), original in zip(targets, originals):
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr} not wrapped"
    for (owner, attr), original in zip(targets, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_a_missing_attribute_fails_loudly_and_restores_the_rest(monkeypatch):
    monkeypatch.delattr(minitrain.train, "augment")
    original = vars(minitrain.harness)["run_training"]
    with pytest.raises(KeyError):
        with Instrument(Tracer(), full=True):
            pass
    assert vars(minitrain.harness)["run_training"] is original


@pytest.mark.parametrize("workload", list(TINY))
def test_spans_nest_and_self_time_is_not_negative(tiny, out_dir, workload):
    tiny[workload, True]  # the traced run wrote its spans
    spans = [json.loads(line) for line in (out_dir / f"{workload}-seed0-trace1.spans.jsonl").open()]
    by_index = {s["i"]: s for s in spans}
    assert any(s["name"] == "tensor.conv2d.bwd" for s in spans) == (workload != "eval_default")
    for s in spans:
        assert s["start"] <= s["end"]
        assert s["self_s"] >= -1e-9
        if s["parent"] is not None:
            parent = by_index[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]


def test_non_finite_loss_raises_failed_share_without_crashing(monkeypatch, out_dir):
    calls = []
    original = minitrain.train.train_step

    def poisoned(*args, **kwargs):
        loss = original(*args, **kwargs)
        calls.append(loss)
        return float("nan") if len(calls) == 2 else loss

    monkeypatch.setattr(minitrain.train, "train_step", poisoned)
    result = bench.run("sam_ip_default", 0, 0.0, False, shape=TINY["sam_ip_default"], out_dir=out_dir)
    assert result["failed"] == 1 and result["failed_share"] > 0
    assert not result["correct"]
    assert result["end_to_end"]["op_s_p50"]["value"] > 0


def test_a_unit_that_raises_counts_as_failed(monkeypatch, out_dir):
    def broken(cfg, *args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(minitrain.harness, "run_training", broken)
    result = bench.run("mltp_narrow", 0, 0.0, False, shape=TINY["mltp_narrow"], out_dir=out_dir)
    assert result["attempted"] == result["failed"] == 1
    assert not result["correct"]


def test_analytic_flops_match_the_shapes_the_model_runs():
    assert abs(check_default_gmac() - 0.38) < 0.01
    seen = {}
    original = minitrain.models.conv2d

    def counting_conv(x, w, *args, **kwargs):
        out = original(x, w, *args, **kwargs)
        n, cout, ho, wo = out.shape
        seen[id(w)] = 2 * n * cout * w.shape[1] * w.shape[2] * w.shape[3] * ho * wo
        return out

    for stem in ("whitened", "plain"):
        spec = minitrain.models.ModelSpec(widths=(8, 16, 16, 32), stem=stem)
        filters = np.eye(27).reshape(27, 3, 3, 3) if stem == "whitened" else None
        model, params = minitrain.models.build_resnet9(spec, 0, whitening_filters=filters)
        seen.clear()
        minitrain.models.conv2d = counting_conv
        try:
            model.forward(minitrain.tensor.Tensor(np.zeros((3, 3, 32, 32))), mode="eval")
        finally:
            minitrain.models.conv2d = original
        blocks = {e.name.rsplit(".", 2)[0]: id(e.tensor) for e in params if e.name.endswith(".conv.w")}
        if model.stem_filters is not None:
            blocks["stem"] = id(model.stem_filters)
        for layer in layer_plan(spec):
            if layer.name != "head":
                assert seen[blocks[layer.name]] == 3 * layer.fwd_flops, layer.name
        factors = {layer.name: layer.bwd_factor for layer in layer_plan(spec)}
        assert factors["prep"] == 1 and factors["stage3"] == 2 and factors.get("stem", 0) == 0


def test_synthetic_data_is_seeded_balanced_and_readable(tmp_path):
    a, b, c = make_dataset(5, seed=1), make_dataset(5, seed=1), make_dataset(5, seed=2)
    assert np.array_equal(a.images, b.images) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)
    assert np.bincount(a.labels).tolist() == [5] * 10
    d = write_dataset_dir(tmp_path, 3, 2, seed=7)
    train = minitrain.data.load_cifar_binary([d / "data_batch_1.bin"])
    test = minitrain.data.load_cifar_binary([d / "test_batch.bin"])
    assert len(train) == 30 and len(test) == 20


def test_reference_check():
    shape = bench.WORKLOADS["mltp_narrow"]
    ref = {"tolerance": 0.01,
           "workloads": {"mltp_narrow": {"shape": bench.shape_record(shape), "probe_loss": {"0": 1.5}}}}
    check = bench.reference_problem
    assert check("mltp_narrow", shape, 0, 1.505, ref) is None
    assert "differs" in check("mltp_narrow", shape, 0, 1.6, ref)
    assert "input set 1" in check("mltp_narrow", shape, 1, 1.5, ref)
    assert "not finite" in check("mltp_narrow", shape, 0, float("nan"), ref)
    assert "no reference" in check("sam_ip_default", bench.WORKLOADS["sam_ip_default"], 0, 2.0, ref)
    assert check("mltp_narrow", TINY["mltp_narrow"], 0, 9.0, ref) is None


def test_seeds_beyond_the_input_sets_reuse_them(tiny, out_dir):
    again = bench.run("eval_default", bench.INPUT_SETS, 0.0, False, shape=TINY["eval_default"], out_dir=out_dir)
    assert again["input_seed"] == 0
    assert again["probe_loss"] == tiny["eval_default", False]["probe_loss"]


def test_recorded_reference_covers_every_workload_and_input_set():
    ref = bench.load_reference()
    for name, shape in bench.WORKLOADS.items():
        assert ref["workloads"][name]["shape"] == bench.shape_record(shape)
        assert sorted(map(int, ref["workloads"][name]["probe_loss"])) == list(range(bench.INPUT_SETS))


def test_training_workloads_run_whole_batches():
    sam, mltp = bench.WORKLOADS["sam_ip_default"], bench.WORKLOADS["mltp_narrow"]
    assert (10 * sam.per_class) % sam.batch == 0
    assert mltp.per_class % 2 == 0 and (5 * mltp.per_class) % mltp.batch == 0


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval_default",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
