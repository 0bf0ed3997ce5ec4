import io
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minitrain import tensor as T
from minitrain.models import (
    CheckpointError,
    ModelSpec,
    _checkpoint_arrays,
    build_resnet9,
    load_checkpoint,
    save_checkpoint,
)
from minitrain.optim import OptConfig, OptState, centralize_gradients, sgd_step
from minitrain.tensor import ConfigError, ShapeError, Tensor, backward, smoothed_cross_entropy, tape
from minitrain.train import calibrate_batchnorm

F64 = np.float64

SMALL = dict(widths=(8, 16, 32, 64))

# Layer-by-layer count for default widths and plain stem, frozen by hand:
#   prep 64*3*9 + 2*64; stage1 128*64*9 + 2*128; res1 2*(128*128*9 + 2*128);
#   stage2 256*128*9 + 2*256; stage3 512*256*9 + 2*512;
#   res2 2*(512*512*9 + 2*512); head 10*512 + 10
DEFAULT_PARAM_COUNT = 6_573_130


def test_forward_shape_contract():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)))
    assert model.forward(x, mode="eval").shape == (2, 10)


def test_same_seed_bit_identical_parameters():
    _, p1 = build_resnet9(ModelSpec(**SMALL), seed=7)
    _, p2 = build_resnet9(ModelSpec(**SMALL), seed=7)
    for a, b in zip(p1, p2):
        assert a.name == b.name
        assert (a.tensor.data == b.tensor.data).all()
    _, p3 = build_resnet9(ModelSpec(**SMALL), seed=8)
    assert any((a.tensor.data != c.tensor.data).any() for a, c in zip(p1, p3))


def test_default_parameter_count_frozen():
    _, params = build_resnet9(ModelSpec(), seed=0)
    assert params.num_elements() == DEFAULT_PARAM_COUNT


def test_zero_input_fresh_model_finite_logits():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=0)
    out = model.forward(Tensor(np.zeros((2, 3, 32, 32))), mode="eval")
    assert np.isfinite(out.data).all()


def test_train_forward_is_deterministic_between_calls():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=1)
    x = np.random.default_rng(1).normal(size=(4, 3, 32, 32)).astype(np.float32)
    a = model.forward(Tensor(x), mode="train").data.copy()
    b = model.forward(Tensor(x), mode="train").data.copy()
    assert (a == b).all()


def test_wrong_input_shape_rejected():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=0)
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((2, 3, 16, 16))))
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((2, 1, 32, 32))))


def test_unknown_mode_rejected_before_any_op():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=0)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)))
    before = [(st.running_mean.copy(), st.running_var.copy()) for st in model.bn_states()]
    for mode in ("Eval", "TRAIN", "test", ""):
        with tape() as t:
            with pytest.raises(ConfigError, match="mode must be 'train' or 'eval'"):
                model.forward(x, mode=mode)
        assert len(t) == 0, mode
    for (mean, var), st in zip(before, model.bn_states()):
        assert (st.running_mean == mean).all() and (st.running_var == var).all()


def test_bn_calibration_makes_eval_match_train():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=2, dtype=F64)
    x = np.random.default_rng(2).normal(size=(8, 3, 32, 32))
    train_logits = model.forward(Tensor(x, dtype=F64), mode="train", bn_momentum=1.0).data.copy()
    eval_logits = model.forward(Tensor(x, dtype=F64), mode="eval").data
    np.testing.assert_allclose(eval_logits, train_logits, atol=1e-4)


def test_param_classification_partition():
    model, params = build_resnet9(ModelSpec(stem="whitened"), seed=0,
                                  whitening_filters=np.random.default_rng(0).normal(size=(27, 3, 3, 3)))
    rng = np.random.default_rng(1)
    for e in params:
        e.tensor.grad = rng.normal(size=e.tensor.shape).astype(e.tensor.dtype)
    grads = {e.name: e.tensor.grad.copy() for e in params}
    centralize_gradients(params)
    for e in params:
        if e.tensor.ndim == 1:  # batchnorm scale/shift, bias: left as is
            np.testing.assert_array_equal(e.tensor.grad, grads[e.name], err_msg=e.name)
        else:  # conv kernel, linear weight: every output slice has zero mean
            means = e.tensor.grad.mean(axis=tuple(range(1, e.tensor.ndim)))
            np.testing.assert_allclose(means, 0.0, atol=1e-6, err_msg=e.name)

    # with zero gradients and no momentum, a step applies decay alone
    before = params.snapshot()
    for e in params:
        e.tensor.grad = np.zeros_like(e.tensor.data)
    sgd_step(params, OptState.create(params), 1.0, OptConfig(momentum=0.0, decay=0.1))
    moved = {e.name for e in params if not np.array_equal(e.tensor.data, before[e.name])}
    assert moved == {e.name for e in params if e.tensor.ndim >= 2}
    names = [e.name for e in params]
    assert len(names) == len(set(names))
    assert "__stem.filters" not in names
    assert model.stem_filters is not None


def test_whitened_stem_frozen_through_optimizer_steps():
    wf = np.random.default_rng(3).normal(size=(27, 3, 3, 3))
    model, params = build_resnet9(ModelSpec(widths=(8, 16, 32, 64), stem="whitened"), seed=3,
                                  whitening_filters=wf)
    before = model.stem_filters.data.copy()
    x = np.random.default_rng(3).normal(size=(4, 3, 32, 32)).astype(np.float32)
    labels = np.array([0, 1, 2, 3])
    cfg = OptConfig(lr_peak=0.1, total_steps=10)
    state = OptState.create(params)
    for _ in range(5):
        params.zero_grads()
        with tape():
            logits = model.forward(Tensor(x), mode="train")
            loss, _ = smoothed_cross_entropy(logits, labels, 0.1, 10)
            backward(loss)
        sgd_step(params, state, 0.1, cfg)
    assert (model.stem_filters.data == before).all()


def test_whitened_stem_requires_filters():
    with pytest.raises(ConfigError):
        build_resnet9(ModelSpec(stem="whitened"), seed=0)


def test_residual_block_identity_when_zeroed():
    model, params = build_resnet9(ModelSpec(**SMALL), seed=4, dtype=F64)
    for e in params:
        if e.name.startswith("res1.") and e.name.endswith("conv.w"):
            e.tensor.data[...] = 0.0
        if e.name.startswith("res1.") and "beta" in e.name:
            e.tensor.data[...] = 0.0
    x = Tensor(np.random.default_rng(4).normal(size=(2, 16, 16, 16)), requires_grad=True, dtype=F64)
    # f(x) == 0: conv output zero -> bn output beta == 0 -> activation(0) == 0
    with tape():
        out = model.res1(x, mode="train")
        T.backward(T.tsum(out))
    np.testing.assert_array_equal(out.data, x.data)
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


def test_residual_block_grad_check():
    model, _ = build_resnet9(ModelSpec(widths=(4, 4, 8, 8)), seed=5, dtype=F64)
    x = np.random.default_rng(5).normal(size=(2, 4, 6, 6))
    c = np.random.default_rng(6).normal(size=(2, 4, 6, 6))

    def f(t):
        return T.tsum(T.mul(model.res1(t, mode="train"), Tensor(c, dtype=F64)))

    rep = T.grad_check(f, Tensor(x, dtype=F64), step=1e-5, tol=1e-4)
    assert rep.passed, rep


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("activation", ["relu", "celu"])
def test_conv_block_activation_overwrites_batchnorm_output(monkeypatch, activation, mode):
    """Both modes run conv, batchnorm, then the activation in place on batchnorm's
    output. Train mode's batchnorm is ``batchnorm2d``. Eval mode's works in place
    on the conv output, so the activation overwrites that, and nothing is recorded."""
    import minitrain.models as M

    conv_outs, bn_outs, act_outs = [], [], []

    def capture(fn, outs):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            outs.append(out.data)
            return out
        return wrapper

    monkeypatch.setattr(M, "conv2d", capture(M.conv2d, conv_outs))
    monkeypatch.setattr(M, "batchnorm2d", capture(M.batchnorm2d, bn_outs))
    monkeypatch.setattr(M, activation, capture(getattr(M, activation), act_outs))
    model, params = build_resnet9(ModelSpec(widths=(4, 4, 4, 4), activation=activation), seed=0)
    x = Tensor(np.random.default_rng(7).normal(size=(2, 3, 32, 32)))
    with tape() as t:
        logits = model.forward(x, mode=mode)
        if mode == "eval":
            assert len(t) == 0 and logits.tape is None
        else:
            loss, _ = smoothed_cross_entropy(logits, np.array([1, 2]), 0.0, 10)
            backward(loss)
    assert len(conv_outs) == len(act_outs) == len(model.bn_states())
    if mode == "eval":
        assert bn_outs == []
        for conv_out, act_out in zip(conv_outs, act_outs):
            assert np.shares_memory(conv_out, act_out)
        return
    assert len(bn_outs) == len(model.bn_states())
    for bn_out, act_out in zip(bn_outs, act_outs):
        assert np.shares_memory(bn_out, act_out)
    assert all(np.isfinite(e.tensor.grad).all() for e in params)


def _separate_passes_eval_logits(model, x):
    """The eval forward as conv, batchnorm and activation in separate full-size
    passes, with batchnorm and the activation spelled out in numpy."""
    spec, dtype = model.spec, x.dtype
    pc = (1, -1, 1, 1)

    def op(f, *args, **kwargs):
        return f(*(Tensor(a, dtype=dtype) if isinstance(a, np.ndarray) else a for a in args), **kwargs).data

    def block(b, h):
        h = op(T.conv2d, h, b.w)
        st = b.bn_state
        inv_std = 1.0 / np.sqrt(st.running_var + 1e-5)
        mean, gamma, beta = st.running_mean.reshape(pc), b.gamma.data.reshape(pc), b.beta.data.reshape(pc)
        h = (h - mean) * inv_std.reshape(pc) * gamma + beta
        if spec.activation == "celu":
            a = spec.celu_alpha
            return np.maximum(h, 0.0) + a * np.expm1(np.minimum(h, 0.0) / a)
        return np.maximum(h, 0)

    def residual(r, h):
        return h + block(r.b, block(r.a, h))

    if model.stem_filters is not None:
        x = op(T.conv2d, x, model.stem_filters)
    h = block(model.prep, x)
    h = op(T.maxpool2d, block(model.stage1, h))
    h = residual(model.res1, h)
    h = op(T.maxpool2d, block(model.stage2, h))
    h = op(T.maxpool2d, block(model.stage3, h))
    h = residual(model.res2, h)
    h = op(T.global_maxpool, h)
    return op(T.mul, op(T.linear, h, model.head_w, model.head_b), spec.head_scale)


@pytest.mark.parametrize("chunked", [False, True], ids=["one_chunk", "partial_chunks"])
@pytest.mark.parametrize("dtype", [np.float32, F64], ids=["fp32", "fp64"])
@pytest.mark.parametrize("stem", ["plain", "whitened"])
@pytest.mark.parametrize("activation", ["relu", "celu"])
def test_eval_logits_match_separate_passes_bit_for_bit(monkeypatch, activation, stem, dtype, chunked):
    if chunked:
        # the 5 images go through prep in chunks of 2, 2 and 1, and through res1 in 3 and 2
        monkeypatch.setattr(T, "_COL_BUDGET_BYTES", (1 << 16) * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(31)
    wf = rng.normal(size=(27, 3, 3, 3)) if stem == "whitened" else None
    spec = ModelSpec(widths=(4, 8, 8, 16), activation=activation, stem=stem)
    model, params = build_resnet9(spec, seed=31, whitening_filters=wf, dtype=dtype)
    for e in params:  # every parameter off its initial value, batchnorm scales and shifts included
        e.tensor.data += rng.normal(scale=0.3, size=e.tensor.shape).astype(dtype)
    for _ in range(2):  # running statistics off their initial values
        model.forward(Tensor(rng.normal(size=(4, 3, 32, 32)), dtype=dtype), mode="train", bn_momentum=0.6)
    x = rng.normal(size=(5, 3, 32, 32)).astype(dtype)
    logits = model.forward(Tensor(x, dtype=dtype), mode="eval").data
    ref = _separate_passes_eval_logits(model, x)
    assert logits.dtype == ref.dtype == dtype
    assert logits.tobytes() == ref.tobytes()


def test_forward_shape_total_over_batch_sizes():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=0)
    for n in (1, 3, 5):
        out = model.forward(Tensor(np.zeros((n, 3, 32, 32))), mode="eval")
        assert out.shape == (n, 10)


@pytest.mark.parametrize("stem", ["plain", "whitened"])
@pytest.mark.parametrize("precision", [32, 64])
def test_checkpoint_round_trip(tmp_path, precision, stem):
    dtype = np.float32 if precision == 32 else np.float64
    wf = np.random.default_rng(7).normal(size=(27, 3, 3, 3)) if stem == "whitened" else None
    spec = ModelSpec(widths=(8, 16, 32, 64), stem=stem, activation="celu")
    model, params = build_resnet9(spec, seed=7, whitening_filters=wf, dtype=dtype)
    # move running stats off their initial values
    model.forward(Tensor(np.random.default_rng(8).normal(size=(4, 3, 32, 32)), dtype=dtype),
                  mode="train")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, seed=7)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    restored, rparams = load_checkpoint(path)
    assert restored.spec == model.spec
    for a, b in zip(params, rparams):
        assert a.name == b.name
        assert b.tensor.data.dtype == dtype
        assert (a.tensor.data == b.tensor.data).all()
    for sa, sb in zip(model.bn_states(), restored.bn_states()):
        assert sb.running_mean.dtype == sb.running_var.dtype == dtype
        assert (sa.running_mean == sb.running_mean).all()
        assert (sa.running_var == sb.running_var).all()
    if stem == "whitened":
        assert restored.stem_filters.data.dtype == dtype
        assert (restored.stem_filters.data == model.stem_filters.data).all()

    x = Tensor(np.random.default_rng(9).normal(size=(2, 3, 32, 32)), dtype=dtype)
    np.testing.assert_array_equal(model.forward(x, mode="eval").data,
                                  restored.forward(x, mode="eval").data)


def test_checkpoint_load_draws_no_weights(tmp_path, monkeypatch):
    spec = ModelSpec(widths=(4, 4, 4, 4), stem="whitened")
    wf = np.random.default_rng(5).normal(size=(27, 3, 3, 3))
    model, _ = build_resnet9(spec, seed=2, whitening_filters=wf)
    save_checkpoint(model, tmp_path / "m.npz", seed=2)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random weights")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded, _ = load_checkpoint(tmp_path / "m.npz")
    for name, arr in _checkpoint_arrays(model).items():
        np.testing.assert_array_equal(_checkpoint_arrays(loaded)[name], arr, err_msg=name)
    _, undrawn = build_resnet9(spec, seed=None, whitening_filters=wf)
    assert all(not e.tensor.data.any() for e in undrawn if e.tensor.ndim > 1)


def test_checkpoint_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    model, _ = build_resnet9(ModelSpec(widths=(4, 4, 4, 4)), seed=3)
    for t, name in ((1e9, "a.ckpt"), (2e9, "b.ckpt")):
        monkeypatch.setattr(time, "time", lambda t=t: t)
        save_checkpoint(model, tmp_path / name, seed=3)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """Bytes of a widths-(4, 4, 4, 4) whitened-stem checkpoint, copies of the
    arrays saved in it, and a scratch path."""
    d = tmp_path_factory.mktemp("ckpt")
    wf = np.random.default_rng(1).normal(size=(27, 3, 3, 3))
    model, _ = build_resnet9(ModelSpec(widths=(4, 4, 4, 4), stem="whitened"), seed=1,
                             whitening_filters=wf)
    save_checkpoint(model, d / "full.ckpt", seed=1)
    saved = {k: v.copy() for k, v in _checkpoint_arrays(model).items()}
    return (d / "full.ckpt").read_bytes(), saved, d / "bad.ckpt"


def _rewrite(blob: bytes, path, changes: dict) -> None:
    """Write the archive in ``blob`` to ``path`` with arrays replaced; a None value drops one."""
    with np.load(io.BytesIO(blob)) as npz:
        arrays = {k: npz[k] for k in npz.files}
    arrays.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **{k: v for k, v in arrays.items() if v is not None})


@given(data=st.data())
def test_checkpoint_flipped_byte_raises_or_loads_identical(tiny_checkpoint, data):
    blob, saved, path = tiny_checkpoint
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    bad = bytearray(blob)
    bad[offset] ^= data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(bytes(bad))
    try:
        model, _ = load_checkpoint(path)
    except CheckpointError:
        return
    loaded = _checkpoint_arrays(model)
    assert loaded.keys() == saved.keys()
    for name, arr in saved.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape, name
        assert loaded[name].tobytes() == arr.tobytes(), name


@given(data=st.data())
def test_checkpoint_truncated_anywhere_raises_named_error(tiny_checkpoint, data):
    blob, _, path = tiny_checkpoint
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path.write_bytes(blob[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_lacking_an_array_names_it(tiny_checkpoint):
    blob, saved, path = tiny_checkpoint
    assert len(saved) > 40
    for name in saved:
        _rewrite(blob, path, {name: None})
        with pytest.raises(CheckpointError, match=f"missing array {re.escape(name)}$"):
            load_checkpoint(path)


@pytest.mark.parametrize("name, value", [
    ("__bn0.mean", np.zeros(1, np.float32)),  # would broadcast into the running stats
    ("__stem.filters", np.zeros((27, 3, 3, 1), np.float32)),
    ("head.w", np.zeros((10, 4), np.int32)),
], ids=["bn_mean_shape", "stem_shape", "integer"])
def test_checkpoint_array_of_wrong_shape_or_dtype_named(tiny_checkpoint, name, value):
    blob, _, path = tiny_checkpoint
    _rewrite(blob, path, {name: value})
    with pytest.raises(CheckpointError, match=f"array {re.escape(name)} is {value.dtype} "):
        load_checkpoint(path)


def test_checkpoint_mixed_precision_rejected(tiny_checkpoint):
    blob, saved, path = tiny_checkpoint
    _rewrite(blob, path, {"head.w": saved["head.w"].astype(np.float64)})
    with pytest.raises(CheckpointError, match="all float32 or all float64, found float32 and float64"):
        load_checkpoint(path)


def _npy_bytes() -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.zeros(3, np.float32))
    return buf.getvalue()


@pytest.mark.parametrize("content", [
    b"",
    b"MTCK" + bytes(64),  # the record format that preceded the archive
    _npy_bytes(),
    pickle.dumps({"head.w": np.zeros((10, 4), np.float32)}),
], ids=["empty", "mtck", "npy", "pickle"])
def test_checkpoint_foreign_file_rejected(tiny_checkpoint, content):
    _, _, path = tiny_checkpoint
    path.write_bytes(content)
    with pytest.raises(CheckpointError, match="not a readable model checkpoint"):
        load_checkpoint(path)


def test_checkpoint_archive_without_metadata_rejected(tiny_checkpoint):
    blob, _, path = tiny_checkpoint
    _rewrite(blob, path, {"__meta": None})
    with pytest.raises(CheckpointError, match="not a readable model checkpoint"):
        load_checkpoint(path)


def test_missing_checkpoint_file_is_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "absent.ckpt")


def test_calibrate_batchnorm_sets_dataset_stats():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=10, dtype=F64)
    x = np.random.default_rng(10).normal(size=(16, 3, 32, 32))
    calibrate_batchnorm(model, x, batch_size=8)
    # prep-layer stats should match the conv output statistics of the data
    st = model.prep.bn_state
    h = T.conv2d(Tensor(x, dtype=F64), model.prep.w)
    per_batch_means = [h.data[i : i + 8].mean(axis=(0, 2, 3)) for i in (0, 8)]
    np.testing.assert_allclose(st.running_mean, np.mean(per_batch_means, axis=0), rtol=1e-6)
