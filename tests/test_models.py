import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minitrain import tensor as T
from minitrain.models import (
    CheckpointError,
    ModelSpec,
    build_resnet9,
    load_checkpoint,
    save_checkpoint,
)
from minitrain.optim import OptConfig, OptState, sgd_step
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


def test_bn_calibration_makes_eval_match_train():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=2, dtype=F64)
    x = np.random.default_rng(2).normal(size=(8, 3, 32, 32))
    train_logits = model.forward(Tensor(x, dtype=F64), mode="train", bn_momentum=1.0).data.copy()
    eval_logits = model.forward(Tensor(x, dtype=F64), mode="eval").data
    np.testing.assert_allclose(eval_logits, train_logits, atol=1e-4)


def test_param_classification_partition():
    model, params = build_resnet9(ModelSpec(stem="whitened"), seed=0,
                                  whitening_filters=np.random.default_rng(0).normal(size=(27, 3, 3, 3)))
    for e in params:
        multi_axis = e.tensor.ndim >= 2
        assert e.gc_eligible == multi_axis, e.name
        assert e.decay_exempt == (not multi_axis), e.name
    names = params.names()
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
    cfg = OptConfig(lr_peak=0.1, total_steps=10, schedule="constant")
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


def test_forward_shape_total_over_batch_sizes():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=0)
    for n in (1, 3, 5):
        out = model.forward(Tensor(np.zeros((n, 3, 32, 32))), mode="eval")
        assert out.shape == (n, 10)


def test_checkpoint_round_trip(tmp_path):
    wf = np.random.default_rng(7).normal(size=(27, 3, 3, 3))
    spec = ModelSpec(widths=(8, 16, 32, 64), stem="whitened", activation="celu")
    model, params = build_resnet9(spec, seed=7, whitening_filters=wf)
    # move running stats off their initial values
    model.forward(Tensor(np.random.default_rng(8).normal(size=(4, 3, 32, 32)).astype(np.float32)),
                  mode="train")
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path, seed=7)

    restored, rparams = load_checkpoint(path)
    assert restored.spec == model.spec
    for a, b in zip(params, rparams):
        assert a.name == b.name
        assert (a.tensor.data == b.tensor.data).all()
    for sa, sb in zip(model.bn_states(), restored.bn_states()):
        assert (sa.running_mean == sb.running_mean).all()
        assert (sa.running_var == sb.running_var).all()
    assert (restored.stem_filters.data == model.stem_filters.data).all()

    x = np.random.default_rng(9).normal(size=(2, 3, 32, 32)).astype(np.float32)
    np.testing.assert_array_equal(model.forward(Tensor(x), mode="eval").data,
                                  restored.forward(Tensor(x), mode="eval").data)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """Bytes of a widths-(4, 4, 4, 4) whitened-stem checkpoint, and a scratch path."""
    d = tmp_path_factory.mktemp("ckpt")
    wf = np.random.default_rng(1).normal(size=(27, 3, 3, 3))
    model, _ = build_resnet9(ModelSpec(widths=(4, 4, 4, 4), stem="whitened"), seed=1,
                             whitening_filters=wf)
    save_checkpoint(model, d / "full.ckpt", seed=1)
    path = d / "cut.ckpt"
    (d / "cut.ckpt.json").write_bytes((d / "full.ckpt.json").read_bytes())
    return (d / "full.ckpt").read_bytes(), path


def _records(blob: bytes) -> list[tuple[str, int]]:
    """(name, start offset) of every record, walked from the format description."""
    pos, out = 4, []
    while pos < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4 : pos + 4 + nlen].decode("utf-8")
        itemsize, rank = struct.unpack_from("<BI", blob, pos + 4 + nlen)
        shape = struct.unpack_from(f"<{rank}I", blob, pos + 9 + nlen)
        out.append((name, pos))
        pos += 9 + nlen + 4 * rank + itemsize * math.prod(shape)
    return out


def test_checkpoint_truncated_at_record_boundary_names_missing_array(tiny_checkpoint):
    blob, path = tiny_checkpoint
    records = _records(blob)
    assert len(records) > 40
    for k, (_, start) in enumerate(records):
        path.write_bytes(blob[:start])
        with pytest.raises(CheckpointError, match="missing array ") as err:
            load_checkpoint(path)
        assert str(err.value).rsplit(" ", 1)[1] in {name for name, _ in records[k:]}


@given(data=st.data())
def test_checkpoint_truncated_anywhere_raises_named_error(tiny_checkpoint, data):
    blob, path = tiny_checkpoint
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path.write_bytes(blob[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_itemsize_and_magic_rejected(tiny_checkpoint):
    blob, path = tiny_checkpoint
    name, start = _records(blob)[0]
    bad = bytearray(blob)
    bad[start + 4 + len(name)] = 3  # the itemsize byte
    path.write_bytes(bytes(bad))
    with pytest.raises(CheckpointError, match="itemsize 3"):
        load_checkpoint(path)
    path.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        load_checkpoint(path)


def test_calibrate_batchnorm_sets_dataset_stats():
    model, _ = build_resnet9(ModelSpec(**SMALL), seed=10, dtype=F64)
    x = np.random.default_rng(10).normal(size=(16, 3, 32, 32))
    calibrate_batchnorm(model, x, batch_size=8)
    # prep-layer stats should match the conv output statistics of the data
    st = model.prep.bn_state
    h = T.conv2d(Tensor(x, dtype=F64), model.prep.w, pad=model.prep.pad)
    per_batch_means = [h.data[i : i + 8].mean(axis=(0, 2, 3)) for i in (0, 8)]
    np.testing.assert_allclose(st.running_mean, np.mean(per_batch_means, axis=0), rtol=1e-6)
