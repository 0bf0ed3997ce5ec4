import hashlib
from pathlib import Path

import numpy as np
import pytest

from minitrain.data import (
    DataFormatError,
    Dataset,
    NormStats,
    augment,
    extract_patches,
    fit_whitening,
    load_cifar_binary,
    normalize,
    sample_subset,
    write_cifar_binary,
)
from minitrain.tensor import ConfigError

import oracles
from synthetic import make_synthetic_dataset


# ---------------------------------------------------------------------------
# binary parsing


def test_record_arithmetic(tmp_path):
    p = tmp_path / "two.bin"
    p.write_bytes(bytes(6146))
    ds = load_cifar_binary([p])
    assert len(ds) == 2


def test_label_byte_parsed(tmp_path):
    rec = bytearray(3073)
    rec[0] = 7
    p = tmp_path / "one.bin"
    p.write_bytes(bytes(rec))
    ds = load_cifar_binary([p])
    assert ds.labels[0] == 7


def test_planar_pixel_order(tmp_path):
    rec = bytearray(3073)
    rec[1] = 255  # R plane, pixel (0,0)
    p = tmp_path / "red.bin"
    p.write_bytes(bytes(rec))
    ds = load_cifar_binary([p])
    assert ds.images[0, 0, 0, 0] == 255
    assert ds.images[0, 1, 0, 0] == 0
    assert ds.images[0, 2, 0, 0] == 0


def test_bad_length_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(bytes(3072))
    with pytest.raises(DataFormatError, match="3073"):
        load_cifar_binary([p])


def test_file_with_no_records_rejected(tmp_path):
    good, empty = tmp_path / "good.bin", tmp_path / "empty.bin"
    good.write_bytes(bytes(3073))
    empty.write_bytes(b"")  # 0 is a multiple of 3073, but the file holds no record
    for paths in ([empty], [good, empty]):
        with pytest.raises(DataFormatError, match="empty.bin: length 0 is not a positive multiple of 3073"):
            load_cifar_binary(paths)


def test_bad_label_names_record_index(tmp_path):
    recs = bytearray(3073 * 3)
    recs[3073 * 2] = 11  # third record
    p = tmp_path / "badlabel.bin"
    p.write_bytes(bytes(recs))
    with pytest.raises(DataFormatError, match="record 2"):
        load_cifar_binary([p])


def test_label_bytes_stop_at_the_last_class(tmp_path):
    recs = bytearray(3073 * 2)
    recs[0] = 9  # the last class loads
    p = tmp_path / "labels.bin"
    p.write_bytes(bytes(recs))
    assert load_cifar_binary([p]).labels.tolist() == [9, 0]
    recs[3073] = 10  # one past it does not
    p.write_bytes(bytes(recs))
    with pytest.raises(DataFormatError) as info:
        load_cifar_binary([p])
    assert str(info.value) == f"{p}: record 1 has label byte 10 > 9"


def test_round_trip_bit_identical(tmp_path):
    ds = make_synthetic_dataset(per_class=3, seed=0)
    p = tmp_path / "rt.bin"
    write_cifar_binary(ds, p)
    back = load_cifar_binary([p])
    assert (back.images == ds.images).all()
    assert (back.labels == ds.labels).all()


def test_multiple_files_concatenate(tmp_path):
    a = make_synthetic_dataset(per_class=2, seed=0)
    b = make_synthetic_dataset(per_class=3, seed=1)
    write_cifar_binary(a, tmp_path / "a.bin")
    write_cifar_binary(b, tmp_path / "b.bin")
    ds = load_cifar_binary([tmp_path / "a.bin", tmp_path / "b.bin"])
    assert len(ds) == len(a) + len(b)
    assert ds.source_digest


def test_load_matches_per_file_bytes_reference(tmp_path):
    # the record array the files are read into gives what parsing each file's bytes gave
    paths = []
    for i, per_class in enumerate((2, 5, 1)):
        paths.append(tmp_path / f"b{i}.bin")
        write_cifar_binary(make_synthetic_dataset(per_class=per_class, seed=i), paths[-1])
    digest, images, labels = hashlib.sha256(), [], []
    for p in paths:
        raw = p.read_bytes()
        digest.update(raw)
        recs = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3073)
        images.append(recs[:, 1:].reshape(-1, 3, 32, 32))
        labels.append(recs[:, 0].astype(np.int64))
    ds = load_cifar_binary(paths)
    np.testing.assert_array_equal(ds.images, np.concatenate(images))
    assert ds.labels.dtype == np.int64
    np.testing.assert_array_equal(ds.labels, np.concatenate(labels))
    assert ds.source_digest == digest.hexdigest()


def test_file_that_shrinks_while_read_rejected(tmp_path, monkeypatch):
    p = tmp_path / "short.bin"
    write_cifar_binary(make_synthetic_dataset(per_class=1, seed=0), p)
    real_stat = Path.stat

    class Grown:  # the size a stat saw before the file lost its last record
        st_size = real_stat(p).st_size + 3073

    monkeypatch.setattr(Path, "stat", lambda self, **kw: Grown if self == p else real_stat(self, **kw))
    with pytest.raises(DataFormatError, match="shrank"):
        load_cifar_binary([p])


# ---------------------------------------------------------------------------
# subsetting


def test_subset_exact_balance():
    ds = make_synthetic_dataset(per_class=20, seed=1)
    sub = sample_subset(ds, per_class=5, seed=0)
    assert len(sub) == 50
    assert (np.bincount(sub.labels, minlength=10) == 5).all()
    assert not np.shares_memory(sub.images, ds.images) and not np.shares_memory(sub.labels, ds.labels)


def test_subset_full_class_size_is_permutation():
    ds = make_synthetic_dataset(per_class=4, seed=2)
    sub = sample_subset(ds, per_class=4, seed=0)
    assert len(sub) == len(ds)
    a = np.sort(sub.images.reshape(len(sub), -1).sum(axis=1))
    b = np.sort(ds.images.reshape(len(ds), -1).sum(axis=1))
    np.testing.assert_array_equal(a, b)


def test_subset_determinism_on_100_record_fixture():
    ds = make_synthetic_dataset(per_class=10, seed=3)
    s1 = sample_subset(ds, per_class=5, seed=42)
    s2 = sample_subset(ds, per_class=5, seed=42)
    assert (s1.images == s2.images).all() and (s1.labels == s2.labels).all()
    s3 = sample_subset(ds, per_class=5, seed=43)
    assert (s1.images != s3.images).any() or (s1.labels != s3.labels).any()


def test_subset_insufficient_class_named():
    ds = make_synthetic_dataset(per_class=3, seed=4)
    with pytest.raises(ConfigError, match="per_class 10 is more than the 3 images of class 0"):
        sample_subset(ds, per_class=10, seed=0)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_channel_mean_maps_to_zero():
    ds = make_synthetic_dataset(per_class=5, seed=5)
    stats = NormStats.fit(ds)
    px = (stats.mean * 255.0).reshape(3, 1, 1) * np.ones((1, 3, 32, 32))
    out = normalize(px.astype(np.float64), stats, dtype=np.float64)
    # feed exact mean-valued "pixels" (bypassing uint8 rounding)
    x = px / 255.0
    manual = (x - stats.mean.reshape(1, 3, 1, 1)) / stats.std.reshape(1, 3, 1, 1)
    np.testing.assert_allclose(out, manual, atol=1e-12)
    np.testing.assert_allclose(manual, 0.0, atol=1e-12)


def test_normalize_constant_dataset_guard():
    imgs = np.full((4, 3, 32, 32), 128, dtype=np.uint8)
    ds = Dataset(images=imgs, labels=np.zeros(4, dtype=np.int64))
    stats = NormStats.fit(ds)
    out = normalize(imgs, stats)
    assert np.isfinite(out).all()


def test_normalize_matches_manual_computation():
    ds = make_synthetic_dataset(per_class=1, seed=6)  # 10 images
    stats = NormStats.fit(ds)
    flat = ds.images.astype(np.float64) / 255.0
    for c in range(3):
        vals = flat[:, c].reshape(-1)
        assert stats.mean[c] == pytest.approx(vals.sum() / vals.size, abs=1e-6)
        assert stats.std[c] == pytest.approx(np.sqrt(((vals - vals.mean()) ** 2).mean()), abs=1e-6)


def test_norm_stats_fit_matches_out_of_place_formula(tmp_path):
    # the in-place steps give the bits of x.mean and x.std; a strided view of the records fits alike
    write_cifar_binary(make_synthetic_dataset(per_class=3, seed=11), tmp_path / "d.bin")
    ds = load_cifar_binary([tmp_path / "d.bin"])
    assert not ds.images.flags.c_contiguous
    before = ds.images.copy()
    x = before.astype(np.float64) / 255.0
    for images in (ds.images, before):
        stats = NormStats.fit(Dataset(images=images, labels=ds.labels))
        np.testing.assert_array_equal(stats.mean, x.mean(axis=(0, 2, 3)))
        np.testing.assert_array_equal(stats.std, np.maximum(x.std(axis=(0, 2, 3)), 1e-8))
    np.testing.assert_array_equal(ds.images, before)  # the fit left its input alone


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["fp32", "fp64"])
def test_normalize_matches_out_of_place_formula(dtype):
    ds = make_synthetic_dataset(per_class=3, seed=12)
    stats = NormStats.fit(ds)
    mean = stats.mean.astype(dtype).reshape(1, 3, 1, 1)
    std = stats.std.astype(dtype).reshape(1, 3, 1, 1)
    for images in (ds.images, ds.images.astype(dtype)):
        before = images.copy()
        out = normalize(images, stats, dtype=dtype)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, (images.astype(dtype) / dtype(255.0) - mean) / std)
        np.testing.assert_array_equal(images, before)  # the input is not written to


# ---------------------------------------------------------------------------
# augmentation


class ForcedRng:
    """Deterministic stand-in driving augment to fixed crops/flips."""

    def __init__(self, offset=(4, 4), flip=True):
        self.offset = offset
        self.flip = flip

    def integers(self, lo, hi, size):
        out = np.zeros(size, dtype=np.int64)
        out[:, 0] = self.offset[0]
        out[:, 1] = self.offset[1]
        return out

    def random(self, n):
        return np.zeros(n) if self.flip else np.ones(n)


def test_flip_twice_restores_original():
    x = np.random.default_rng(7).normal(size=(2, 3, 32, 32)).astype(np.float32)
    once = augment(x, ForcedRng(flip=True))
    twice = augment(once, ForcedRng(flip=True))
    np.testing.assert_array_equal(twice, x)


def test_center_crop_is_identity():
    x = np.random.default_rng(8).normal(size=(2, 3, 32, 32)).astype(np.float32)
    out = augment(x, ForcedRng(offset=(4, 4), flip=False))
    np.testing.assert_array_equal(out, x)


class FlipAll:
    """A real generator for the crops, with every image flipped or none."""

    def __init__(self, seed, flip):
        self.rng, self.flip = np.random.default_rng(seed), flip

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def random(self, n):
        return np.full(n, 0.0 if self.flip else 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["fp32", "fp64"])
def test_augment_matches_loop_oracle(dtype):
    x = np.random.default_rng(10).normal(size=(33, 3, 32, 32)).astype(dtype)
    for n in (1, 2, 7, 33):
        for seed in range(6):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out = augment(x[:n], rng)
            assert out.dtype == dtype and out.flags.c_contiguous
            np.testing.assert_array_equal(out, oracles.augment_loops(x[:n], ref_rng))
            assert rng.random() == ref_rng.random()  # the same draws were taken
        for flip in (True, False):
            np.testing.assert_array_equal(augment(x[:n], FlipAll(n, flip)),
                                          oracles.augment_loops(x[:n], FlipAll(n, flip)))
    np.testing.assert_array_equal(augment(x, FlipAll(0, True)), augment(x, FlipAll(0, False))[..., ::-1])


def test_augment_seeded_determinism():
    x = np.random.default_rng(9).normal(size=(4, 3, 32, 32)).astype(np.float32)
    a = augment(x, np.random.default_rng(123))
    b = augment(x, np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# whitening


def test_whitening_isotropic_noise():
    rng = np.random.default_rng(10)
    imgs = rng.normal(size=(200, 3, 32, 32))
    wf = fit_whitening(imgs, sample_patches=100_000, eps=1e-3, seed=0)
    assert np.abs(wf.eigvals - 1.0).max() < 0.1
    norms = np.linalg.norm(wf.filters.reshape(27, 27), axis=1)
    np.testing.assert_allclose(norms, 1.0 / np.sqrt(wf.eigvals + 1e-3), rtol=1e-10)
    assert np.abs(norms - 1.0 / np.sqrt(1.0 + 1e-3)).max() < 0.06


def test_whitening_constant_images_guarded():
    imgs = np.ones((10, 3, 32, 32))
    wf = fit_whitening(imgs, sample_patches=500, eps=1e-3, seed=0)
    assert np.abs(wf.eigvals).max() < 1e-20
    assert np.isfinite(wf.filters).all()


def test_whitening_projected_covariance_identity():
    rng = np.random.default_rng(11)
    # correlated inputs so the test is non-trivial
    imgs = rng.normal(size=(100, 3, 32, 32))
    imgs[:, 1] = 0.7 * imgs[:, 0] + 0.3 * imgs[:, 1]
    eps = 1e-3
    wf = fit_whitening(imgs, sample_patches=50_000, eps=eps, seed=3)

    patches = extract_patches(imgs, 50_000, np.random.default_rng(3))
    centered = patches - patches.mean(axis=0)
    projected = centered @ wf.filters.reshape(27, 27).T
    cov = projected.T @ projected / len(projected)
    expected_diag = wf.eigvals / (wf.eigvals + eps)
    np.testing.assert_allclose(np.diag(cov), expected_diag, atol=1e-6)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() <= 1e-3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_extract_patches_matches_loop_oracle(dtype):
    imgs = np.random.default_rng(13).normal(size=(7, 3, 32, 32)).astype(dtype)
    got = extract_patches(imgs, 2000, np.random.default_rng(14))
    want = oracles.extract_patches_loops(imgs, 2000, np.random.default_rng(14))
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)


def test_whitening_eigvals_sorted_descending():
    ds = make_synthetic_dataset(per_class=5, seed=12)
    stats = NormStats.fit(ds)
    imgs = normalize(ds.images, stats, dtype=np.float64)
    wf = fit_whitening(imgs, sample_patches=2000, seed=0)
    assert (np.diff(wf.eigvals) <= 1e-12).all()
    assert (wf.eigvals >= 0).all()


def test_whitening_rejects_too_few_patches():
    with pytest.raises(ConfigError):
        fit_whitening(np.zeros((2, 3, 32, 32)), sample_patches=10)
