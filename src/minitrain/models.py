"""ResNet-9 construction: whitening or plain stem, residual trunk, classifier head.

The layer plan follows the fast-CIFAR competition lineage: a prep stage to 64
channels, pooled stages at 128/256/512 with residual blocks at 128 and 512, a
global max pool and a scaled linear head. The whitened stem replaces the prep
3x3 convolution with a frozen patch-whitening 3x3 conv followed by a trainable
1x1 expansion to the trunk width.
"""

from __future__ import annotations

import contextlib
import json
import zipfile
from dataclasses import asdict, dataclass
from typing import Iterator, Optional

import numpy as np

from .tensor import (
    BatchNormState,
    ConfigError,
    ShapeError,
    Tensor,
    add,
    batchnorm2d,
    batchnorm2d_eval,
    celu,
    conv2d,
    global_maxpool,
    linear,
    maxpool2d,
    mul,
    no_tape,
    relu,
)

DEFAULT_WIDTHS = (64, 128, 256, 512)


@dataclass
class ModelSpec:
    """Architecture description; everything needed to rebuild a model."""

    widths: tuple = DEFAULT_WIDTHS
    activation: str = "relu"  # "relu" | "celu"
    celu_alpha: float = 0.3
    stem: str = "plain"  # "plain" | "whitened"
    classes: int = 10
    head_scale: float = 0.125
    in_channels: int = 3

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if any(w <= 0 for w in self.widths) or len(self.widths) != 4:
            raise ConfigError(f"widths must be 4 positive ints, got {self.widths}")
        if self.activation not in ("relu", "celu"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.activation == "celu" and self.celu_alpha <= 0:
            raise ConfigError("celu_alpha must be positive")
        if self.stem not in ("plain", "whitened"):
            raise ConfigError(f"unknown stem {self.stem!r}")
        if self.stem == "whitened" and self.in_channels != 3:
            raise ConfigError("whitened stem requires 3-channel input")


@dataclass
class ParamEntry:
    name: str
    tensor: Tensor


class ParamSet:
    """Named, ordered collection of trainable tensors.

    A tensor's shape decides its optimizer role: one with two or more axes
    (conv kernel, linear weight) gets gradient centralization and weight
    decay; a single-axis one (batchnorm scale or shift, bias) gets neither.
    Iteration order is insertion order and stable across runs.
    """

    def __init__(self):
        self._entries: list[ParamEntry] = []

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if any(e.name == name for e in self._entries):
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        self._entries.append(ParamEntry(name, tensor))
        return tensor

    def __iter__(self) -> Iterator[ParamEntry]:
        return iter(self._entries)

    def zero_grads(self) -> None:
        for e in self._entries:
            e.tensor.grad = None

    def num_elements(self) -> int:
        return sum(e.tensor.size for e in self._entries)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {e.name: e.tensor.data.copy() for e in self._entries}

    def load(self, values: dict[str, np.ndarray]) -> None:
        for e in self._entries:
            src = values[e.name]
            if src.shape != e.tensor.shape:
                raise ShapeError(f"parameter {e.name}: shape {src.shape} != {e.tensor.shape}")
            e.tensor.data[...] = src


def _normal(rng: Optional[np.random.Generator], std: float, shape: tuple, dtype) -> Tensor:
    """N(0, std^2) draws, or zeros for the caller to overwrite when there is no generator."""
    if rng is None:
        return Tensor(np.zeros(shape, dtype=dtype), dtype=dtype)
    return Tensor(rng.normal(0.0, std, size=shape), dtype=dtype)


class _ConvBlock:
    """same conv -> batchnorm -> activation. Convs carry no bias (batchnorm
    follows) and keep the map's H x W: a k x k kernel pads by (k - 1) / 2.

    Train and eval run the same conv and activation; batchnorm normalizes by
    the batch statistics in train mode (``batchnorm2d``) and in place by the
    running ones in eval mode (``batchnorm2d_eval``).
    """

    def __init__(self, params: ParamSet, name: str, cin: int, cout: int, k: int,
                 spec: ModelSpec, rng: Optional[np.random.Generator], dtype):
        kaiming_std = np.sqrt(2.0 / (cin * k * k))
        self.w = params.add(f"{name}.conv.w", _normal(rng, kaiming_std, (cout, cin, k, k), dtype))
        self.gamma = params.add(f"{name}.bn.gamma", Tensor(np.ones(cout), dtype=dtype))
        self.beta = params.add(f"{name}.bn.beta", Tensor(np.zeros(cout), dtype=dtype))
        self.bn_state = BatchNormState.create(cout, dtype=dtype)
        self.spec = spec

    def __call__(self, x: Tensor, mode: str, bn_momentum: float = 0.1) -> Tensor:
        h = conv2d(x, self.w)
        if mode == "eval":
            h = batchnorm2d_eval(h, self.gamma, self.beta, self.bn_state)
        else:
            h = batchnorm2d(h, self.gamma, self.beta, self.bn_state, momentum=bn_momentum)
        # the batchnorm output feeds only the activation, so it is overwritten
        if self.spec.activation == "celu":
            return celu(h, self.spec.celu_alpha, inplace=True)
        return relu(h, inplace=True)


class _ResidualBlock:
    """x + f(x), f = two conv blocks at constant width."""

    def __init__(self, params: ParamSet, name: str, channels: int, spec: ModelSpec,
                 rng: Optional[np.random.Generator], dtype):
        self.a = _ConvBlock(params, f"{name}.a", channels, channels, 3, spec, rng, dtype)
        self.b = _ConvBlock(params, f"{name}.b", channels, channels, 3, spec, rng, dtype)

    def __call__(self, x: Tensor, mode: str, bn_momentum: float = 0.1) -> Tensor:
        return add(x, self.b(self.a(x, mode, bn_momentum), mode, bn_momentum))


class Model:
    """ResNet-9 with train/eval modes and a frozen optional whitening stem; ``params`` holds its weights."""

    def __init__(self, spec: ModelSpec, seed: Optional[int],
                 whitening_filters: Optional[np.ndarray] = None, dtype=None):
        self.spec = spec
        params = self.params = ParamSet()
        dtype = dtype or np.float32
        rng = None if seed is None else np.random.default_rng(seed)
        w1, w2, w3, w4 = spec.widths

        self.stem_filters: Optional[Tensor] = None
        if spec.stem == "whitened":
            if whitening_filters is None:
                raise ConfigError("whitened stem requires fitted whitening filters")
            wf = np.asarray(whitening_filters)
            if wf.shape != (27, 3, 3, 3):
                raise ShapeError(f"whitening filters must be [27,3,3,3], got {wf.shape}")
            self.stem_filters = Tensor(wf, requires_grad=False, dtype=dtype)
            self.prep = _ConvBlock(params, "prep", 27, w1, 1, spec, rng, dtype)
        else:
            self.prep = _ConvBlock(params, "prep", spec.in_channels, w1, 3, spec, rng, dtype)

        self.stage1 = _ConvBlock(params, "stage1", w1, w2, 3, spec, rng, dtype)
        self.res1 = _ResidualBlock(params, "res1", w2, spec, rng, dtype)
        self.stage2 = _ConvBlock(params, "stage2", w2, w3, 3, spec, rng, dtype)
        self.stage3 = _ConvBlock(params, "stage3", w3, w4, 3, spec, rng, dtype)
        self.res2 = _ResidualBlock(params, "res2", w4, spec, rng, dtype)

        self.head_w = params.add("head.w", _normal(rng, np.sqrt(1.0 / w4), (spec.classes, w4), dtype))
        self.head_b = params.add("head.b", Tensor(np.zeros(spec.classes), dtype=dtype))

    def bn_states(self) -> list[BatchNormState]:
        blocks = [self.prep, self.stage1, self.res1.a, self.res1.b,
                  self.stage2, self.stage3, self.res2.a, self.res2.b]
        return [b.bn_state for b in blocks]

    def forward(self, x: Tensor, mode: str = "train", bn_momentum: float = 0.1) -> Tensor:
        """Logits [N, classes] of ``x`` [N, C, 32, 32].

        Train mode normalizes by batch statistics, updates the running ones
        with ``bn_momentum`` and records on the active tape. Eval mode uses
        the running statistics and records no tape, even under an active one.
        Any other mode raises ConfigError before any op runs.
        """
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        if x.ndim != 4 or x.shape[1] != self.spec.in_channels or x.shape[2:] != (32, 32):
            raise ShapeError(f"expected input [N,{self.spec.in_channels},32,32], got {x.shape}")
        # eval batchnorm has no backward rule, so no eval op may record one
        with no_tape() if mode == "eval" else contextlib.nullcontext():
            if self.stem_filters is not None:
                x = conv2d(x, self.stem_filters)
            h = self.prep(x, mode, bn_momentum)
            h = maxpool2d(self.stage1(h, mode, bn_momentum))
            h = self.res1(h, mode, bn_momentum)
            h = maxpool2d(self.stage2(h, mode, bn_momentum))
            h = maxpool2d(self.stage3(h, mode, bn_momentum))
            h = self.res2(h, mode, bn_momentum)
            h = global_maxpool(h)
            logits = linear(h, self.head_w, self.head_b)
            return mul(logits, self.spec.head_scale)


def build_resnet9(spec: ModelSpec, seed: Optional[int],
                  whitening_filters: Optional[np.ndarray] = None, dtype=None):
    """Construct the network from a seed; returns (model, model.params).

    With ``seed=None`` the conv and head weights are zeros, not draws: the
    caller (``load_checkpoint``) overwrites every parameter.
    """
    model = Model(spec, seed, whitening_filters=whitening_filters, dtype=dtype)
    return model, model.params


# ---------------------------------------------------------------------------
# checkpoint format
#
# One uncompressed .npz: NumPy's zip of .npy members, readable by np.load. It
# holds every trainable parameter, the batchnorm running stats
# (__bn<i>.mean/.var), the frozen whitening stem filters (__stem.filters) and
# __meta, a JSON string with the ModelSpec and the build seed. The zip CRC-32
# of each member covers every array byte. Members carry a fixed timestamp, so
# the bytes are a function of the model and the seed alone.

_META = "__meta"
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)  # the earliest time a zip entry can hold


class CheckpointError(ValueError):
    """A checkpoint is not a readable archive, or an array the model needs is missing or misfits."""


def _checkpoint_arrays(model: Model) -> dict[str, np.ndarray]:
    arrays = {e.name: e.tensor.data for e in model.params}
    for i, st in enumerate(model.bn_states()):
        arrays[f"__bn{i}.mean"] = st.running_mean
        arrays[f"__bn{i}.var"] = st.running_var
    if model.stem_filters is not None:
        arrays["__stem.filters"] = model.stem_filters.data
    return arrays


def save_checkpoint(model: Model, path, seed: int = 0) -> None:
    meta = json.dumps({"spec": asdict(model.spec), "seed": seed})
    arrays = {**_checkpoint_arrays(model), _META: np.array(meta)}
    with zipfile.ZipFile(path, "w") as zf:
        for name, arr in arrays.items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy", _ZIP_TIME), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; returns (model, params).

    The model is built at the one float dtype, float32 or float64, that the
    arrays were saved in. A file that is not a checkpoint archive or fails a
    CRC-32, and an array that is missing or has the wrong shape or dtype,
    raise CheckpointError.
    """
    with open(path, "rb") as fh:  # a missing file stays FileNotFoundError
        try:
            with np.load(fh, allow_pickle=False) as npz:
                arrays = {name: np.asarray(npz[name]) for name in npz.files}
            meta = json.loads(arrays.pop(_META).item())
            spec = ModelSpec(**meta["spec"])
        except Exception as e:  # noqa: BLE001 - damage can surface in the zip, .npy or JSON layer
            raise CheckpointError(f"{path}: not a readable model checkpoint "
                                  f"({type(e).__name__}: {e})") from e
    floats = {a.dtype for a in arrays.values()} & {np.dtype(np.float32), np.dtype(np.float64)}
    if len(floats) != 1:
        found = " and ".join(sorted(str(d) for d in floats)) or "neither"
        raise CheckpointError(f"{path}: arrays must be all float32 or all float64, found {found}")
    (dtype,) = floats
    # built undrawn, on placeholder stem filters: the loop below copies every saved array in
    stem = np.zeros((27, 3, 3, 3)) if spec.stem == "whitened" else None
    model, params = build_resnet9(spec, seed=None, whitening_filters=stem, dtype=dtype.type)
    for name, target in _checkpoint_arrays(model).items():
        if name not in arrays:
            raise CheckpointError(f"{path}: missing array {name}")
        got = arrays[name]
        if got.shape != target.shape or got.dtype != target.dtype:
            raise CheckpointError(f"{path}: array {name} is {got.dtype} {got.shape}, "
                                  f"the model needs {target.dtype} {target.shape}")
        target[...] = got
    return model, params
