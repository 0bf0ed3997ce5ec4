"""ResNet-9 construction: whitening or plain stem, residual trunk, classifier head.

The layer plan follows the fast-CIFAR competition lineage: a prep stage to 64
channels, pooled stages at 128/256/512 with residual blocks at 128 and 512, a
global max pool and a scaled linear head. The whitened stem replaces the prep
3x3 convolution with a frozen patch-whitening 3x3 conv followed by a trainable
1x1 expansion to the trunk width.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .tensor import (
    BatchNormState,
    ConfigError,
    ShapeError,
    Tensor,
    add,
    batchnorm2d,
    celu,
    conv2d,
    global_maxpool,
    linear,
    maxpool2d,
    mul,
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

    def to_dict(self) -> dict:
        return {
            "widths": list(self.widths),
            "activation": self.activation,
            "celu_alpha": self.celu_alpha,
            "stem": self.stem,
            "classes": self.classes,
            "head_scale": self.head_scale,
            "in_channels": self.in_channels,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(
            widths=tuple(d["widths"]),
            activation=d["activation"],
            celu_alpha=d["celu_alpha"],
            stem=d["stem"],
            classes=d["classes"],
            head_scale=d["head_scale"],
            in_channels=d.get("in_channels", 3),
        )


@dataclass
class ParamEntry:
    name: str
    tensor: Tensor
    decay_exempt: bool
    gc_eligible: bool


class ParamSet:
    """Named, ordered collection of trainable tensors.

    gc_eligible marks tensors with >= 2 axes (conv kernels, linear weights);
    decay_exempt marks batchnorm scales/shifts and biases. Iteration order is
    insertion order and stable across runs.
    """

    def __init__(self):
        self._entries: list[ParamEntry] = []
        self._by_name: dict[str, ParamEntry] = {}

    def add(self, name: str, tensor: Tensor, decay_exempt: bool, gc_eligible: bool) -> Tensor:
        if name in self._by_name:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = True
        e = ParamEntry(name, tensor, decay_exempt, gc_eligible)
        self._entries.append(e)
        self._by_name[name] = e
        return tensor

    def __iter__(self) -> Iterator[ParamEntry]:
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, name: str) -> ParamEntry:
        return self._by_name[name]

    def names(self) -> list[str]:
        return [e.name for e in self._entries]

    def zero_grads(self) -> None:
        for e in self._entries:
            e.tensor.zero_grad()

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


def _kaiming_conv(rng: np.random.Generator, cout: int, cin: int, k: int, dtype) -> Tensor:
    fan_in = cin * k * k
    std = np.sqrt(2.0 / fan_in)
    return Tensor(rng.normal(0.0, std, size=(cout, cin, k, k)), dtype=dtype)


class _ConvBlock:
    """conv -> batchnorm -> activation. Convs carry no bias (batchnorm follows)."""

    def __init__(self, params: ParamSet, name: str, cin: int, cout: int, k: int, pad: int,
                 spec: ModelSpec, rng: np.random.Generator, dtype):
        self.w = params.add(f"{name}.conv.w", _kaiming_conv(rng, cout, cin, k, dtype),
                            decay_exempt=False, gc_eligible=True)
        self.gamma = params.add(f"{name}.bn.gamma", Tensor(np.ones(cout), dtype=dtype),
                                decay_exempt=True, gc_eligible=False)
        self.beta = params.add(f"{name}.bn.beta", Tensor(np.zeros(cout), dtype=dtype),
                               decay_exempt=True, gc_eligible=False)
        self.bn_state = BatchNormState.create(cout, dtype=dtype)
        self.pad = pad
        self.spec = spec

    def __call__(self, x: Tensor, mode: str, bn_momentum: float = 0.1) -> Tensor:
        h = conv2d(x, self.w, stride=1, pad=self.pad)
        h = batchnorm2d(h, self.gamma, self.beta, self.bn_state, mode=mode, momentum=bn_momentum)
        if self.spec.activation == "celu":
            return celu(h, self.spec.celu_alpha)
        return relu(h)


class _ResidualBlock:
    """x + f(x), f = two conv blocks at constant width."""

    def __init__(self, params: ParamSet, name: str, channels: int, spec: ModelSpec,
                 rng: np.random.Generator, dtype):
        self.a = _ConvBlock(params, f"{name}.a", channels, channels, 3, 1, spec, rng, dtype)
        self.b = _ConvBlock(params, f"{name}.b", channels, channels, 3, 1, spec, rng, dtype)

    def __call__(self, x: Tensor, mode: str, bn_momentum: float = 0.1) -> Tensor:
        return add(x, self.b(self.a(x, mode, bn_momentum), mode, bn_momentum))


class Model:
    """ResNet-9 with train/eval modes and a frozen optional whitening stem."""

    def __init__(self, spec: ModelSpec, params: ParamSet, seed: int,
                 whitening_filters: Optional[np.ndarray] = None, dtype=None):
        self.spec = spec
        self.params = params
        dtype = dtype or np.float32
        rng = np.random.default_rng(seed)
        w1, w2, w3, w4 = spec.widths

        self.stem_filters: Optional[Tensor] = None
        if spec.stem == "whitened":
            if whitening_filters is None:
                raise ConfigError("whitened stem requires fitted whitening filters")
            wf = np.asarray(whitening_filters)
            if wf.shape != (27, 3, 3, 3):
                raise ShapeError(f"whitening filters must be [27,3,3,3], got {wf.shape}")
            self.stem_filters = Tensor(wf, requires_grad=False, dtype=dtype)
            self.prep = _ConvBlock(params, "prep", 27, w1, 1, 0, spec, rng, dtype)
        else:
            self.prep = _ConvBlock(params, "prep", spec.in_channels, w1, 3, 1, spec, rng, dtype)

        self.stage1 = _ConvBlock(params, "stage1", w1, w2, 3, 1, spec, rng, dtype)
        self.res1 = _ResidualBlock(params, "res1", w2, spec, rng, dtype)
        self.stage2 = _ConvBlock(params, "stage2", w2, w3, 3, 1, spec, rng, dtype)
        self.stage3 = _ConvBlock(params, "stage3", w3, w4, 3, 1, spec, rng, dtype)
        self.res2 = _ResidualBlock(params, "res2", w4, spec, rng, dtype)

        head_std = np.sqrt(1.0 / w4)
        self.head_w = params.add("head.w", Tensor(rng.normal(0.0, head_std, size=(spec.classes, w4)), dtype=dtype),
                                 decay_exempt=False, gc_eligible=True)
        self.head_b = params.add("head.b", Tensor(np.zeros(spec.classes), dtype=dtype),
                                 decay_exempt=True, gc_eligible=False)

    def bn_states(self) -> list[BatchNormState]:
        blocks = [self.prep, self.stage1, self.res1.a, self.res1.b,
                  self.stage2, self.stage3, self.res2.a, self.res2.b]
        return [b.bn_state for b in blocks]

    def forward(self, x: Tensor, mode: str = "train", bn_momentum: float = 0.1) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.spec.in_channels or x.shape[2:] != (32, 32):
            raise ShapeError(f"expected input [N,{self.spec.in_channels},32,32], got {x.shape}")
        if self.stem_filters is not None:
            x = conv2d(x, self.stem_filters, stride=1, pad=1)
        h = self.prep(x, mode, bn_momentum)
        h = maxpool2d(self.stage1(h, mode, bn_momentum), 2)
        h = self.res1(h, mode, bn_momentum)
        h = maxpool2d(self.stage2(h, mode, bn_momentum), 2)
        h = maxpool2d(self.stage3(h, mode, bn_momentum), 2)
        h = self.res2(h, mode, bn_momentum)
        h = global_maxpool(h)
        logits = linear(h, self.head_w, self.head_b)
        return mul(logits, self.spec.head_scale)

    __call__ = forward


def build_resnet9(spec: ModelSpec, seed: int,
                  whitening_filters: Optional[np.ndarray] = None, dtype=None):
    """Construct the network and its parameter registry from a seed."""
    params = ParamSet()
    model = Model(spec, params, seed, whitening_filters=whitening_filters, dtype=dtype)
    return model, params


# ---------------------------------------------------------------------------
# checkpoint format
#
# Binary file of records, little-endian:
#   u32 name length | name bytes (utf-8) | u8 itemsize (4 or 8) |
#   u32 rank | u32 extents[rank] | raw element data
# Records cover all trainable parameters, batchnorm running stats, and the
# frozen whitening stem filters. A JSON sidecar at <path>.json stores the
# ModelSpec and the build seed.

_MAGIC = b"MTCK"


def _write_record(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<BI", arr.dtype.itemsize, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype=f"<f{arr.dtype.itemsize}").tobytes())


class CheckpointError(ValueError):
    """A checkpoint is truncated, malformed, or lacks an array the model needs."""


def _read_records(fh, path) -> dict[str, np.ndarray]:
    """Parse every record after the magic; any short or bad field raises."""
    size = os.fstat(fh.fileno()).st_size

    def take(n: int, what: str) -> bytes:
        if fh.tell() + n > size:
            raise CheckpointError(f"{path}: truncated at byte {size}, reading {what}")
        return fh.read(n)

    arrays = {}
    while fh.tell() < size:
        (nlen,) = struct.unpack("<I", take(4, "a record header"))
        name = take(nlen, "a record name").decode("utf-8")
        itemsize, rank = struct.unpack("<BI", take(5, f"the header of {name}"))
        if itemsize not in (4, 8):
            raise CheckpointError(f"{path}: {name} has itemsize {itemsize}, expected 4 or 8")
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"the shape of {name}"))
        data = take(itemsize * math.prod(shape), f"the data of {name}")
        arrays[name] = np.frombuffer(data, dtype=f"<f{itemsize}").reshape(shape)
    return arrays


def _require(arrays: dict, names, path) -> None:
    for name in names:
        if name not in arrays:
            raise CheckpointError(f"{path}: missing array {name}")


def _checkpoint_arrays(model: Model) -> dict[str, np.ndarray]:
    arrays = {e.name: e.tensor.data for e in model.params}
    for i, st in enumerate(model.bn_states()):
        arrays[f"__bn{i}.mean"] = st.running_mean
        arrays[f"__bn{i}.var"] = st.running_var
    if model.stem_filters is not None:
        arrays["__stem.filters"] = model.stem_filters.data
    return arrays


def save_checkpoint(model: Model, path, seed: int = 0) -> None:
    arrays = _checkpoint_arrays(model)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        for name, arr in arrays.items():
            _write_record(fh, name, arr)
    sidecar = {"spec": model.spec.to_dict(), "seed": seed}
    with open(f"{path}.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)


def load_checkpoint(path, dtype=None):
    """Rebuild a model from a checkpoint; returns (model, params)."""
    with open(f"{path}.json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    spec = ModelSpec.from_dict(sidecar["spec"])
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint")
        arrays = _read_records(fh, path)
    if spec.stem == "whitened":
        _require(arrays, ["__stem.filters"], path)
    model, params = build_resnet9(spec, seed=sidecar.get("seed", 0),
                                  whitening_filters=arrays.get("__stem.filters"), dtype=dtype)
    _require(arrays, _checkpoint_arrays(model), path)
    params.load({k: v for k, v in arrays.items() if not k.startswith("__")})
    for i, st in enumerate(model.bn_states()):
        st.running_mean[...] = arrays[f"__bn{i}.mean"]
        st.running_var[...] = arrays[f"__bn{i}.var"]
    return model, params
