"""Weight storage, deterministic initialization, BN folding, and the
forward executor.

Weights live in a WeightStore keyed ``<layer>.<step>.<param>`` (for example
``m1_1.conv1x1.w`` or ``m1_1.bn1.gamma``).  The on-disk ``.edaw`` format is
little-endian: a 16-byte header (magic ``EDAW``, version u32, entry count
u32, reserved u32) followed by one record per tensor.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .blocks import (
    AffineStep,
    AvgPoolStep,
    BnStep,
    Chain,
    ConvStep,
    DeconvStep,
    DropoutStep,
    FoldError,
    ImagePool,
    MaxPoolStep,
    Parallel,
    ReluStep,
    Residual,
    UpsampleStep,
    fold_bn,
    iter_prims,
    param_shapes,
)
from .netdef import NetworkSpec, expand_layer, fold_layer, spatial_divisor
from .tensorops import (
    BN_EPS,
    BnParams,
    Kernel,
    LabelMap,
    ShapeError,
    Tensor,
    add,
    argmax_channels,
    avg_pool2d,
    batch_norm,
    bilinear_resize,
    channel_affine,
    concat_channels,
    conv2d,
    global_avg_pool,
    max_pool2d,
    relu,
    transposed_conv2d,
)

__all__ = [
    "BN_EPS",
    "WeightStore",
    "FoldedNetwork",
    "WeightError",
    "WeightFormatError",
    "FoldError",
    "parameter_names",
    "init_weights",
    "fold_batch_norm",
    "forward",
    "save_weights",
    "load_weights",
    "infer_image",
    "splitmix64",
    "fnv1a64",
]

# BN_EPS is re-exported here because folding and execution must agree on it.

_MAGIC = b"EDAW"
_VERSION = 1


class WeightError(KeyError):
    """A parameter tensor the network needs is absent (or left dangling)."""


class WeightFormatError(ValueError):
    """Corrupt or unsupported .edaw file."""


class WeightStore:
    """Insertion-ordered map from parameter names to float32 arrays."""

    def __init__(self, tensors: dict | None = None):
        self._tensors: dict[str, np.ndarray] = {}
        if tensors:
            for name, arr in tensors.items():
                self[name] = arr

    def __setitem__(self, name: str, arr) -> None:
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        arr.flags.writeable = False
        self._tensors[name] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._tensors[name]
        except KeyError:
            raise WeightError(f"missing weight {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightStore):
            return NotImplemented
        if self.names() != other.names():
            return False
        return all(
            np.array_equal(a, other._tensors[n]) for n, a in self._tensors.items()
        )


@dataclass(frozen=True)
class FoldedNetwork:
    """A network with every BN merged away plus its rewritten weights."""

    net: NetworkSpec
    weights: WeightStore


# ---------------------------------------------------------------------------
# deterministic initialization

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple:
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def fnv1a64(data: str | bytes) -> int:
    """FNV-1a 64-bit hash."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def _draw_uniform(tensor_name: str, seed: int, shape: tuple, bound: float) -> np.ndarray:
    """splitmix64 stream seeded per tensor; each draw's top 24 bits map
    linearly onto [-bound, bound]."""
    state0 = np.uint64((seed ^ fnv1a64(tensor_name)) & _MASK64)
    n = int(np.prod(shape))
    with np.errstate(over="ignore"):
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = state0 + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    top24 = (z >> np.uint64(40)).astype(np.float64)
    vals = (top24 * (2.0 / (2**24 - 1)) - 1.0) * bound
    return vals.astype(np.float32).reshape(shape)


def _param_table(net: NetworkSpec):
    """(name, shape) of every weight the network reads, in store order."""
    for layer in net.layers:
        for prim in iter_prims(expand_layer(layer)):
            for suffix, shape in param_shapes(prim):
                yield f"{prim.name}.{suffix}", shape


def parameter_names(net: NetworkSpec) -> list:
    """Every weight name the network consumes, in execution order; each
    appears exactly once."""
    return [name for name, _ in _param_table(net)]


def init_weights(net: NetworkSpec, seed: int) -> WeightStore:
    """Deterministic, platform-independent initialization.

    Convolution weights draw uniformly from [-b, b], b = sqrt(6 / fan_in)
    with fan_in = in_channels * kh * kw; biases start at zero; BN starts as
    the identity transform (gamma 1, beta 0, mean 0, var 1)."""
    store = WeightStore()
    seed &= _MASK64
    for name, shape in _param_table(net):
        if name.endswith(".w"):
            bound = math.sqrt(6.0 / math.prod(shape[1:]))
            store[name] = _draw_uniform(name, seed, shape, bound)
        else:
            fill = np.ones if name.endswith((".gamma", ".var", ".scale")) else np.zeros
            store[name] = fill(shape, np.float32)
    return store


# ---------------------------------------------------------------------------
# BN folding

def fold_batch_norm(net: NetworkSpec, weights: WeightStore) -> FoldedNetwork:
    """Merge every BN into its producing convolution: with
    s = gamma / sqrt(var + eps), the convolution's weights become s*w and
    its bias s*(old_bias - mean) + beta.  The returned network contains no
    BN steps and computes the same function up to float32 rounding."""
    tensors: dict = {}  # checked as forward checks them, before any merge
    used: list = []
    for layer in net.layers:
        for prim in iter_prims(expand_layer(layer)):
            tensors[prim] = _fetch(weights, prim, used)
            if isinstance(prim, BnStep):
                BnParams(*tensors[prim], eps=BN_EPS)  # rejects a negative variance
    _check_consumed(weights, used)
    merged: dict = {}

    def merge(step, conv, bn, lo, hi):
        gamma, beta, mean, var = (t[lo:hi] for t in tensors[bn])
        s = gamma / np.sqrt(var + np.float32(BN_EPS))
        if conv is None:  # scale, shift
            values = (s, beta - s * mean)
        else:  # w, b
            w, *b = tensors[conv]
            old_b = b[0] if b else np.zeros(conv.out_ch, np.float32)
            values = (w * s[:, None, None, None], s * (old_b - mean) + beta)
        for (suffix, _), value in zip(param_shapes(step), values):
            merged[f"{step.name}.{suffix}"] = value

    for layer in net.layers:
        fold_bn(expand_layer(layer), merge)
    folded_net = replace(net, layers=[fold_layer(l) for l in net.layers])
    dst = WeightStore()
    for name in parameter_names(folded_net):
        dst[name] = merged[name] if name in merged else weights[name]
    return FoldedNetwork(folded_net, dst)


# ---------------------------------------------------------------------------
# executor

def _fetch(store: WeightStore, prim, used: list) -> list:
    """The step's weight tensors in ``param_shapes`` order, shape-checked."""
    arrays = []
    for suffix, shape in param_shapes(prim):
        name = f"{prim.name}.{suffix}"
        arr = store[name]
        if arr.shape != shape:
            raise ShapeError(
                f"weight {name!r} has shape {arr.shape}, expected {shape}"
            )
        used.append(name)
        arrays.append(arr)
    return arrays


def _check_consumed(store: WeightStore, used: list) -> None:
    """Every stored tensor must be among the ``used`` names."""
    used_set = set(used)
    dangling = [n for n in store.names() if n not in used_set]
    if dangling:
        raise WeightError(
            f"weights never consumed by the forward pass: {dangling[:3]}"
            + ("..." if len(dangling) > 3 else "")
        )


def _eval(node, x: Tensor, store: WeightStore, used: list) -> Tensor:
    if isinstance(node, Chain):
        for step in node.steps:
            x = _eval(step, x, store, used)
        return x
    if isinstance(node, Parallel):
        out = None
        for branch in node.branches:
            y = _eval(branch, x, store, used)
            out = y if out is None else concat_channels(out, y)
        return out
    if isinstance(node, Residual):
        return add(x, _eval(node.body, x, store, used))
    if isinstance(node, ImagePool):
        y = _eval(node.body, global_avg_pool(x), store, used)
        return bilinear_resize(y, x.h, x.w)
    if isinstance(node, ConvStep):
        return conv2d(x, Kernel(*_fetch(store, node, used)), stride=node.stride,
                      dilation=node.dilation, pad_h=node.pad_h, pad_w=node.pad_w)
    if isinstance(node, DeconvStep):
        return transposed_conv2d(x, Kernel(*_fetch(store, node, used)), stride=node.stride)
    if isinstance(node, BnStep):
        return batch_norm(x, BnParams(*_fetch(store, node, used), eps=BN_EPS))
    if isinstance(node, AffineStep):
        return channel_affine(x, *_fetch(store, node, used))
    if isinstance(node, ReluStep):
        return relu(x)
    if isinstance(node, DropoutStep):
        return x
    if isinstance(node, MaxPoolStep):
        return max_pool2d(x, node.k, node.stride, node.pad)
    if isinstance(node, AvgPoolStep):
        return avg_pool2d(x, node.k, node.stride)
    if isinstance(node, UpsampleStep):
        return bilinear_resize(x, x.h * node.factor, x.w * node.factor)
    raise TypeError(f"unknown node {node!r}")


def forward(net: NetworkSpec, weights: WeightStore, input: Tensor) -> Tensor:
    """Execute the network on one tensor.  Every stored parameter must be
    consumed exactly once; a missing or dangling weight is an error naming
    the offender."""
    div = spatial_divisor(net)
    if input.h % div or input.w % div:
        raise ShapeError(
            f"input {input.h}x{input.w} not divisible by the network's "
            f"downsampling factor {div}"
        )
    used: list = []
    x = input
    for layer in net.layers:
        try:
            x = _eval(expand_layer(layer), x, weights, used)
        except (WeightError, ShapeError) as exc:
            raise type(exc)(f"layer {layer.name!r}: {exc}") from None
    _check_consumed(weights, used)
    return x


def infer_image(net: NetworkSpec, weights: WeightStore, image: Tensor) -> LabelMap:
    """End-to-end inference: forward pass, bilinear upscale of the logits
    by the network's inference factor, then per-pixel channel argmax."""
    if image.n != 1:
        raise ShapeError(f"inference expects batch size 1, got {image.n}")
    lo, hi = float(image.data.min()), float(image.data.max())
    if lo < 0.0 or hi > 1.0:
        raise ValueError(
            f"image values must lie in [0, 1], got [{lo:.4g}, {hi:.4g}]"
        )
    logits = forward(net, weights, image)
    u = net.inference_upscale
    if u > 1:
        logits = bilinear_resize(logits, logits.h * u, logits.w * u)
    return argmax_channels(logits)


# ---------------------------------------------------------------------------
# on-disk format

def save_weights(store: WeightStore, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_weights(store))


def serialize_weights(store: WeightStore) -> bytes:
    out = [_MAGIC, struct.pack("<III", _VERSION, len(store), 0)]
    for name, arr in store.items():
        encoded = name.encode("utf-8")
        out.append(struct.pack("<H", len(encoded)))
        out.append(encoded)
        out.append(struct.pack("<BB", 0, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.astype("<f4", copy=False).tobytes())
    return b"".join(out)


def load_weights(path) -> WeightStore:
    with open(path, "rb") as fh:
        return deserialize_weights(fh.read())


def deserialize_weights(data: bytes) -> WeightStore:
    view = memoryview(data)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise WeightFormatError(
                f"truncated file: needed {n} bytes at offset {pos}"
            )
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4)) != _MAGIC:
        raise WeightFormatError("bad magic: not an .edaw weight file")
    version, count, _reserved = struct.unpack("<III", take(12))
    if version != _VERSION:
        raise WeightFormatError(f"unsupported version {version}")
    store = WeightStore()
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise WeightFormatError(f"tensor name at offset {pos - name_len} is not UTF-8") from None
        dtype, ndims = struct.unpack("<BB", take(2))
        if dtype != 0:
            raise WeightFormatError(f"unsupported dtype code {dtype}")
        dims = struct.unpack(f"<{ndims}I", take(4 * ndims)) if ndims else ()
        n_elem = 1
        for d in dims:
            n_elem *= d
        payload = take(4 * n_elem)
        try:
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
        except ValueError as exc:  # numpy rejects the dimension count
            raise WeightFormatError(f"tensor {name!r}: {exc}") from None
        if name in store:
            raise WeightFormatError(f"duplicate tensor name {name!r}")
        store[name] = arr
    if pos != len(view):
        raise WeightFormatError(f"{len(view) - pos} trailing bytes after last entry")
    return store
