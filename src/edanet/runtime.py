"""Weight storage, deterministic initialization, BN folding, and the
forward executor.

Weights live in a WeightStore keyed ``<layer>.<step>.<param>`` (for example
``m1_1.conv1x1.w`` or ``m1_1.bn1.gamma``).  The on-disk ``.edaw`` format is
little-endian: a 16-byte header (magic ``EDAW``, version u32, entry count
u32, reserved u32) followed by one record per tensor.  Files are written
record by record and read into one buffer that the loaded tensors view.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
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
    FoldError,
    ImagePool,
    MaxPoolStep,
    Parallel,
    ReluStep,
    Residual,
    UpsampleStep,
    fold_bn,
)
from .analyzer import analyze
from .netdef import NetworkSpec, _lowered, _param_table, expand_layer, fold_layer
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
    resize_argmax,
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
    "init_tensors",
    "fold_batch_norm",
    "fold_tensors",
    "forward",
    "save_weights",
    "write_weights",
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
        for name, arr in (tensors or {}).items():
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


# Values per step of the init draw: each step works in place in three
# buffers of this length, so a tensor's draw costs its float32 output plus
# about 1.5 MiB, whatever its size.
_DRAW_CHUNK = 65536


def _draw_uniform(tensor_name: str, seed: int, shape: tuple, bound: float) -> np.ndarray:
    """splitmix64 stream seeded per tensor; each draw's top 24 bits map
    linearly onto [-bound, bound].

    The output's final ``z ^ (z >> 31)`` is skipped: ``z >> 31`` has 33
    significant bits, so it cannot change the top 24."""
    state0 = (seed ^ fnv1a64(tensor_name)) & _MASK64
    out = np.empty(shape, np.float32)
    flat = out.reshape(-1)
    n = flat.size
    chunk = min(n, _DRAW_CHUNK)
    steps = np.arange(1, chunk + 1, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    z = np.empty(chunk, np.uint64)
    vals = np.empty(chunk, np.float64)
    shifted = vals.view(np.uint64)  # the shift's scratch, until vals is filled
    for lo in range(0, n, _DRAW_CHUNK):
        k = min(chunk, n - lo)
        zk, sk, vk = z[:k], shifted[:k], vals[:k]
        np.add(steps[:k], np.uint64((state0 + lo * _GOLDEN) & _MASK64), out=zk)
        np.right_shift(zk, np.uint64(30), out=sk)
        zk ^= sk
        zk *= np.uint64(0xBF58476D1CE4E5B9)
        np.right_shift(zk, np.uint64(27), out=sk)
        zk ^= sk
        zk *= np.uint64(0x94D049BB133111EB)
        zk >>= np.uint64(40)
        np.multiply(zk, 2.0 / (2**24 - 1), out=vk)
        vk -= 1.0
        vk *= bound
        flat[lo : lo + k] = vk
    return out


def parameter_names(net: NetworkSpec) -> list:
    """Every weight name the network consumes, in execution order; each
    appears exactly once."""
    return [name for _, name, _ in _param_table(net)]


def init_weights(net: NetworkSpec, seed: int) -> WeightStore:
    """Deterministic, platform-independent initialization.

    Convolution weights draw uniformly from [-b, b], b = sqrt(6 / fan_in)
    with fan_in = in_channels * kh * kw; biases start at zero; BN starts as
    the identity transform (gamma 1, beta 0, mean 0, var 1)."""
    return WeightStore(dict(init_tensors(net, seed)))


def init_tensors(net: NetworkSpec, seed: int):
    """``init_weights``'s ``(name, tensor)`` pairs in store order, made one by one."""
    seed &= _MASK64
    for _, name, shape in _param_table(net):
        if name.endswith(".w"):
            bound = math.sqrt(6.0 / math.prod(shape[1:]))
            yield name, _draw_uniform(name, seed, shape, bound)
        else:
            fill = np.ones if name.endswith((".gamma", ".var", ".scale")) else np.zeros
            yield name, fill(shape, np.float32)


# ---------------------------------------------------------------------------
# BN folding

def fold_batch_norm(net: NetworkSpec, weights: WeightStore) -> FoldedNetwork:
    """Merge every BN into its producing convolution: with
    s = gamma / sqrt(var + eps), the convolution's weights become s*w and
    its bias s*(old_bias - mean) + beta.  The returned network contains no
    BN steps and computes the same function up to float32 rounding.  The
    folded store owns its tensors: none views ``weights``."""
    folded_net, pairs = fold_tensors(net, weights)
    return FoldedNetwork(folded_net, WeightStore(dict(pairs)))


def fold_tensors(net: NetworkSpec, weights: WeightStore) -> tuple:
    """``(folded network, pairs)``, after every check (``_bind``'s, the
    rewrite's ``FoldError``).  ``pairs`` yields the folded store's tensors in
    store order, merging one step at a time and copying those carried over."""
    bound, plans = _bind(net, weights), {}
    for layer in net.layers:  # record each merge: (conv, bn, lo, hi) per new step
        fold_bn(expand_layer(layer), lambda step, *plan: plans.update({step.name: plan}))
    folded_net = replace(net, layers=[fold_layer(l) for l in net.layers])

    def merge(conv, bn, lo, hi) -> tuple:
        gamma, beta, mean, var = (t[lo:hi] for t in bound[bn.name])
        s = gamma / np.sqrt(var + np.float32(BN_EPS))
        if conv is None:  # scale, shift
            return s, beta - s * mean
        w, *b = bound[conv.name]  # w, b
        old_b = b[0] if b else np.zeros(conv.out_ch, np.float32)
        return w * s[:, None, None, None], s * (old_b - mean) + beta

    def pairs():
        for step, entries in itertools.groupby(_param_table(folded_net), lambda e: e[0].name):
            names = [name for _, name, _ in entries]
            yield from zip(names, merge(*plans[step]) if step in plans
                           else (np.array(weights[name]) for name in names))

    return folded_net, pairs()


# ---------------------------------------------------------------------------
# executor

def _bind(net: NetworkSpec, store: WeightStore) -> dict:
    """Check every weight in one walk and group them by step: ``{step name:
    [tensor, ...]}`` in ``param_shapes`` order.  A missing, mis-shaped or
    dangling tensor is an error naming it; a negative BN variance is the
    error ``BnParams`` raises."""
    bound, variances = {}, []
    table = _param_table(net)
    for step, name, shape in table:
        arr = store[name]
        if arr.shape != shape:
            raise ShapeError(f"weight {name!r} has shape {arr.shape}, expected {shape}")
        bound.setdefault(step.name, []).append(arr)
        if name.endswith(".var"):
            variances.append(arr)
    if variances and np.count_nonzero(np.concatenate(variances) < 0):
        raise ValueError("running_var entries must be >= 0")
    used = {name for _, name, _ in table}
    if len(used) != len(store):  # every used name is in the store
        dangling = [n for n in store.names() if n not in used]
        raise WeightError(
            f"weights never consumed by the forward pass: {dangling[:3]}"
            + ("..." if len(dangling) > 3 else "")
        )
    return bound


def _eval(node, x: Tensor, bound: dict, fuse_relu: bool = False,
          out: np.ndarray | None = None) -> Tensor:
    """Run ``node`` on ``x`` with the tensors ``_bind`` checked; in a chain, a
    convolution or a merge directly followed by a ReLU applies it in place.
    With ``out``, a buffer starting at the result's first channel, the
    chain step ``_result_index`` picks gets it: a convolution writes
    through ``conv2d(out=)``, a merge's branches write their channels, and
    any other branch result is copied in."""
    if isinstance(node, Chain):
        steps, fused = node.steps, False
        end = -1 if out is None else _result_index(steps)
        for k, (step, after) in enumerate(zip(steps, steps[1:] + (None,))):
            if not fused:
                fused = isinstance(step, (ConvStep, Parallel)) and isinstance(after, ReluStep)
                x = _eval(step, x, bound, fused, out if k == end else None)
            else:  # the ReLU ran inside the step before it
                fused = False
        return x
    if isinstance(node, Parallel):
        if out is None:
            y = concat_channels(*(_eval(branch, x, bound) for branch in node.branches))
            return relu(y) if fuse_relu else y
        c = 0
        for branch in node.branches:
            y = _eval(branch, x, bound, out=out[:, c:])
            if not np.may_share_memory(y.data, out):
                out[:, c : c + y.c] = y.data
            c += y.c
        if fuse_relu:
            np.maximum(out[:, :c], np.float32(0.0), out=out[:, :c])
        return Tensor(out[:, :c])
    if isinstance(node, Residual):
        return add(x, _eval(node.body, x, bound))
    if isinstance(node, ImagePool):
        y = _eval(node.body, global_avg_pool(x), bound)
        return bilinear_resize(y, x.h, x.w)
    if isinstance(node, ConvStep):
        return conv2d(x, Kernel(*bound[node.name]), stride=node.stride,
                      dilation=node.dilation, pad_h=node.pad_h, pad_w=node.pad_w,
                      relu=fuse_relu, out=None if out is None else out[:, : node.out_ch])
    if isinstance(node, DeconvStep):
        return transposed_conv2d(x, Kernel(*bound[node.name]), stride=node.stride)
    if isinstance(node, BnStep):
        return batch_norm(x, BnParams(*bound[node.name], eps=BN_EPS))
    if isinstance(node, AffineStep):
        return channel_affine(x, *bound[node.name])
    if isinstance(node, ReluStep):
        return relu(x)
    if isinstance(node, MaxPoolStep):
        return max_pool2d(x, node.k, node.stride, node.pad)
    if isinstance(node, AvgPoolStep):
        return avg_pool2d(x, node.k, node.stride)
    if isinstance(node, UpsampleStep):
        return bilinear_resize(x, x.h * node.factor, x.w * node.factor)
    raise TypeError(f"unknown node {node!r}")


def _result_index(steps) -> int:
    """The index of the step whose result a chain of ``steps`` returns:
    the last one, or the convolution or merge whose ReLU it is; -1 if
    there is none."""
    k = len(steps) - 1
    if k > 0 and isinstance(steps[k], ReluStep) and isinstance(steps[k - 1], (ConvStep, Parallel)):
        k -= 1
    return k


def _result_step(node):
    """The step whose result ``node`` returns, the one ``_eval`` gives an ``out``."""
    while isinstance(node, Chain) and node.steps:
        node = node.steps[_result_index(node.steps)]
    return node


def forward(net: NetworkSpec, weights: WeightStore, input: Tensor) -> Tensor:
    """Execute the network on one tensor.  Before any layer runs, the
    analyzer's pass checks every shape and ``_bind`` checks every weight
    (each stored tensor must be consumed).  A layer that ends in a
    convolution or a merge writes into the buffer its reader reads: a run
    of dense layers (a ``Parallel`` whose first branch is the identity)
    grows in one buffer at the run's final width, which the layer before
    the run writes its result into unless it reads another run's buffer,
    and any other merge writes into a buffer of its own; any other result
    is copied in."""
    report = analyze(net, input.shape[1:])
    bound = _bind(net, weights)
    dense = [isinstance(node, Parallel) and node.branches[0] == Chain([])
             for node in map(_lowered, net.layers)] + [False]

    def buffer(k: int) -> np.ndarray:  # layer k's output, a dense run's at its final width
        end = k + 1
        while dense[k] and dense[end]:
            end += 1
        return np.empty((input.n, *report.layers[end - 1].out_shape), np.float32)

    x, stage = input, None
    for k, layer in enumerate(net.layers):
        node = expand_layer(layer)
        if dense[k]:
            if stage is None:  # the run's input was not written into its buffer
                stage = buffer(k)
                stage[:, : x.c] = x.data
                x = Tensor(stage[:, : x.c])  # frees the run's input
            x = _eval(node, x, bound, out=stage)
            continue
        last = _result_step(node)
        into_run = dense[k + 1] and stage is None and isinstance(last, (ConvStep, Parallel))
        stage = buffer(k + 1) if into_run else None  # one run's buffer at a time
        x = _eval(node, x, bound, out=stage if into_run else
                  buffer(k) if isinstance(last, Parallel) else None)
    return x


@functools.lru_cache(maxsize=256)
def _readout_split(net: NetworkSpec) -> tuple:
    """``(trunk, factors)``: the network without its trailing ``bilinear``
    layers (the first layer always stays) and their factors in order;
    computed once per network."""
    k = len(net.layers)
    while k > 1 and net.layers[k - 1].kind == "bilinear":
        k -= 1
    if k == len(net.layers):
        return net, ()
    return replace(net, layers=net.layers[:k]), tuple(l.factor for l in net.layers[k:])


def infer_image(net: NetworkSpec, weights: WeightStore, image: Tensor) -> LabelMap:
    """End-to-end inference: the per-pixel channel argmax of the network's
    logits bilinearly upscaled by its inference factor.  ``forward`` runs
    the network without its trailing ``bilinear`` layers; ``resize_argmax``
    then reads the labels through those layers' resizes and the inference
    upscale band by band, so neither upscaled logit tensor is ever held in
    full.  The labels are those of ``forward`` followed by
    ``bilinear_resize`` and ``argmax_channels``, bit for bit."""
    if image.n != 1:
        raise ShapeError(f"inference expects batch size 1, got {image.n}")
    lo, hi = float(image.data.min()), float(image.data.max())
    if not (lo >= 0.0 and hi <= 1.0):
        raise ValueError(
            f"image values must lie in [0, 1], got [{lo:.4g}, {hi:.4g}]"
        )
    trunk, factors = _readout_split(net)
    logits = forward(trunk, weights, image)
    h, w, sizes = logits.h, logits.w, []
    for f in factors:
        h, w = h * f, w * f
        sizes.append((h, w))
    u = net.inference_upscale
    if u > 1:  # a resize to the same size is not the identity on +-inf
        sizes.append((h * u, w * u))
    if not sizes:
        return argmax_channels(logits)
    *via, (out_h, out_w) = sizes
    return resize_argmax(logits, out_h, out_w, via)


# ---------------------------------------------------------------------------
# on-disk format

def save_weights(store: WeightStore, path) -> None:
    write_weights(store.names(), store.items(), path)


def serialize_weights(store: WeightStore) -> bytes:
    return b"".join(_encode(store.names(), store.items()))


def write_weights(names: list, pairs, path) -> None:
    """Write an .edaw file of the ``(name, tensor)`` pairs that ``pairs``
    yields, taken one at a time, in the order of ``names``."""
    parts = _encode(names, pairs)
    header = next(parts)  # every name is checked before the file is opened
    with open(path, "wb") as fh:
        fh.write(header)
        fh.writelines(parts)


def _encode(names: list, pairs):
    """The file's parts in order: the header, once every name is checked,
    then each pair's record header and a view of its little-endian float32
    payload, so no part copies a tensor."""
    for name in names:
        size = len(name.encode("utf-8"))
        if size > 0xFFFF:
            raise WeightFormatError(f"tensor name {name[:32]!r}... is {size} UTF-8 bytes; "
                                    "an .edaw name holds at most 65535")
    yield struct.pack("<4sIII", _MAGIC, _VERSION, len(names), 0)
    for name, arr in pairs:
        encoded = name.encode("utf-8")
        yield struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I",
                          len(encoded), encoded, 0, arr.ndim, *arr.shape)
        yield arr.astype("<f4", copy=False).reshape(-1).data.cast("B")


def load_weights(path) -> WeightStore:
    with open(path, "rb") as fh:
        buf = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        buf = buf[: fh.readinto(buf)]
        rest = fh.read()  # to EOF: all of a pipe, whose size reads 0
    return _parse(np.concatenate((buf, np.frombuffer(rest, np.uint8))) if rest else buf)


def deserialize_weights(data: bytes) -> WeightStore:
    return _parse(np.frombuffer(data, np.uint8).copy())


def _unpack(fmt: str, buf: np.ndarray, pos: int) -> tuple:  # (*values, next offset)
    n = struct.calcsize(fmt)
    _need(buf, pos, n)
    return *struct.unpack_from(fmt, buf, pos), pos + n


def _need(buf: np.ndarray, pos: int, n: int) -> None:
    if pos + n > len(buf):
        raise WeightFormatError(f"truncated file: needed {n} bytes at offset {pos}")


def _parse(buf: np.ndarray) -> WeightStore:
    """The store of the .edaw file in the bytes ``buf``, its tensors
    read-only views of ``buf``: each payload first moves down by its address
    mod 4, over its own record header, already parsed, so each view is aligned."""
    magic, pos = _unpack("4s", buf, 0)
    if magic != _MAGIC:
        raise WeightFormatError("bad magic: not an .edaw weight file")
    version, count, _reserved, pos = _unpack("<III", buf, pos)
    if version != _VERSION:
        raise WeightFormatError(f"unsupported version {version}")
    base, store = buf.ctypes.data, WeightStore()
    for _ in range(count):
        name_len, pos = _unpack("<H", buf, pos)
        name, pos = _unpack(f"{name_len}s", buf, pos)
        try:
            name = name.decode("utf-8")
        except UnicodeDecodeError:
            raise WeightFormatError(f"tensor name at offset {pos - name_len} is not UTF-8") from None
        dtype, ndims, pos = _unpack("<BB", buf, pos)
        if dtype != 0:
            raise WeightFormatError(f"unsupported dtype code {dtype}")
        *dims, pos = _unpack(f"<{ndims}I", buf, pos)
        size = 4 * math.prod(dims)
        _need(buf, pos, size)
        start = pos - (base + pos) % 4
        if start != pos:
            ctypes.memmove(base + start, base + pos, size)
        pos += size
        try:
            arr = buf[start : start + size].view("<f4").reshape(dims)
        except ValueError as exc:  # numpy rejects the dimension count
            raise WeightFormatError(f"tensor {name!r}: {exc}") from None
        if name in store:
            raise WeightFormatError(f"duplicate tensor name {name!r}")
        store[name] = arr
    if pos != len(buf):
        raise WeightFormatError(f"{len(buf) - pos} trailing bytes after last entry")
    return store
