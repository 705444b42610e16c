"""Dense NCHW tensors and the primitive operators every network variant uses.

All activations and weights are 32-bit floats.  Every operator is a pure
function: inputs are never mutated and repeated evaluation is bit-identical.
Convolutions accumulate in float32 in a fixed order: row bands of the
output in turn, kernel taps in row-major order and, within a tap, the input
channels in chunks of 256 in order, each chunk one sgemm.  The first sgemm
of a band writes it and each later one accumulates into it inside sgemm
(beta = 1, called through numpy's bundled OpenBLAS).  Small bands, other
BLAS builds and the shapes numpy does not run as sgemm instead compute a
later product with ``np.matmul`` and add it: the same float32 operations,
so the same bytes.  Padding is handled per band (a tap's operand holds
zeros where it reads outside the image), and the bias and an optional ReLU
are applied to each finished band, which may lie in a caller's buffer
(``out=``).  edanet starts
no threads; OpenBLAS runs each sgemm on as many as ``set_num_threads`` or
``OPENBLAS_NUM_THREADS`` gives it, and no sgemm shape depends on that count,
so results are bit-identical for any count on one numpy/OpenBLAS build.  The
readout ``resize_argmax`` takes logits through a chain of bilinear sizes to
their label map, one band of output rows after another.  For a band, each
size but the last blends, channels first, along x only the rows of the size
before it that the band reads, then along y.  The last stage labels without
blending every output pixel whose 2x2 source window agrees on a channel that
leads every other channel, at all four pixels, by more than a bound on the
float32 rounding of the last two blends (2^-18 max|logits| + 2^-144).  Each
other pixel is blended from its four source values with the same float32
operations as ``bilinear_resize``, and its channel argmax taken, so the labels
equal ``argmax_channels`` of the nested resizes bit for bit; no resized logits
are ever held in full.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "BN_EPS",
    "Tensor",
    "Kernel",
    "BnParams",
    "LabelMap",
    "ShapeError",
    "conv2d",
    "transposed_conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool",
    "batch_norm",
    "channel_affine",
    "relu",
    "concat_channels",
    "add",
    "bilinear_resize",
    "argmax_channels",
    "resize_argmax",
    "zero_insert_kernel",
    "set_num_threads",
    "get_num_threads",
]

# 2-D int32 array of class indices (h, w).
LabelMap = np.ndarray

# Family-wide BN epsilon.  Small enough that float32(1.0) + eps == 1.0, so a
# freshly initialized BN (var = 1) is exactly the identity and folding it is
# bit-exact; still large enough to guard a zero variance.
BN_EPS = 1e-8


class ShapeError(ValueError):
    """Raised when tensor shapes or channel counts are incompatible."""


def _as_f32(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.dtype != np.float32:
        raise TypeError(f"{name} must be float32, got {arr.dtype}")
    return arr


@dataclass(frozen=True)
class Tensor:
    """Immutable dense 4-D array laid out (batch, channels, height, width).

    The constructor takes ownership of ``data`` and freezes it.  Use
    :meth:`from_array` to build a tensor from an arbitrary array-like
    without sharing storage with the caller.
    """

    data: np.ndarray

    def __post_init__(self):
        data = _as_f32(self.data, "Tensor.data")
        if data.ndim != 4:
            raise ShapeError(f"tensor must be 4-D (n,c,h,w), got shape {data.shape}")
        if min(data.shape) < 1:
            raise ShapeError(f"all tensor dimensions must be >= 1, got {data.shape}")
        data = np.ascontiguousarray(data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @staticmethod
    def from_array(arr) -> "Tensor":
        a = np.array(arr, dtype=np.float32)
        while a.ndim < 4:
            a = a[None]
        return Tensor(a)

    @staticmethod
    def zeros(n: int, c: int, h: int, w: int) -> "Tensor":
        return Tensor(np.zeros((n, c, h, w), np.float32))

    @staticmethod
    def full(n: int, c: int, h: int, w: int, value: float) -> "Tensor":
        return Tensor(np.full((n, c, h, w), value, np.float32))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class Kernel:
    """Convolution weights laid out (out_channels, in_channels, kh, kw)."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = _as_f32(self.weights, "Kernel.weights")
        if w.ndim != 4:
            raise ShapeError(f"kernel must be 4-D (out,in,kh,kw), got {w.shape}")
        if min(w.shape) < 1:
            raise ShapeError(f"all kernel dimensions must be >= 1, got {w.shape}")
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = _as_f32(self.bias, "Kernel.bias")
            if b.shape != (w.shape[0],):
                raise ShapeError(
                    f"bias length {b.shape} does not match {w.shape[0]} output channels"
                )
            object.__setattr__(self, "bias", b)

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kh(self) -> int:
        return self.weights.shape[2]

    @property
    def kw(self) -> int:
        return self.weights.shape[3]


_BN_VECTORS = ("gamma", "beta", "running_mean", "running_var")


@dataclass(frozen=True)
class BnParams:
    """Batch-normalization inference parameters, one entry per channel."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = BN_EPS

    def __post_init__(self):
        for field in _BN_VECTORS:
            v = getattr(self, field)
            if type(v) is not np.ndarray or v.dtype != np.float32:
                v = _as_f32(v, f"BnParams.{field}")
                object.__setattr__(self, field, v)
            if v.ndim != 1:
                raise ShapeError(f"BnParams.{field} must be 1-D, got {v.shape}")
        var = self.running_var
        if not self.gamma.shape == self.beta.shape == self.running_mean.shape == var.shape:
            lengths = {getattr(self, field).shape[0] for field in _BN_VECTORS}
            raise ShapeError(f"BnParams vectors disagree in length: {lengths}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if np.count_nonzero(var < 0):
            raise ValueError("running_var entries must be >= 0")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @staticmethod
    def identity(channels: int, eps: float = BN_EPS) -> "BnParams":
        """Parameters that make batch_norm an exact no-op (var = 1 - eps)."""
        one = np.ones(channels, np.float32)
        zero = np.zeros(channels, np.float32)
        var = np.full(channels, np.float32(1.0) - np.float32(eps), np.float32)
        return BnParams(one, zero, zero, var, eps)


# ---------------------------------------------------------------------------
# BLAS

@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, or None when numpy links another BLAS.
    Opening the path numpy already loaded returns that same instance."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        lib = ctypes.CDLL(str(path))
        lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_num_threads64_.argtypes = []
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        i64, ptr, f32 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_float
        lib.scipy_cblas_sgemm64_.argtypes = (
            [ctypes.c_int] * 3 + [i64] * 3 + [f32, ptr, i64, ptr, i64, f32, ptr, i64])
        lib.scipy_cblas_sgemm64_.restype = None
        return lib
    return None


# The fixed arguments of cblas_sgemm as conv2d calls it: CblasRowMajor,
# CblasNoTrans for both matrices, and alpha = beta = 1 (C += A B).
_ROW_MAJOR, _NO_TRANS, _ONE = ctypes.c_int(101), ctypes.c_int(111), ctypes.c_float(1.0)


def set_num_threads(n: int) -> None:
    """Set the thread count of numpy's bundled OpenBLAS, which runs every
    sgemm (results are bit-identical for any count).  When numpy links
    another BLAS, only check ``n``: that BLAS keeps its own count."""
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(n)


def get_num_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS, or None when numpy
    links another BLAS, whose thread count edanet neither sets nor reads."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


# ---------------------------------------------------------------------------
# convolution

# Input channels are contracted in chunks of at most this many, one sgemm
# each.  A longer sgemm contraction can round differently at different
# OpenBLAS thread counts (450 channels does with OpenBLAS 0.3.31); up to 256
# it gives the same bytes at 1, 2 and 4 threads.
_CHANNEL_CHUNK = 256

# conv2d computes its output in bands of whole rows holding about this many
# pixels, one after another.  The bands fix the shape of every sgemm call and
# keep each tap's input copy small.  sgemm can round an output column
# differently when it is among the last few columns of a call, so changing
# the band size changes the output bytes.
_BAND_PIXELS = 8192


# Bands of fewer pixels add each later product after np.matmul instead of
# accumulating it inside sgemm: there, fetching the buffer addresses for the
# ctypes calls costs about as much as the adds save (40-channel 3x1 convs on
# a 2-core Xeon: 10 us slower at 128 pixels, even at 1024, 9 % faster at
# 2048).  Both give the same bytes.
_SGEMM_MIN_PIXELS = 2048


def _inside(lo: int, hi: int, offset: int, stride: int, size: int) -> tuple:
    """Of the output indices ``lo..hi-1``, those whose source index
    ``index * stride + offset`` lies in ``[0, size)``: their slice relative
    to ``lo`` and the slice of their source indices."""
    a = max(lo, -(offset // stride))
    b = max(a, min(hi, (size - 1 - offset) // stride + 1))
    start = a * stride + offset
    return slice(a - lo, b - lo), slice(start, start + (b - a) * stride, stride)


def conv2d(
    input: Tensor,
    k: Kernel,
    stride: int = 1,
    dilation: int = 1,
    pad_h: int = 0,
    pad_w: int = 0,
    relu: bool = False,
    out: np.ndarray | None = None,
) -> Tensor:
    """Cross-correlate ``input`` with ``k`` (zero padding, no kernel flip),
    add the bias and, with ``relu``, clamp at zero.

    Output height is floor((h + 2*pad_h - (dilation*(kh-1)+1)) / stride) + 1
    and analogously for width.  Each band of output rows is computed in
    place, kernel taps in row-major order: a tap's (channels, pixels)
    operand is a view of the input when it reads whole in-image rows, else
    a band-sized copy of its in-image slice with zeros where it reads the
    padding.  The first tap's sgemm (``np.matmul``) writes the band and
    each later sgemm accumulates into it (beta = 1).  A later product is
    instead computed by ``np.matmul`` and added, which rounds the same,
    with a BLAS other than numpy's bundled OpenBLAS, when the bands hold
    fewer than ``_SGEMM_MIN_PIXELS`` pixels, and where ``np.matmul`` would
    not run sgemm (one output channel, or a band of one pixel).  Then the bias and
    ReLU are applied to the band: the float32 operations of summing the
    taps of a zero-padded input into a zeroed output.  Dilated kernels are
    bit-identical to their zero-inserted expansion.

    ``out``, when given, receives the output: a writeable float32 array of
    the output's shape whose channels each hold their rows contiguously
    (any batch and channel strides, such as a channel slice of a larger
    buffer), not overlapping the input.  Nothing outside it is written,
    and the returned tensor views it.
    """
    if stride < 1 or dilation < 1:
        raise ValueError("stride and dilation must be >= 1")
    if pad_h < 0 or pad_w < 0:
        raise ValueError("padding must be >= 0")
    if input.c != k.in_channels:
        raise ShapeError(
            f"input has {input.c} channels but kernel expects {k.in_channels}"
        )
    eff_h = dilation * (k.kh - 1) + 1
    eff_w = dilation * (k.kw - 1) + 1
    out_h = (input.h + 2 * pad_h - eff_h) // stride + 1
    out_w = (input.w + 2 * pad_w - eff_w) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"non-positive output size {out_h}x{out_w} for input "
            f"{input.h}x{input.w}, kernel {k.kh}x{k.kw}, dilation {dilation}"
        )

    x, c_in, c_out = input.data, k.in_channels, k.out_channels
    shape = (input.n, c_out, out_h, out_w)
    if out is None:
        out = np.empty(shape, np.float32)
    else:
        if (out.dtype != np.float32 or out.shape != shape or not out.flags.writeable
                or out.strides[2:] != (4 * out_w, 4)
                or out.strides[1] < 4 * out_h * out_w):
            raise ShapeError(
                f"out must be a writeable float32 array of shape {shape} whose "
                f"channels hold contiguous rows, got {out.dtype} {out.shape}"
            )
        if np.may_share_memory(out, x):
            raise ValueError("out must not overlap the input")
        out = out.view()  # the returned tensor freezes its own view
    taps = np.ascontiguousarray(k.weights.transpose(2, 3, 0, 1))
    step = max(1, _BAND_PIXELS // out_w)
    band_pixels = min(step, out_h) * out_w
    copies = (stride, k.kw, pad_h, pad_w) != (1, 1, 0, 0)  # else every tap views x
    operand = np.empty(c_in * band_pixels * copies, np.float32)
    # Later products accumulate inside sgemm in bands of _SGEMM_MIN_PIXELS
    # or more, wherever np.matmul would run them as sgemm: more than one
    # output channel and, per band, more than one pixel.  The others are
    # added from ``product``.
    lib, gemm = _openblas(), None
    if lib is not None and c_out > 1 and band_pixels >= _SGEMM_MIN_PIXELS:
        # The arguments are made once and refilled for each call.
        gemm = lib.scipy_cblas_sgemm64_
        n_arg, k_arg, ldb_arg = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_int64()
        a_arg, b_arg, c_arg = ctypes.c_void_p(), ctypes.c_void_p(), ctypes.c_void_p()
        args = (_ROW_MAJOR, _NO_TRANS, _NO_TRANS, ctypes.c_int64(c_out), n_arg, k_arg,
                _ONE, a_arg, ctypes.c_int64(c_in), b_arg, ldb_arg, _ONE, c_arg,
                ctypes.c_int64(out.strides[1] // 4))
        x_at, taps_at, operand_at, out_at = (
            a.ctypes.data for a in (x, taps, operand, out))
        plane = input.h * input.w
    product = np.empty(c_out * (band_pixels if gemm is None else 1), np.float32)
    for n in range(input.n):
        for r0 in range(0, out_h, step):
            r1 = min(r0 + step, out_h)
            m = (r1 - r0) * out_w
            band = out[n, :, r0:r1].reshape(c_out, m)
            in_sgemm = gemm is not None and m > 1
            if not in_sgemm:
                prod = product[: c_out * m].reshape(c_out, m)
            else:
                n_arg.value = m
                c_arg.value = out_at + n * out.strides[0] + 4 * r0 * out_w
            for i in range(k.kh):
                rows, src_rows = _inside(r0, r1, i * dilation - pad_h, stride, input.h)
                for j in range(k.kw):
                    dx = j * dilation - pad_w
                    cols, src_cols = _inside(0, out_w, dx, stride, input.w)
                    if (stride, dx, out_w) == (1, 0, input.w) and rows == slice(0, r1 - r0):
                        x_tap = x[n, :, src_rows].reshape(c_in, m)
                        if in_sgemm:
                            b_at = x_at + 4 * (n * c_in * plane + src_rows.start * input.w)
                            ldb_arg.value = ldb = plane
                    else:
                        x_tap = operand[: c_in * m].reshape(c_in, m)
                        tile = x_tap.reshape(c_in, r1 - r0, out_w)
                        tile[:, : rows.start] = tile[:, rows.stop :] = 0
                        tile[:, rows, : cols.start] = tile[:, rows, cols.stop :] = 0
                        tile[:, rows, cols] = x[n, :, src_rows, src_cols]
                        if in_sgemm:
                            b_at = operand_at
                            ldb_arg.value = ldb = m
                    for c in range(0, c_in, _CHANNEL_CHUNK):
                        first = i == j == c == 0
                        if in_sgemm and not first:
                            k_arg.value = min(_CHANNEL_CHUNK, c_in - c)
                            a_arg.value = taps_at + 4 * ((i * k.kw + j) * c_out * c_in + c)
                            b_arg.value = b_at + 4 * c * ldb
                            gemm(*args)
                            continue
                        w_tap = taps[i, j, :, c : c + _CHANNEL_CHUNK]
                        x_chunk = x_tap[c : c + _CHANNEL_CHUNK]
                        if first:
                            np.matmul(w_tap, x_chunk, out=band)
                        else:
                            band += np.matmul(w_tap, x_chunk, out=prod)
            if k.bias is not None:
                band += k.bias[:, None]
            if relu:
                np.maximum(band, np.float32(0.0), out=band)
    return Tensor(out)


def transposed_conv2d(input: Tensor, k: Kernel, stride: int) -> Tensor:
    """Transposed convolution: each input value scatter-adds its
    kernel-weighted stencil, one sgemm per kernel tap in row-major order.
    Output spatial size is (h-1)*stride + kh (no output padding)."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if input.c != k.in_channels:
        raise ShapeError(
            f"input has {input.c} channels but kernel expects {k.in_channels}"
        )
    out_h = (input.h - 1) * stride + k.kh
    out_w = (input.w - 1) * stride + k.kw
    taps = np.ascontiguousarray(k.weights.transpose(2, 3, 0, 1))
    out = np.zeros((input.n, k.out_channels, out_h, out_w), np.float32)
    for n in range(input.n):
        sample = input.data[n].reshape(k.in_channels, -1)
        for i in range(k.kh):
            for j in range(k.kw):
                scatter = out[
                    n,
                    :,
                    i : i + (input.h - 1) * stride + 1 : stride,
                    j : j + (input.w - 1) * stride + 1 : stride,
                ]
                for c in range(0, k.in_channels, _CHANNEL_CHUNK):
                    c1 = c + _CHANNEL_CHUNK
                    scatter += (taps[i, j, :, c:c1] @ sample[c:c1]).reshape(scatter.shape)
    if k.bias is not None:
        out += k.bias[:, None, None]
    return Tensor(out)


def zero_insert_kernel(k: Kernel, r: int) -> Kernel:
    """Expand a kernel to its dilation-r equivalent of size r*(n-1)+1 by
    inserting r-1 zeros between consecutive taps along each axis."""
    if r < 1:
        raise ValueError("dilation rate must be >= 1")
    eff_h = r * (k.kh - 1) + 1
    eff_w = r * (k.kw - 1) + 1
    w = np.zeros((k.out_channels, k.in_channels, eff_h, eff_w), np.float32)
    w[:, :, ::r, ::r] = k.weights
    return Kernel(w, k.bias)


# ---------------------------------------------------------------------------
# pooling

def max_pool2d(input: Tensor, k: int, stride: int, pad: int = 0) -> Tensor:
    """Per-window maximum.  Padded cells never win (padding acts as -inf).

    The taps are taken in row-major order into one output, each as
    ``np.maximum(out, tap)`` over the output pixels whose tap cell lies in
    the image; the first tap fills the rest with -inf.  This is the order
    of a maximum over a -inf-padded input, so ties, signed zeros and NaN
    come out the same."""
    if k < 1 or stride < 1 or pad < 0:
        raise ValueError("invalid pooling configuration")
    if k == stride and pad == 0 and (input.h % stride or input.w % stride):
        raise ShapeError(
            f"spatial dims {input.h}x{input.w} not divisible by stride {stride}"
        )
    out_h = (input.h + 2 * pad - k) // stride + 1
    out_w = (input.w + 2 * pad - k) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"non-positive pooled size for input {input.h}x{input.w}")
    x = input.data
    out = np.empty((input.n, input.c, out_h, out_w), np.float32)
    for i in range(k):
        rows, src_rows = _inside(0, out_h, i - pad, stride, input.h)
        for j in range(k):
            cols, src_cols = _inside(0, out_w, j - pad, stride, input.w)
            tap = x[:, :, src_rows, src_cols]
            if i == j == 0:
                out[:, :, : rows.start] = out[:, :, rows.stop :] = -np.inf
                out[:, :, rows, : cols.start] = out[:, :, rows, cols.stop :] = -np.inf
                out[:, :, rows, cols] = tap
            else:
                region = out[:, :, rows, cols]
                np.maximum(region, tap, out=region)
    return Tensor(out)


def avg_pool2d(input: Tensor, k: int, stride: int) -> Tensor:
    """Per-window arithmetic mean (no padding)."""
    if k < 1 or stride < 1:
        raise ValueError("invalid pooling configuration")
    if k == stride and (input.h % stride or input.w % stride):
        raise ShapeError(
            f"spatial dims {input.h}x{input.w} not divisible by stride {stride}"
        )
    x = input.data
    out_h = (input.h - k) // stride + 1
    out_w = (input.w - k) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"non-positive pooled size for input {input.h}x{input.w}")
    acc = np.zeros((input.n, input.c, out_h, out_w), np.float32)
    for i in range(k):
        for j in range(k):
            acc += x[:, :, i : i + (out_h - 1) * stride + 1 : stride,
                     j : j + (out_w - 1) * stride + 1 : stride]
    return Tensor(acc * np.float32(1.0 / (k * k)))


def global_avg_pool(input: Tensor) -> Tensor:
    """Whole-plane arithmetic mean; output is 1x1 spatially."""
    return Tensor(input.data.mean(axis=(2, 3), keepdims=True, dtype=np.float32))


# ---------------------------------------------------------------------------
# normalization and elementwise ops

def batch_norm(input: Tensor, p: BnParams) -> Tensor:
    """Per-channel y = gamma * (x - mean) / sqrt(var + eps) + beta using the
    stored running statistics."""
    if input.c != p.channels:
        raise ShapeError(
            f"input has {input.c} channels but BnParams carries {p.channels}"
        )
    scale = p.gamma / np.sqrt(p.running_var + np.float32(p.eps))
    mean = p.running_mean[None, :, None, None]
    return Tensor(
        (input.data - mean) * scale[None, :, None, None]
        + p.beta[None, :, None, None]
    )


def channel_affine(input: Tensor, scale: np.ndarray, shift: np.ndarray) -> Tensor:
    """Per-channel y = scale * x + shift (the residue a folded BN leaves on a
    branch that has no convolution to absorb it)."""
    scale = _as_f32(scale, "scale")
    shift = _as_f32(shift, "shift")
    if scale.shape != (input.c,) or shift.shape != (input.c,):
        raise ShapeError(
            f"affine vectors of shape {scale.shape}/{shift.shape} do not match "
            f"{input.c} channels"
        )
    return Tensor(
        input.data * scale[None, :, None, None] + shift[None, :, None, None]
    )


def relu(input: Tensor) -> Tensor:
    return Tensor(np.maximum(input.data, np.float32(0.0)))


def concat_channels(*parts: Tensor) -> Tensor:
    """Concatenate along the channel axis, in argument order, with one copy."""
    a = parts[0]
    for b in parts[1:]:
        if (a.n, a.h, a.w) != (b.n, b.h, b.w):
            raise ShapeError(
                f"concat requires equal batch/spatial dims, got {a.shape} vs {b.shape}"
            )
    return Tensor(np.concatenate([p.data for p in parts], axis=1))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add requires identical shapes, got {a.shape} vs {b.shape}")
    return Tensor(a.data + b.data)


# ---------------------------------------------------------------------------
# resampling and readout

def _axis_coords(n_in: int, n_out: int):
    """Per output index d along one axis: the two source indices and the
    float32 weight of the second, for the source coordinate
    (d + 0.5) * (n_in / n_out) - 0.5 clamped to [0, n_in - 1]."""
    s = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    s = np.clip(s, 0.0, n_in - 1)
    lo = np.floor(s).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (s - lo).astype(np.float32)
    return lo, hi, frac


def _blend(a: np.ndarray, lo, hi, frac: np.ndarray, axis: int,
           out=None, right=None) -> np.ndarray:
    """a[lo] * (1 - frac) + a[hi] * frac along ``axis``, in float32; ``frac``
    broadcasts against the gathered arrays.  The gathers write into ``out``
    and ``right`` when given; ``mode="clip"`` (the indices are in range)
    lets ``np.take`` write there without a temporary."""
    out = np.take(a, lo, axis=axis, out=out, mode="clip")
    out *= np.float32(1.0) - frac
    right = np.take(a, hi, axis=axis, out=right, mode="clip")
    right *= frac
    out += right
    return out


def bilinear_resize(input: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling with half-pixel centers and edge clamping.

    Source coordinate for output index d is (d + 0.5) * (in/out) - 0.5,
    clamped to [0, in-1]; the four neighbors blend with float32 arithmetic,
    first along x for every input row, then along y.
    """
    if out_h < 1 or out_w < 1:
        raise ValueError("output dims must be >= 1")
    y0, y1, fy = _axis_coords(input.h, out_h)
    x0, x1, fx = _axis_coords(input.w, out_w)
    rows = _blend(input.data, x0, x1, fx, axis=3)
    return Tensor(_blend(rows, y0, y1, fy[:, None], axis=2))


def argmax_channels(input: Tensor) -> LabelMap:
    """Index of the maximal channel per pixel; ties go to the lowest index."""
    if input.n != 1:
        raise ShapeError(f"argmax_channels expects batch size 1, got {input.n}")
    return np.argmax(input.data[0], axis=0).astype(np.int32)


# resize_argmax works on bands of whole output rows holding about this many
# pixels, one after another.  Every pixel gets the same float32 operations
# whatever the band size, so the band size changes only speed and memory.
_READOUT_BAND_PIXELS = 32768

# A band whose unsettled output pixels are more than this share of it is
# blended whole instead of pixel by pixel.  On folded edanet's logits of the
# bench pool images (2-core Xeon VM, three runs), the per-pixel path, settle
# test included, cost 13-22 + 139-142 s ns per band pixel at share s for the
# x2 stage of x8 then x2, against 69-87 ns for the test and the whole band,
# and 2-5 + 182-222 s against 41-57 ns at x8 alone: the costs cross at
# s = 0.37-0.53 and 0.21-0.24, and the share sits between the two.
_READOUT_DENSE_SHARE = 0.25

# _first_argmax compares channel rows one by one from this many pixels on;
# below it numpy's argmax, with one call instead of three per channel, is
# faster.  Over 19 channels numpy took 58 us at 1024 pixels and 113 us at
# 2048, the running comparison 102 us and 61 us (2-core Xeon VM).
_RUNNING_ARGMAX_PIXELS = 2048


def _lead_bound(x: np.ndarray):
    """How far a source pixel's top channel must lead every other channel
    for the last stage's two blends to keep it on top; None when ``x``
    holds NaN, an infinity or a magnitude near overflow.

    Let M = max|x|, u = 2^-24 and e = 2^-150.  Rounding to nearest in
    float32 with gradual underflow gives fl(ab) = ab(1 + d) + f and
    fl(a + b) = (a + b)(1 + d), with |d| <= u and |f| <= e: a subnormal
    product rounds absolutely, and a sum of subnormals is exact.  An output
    value V = (S00 ax + S01 bx) ay + (S10 ax + S11 bx) by, where
    ax = fl(1 - fx) and ay = fl(1 - fy), takes six products and three
    sums.  Its corner weights w sum to W = (ax + bx)(ay + by), in
    [(1 - u)^2, (1 + u)^2], so |V - sum(w S)| <= 4.01 (u W M' + e) when
    M' bounds the source values.  Every stage is such a blend, so after s
    stages M' <= (1 + 7u)^s M + 5 s e, and no value overflows while
    M < 2^100.  If channel k leads every channel c by more than g at all
    four corners, V_k - V_c >= W g - 8.02 (u W M' + e), which is positive
    for g > 8.02 u M' + 8.03 e.  The lead is tested as S_c < fl(m - T), m
    the top value, and the subtraction is off by at most u (M' + T).  So
    T >= 9.1 u M + 8.1 e suffices for any chain under a million stages, and
    T = 2^-18 M + 2^-144 = 64 (u M + e) keeps a margin of seven."""
    hi, lo = float(x.max()), float(x.min())
    if not (hi < 2.0 ** 100 and -lo < 2.0 ** 100):  # also NaN
        return None
    return np.float32(max(hi, -lo) * 2.0 ** -18 + 2.0 ** -144)


def _first_argmax(v: np.ndarray, finite: bool) -> np.ndarray:
    """``np.argmax(v, axis=0)``.  On finite values a running comparison
    over the channel rows gives the same first maximum, several times
    faster per pixel than numpy's argmax along the leading axis."""
    if not finite or v.shape[1] < _RUNNING_ARGMAX_PIXELS:
        return np.argmax(v, axis=0)
    best, label = v[0].copy(), np.zeros(v.shape[1], np.min_scalar_type(len(v)))
    ahead = np.empty(v.shape[1], bool)
    for k in range(1, len(v)):
        np.greater(v[k], best, out=ahead)
        np.maximum(best, v[k], out=best)
        np.maximum(label, ahead.view(np.uint8) * label.dtype.type(k), out=label)
    return label


def _blend_rows(x, stage, buffer, rows_in, rows_out):
    """Blend the rows ``rows_in`` of a channels-first size, held in ``x``,
    into the rows ``rows_out`` of the next size, along x then along y.
    ``buffer`` holds three flat buffers: the x blend, the right-hand terms
    of both blends, and the y blend.  The y weights are spread along each
    row, so every multiply runs over contiguous rows."""
    (first, last), (a, b) = rows_in, rows_out
    y0, y1, fy, x0, x1, fx = stage
    c, w = len(x), len(x0)
    xo, right, yo = buffer

    def rows(buf, n):
        return buf[: c * n * w].reshape(c, n, w)

    x = _blend(x, x0, x1, fx, 2, rows(xo, last - first), rows(right, last - first))
    fy = np.repeat(fy[a:b], w).reshape(b - a, w)
    return _blend(x, y0[a:b] - first, y1[a:b] - first, fy, 1,
                  rows(yo, b - a), rows(right, b - a))


def resize_argmax(logits: Tensor, out_h: int, out_w: int, via=()) -> LabelMap:
    """The label map ``argmax_channels(bilinear_resize(logits, out_h,
    out_w))``, bit for bit, without building the resized logits.  ``via``
    lists the sizes ``(h, w)`` the logits are first resized to, in order:
    with ``via=[(h1, w1)]`` the labels are those of
    ``bilinear_resize(bilinear_resize(logits, h1, w1), out_h, out_w)``.

    For each band of output rows in turn, each size but the last blends,
    channels first, only the rows of the size before it that the band
    reads, along x then along y.  The last stage's source rows then settle
    what they can without blending.  A source pixel settles when one
    channel leads every other by more than ``_lead_bound``; a window (the
    up to 2x2 source pixels an output pixel blends) settles when its
    pixels settle on one channel, and every output pixel it feeds gets
    that label.  Each other output pixel is blended from its four source
    values, or, when such pixels are more than ``_READOUT_DENSE_SHARE`` of
    the band, the whole band is blended; then the channel argmax is taken.
    The k-th such band in a row makes the next 2^k - 1 bands skip the test
    and be blended whole.  When the logits hold NaN or an infinity nothing
    settles and every band is blended whole.  A row of an intermediate size
    that two bands read is blended once for each.
    """
    if logits.n != 1:
        raise ShapeError(f"resize_argmax expects batch size 1, got {logits.n}")
    sizes = ((logits.h, logits.w), *via, (out_h, out_w))
    stages = []
    for (h, w), (oh, ow) in zip(sizes, sizes[1:]):
        if oh < 1 or ow < 1:
            raise ValueError("output dims must be >= 1")
        stages.append((*_axis_coords(h, oh), *_axis_coords(w, ow)))
    # each band's row span at every size, the logits' first
    step = max(1, _READOUT_BAND_PIXELS // out_w)
    bands = []
    for r0 in range(0, out_h, step):
        spans = [(r0, min(r0 + step, out_h))]
        for y0, y1, *_ in reversed(stages):
            a, b = spans[0]
            spans.insert(0, (y0[a], y1[b - 1] + 1))
        bands.append(spans)
    # Every band blends into the same buffers: with arrays allocated band by
    # band, a long run's heap kept growing (about 0.6 MiB per 512x1024 frame,
    # glibc on x86-64).  The last stage's buffers are made when a band is
    # first blended whole: made up front and never used, they still raised
    # the peak RSS of a 512x1024 edanet run by about 4 MiB.
    c = logits.c
    most = [max(b - a for a, b in column) for column in zip(*bands)]
    buffers = [[np.empty(c * n * w, np.float32) for n in (n_in, max(n_in, n_out), n_out)]
               for n_in, n_out, (_, w) in zip(most, most[1:-1], sizes[1:])]
    whole = None
    # A source pixel settles when exactly one channel reaches its top value
    # less the lead bound.  Channel k adds 1 + (k << shift) to the pixel's
    # code: the low bits count those channels and, for a count of 1, the
    # high bits name the channel.
    y0, y1, fy, x0, x1, fx = stages[-1]
    src_w = sizes[-2][1]
    lead = _lead_bound(logits.data)
    shift = c.bit_length()
    kind = np.min_scalar_type(((c - 1) << shift) + c)
    codes = (np.arange(c, dtype=kind) << shift) + kind.type(1)
    unsettled = kind.type(c)  # the label of a pixel or window that does not settle
    top = np.empty((most[-2], src_w), np.float32)
    near = np.empty((c, most[-2], src_w), bool)
    code = np.empty((most[-2], src_w), kind)
    count = np.empty((most[-2], src_w), kind)
    differs = np.empty((most[-2], src_w), bool)
    labels = np.empty((out_h, out_w), np.int32)
    skip = wait = 0  # bands left to blend whole without the settle test
    for spans in bands:
        x = logits.data[0, :, spans[0][0] : spans[0][1]]
        for stage, buffer, rows_in, rows_out in zip(stages[:-1], buffers, spans, spans[1:]):
            x = _blend_rows(x, stage, buffer, rows_in, rows_out)
        (first, last), (a, b) = spans[-2], spans[-1]
        band = labels[a:b]
        if wait:
            wait -= 1
        elif lead is not None:
            n = last - first
            pixel = code[:n]
            np.max(x, axis=0, out=top[:n])
            top[:n] -= lead
            np.greater_equal(x, top[:n], out=near[:, :n])
            np.einsum("c,cij->ij", codes, near[:, :n].view(np.uint8), out=pixel)
            np.bitwise_and(pixel, kind.type((1 << shift) - 1), out=count[:n])
            np.right_shift(pixel, shift, out=pixel)
            np.not_equal(count[:n], 1, out=differs[:n])
            np.copyto(pixel, unsettled, where=differs[:n])
            # A window settles when its pixels agree.  Its second source index
            # is the first plus one, clamped at the edge, so each pixel's code
            # becomes its window's: along x, then along y.
            np.not_equal(pixel[:, :-1], pixel[:, 1:], out=differs[:n, :-1])
            np.copyto(pixel[:, :-1], unsettled, where=differs[:n, :-1])
            np.not_equal(pixel[:-1], pixel[1:], out=differs[: n - 1])
            np.copyto(pixel[:-1], unsettled, where=differs[: n - 1])
            band[...] = pixel[y0[a:b] - first][:, x0]
            blend = band == unsettled
            if np.count_nonzero(blend) <= _READOUT_DENSE_SHARE * band.size:
                # blend each unsettled pixel from its four source values, the
                # source rows as a (channels, pixels) plane
                wy, wx = np.nonzero(blend)
                skip, i, plane = 0, a + wy, x.reshape(c, -1)
                upper, lower = (_blend(plane, r + x0[wx], r + x1[wx], fx[wx], 1)
                                for r in ((y0[i] - first) * src_w, (y1[i] - first) * src_w))
                upper *= np.float32(1.0) - fy[i]
                lower *= fy[i]
                upper += lower
                band[wy, wx] = _first_argmax(upper, True)
                continue
            skip = wait = 2 * skip + 1
        whole = whole or [np.empty(c * n * out_w, np.float32)
                          for n in (most[-2], max(most[-2:]), most[-1])]
        x = _blend_rows(x, stages[-1], whole, spans[-2], spans[-1])
        band[...] = _first_argmax(x.reshape(c, -1), lead is not None).reshape(band.shape)
    return labels
