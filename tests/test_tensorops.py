"""Primitive operator tests against independent scalar/loop oracles."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import edanet

from edanet import tensorops
from edanet.tensorops import (
    BN_EPS,
    BnParams,
    Kernel,
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
    set_num_threads,
    transposed_conv2d,
    zero_insert_kernel,
)


def t(arr):
    return Tensor.from_array(np.asarray(arr, np.float32))


def rand_tensor(rng, n, c, h, w, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, (n, c, h, w)).astype(np.float32))


def rand_kernel(rng, out_c, in_c, kh, kw, bias=False):
    w = rng.uniform(-1, 1, (out_c, in_c, kh, kw)).astype(np.float32)
    b = rng.uniform(-1, 1, out_c).astype(np.float32) if bias else None
    return Kernel(w, b)


def conv2d_oracle(x, w, b, stride, dilation, pad_h, pad_w):
    """Naive nested-loop cross-correlation in float64."""
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    out_h = (h + 2 * pad_h - (dilation * (kh - 1) + 1)) // stride + 1
    out_w = (wd + 2 * pad_w - (dilation * (kw - 1) + 1)) // stride + 1
    out = np.zeros((n, oc, out_h, out_w))
    for ni in range(n):
        for o in range(oc):
            for oy in range(out_h):
                for ox in range(out_w):
                    acc = 0.0
                    for i in range(ic):
                        for ky in range(kh):
                            for kx in range(kw):
                                y = oy * stride - pad_h + ky * dilation
                                xx = ox * stride - pad_w + kx * dilation
                                if 0 <= y < h and 0 <= xx < wd:
                                    acc += float(w[o, i, ky, kx]) * float(x[ni, i, y, xx])
                    out[ni, o, oy, ox] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def conv2d_padded_reference(x, k, stride, dilation, pad_h, pad_w):
    """conv2d as a zero-padded copy of the input, a zero-filled output and
    ``out += w @ x`` per tap, in conv2d's row bands, tap order and
    256-channel chunks, each tap's slice copied to a contiguous matrix."""
    n, c, h, w = x.shape
    oc, _, kh, kw = k.weights.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    out_h = (h + 2 * pad_h - (dilation * (kh - 1) + 1)) // stride + 1
    out_w = (w + 2 * pad_w - (dilation * (kw - 1) + 1)) // stride + 1
    out = np.zeros((n, oc, out_h, out_w), np.float32)
    step = max(1, tensorops._BAND_PIXELS // out_w)
    for ni in range(n):
        for r0 in range(0, out_h, step):
            r1 = min(r0 + step, out_h)
            for i in range(kh):
                for j in range(kw):
                    y0, x0 = r0 * stride + i * dilation, j * dilation
                    sl = xp[ni, :, y0 : y0 + (r1 - r0 - 1) * stride + 1 : stride,
                            x0 : x0 + (out_w - 1) * stride + 1 : stride]
                    sl = np.ascontiguousarray(sl).reshape(c, -1)
                    dst = out[ni, :, r0:r1]
                    for c0 in range(0, c, 256):
                        w_chunk = k.weights[:, c0 : c0 + 256, i, j]
                        dst += (w_chunk @ sl[c0 : c0 + 256]).reshape(dst.shape)
    if k.bias is not None:
        out += k.bias[:, None, None]
    return out


def max_pool2d_padded_reference(x, k, stride, pad):
    """max_pool2d as a copy of the input padded with -inf, then
    ``np.maximum`` over the taps in row-major order."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    out_h = (xp.shape[2] - k) // stride + 1
    out_w = (xp.shape[3] - k) // stride + 1
    out = None
    for i in range(k):
        for j in range(k):
            sl = xp[:, :, i : i + (out_h - 1) * stride + 1 : stride,
                    j : j + (out_w - 1) * stride + 1 : stride]
            out = sl.copy() if out is None else np.maximum(out, sl)
    return out


def _padded_conv_cases():
    """(n, c, h, w, kh, kw, stride, dilation, pad_h, pad_w): pads from 0 up
    to the dilation, including dilation 16 on 8 rows, where whole taps lie
    outside the image; stride 2 at odd and even sizes; 300 channels; and
    outputs of several row bands with a partial last band."""
    cases = []
    for dilation, h, w in ((1, 11, 13), (2, 11, 13), (16, 8, 20)):
        for pad in range(dilation + 1):
            for kh, kw, pad_h, pad_w in ((3, 3, pad, pad), (3, 1, pad, 0), (1, 3, 0, pad)):
                if (h + 2 * pad_h > dilation * (kh - 1)
                        and w + 2 * pad_w > dilation * (kw - 1)):
                    cases.append((1, 4, h, w, kh, kw, 1, dilation, pad_h, pad_w))
    for h, w in ((9, 9), (10, 10), (9, 12), (12, 9)):
        for pad in (0, 1):
            cases.append((1, 5, h, w, 3, 3, 2, 1, pad, pad))
    cases.append((1, 300, 12, 16, 3, 3, 1, 1, 1, 1))
    cases.append((1, 300, 12, 16, 3, 3, 2, 2, 2, 2))
    cases.append((2, 3, 181, 130, 3, 3, 1, 2, 2, 2))
    cases.append((2, 3, 362, 130, 3, 3, 2, 1, 1, 1))
    cases.append((1, 6, 150, 100, 3, 1, 1, 1, 1, 0))
    return cases


class TestTensorType:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((3, 4, 5), np.float32))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            Tensor(np.zeros((1, 1, 2, 2), np.float64))

    def test_data_is_frozen(self):
        x = Tensor.zeros(1, 1, 2, 2)
        with pytest.raises(ValueError):
            x.data[0, 0, 0, 0] = 1.0

    def test_shape_properties(self):
        x = Tensor.zeros(2, 3, 4, 5)
        assert (x.n, x.c, x.h, x.w) == (2, 3, 4, 5)


def zeros(*shape):
    return np.zeros(shape, np.float32)


@pytest.mark.parametrize("call, error, match", [
    (lambda: Tensor(zeros(1, 0, 2, 2)), ShapeError, "dimensions must be >= 1"),
    (lambda: Kernel(zeros(1, 1, 3)), ShapeError, "must be 4-D"),
    (lambda: Kernel(zeros(1, 0, 3, 3)), ShapeError, "dimensions must be >= 1"),
    (lambda: Kernel(zeros(2, 1, 1, 1), zeros(3)), ShapeError, "bias length"),
    (lambda: conv2d(Tensor.zeros(1, 1, 4, 4), Kernel(zeros(1, 1, 1, 1)), stride=0),
     ValueError, "stride and dilation"),
    (lambda: conv2d(Tensor.zeros(1, 1, 4, 4), Kernel(zeros(1, 1, 1, 1)), dilation=0),
     ValueError, "stride and dilation"),
    (lambda: conv2d(Tensor.zeros(1, 1, 4, 4), Kernel(zeros(1, 1, 1, 1)), pad_h=-1),
     ValueError, "padding"),
    (lambda: transposed_conv2d(Tensor.zeros(1, 1, 2, 2), Kernel(zeros(1, 1, 2, 2)), 0),
     ValueError, "stride"),
    (lambda: zero_insert_kernel(Kernel(zeros(1, 1, 3, 3)), 0), ValueError, "dilation rate"),
    (lambda: max_pool2d(Tensor.zeros(1, 1, 4, 4), 0, 1), ValueError, "pooling configuration"),
    (lambda: max_pool2d(Tensor.zeros(1, 1, 2, 2), 3, 1), ShapeError, "non-positive"),
    (lambda: avg_pool2d(Tensor.zeros(1, 1, 4, 4), 0, 1), ValueError, "pooling configuration"),
    (lambda: avg_pool2d(Tensor.zeros(1, 1, 2, 2), 3, 1), ShapeError, "non-positive"),
    (lambda: channel_affine(Tensor.zeros(1, 2, 2, 2), zeros(2), zeros(3)),
     ShapeError, "affine vectors"),
    (lambda: bilinear_resize(Tensor.zeros(1, 1, 2, 2), 0, 2), ValueError, "output dims"),
], ids=["tensor_zero_dim", "kernel_3d", "kernel_zero_dim", "kernel_bias_length",
        "conv_stride_0", "conv_dilation_0", "conv_negative_pad", "deconv_stride_0",
        "zero_insert_rate_0", "max_pool_k_0", "max_pool_window_too_large", "avg_pool_k_0",
        "avg_pool_window_too_large", "affine_mismatched_vectors", "resize_to_height_0"])
def test_invalid_arguments_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(0)
        x = rand_tensor(rng, 1, 1, 5, 7)
        k = Kernel(np.ones((1, 1, 1, 1), np.float32))
        assert np.array_equal(conv2d(x, k).data, x.data)

    def test_constant_input_ones_kernel_padding(self):
        v = 2.5
        x = Tensor.full(1, 1, 5, 5, v)
        k = Kernel(np.ones((1, 1, 3, 3), np.float32))
        y = conv2d(x, k, pad_h=1, pad_w=1).data[0, 0]
        assert y[2, 2] == pytest.approx(9 * v)
        assert y[0, 0] == pytest.approx(4 * v)
        assert y[0, 2] == pytest.approx(6 * v)

    def test_dilated_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rand_tensor(rng, 1, 1, 4, 4)
        k = rand_kernel(rng, 1, 1, 3, 3)
        got = conv2d(x, k, dilation=2, pad_h=2, pad_w=2)
        want = conv2d_oracle(x.data, k.weights, None, 1, 2, 2, 2)
        assert np.abs(got.data - want).max() < 1e-5

    @pytest.mark.parametrize("stride,dilation,pad", [(1, 1, 0), (2, 1, 1), (1, 3, 3), (2, 2, 2)])
    def test_general_matches_loop_oracle(self, stride, dilation, pad):
        rng = np.random.default_rng(stride * 7 + dilation)
        x = rand_tensor(rng, 2, 3, 9, 10)
        k = rand_kernel(rng, 4, 3, 3, 3, bias=True)
        got = conv2d(x, k, stride=stride, dilation=dilation, pad_h=pad, pad_w=pad)
        want = conv2d_oracle(x.data, k.weights, k.bias, stride, dilation, pad, pad)
        assert got.data.shape == want.shape
        assert np.abs(got.data - want).max() < 1e-5

    @pytest.mark.parametrize("stride,dilation", [(1, 1), (2, 1), (1, 2)])
    def test_several_row_bands_match_float64_reference(self, stride, dilation):
        """An output of more than one row band (8192 pixels) equals a
        per-tap float64 product sum."""
        rng = np.random.default_rng(16 + stride + dilation)
        x = rand_tensor(rng, 2, 5, 181 * stride, 130)
        k = rand_kernel(rng, 4, 5, 3, 3, bias=True)
        pad = dilation
        got = conv2d(x, k, stride=stride, dilation=dilation, pad_h=pad, pad_w=pad).data
        xp = np.pad(x.data.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh, ow = got.shape[2:]
        want = np.zeros(got.shape) + k.bias[None, :, None, None]
        for i in range(3):
            for j in range(3):
                sl = xp[:, :, i * dilation :: stride, j * dilation :: stride][:, :, :oh, :ow]
                want += np.einsum("oi,nihw->nohw", k.weights[:, :, i, j].astype(np.float64), sl)
        assert oh * ow > 8192
        assert np.abs(got - want).max() < 1e-5

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("n,c,h,w,kh,kw,stride,dilation,pad_h,pad_w", _padded_conv_cases())
    def test_matches_padded_reference_bit_for_bit(self, n, c, h, w, kh, kw, stride,
                                                  dilation, pad_h, pad_w, bias):
        rng = np.random.default_rng(c * h + w + kh + stride + dilation + pad_h + pad_w)
        x = rand_tensor(rng, n, c, h, w)
        k = rand_kernel(rng, 5, c, kh, kw, bias=bias)
        want = conv2d_padded_reference(x.data, k, stride, dilation, pad_h, pad_w)
        got = conv2d(x, k, stride, dilation, pad_h, pad_w)
        assert got.shape == want.shape
        assert np.array_equal(got.data.view(np.uint32), want.view(np.uint32))
        fused = conv2d(x, k, stride, dilation, pad_h, pad_w, relu=True)
        assert np.array_equal(fused.data.view(np.uint32), relu(got).data.view(np.uint32))

    @pytest.mark.parametrize("kh", [1, 3])
    def test_taps_that_all_view_the_input_allocate_no_operand(self, kh):
        """At stride 1 without padding, every tap of a one-column kernel
        views the input.  A 256-channel band operand (8 MiB at 64x128) was
        allocated anyway and never written."""
        rng = np.random.default_rng(31 + kh)
        x = rand_tensor(rng, 1, 256, 63 + kh, 128)
        k = rand_kernel(rng, 8, 256, kh, 1, bias=True)
        want = conv2d_padded_reference(x.data, k, 1, 1, 0, 0)
        tracemalloc.start()
        try:
            got = conv2d(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the 256 KiB output and small buffers
        assert np.array_equal(got.data.view(np.uint32), want.view(np.uint32))

    def test_channel_mismatch_raises(self):
        x = Tensor.zeros(1, 3, 4, 4)
        k = Kernel(np.ones((1, 2, 1, 1), np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, k)

    def test_nonpositive_output_raises(self):
        x = Tensor.zeros(1, 1, 2, 2)
        k = Kernel(np.ones((1, 1, 5, 5), np.float32))
        with pytest.raises(ShapeError):
            conv2d(x, k)

    def test_shape_law_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            dilation = int(rng.integers(1, 3))
            pad_h, pad_w = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            eff_h = dilation * (kh - 1) + 1
            eff_w = dilation * (kw - 1) + 1
            out_h = (h + 2 * pad_h - eff_h) // stride + 1
            out_w = (w + 2 * pad_w - eff_w) // stride + 1
            x = rand_tensor(rng, 1, 2, h, w)
            k = rand_kernel(rng, 3, 2, kh, kw)
            if out_h < 1 or out_w < 1:
                with pytest.raises(ShapeError):
                    conv2d(x, k, stride, dilation, pad_h, pad_w)
                continue
            y = conv2d(x, k, stride, dilation, pad_h, pad_w)
            assert y.shape == (1, 3, out_h, out_w)

    def test_repeat_evaluation_bit_identical(self):
        rng = np.random.default_rng(4)
        x = rand_tensor(rng, 1, 8, 16, 16)
        k = rand_kernel(rng, 8, 8, 3, 3)
        a = conv2d(x, k, pad_h=1, pad_w=1)
        b = conv2d(x, k, pad_h=1, pad_w=1)
        assert np.array_equal(a.data.view(np.uint32), b.data.view(np.uint32))

    def test_thread_count_bit_identical(self):
        rng = np.random.default_rng(5)
        # (in_c, out_c, h, w, k): a 3x3 kernel over several row bands; more
        # than 256 input channels; and a 1x1 conv with a 40x33 output, a
        # shape where sgemm rounds the trailing columns of a call
        # differently if the call is cut at another column.
        for in_c, out_c, h, w, ks in ((6, 10, 128, 160, 3), (300, 8, 96, 100, 3),
                                      (40, 19, 40, 33, 1)):
            x = rand_tensor(rng, 1, in_c, h, w)
            k = rand_kernel(rng, out_c, in_c, ks, ks, bias=True)
            outs = []
            for threads in (1, 2, 4):
                set_num_threads(threads)
                outs.append(conv2d(x, k, pad_h=ks // 2, pad_w=ks // 2).data)
            for b in outs[1:]:
                assert np.array_equal(outs[0].view(np.uint32), b.view(np.uint32)), in_c


# Run in child processes, to cover the thread count OpenBLAS takes from
# OPENBLAS_NUM_THREADS when numpy loads it (set_num_threads changes it later;
# see TestConv2d.test_thread_count_bit_identical).
_BLAS_HASH_CHILD = """
import hashlib
import numpy as np
from edanet.tensorops import Kernel, Tensor, conv2d, transposed_conv2d
rng = np.random.default_rng(0)
h = hashlib.sha256()
for c in (3, 60, 260, 450, 520):
    x = Tensor(rng.uniform(-1, 1, (1, c, 24, 24)).astype(np.float32))
    k = Kernel(rng.uniform(-1, 1, (19, c, 3, 3)).astype(np.float32))
    for stride in (1, 2):
        h.update(conv2d(x, k, stride=stride, pad_h=1, pad_w=1).data.tobytes())
        h.update(transposed_conv2d(x, k, stride).data.tobytes())
    h.update(conv2d(x, k, dilation=4, pad_h=4, pad_w=4).data.tobytes())
print(h.hexdigest())
"""


def test_blas_thread_count_bit_identical():
    """conv2d and transposed_conv2d give the same bytes whatever thread
    count OpenBLAS runs with, including contractions over more than 256
    channels."""
    src = str(Path(edanet.__file__).resolve().parents[1])
    digests = []
    for blas_threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _BLAS_HASH_CHILD],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


needs_openblas = pytest.mark.skipif(
    tensorops.get_num_threads() is None,
    reason="numpy links a BLAS other than its bundled OpenBLAS")


class TestNumThreads:
    @needs_openblas
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_set_count_reads_back(self, n):
        set_num_threads(n)
        assert tensorops.get_num_threads() == n

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            set_num_threads(0)

    def test_conv2d_starts_no_thread(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, 1, 4, 128, 160)  # several row bands
        k = rand_kernel(rng, 4, 4, 3, 3)
        before = threading.active_count()
        set_num_threads(2)
        conv2d(x, k, pad_h=1, pad_w=1)
        assert threading.active_count() == before

    @needs_openblas
    def test_other_blas_is_left_alone(self, monkeypatch):
        """Without numpy's bundled OpenBLAS the count reads None, and
        setting it checks the value and changes nothing."""
        set_num_threads(1)
        openblas = tensorops._openblas()
        monkeypatch.setattr(tensorops, "_openblas", lambda: None)
        assert tensorops.get_num_threads() is None
        set_num_threads(2)
        assert openblas.scipy_openblas_get_num_threads64_() == 1
        with pytest.raises(ValueError, match=">= 1"):
            set_num_threads(0)


class _CountingBlas:
    """numpy's OpenBLAS with its sgemm calls counted."""

    def __init__(self, lib):
        self.lib, self.calls = lib, 0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def scipy_cblas_sgemm64_(self, *args):
        self.calls += 1
        self.lib.scipy_cblas_sgemm64_(*args)


@pytest.fixture
def sgemm(monkeypatch):
    """conv2d accumulating inside sgemm at every band size; the fixture
    value counts the sgemm calls conv2d makes itself."""
    counting = _CountingBlas(tensorops._openblas())
    monkeypatch.setattr(tensorops, "_openblas", lambda: counting)
    monkeypatch.setattr(tensorops, "_SGEMM_MIN_PIXELS", 1)
    return counting


def conv2d_with_matmul(monkeypatch, *args, **kwargs):
    """conv2d as numpy without its bundled OpenBLAS runs it: every later
    product computed by np.matmul and added."""
    with monkeypatch.context() as m:
        m.setattr(tensorops, "_openblas", lambda: None)
        return conv2d(*args, **kwargs)


def _sgemm_cases():
    """(c_in, kh, kw, stride, dilation): 3x3 kernels over 256 channels and
    more (chunk tails of 4 and 194), a 1x1 kernel over two chunks, and
    dilations up to 16, where whole taps read only padding."""
    cases = [(c, 3, 3, stride, 1) for c in (3, 40, 256, 260, 450) for stride in (1, 2)]
    cases += [(40, kh, kw, 1, d) for d in (2, 4, 8, 16) for kh, kw in ((3, 1), (1, 3))]
    cases += [(3, 3, 3, 1, 16), (260, 3, 3, 2, 2), (450, 1, 1, 1, 1)]
    return cases


@needs_openblas
class TestSgemmAccumulation:
    """Later products accumulated inside sgemm (beta = 1) give the bytes of
    np.matmul then an add."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("c_in,kh,kw,stride,dilation", _sgemm_cases())
    def test_same_bytes_as_matmul_then_add(self, sgemm, monkeypatch, threads,
                                           c_in, kh, kw, stride, dilation):
        rng = np.random.default_rng(c_in + 10 * kh + kw + stride + dilation)
        x = rand_tensor(rng, 1, c_in, 20, 22)
        k = rand_kernel(rng, 19, c_in, kh, kw, bias=True)
        pad_h, pad_w = dilation * (kh // 2), dilation * (kw // 2)
        set_num_threads(threads)
        got = conv2d(x, k, stride, dilation, pad_h, pad_w, relu=True)
        assert sgemm.calls > 0
        want = conv2d_with_matmul(monkeypatch, x, k, stride, dilation, pad_h, pad_w,
                                  relu=True)
        assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bands_of_the_default_size(self, monkeypatch, threads):
        """At its default threshold conv2d runs sgemm on 8192-pixel bands,
        with a partial last band."""
        counting = _CountingBlas(tensorops._openblas())
        monkeypatch.setattr(tensorops, "_openblas", lambda: counting)
        rng = np.random.default_rng(21)
        x = rand_tensor(rng, 2, 40, 100, 128)
        k = rand_kernel(rng, 40, 40, 3, 1, bias=True)
        set_num_threads(threads)
        got = conv2d(x, k, pad_h=1, relu=True)
        assert counting.calls == 2 * 2 * 2  # samples x bands x later taps
        want = conv2d_with_matmul(monkeypatch, x, k, pad_h=1, relu=True)
        assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))

    def test_small_bands_skip_sgemm(self, monkeypatch):
        counting = _CountingBlas(tensorops._openblas())
        monkeypatch.setattr(tensorops, "_openblas", lambda: counting)
        rng = np.random.default_rng(22)
        conv2d(rand_tensor(rng, 1, 40, 8, 16), rand_kernel(rng, 40, 40, 3, 1), pad_h=1)
        assert counting.calls == 0

    @pytest.mark.parametrize("c_in,kh,kw,pad", [(450, 1, 1, 0), (40, 3, 3, 1), (257, 3, 3, 1)])
    def test_one_pixel_input(self, sgemm, monkeypatch, c_in, kh, kw, pad):
        """A 1x1 input (aspp's image-pool branch) makes np.matmul take a
        matrix-vector route, which rounds unlike sgemm; conv2d keeps
        matmul-then-add there."""
        rng = np.random.default_rng(c_in + kh)
        x = rand_tensor(rng, 1, c_in, 1, 1)
        k = rand_kernel(rng, 40, c_in, kh, kw, bias=True)
        got = conv2d(x, k, pad_h=pad, pad_w=pad)
        assert sgemm.calls == 0
        want = conv2d_with_matmul(monkeypatch, x, k, pad_h=pad, pad_w=pad)
        assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))

    def test_one_output_channel(self, sgemm, monkeypatch):
        """One output channel is np.matmul's vector-matrix route too."""
        rng = np.random.default_rng(23)
        x = rand_tensor(rng, 1, 300, 9, 11)
        k = rand_kernel(rng, 1, 300, 3, 3)
        got = conv2d(x, k, pad_h=1, pad_w=1)
        assert sgemm.calls == 0
        want = conv2d_with_matmul(monkeypatch, x, k, pad_h=1, pad_w=1)
        assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))


class TestConvOut:
    """``conv2d(out=view)`` writes the output into a caller's buffer."""

    @pytest.mark.parametrize("accumulate", ["sgemm", "matmul"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_writes_only_its_slice(self, monkeypatch, accumulate, n):
        if accumulate == "sgemm":
            if tensorops.get_num_threads() is None:
                pytest.skip("numpy links a BLAS other than its bundled OpenBLAS")
            monkeypatch.setattr(tensorops, "_SGEMM_MIN_PIXELS", 1)
        else:
            monkeypatch.setattr(tensorops, "_openblas", lambda: None)
        rng = np.random.default_rng(30 + n)
        x = rand_tensor(rng, n, 300, 9, 10)
        k = rand_kernel(rng, 7, 300, 3, 1, bias=True)
        sentinel = np.float32(-123.5)
        buf = np.full((n, 20, 9, 10), sentinel, np.float32)
        view = buf[:, 5:12]
        got = conv2d(x, k, pad_h=1, relu=True, out=view)
        want = conv2d(x, k, pad_h=1, relu=True)
        assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))
        assert np.array_equal(view.view(np.uint32), want.data.view(np.uint32))
        assert np.all(buf[:, :5] == sentinel) and np.all(buf[:, 12:] == sentinel)
        assert view.flags.writeable  # the caller's view stays theirs

    def test_rejects_unfit_buffers(self):
        rng = np.random.default_rng(33)
        x = rand_tensor(rng, 1, 4, 6, 6)
        k = rand_kernel(rng, 3, 4, 3, 3)
        buf = np.zeros((1, 8, 6, 12), np.float32)
        frozen = np.zeros((1, 3, 6, 6), np.float32)
        frozen.flags.writeable = False
        for bad in (buf[:, :4, :, :6], buf[:, :3, :, ::2], buf[:, :3, :, :6],
                    buf.reshape(-1)[: 3 * 36].reshape(1, 3, 6, 6).astype(np.float64),
                    buf.reshape(1, 16, 6, 6)[:, 2::-1], frozen):
            with pytest.raises(ShapeError, match="out must be"):
                conv2d(x, k, pad_h=1, pad_w=1, out=bad)
        base = rng.uniform(-1, 1, (1, 6, 6, 6)).astype(np.float32)
        with pytest.raises(ValueError, match="overlap"):
            conv2d(Tensor(base[:, :4]), k, pad_h=1, pad_w=1, out=base[:, 3:])


class TestSeparability:
    def test_rank1_kernel_splits_into_1d_pair(self):
        """A rank-1 2-D kernel equals its 3x1 then 1x3 factorization."""
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = int(rng.choice([3, 5]))
            wx = rng.uniform(-1, 1, n).astype(np.float32)
            wy = rng.uniform(-1, 1, n).astype(np.float32)
            full = Kernel(np.outer(wx, wy)[None, None].astype(np.float32))
            x = rand_tensor(rng, 1, 1, 10, 12)
            pad = n // 2
            two_d = conv2d(x, full, pad_h=pad, pad_w=pad)
            col = conv2d(x, Kernel(wx.reshape(1, 1, n, 1)), pad_h=pad)
            composed = conv2d(col, Kernel(wy.reshape(1, 1, 1, n)), pad_w=pad)
            scale = max(float(np.abs(two_d.data).max()), 1e-12)
            err = float(np.abs(two_d.data - composed.data).max()) / scale
            assert err <= 1e-4, f"trial {trial}: rel err {err}"


class TestDilationEquivalence:
    @pytest.mark.parametrize("r", [2, 4, 8, 16])
    def test_zero_inserted_kernel_is_bit_identical(self, r, in_c=3):
        rng = np.random.default_rng(100 + r)
        k = rand_kernel(rng, 2, in_c, 3, 3)
        size = 2 * r + 6
        x = rand_tensor(rng, 1, in_c, size, size)
        dilated = conv2d(x, k, dilation=r, pad_h=r, pad_w=r)
        expanded = conv2d(x, zero_insert_kernel(k, r), pad_h=r, pad_w=r)
        assert expanded.shape == dilated.shape
        assert np.array_equal(
            dilated.data.view(np.uint32), expanded.data.view(np.uint32)
        )

    def test_zero_inserted_kernel_over_256_channels_is_bit_identical(self):
        self.test_zero_inserted_kernel_is_bit_identical(4, in_c=300)

    def test_effective_size(self):
        k = rand_kernel(np.random.default_rng(0), 1, 1, 3, 3)
        assert zero_insert_kernel(k, 2).kh == 5
        assert zero_insert_kernel(k, 16).kw == 33


class TestTransposedConv:
    def test_single_pixel_scatter(self):
        x = t([[[[3.0]]]])
        k = Kernel(np.ones((1, 1, 2, 2), np.float32))
        y = transposed_conv2d(x, k, stride=2)
        assert y.shape == (1, 1, 2, 2)
        assert np.all(y.data == 3.0)

    def test_doubles_spatial_size(self):
        x = Tensor.zeros(1, 450, 64, 128)
        k = Kernel(np.zeros((64, 450, 2, 2), np.float32))
        y = transposed_conv2d(x, k, stride=2)
        assert (y.h, y.w) == (128, 256)

    def test_matches_scatter_add_oracle(self):
        rng = np.random.default_rng(2)
        x = rand_tensor(rng, 1, 2, 3, 3)
        k = rand_kernel(rng, 3, 2, 3, 3, bias=True)
        stride = 2
        got = transposed_conv2d(x, k, stride)
        out_h = (x.h - 1) * stride + k.kh
        out_w = (x.w - 1) * stride + k.kw
        want = np.zeros((1, 3, out_h, out_w))
        for o in range(3):
            for i in range(2):
                for y in range(x.h):
                    for xx in range(x.w):
                        for ky in range(k.kh):
                            for kx in range(k.kw):
                                want[0, o, y * stride + ky, xx * stride + kx] += (
                                    float(k.weights[o, i, ky, kx]) * float(x.data[0, i, y, xx])
                                )
        want += k.bias[None, :, None, None]
        assert np.abs(got.data - want).max() < 1e-5

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            transposed_conv2d(Tensor.zeros(1, 3, 2, 2),
                              Kernel(np.ones((1, 2, 2, 2), np.float32)), 2)


class TestPooling:
    def test_max_window(self):
        y = max_pool2d(t([[[[1, 2], [3, 4]]]]), 2, 2)
        assert y.data.reshape(-1).tolist() == [4.0]

    def test_max_constant(self):
        x = Tensor.full(1, 2, 4, 4, 7.0)
        assert np.all(max_pool2d(x, 2, 2).data == 7.0)

    def test_max_halves_512x1024(self):
        x = Tensor.zeros(1, 1, 512, 1024)
        y = max_pool2d(x, 2, 2)
        assert (y.h, y.w) == (256, 512)

    def test_max_indivisible_raises(self):
        with pytest.raises(ShapeError):
            max_pool2d(Tensor.zeros(1, 1, 5, 4), 2, 2)

    def test_max_padded_3x3(self):
        # padding cells never win the max
        x = t([[[[1, 2], [3, 4]]]])
        y = max_pool2d(x, 3, 2, pad=1)
        assert y.data[0, 0, 0, 0] == 4.0

    @pytest.mark.parametrize("k,stride,pad", [(2, 2, 0), (2, 1, 0), (2, 2, 1), (2, 1, 1),
                                              (3, 2, 0), (3, 1, 0), (3, 2, 1), (3, 1, 1)])
    def test_max_matches_padded_reference_bit_for_bit(self, k, stride, pad):
        """Ties of +0 and -0, NaNs of several payloads and signs, and +-inf
        come out as from a -inf-padded copy maxed tap by tap."""
        rng = np.random.default_rng(40 + 4 * k + 2 * stride + pad)
        values = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan], np.float32)
        x = rng.choice(values, (2, 3, 10, 12))
        bits = x.view(np.uint32)
        nan = np.isnan(x)
        bits[nan] |= rng.integers(0, 1 << 22, nan.sum(), dtype=np.uint32)
        bits[nan] ^= rng.integers(0, 2, nan.sum(), dtype=np.uint32) << 31
        want = max_pool2d_padded_reference(x, k, stride, pad)
        got = max_pool2d(Tensor(x), k, stride, pad).data
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_avg_window(self):
        y = avg_pool2d(t([[[[1, 3], [5, 7]]]]), 2, 2)
        assert y.data.reshape(-1).tolist() == [4.0]

    def test_avg_indivisible_raises(self):
        with pytest.raises(ShapeError):
            avg_pool2d(Tensor.zeros(1, 1, 5, 4), 2, 2)

    def test_global_avg_constant(self):
        x = Tensor.full(1, 3, 6, 7, 1.25)
        y = global_avg_pool(x)
        assert y.shape == (1, 3, 1, 1)
        assert np.all(y.data == 1.25)

    def test_global_avg_matches_sum_oracle(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, 1, 2, 64, 128)
        got = global_avg_pool(x).data[0, :, 0, 0]
        want = [float(x.data[0, c].astype(np.float64).sum()) / (64 * 128) for c in range(2)]
        assert np.abs(got - np.array(want)).max() < 1e-5


class TestBatchNorm:
    def test_identity_params_exact(self):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, 1, 4, 5, 5)
        y = batch_norm(x, BnParams.identity(4))
        assert np.array_equal(y.data, x.data)

    def test_affine_case(self):
        p = BnParams(
            gamma=np.full(1, 2.0, np.float32),
            beta=np.full(1, 1.0, np.float32),
            running_mean=np.zeros(1, np.float32),
            running_var=np.full(1, np.float32(1.0) - np.float32(BN_EPS), np.float32),
        )
        y = batch_norm(Tensor.full(1, 1, 1, 1, 3.0), p)
        assert y.data.reshape(-1).tolist() == [7.0]

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(8)
        c = 5
        x = rand_tensor(rng, 1, c, 4, 4)
        p = BnParams(
            gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
            beta=rng.uniform(-1, 1, c).astype(np.float32),
            running_mean=rng.uniform(-1, 1, c).astype(np.float32),
            running_var=rng.uniform(0.2, 2.0, c).astype(np.float32),
            eps=1e-5,
        )
        got = batch_norm(x, p).data
        want = np.empty_like(got, np.float64)
        for ch in range(c):
            want[0, ch] = (
                float(p.gamma[ch])
                * (x.data[0, ch].astype(np.float64) - float(p.running_mean[ch]))
                / np.sqrt(float(p.running_var[ch]) + 1e-5)
                + float(p.beta[ch])
            )
        assert np.abs(got - want).max() < 1e-6

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            batch_norm(Tensor.zeros(1, 3, 2, 2), BnParams.identity(4))

    @pytest.mark.parametrize("field,value,error,match", [
        ("gamma", np.ones(3), TypeError, r"BnParams\.gamma must be float32, got float64"),
        ("beta", np.ones((3, 1), np.float32), ShapeError,
         r"BnParams\.beta must be 1-D, got \(3, 1\)"),
        ("running_mean", np.ones(2, np.float32), ShapeError,
         r"BnParams vectors disagree in length: \{2, 3\}"),
        ("eps", 0.0, ValueError, "eps must be positive, got 0.0"),
        ("running_var", np.array([1, -1, 1], np.float32), ValueError,
         "running_var entries must be >= 0"),
    ])
    def test_bad_params_rejected(self, field, value, error, match):
        params = {f: np.ones(3, np.float32)
                  for f in ("gamma", "beta", "running_mean", "running_var")}
        params[field] = value
        with pytest.raises(error, match=match):
            BnParams(**params)

    def test_float32_array_likes_become_arrays(self):
        p = BnParams(*([np.float32(1.0)] * 2 for _ in range(4)))
        assert all(type(v) is np.ndarray and v.dtype == np.float32
                   for v in (p.gamma, p.beta, p.running_mean, p.running_var))
        assert p.channels == 2


class TestElementwise:
    def test_relu(self):
        y = relu(t([[[[-1.0, 2.0]]]]))
        assert y.data.reshape(-1).tolist() == [0.0, 2.0]

    def test_concat_channel_counts(self):
        a = Tensor.zeros(1, 60, 4, 4)
        b = Tensor.zeros(1, 40, 4, 4)
        assert concat_channels(a, b).c == 100

    def test_concat_keeps_first_operand_prefix(self):
        rng = np.random.default_rng(10)
        a = rand_tensor(rng, 1, 3, 4, 4)
        b = rand_tensor(rng, 1, 2, 4, 4)
        y = concat_channels(a, b)
        assert np.array_equal(y.data[:, :3], a.data)
        assert np.array_equal(y.data[:, 3:], b.data)

    def test_concat_spatial_mismatch_raises(self):
        with pytest.raises(ShapeError):
            concat_channels(Tensor.zeros(1, 1, 4, 4), Tensor.zeros(1, 1, 5, 4))
        with pytest.raises(ShapeError):
            concat_channels(*[Tensor.zeros(1, 1, 4, 4)] * 2, Tensor.zeros(2, 1, 4, 4))

    def test_concat_of_several_equals_pairwise(self):
        rng = np.random.default_rng(11)
        parts = [rand_tensor(rng, 2, c, 3, 5) for c in (4, 1, 3, 2)]
        pairwise = parts[0]
        for p in parts[1:]:
            pairwise = concat_channels(pairwise, p)
        assert np.array_equal(concat_channels(*parts).data, pairwise.data)

    def test_add_identity(self):
        rng = np.random.default_rng(12)
        x = rand_tensor(rng, 1, 2, 3, 3)
        assert np.array_equal(add(x, Tensor.zeros(1, 2, 3, 3)).data, x.data)

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            add(Tensor.zeros(1, 1, 2, 2), Tensor.zeros(1, 2, 2, 2))


class TestBilinearResize:
    def test_constant_stays_constant(self):
        x = Tensor.full(1, 2, 3, 5, 1.5)
        y = bilinear_resize(x, 9, 10)
        assert np.all(y.data == 1.5)

    def test_same_size_is_identity(self):
        rng = np.random.default_rng(13)
        x = rand_tensor(rng, 1, 2, 4, 6)
        assert np.array_equal(bilinear_resize(x, 4, 6).data, x.data)

    def test_2x2_to_4x4_hand_evaluated(self):
        # source coordinates (d+0.5)/2 - 0.5 give fractions 0, .25, .75, 1
        x = t([[[[0.0, 1.0], [2.0, 3.0]]]])
        want = np.array([
            [0.0, 0.25, 0.75, 1.0],
            [0.5, 0.75, 1.25, 1.5],
            [1.5, 1.75, 2.25, 2.5],
            [2.0, 2.25, 2.75, 3.0],
        ])
        got = bilinear_resize(x, 4, 4).data[0, 0]
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("in_hw,out_hw", [
        ((7, 5), (13, 11)), ((9, 13), (4, 6)), ((1, 1), (3, 5)), ((17, 3), (8, 21)),
    ], ids=["up", "down", "from_1x1", "down_up"])
    def test_matches_four_corner_formula_bit_for_bit(self, in_hw, out_hw):
        """Interpolating along x per input row and then along y gives the
        bytes of the direct four-neighbor blend."""
        rng = np.random.default_rng(15)
        x = rand_tensor(rng, 1, 3, *in_hw)

        def coords(n_in, n_out):
            s = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
            s = np.clip(s, 0.0, n_in - 1)
            lo = np.floor(s).astype(np.int64)
            return lo, np.minimum(lo + 1, n_in - 1), (s - lo).astype(np.float32)

        (y0, y1, fy), (x0, x1, fx) = coords(in_hw[0], out_hw[0]), coords(in_hw[1], out_hw[1])
        d = x.data
        fx, fy = fx[None, None, None, :], fy[None, None, :, None]
        one = np.float32(1.0)
        top = d[:, :, y0[:, None], x0[None, :]] * (one - fx) + d[:, :, y0[:, None], x1[None, :]] * fx
        bot = d[:, :, y1[:, None], x0[None, :]] * (one - fx) + d[:, :, y1[:, None], x1[None, :]] * fx
        want = top * (one - fy) + bot * fy
        got = bilinear_resize(x, *out_hw).data
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def tied_logits_with_nan(seed, c, h, w):
    """Integer-valued logits, so the blends tie often; channels 1 and 2
    tie for the maximum over a whole row, and one logit is NaN."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-3, 4, (1, c, h, w)).astype(np.float32)
    data[0, 1:3, h // 2] = 9.0
    data[0, c - 1, h - 1, w // 2] = np.nan
    return Tensor(data)


class TestResizeArgmax:
    BAND_ROWS = tensorops._READOUT_BAND_PIXELS // 40

    @pytest.mark.parametrize("in_hw,out_hw", [
        ((7, 9), (13, 31)),
        ((9, 10), (4, 3)),
        ((1, 1), (5, 6)),
        ((5, 7), (2 * BAND_ROWS + BAND_ROWS // 3, 40)),
    ], ids=["up_odd", "down", "from_1x1", "partial_last_band"])
    def test_matches_resize_then_argmax_bit_for_bit(self, in_hw, out_hw):
        x = tied_logits_with_nan(21, 6, *in_hw)
        want = argmax_channels(bilinear_resize(x, *out_hw))
        got = resize_argmax(x, *out_hw)
        assert got.dtype == np.int32 and want.dtype == np.int32
        assert np.array_equal(got, want)

    def test_ties_and_nan_reach_the_label_map(self):
        """The planted row tie goes to the lower channel and the NaN
        logit's channel wins wherever the blend reads it."""
        x = tied_logits_with_nan(22, 6, 7, 9)
        got = resize_argmax(x, 13, 31)
        assert np.any(got == 1)
        assert np.any(got == 5)

    def test_one_row_bands_give_the_same_labels(self, monkeypatch):
        x = tied_logits_with_nan(23, 5, 7, 9)
        want = resize_argmax(x, 29, 17)
        monkeypatch.setattr(tensorops, "_READOUT_BAND_PIXELS", 1)
        assert np.array_equal(resize_argmax(x, 29, 17), want)

    def test_never_holds_the_upscaled_logits(self):
        """19x256x512 read out at 512x1024 allocates less than half of the
        38 MiB the upscaled float32 logits would take."""
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((1, 19, 256, 512)).astype(np.float32))
        tracemalloc.start()
        try:
            resize_argmax(x, 512, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 19 * 512 * 1024 * 4 / 2

    def test_rejects_batch_and_empty_output(self):
        with pytest.raises(ShapeError, match="batch"):
            resize_argmax(Tensor.zeros(2, 1, 2, 2), 4, 4)
        with pytest.raises(ValueError, match=">= 1"):
            resize_argmax(Tensor.zeros(1, 1, 2, 2), 0, 4)


def logits_with(seed, c, h, w, planted):
    """Integer-valued logits, so the blends tie often, with channels 1 and
    2 tied for the maximum over the middle row and ``planted`` written
    into three channels: at the top-left corner, at the middle of the
    left border and at the centre (one pixel of a 1x1 input)."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-3, 4, (1, c, h, w)).astype(np.float32)
    data[0, 1:3, h // 2] = 9.0
    data[0, 0, 0, 0] = data[0, 3, h // 2, 0] = data[0, c - 1, h // 2, w // 2] = planted
    return Tensor(data)


def nested_labels(x, sizes):
    """The labels of ``x`` resized to each size in turn, in full."""
    for size in sizes:
        x = bilinear_resize(x, *size)
    return argmax_channels(x)


class TestChainedReadout:
    """``resize_argmax`` through intermediate sizes gives the labels of the
    nested full-size resizes bit for bit; a +-inf logit makes NaN where a
    blend weighs it by zero or meets the opposite infinity."""

    BAND_ROWS = tensorops._READOUT_BAND_PIXELS // 40
    CHAINS = {
        "x8_then_x2": ((4, 5), [(32, 40), (64, 80)]),
        "x2_then_x3": ((5, 3), [(10, 6), (30, 18)]),
        "from_1x1": ((1, 1), [(8, 8), (16, 16)]),
        "one_row": ((1, 6), [(8, 48), (16, 96)]),
        "one_column": ((6, 1), [(48, 8), (96, 16)]),
        "down_then_up": ((9, 10), [(4, 3), (11, 7)]),
        "partial_last_band": ((3, 5), [(24, 40), (2 * BAND_ROWS + BAND_ROWS // 3, 40)]),
    }
    PLANTED = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}

    @pytest.mark.parametrize("chain", CHAINS)
    @pytest.mark.parametrize("planted", PLANTED)
    def test_matches_nested_resizes_bit_for_bit(self, chain, planted):
        in_hw, sizes = self.CHAINS[chain]
        x = logits_with(31, 6, *in_hw, self.PLANTED[planted])
        with np.errstate(invalid="ignore"):
            want = nested_labels(x, sizes)
            got = resize_argmax(x, *sizes[-1], sizes[:-1])
        assert got.dtype == np.int32 and got.shape == sizes[-1]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("chain", CHAINS)
    def test_one_pixel_bands_give_the_nested_labels(self, chain, monkeypatch):
        """One output row per band: every band starts and ends a read
        window, also on the rows that hold the infinities."""
        in_hw, sizes = self.CHAINS[chain]
        data = logits_with(32, 6, *in_hw, np.inf).data.copy()
        data[0, 4, -1, -1] = -np.inf
        x = Tensor(data)
        monkeypatch.setattr(tensorops, "_READOUT_BAND_PIXELS", 1)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(resize_argmax(x, *sizes[-1], sizes[:-1]),
                                  nested_labels(x, sizes))

    def test_infinities_reach_the_label_map(self):
        """The chains above meet what +-inf logits make: the nested
        resizes hold NaN and infinities, and each channel that holds +inf
        wins somewhere."""
        x = logits_with(33, 6, 4, 5, np.inf)
        with np.errstate(invalid="ignore"):
            resized = bilinear_resize(bilinear_resize(x, 32, 40), 64, 80).data
            labels = resize_argmax(x, 64, 80, [(32, 40)])
        assert np.isnan(resized).any() and np.isinf(resized).any()
        assert {0, 3, 5} <= set(np.unique(labels).tolist())

    def test_rejects_an_empty_intermediate_size(self):
        with pytest.raises(ValueError, match=">= 1"):
            resize_argmax(Tensor.zeros(1, 1, 2, 2), 4, 4, [(8, 0)])

    def test_never_holds_an_intermediate_size(self):
        """19x64x128 read out x8 then x2 allocates less than half of the
        38 MiB the x8 logits would take."""
        rng = np.random.default_rng(34)
        x = Tensor(rng.standard_normal((1, 19, 64, 128)).astype(np.float32))
        tracemalloc.start()
        try:
            resize_argmax(x, 1024, 2048, [(512, 1024)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 19 * 512 * 1024 * 4 / 2


def near_tie_logits(seed, h, w, ulps, scale=1.0):
    """Blocky logits whose channel 0 leads by a wide margin, except on
    the image border, on every third row and column (the edges of many
    windows) and at a few random pixels: there channel 1 sits 0 to
    ``ulps`` units in the last place above or below channel 0."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1.0, 0.0, (1, 4, h, w)).astype(np.float32)
    data[0, 0] = rng.uniform(1.0, 2.0, (h, w))
    tie = rng.random((h, w)) < 0.1
    tie[[0, -1]] = tie[:, [0, -1]] = True
    tie[::3] = tie[:, ::3] = True
    steps = rng.integers(-ulps, ulps + 1, (h, w)).astype(np.int32)
    data[0, 1][tie] = (data[0, 0].view(np.int32) + steps).view(np.float32)[tie]
    return Tensor(data * np.float32(scale))


def blended_pixels(monkeypatch):
    """Count the output pixels the readout blends: it takes the channel
    argmax of exactly those."""
    count = []
    first_argmax = tensorops._first_argmax

    def spy(v, finite):
        count.append(v.shape[1])
        return first_argmax(v, finite)

    monkeypatch.setattr(tensorops, "_first_argmax", spy)
    return count


class TestSettledReadout:
    """``resize_argmax`` labels a window without blending when one channel
    leads at all its source pixels by more than a bound on the rounding of
    the last two blends; the labels stay those of the nested resizes bit
    for bit, however close the lead."""

    CHAINS = {
        "x2": ((12, 15), [(24, 30)]),
        "x8_then_x2": ((6, 5), [(48, 40), (96, 80)]),
        "x3_odd": ((7, 9), [(20, 26)]),
        "one_row": ((1, 12), [(2, 24)]),
        "one_column": ((12, 1), [(24, 2)]),
        "down_then_up": ((13, 11), [(6, 5), (17, 14)]),
    }

    @pytest.mark.parametrize("ulps", [0, 1, 3])
    @pytest.mark.parametrize("chain", CHAINS)
    def test_near_ties_give_the_nested_labels(self, chain, ulps):
        in_hw, sizes = self.CHAINS[chain]
        x = near_tie_logits(41, *in_hw, ulps)
        got = resize_argmax(x, *sizes[-1], sizes[:-1])
        assert np.array_equal(got, nested_labels(x, sizes))

    @pytest.mark.parametrize("chain", CHAINS)
    def test_one_pixel_bands_give_the_nested_labels(self, chain, monkeypatch):
        in_hw, sizes = self.CHAINS[chain]
        x = near_tie_logits(42, *in_hw, 2)
        monkeypatch.setattr(tensorops, "_READOUT_BAND_PIXELS", 1)
        got = resize_argmax(x, *sizes[-1], sizes[:-1])
        assert np.array_equal(got, nested_labels(x, sizes))

    def test_a_lead_of_two_ulps_can_lose_the_blend(self):
        """Channel 1 leads by one or two ulps at every pixel, yet the x2
        blends round one output pixel to a tie, which channel 0 wins: a
        lead must beat a bound relative to the logits' magnitude."""
        base = np.array([[1.8574042, 1.0335855], [1.7296555, 1.1756556]], np.float32)
        ahead = (base.view(np.int32) + np.array([[1, 2], [1, 2]], np.int32)).view(np.float32)
        x = Tensor(np.stack([base, ahead])[None])
        want = nested_labels(x, [(4, 4)])
        assert want[2, 0] == 0 and np.count_nonzero(want == 1) == 15
        assert np.array_equal(resize_argmax(x, 4, 4), want)

    def test_a_subnormal_lead_can_lose_the_blend(self):
        """Subnormal products round to whole multiples of 2^-149, so a lead
        of one such step, however large against the logits' magnitude, can
        end in a tie: the bound needs an absolute term."""
        x = Tensor(np.array([[[[0, 2]], [[1, 3]]]], np.float32) * np.float32(2.0**-149))
        want = nested_labels(x, [(2, 4)])
        assert np.array_equal(want, [[1, 1, 0, 1], [1, 1, 0, 1]])
        assert np.array_equal(resize_argmax(x, 2, 4), want)

    @pytest.mark.parametrize("scale", [0.875, 1.125])
    def test_leads_just_below_and_just_above_the_bound(self, scale, monkeypatch):
        """Channel 1 leads channel 0 by 7/8 or 9/8 of the bound everywhere:
        below it every pixel is blended, above it none is."""
        rng = np.random.default_rng(43)
        data = np.full((1, 3, 10, 12), -1.0, np.float32)
        data[0, :2] = rng.uniform(1.0, 2.0, (10, 12))
        data[0, 1] += np.float32(scale) * tensorops._lead_bound(data)
        x = Tensor(data)
        count = blended_pixels(monkeypatch)
        got = resize_argmax(x, 20, 24)
        assert np.array_equal(got, nested_labels(x, [(20, 24)]))
        assert np.all(got == 1)
        assert sum(count) == (20 * 24 if scale < 1 else 0)

    @pytest.mark.parametrize("scale", [2.0**-120, 2.0**-140, 2.0**-149])
    def test_tiny_and_subnormal_logits(self, scale):
        x = near_tie_logits(44, 9, 11, 3, scale)
        assert x.data[0, 0].max() * 2 ** 20 < 1.0
        for sizes in ([(18, 22)], [(72, 88), (144, 176)]):
            got = resize_argmax(x, *sizes[-1], sizes[:-1])
            assert np.array_equal(got, nested_labels(x, sizes))

    @pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_a_non_finite_logit_blends_every_pixel(self, planted, monkeypatch):
        """One NaN or infinity anywhere and nothing settles: every pixel is
        blended, so NaN reaches the labels as in the nested resizes."""
        data = near_tie_logits(45, 6, 5, 1).data.copy()
        data[0, 2, 3, 2] = planted
        x = Tensor(data)
        count = blended_pixels(monkeypatch)
        with np.errstate(invalid="ignore"):
            got = resize_argmax(x, 96, 80, [(48, 40)])
            want = nested_labels(x, [(48, 40), (96, 80)])
        assert np.array_equal(got, want)
        assert sum(count) == 96 * 80

    def test_well_separated_logits_settle_most_windows(self, monkeypatch):
        """Logits whose top channel leads by at least 1 in 8x8 blocks, read
        out x8 then x2: exactly the output pixels whose four corners at the
        x8 level do not settle on one channel are blended, under a tenth of
        the pixels, with the default bands and with 8-row bands, whose
        edges the window test meets more often."""
        rng = np.random.default_rng(46)
        blocks = rng.integers(0, 19, (4, 8))
        data = rng.uniform(0.0, 1.0, (1, 19, 32, 64)).astype(np.float32)
        np.put_along_axis(data[0], np.kron(blocks, np.ones((8, 8), int))[None], 3.0, axis=0)
        x = Tensor(data)
        # a pixel settles when exactly one channel is within the bound of its top
        mid = bilinear_resize(x, 256, 512).data[0]
        near = mid >= mid.max(axis=0) - tensorops._lead_bound(x.data)
        label = np.where(near.sum(axis=0) == 1, near.argmax(axis=0), -1)
        y0, y1, _ = tensorops._axis_coords(256, 512)
        x0, x1, _ = tensorops._axis_coords(512, 1024)
        corners = [label[ys][:, xs] for ys in (y0, y1) for xs in (x0, x1)]
        settled = np.all([c == corners[0] for c in corners], axis=0) & (corners[0] >= 0)
        want = 512 * 1024 - np.count_nonzero(settled)
        assert 0 < want < 512 * 1024 / 10
        nested = nested_labels(x, [(256, 512), (512, 1024)])
        for band_pixels in (tensorops._READOUT_BAND_PIXELS, 8 * 1024):
            monkeypatch.setattr(tensorops, "_READOUT_BAND_PIXELS", band_pixels)
            count = blended_pixels(monkeypatch)
            assert np.array_equal(resize_argmax(x, 512, 1024, [(256, 512)]), nested)
            assert sum(count) == want


class TestArgmax:
    def test_dominant_channel(self):
        x = Tensor(np.stack([np.full((3, 3), 0.1, np.float32),
                             np.full((3, 3), 0.9, np.float32)])[None])
        assert np.all(argmax_channels(x) == 1)

    def test_tie_breaks_low(self):
        x = Tensor.full(1, 4, 2, 2, 0.5)
        assert np.all(argmax_channels(x) == 0)

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(14)
        x = rand_tensor(rng, 1, 3, 4, 4)
        got = argmax_channels(x)
        for y in range(4):
            for xx in range(4):
                best, best_v = 0, x.data[0, 0, y, xx]
                for c in range(1, 3):
                    if x.data[0, c, y, xx] > best_v:
                        best, best_v = c, x.data[0, c, y, xx]
                assert got[y, xx] == best

    def test_batch_must_be_one(self):
        with pytest.raises(ShapeError):
            argmax_channels(Tensor.zeros(2, 1, 2, 2))
