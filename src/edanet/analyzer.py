"""Static analysis passes over a NetworkSpec: output shapes, parameter
counts, multiply-adds, receptive fields, and report rendering.

Conventions:

* one multiply-accumulate is one operation; biases, pools, ReLU, and
  resampling contribute zero multiply-adds;
* BN costs ``channels * h * w`` multiply-adds and carries two parameters
  per channel (the running statistics are buffers, not parameters);
* the receptive field follows rf' = rf + (effective_kernel - 1) * jump,
  jump' = jump * stride, with branch merges taking the elementwise max.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .blocks import (
    AffineStep,
    AvgPoolStep,
    BnStep,
    Chain,
    ConvStep,
    DeconvStep,
    ImagePool,
    MaxPoolStep,
    Parallel,
    ReluStep,
    Residual,
    UpsampleStep,
    iter_prims,
    param_shapes,
)
from .netdef import NetworkSpec, expand_layer
from .tensorops import ShapeError

__all__ = [
    "LayerReport",
    "AnalysisReport",
    "analyze",
    "trace_shapes",
    "count_params",
    "count_multiply_adds",
    "effective_kernel",
    "receptive_field",
    "render_report",
    "format_quantity",
]


def effective_kernel(n: int, r: int) -> int:
    """Effective size of an n-tap kernel at dilation rate r: r*(n-1)+1."""
    if n < 1 or r < 1:
        raise ValueError("kernel size and dilation rate must be >= 1")
    return r * (n - 1) + 1


@dataclass(frozen=True)
class LayerReport:
    name: str
    out_shape: tuple  # (channels, h, w)
    params: int
    multiply_adds: int
    rf_h: float
    rf_w: float
    effective_kernel: int | None = None  # largest dilated-kernel extent, if any


@dataclass(frozen=True)
class AnalysisReport:
    network: str
    input_shape: tuple
    layers: tuple
    total_params: int
    total_multiply_adds: int


@dataclass
class _Acc:
    params: int = 0
    macs: int = 0
    eff_kernel: int | None = None

    def note_dilated(self, eff: int):
        if self.eff_kernel is None or eff > self.eff_kernel:
            self.eff_kernel = eff


def _conv_out(size: int, k_eff: int, stride: int, pad: int, what: str) -> int:
    out = (size + 2 * pad - k_eff) // stride + 1
    if out < 1:
        raise ShapeError(f"{what}: non-positive output extent")
    return out


def _check_stride(h: int, w: int, stride: int, what: str) -> None:
    """A strided step's input must be divisible by its stride, so each
    stage shrinks by an exact factor."""
    if h % stride or w % stride:
        raise ShapeError(f"{what}: spatial dims {h}x{w} not divisible by stride {stride}")


def _learned_params(prim) -> int:
    """Learned parameters of one step; BN running statistics are buffers."""
    return sum(
        math.prod(shape) for suffix, shape in param_shapes(prim)
        if suffix not in ("mean", "var")
    )


def _grow(rf: tuple, k_h: int, k_w: int, stride_h, stride_w) -> tuple:
    """``rf`` = (rf_h, rf_w, jump_h, jump_w) after a k_h x k_w window."""
    rf_h, rf_w, jump_h, jump_w = rf
    return (rf_h + (k_h - 1) * jump_h, rf_w + (k_w - 1) * jump_w,
            jump_h * stride_h, jump_w * stride_w)


def _walk(node, shape, rf: tuple, acc: _Acc):
    """Advance (shape, rf) through a node, accumulating params/macs; ``rf``
    is (rf_h, rf_w, jump_h, jump_w), and a merge takes its elementwise max."""
    c, h, w = shape
    if isinstance(node, Chain):
        for item in node.steps:
            shape, rf = _walk(item, shape, rf, acc)
        return shape, rf
    if isinstance(node, Parallel):
        shapes, rfs = zip(*(_walk(branch, shape, rf, acc) for branch in node.branches))
        _, out_h, out_w = shapes[0]
        return (sum(s[0] for s in shapes), out_h, out_w), tuple(map(max, zip(*rfs)))
    if isinstance(node, Residual):
        _, body = _walk(node.body, shape, rf, acc)
        return shape, tuple(map(max, body, rf))
    if isinstance(node, ImagePool):
        (c, ph, pw), rf = _walk(node.body, (c, 1, 1), _grow(rf, h, w, h, w), acc)
        return (c, h, w), _grow(rf, 2, 2, Fraction(ph, h), Fraction(pw, w))

    acc.params += _learned_params(node)
    if isinstance(node, (ConvStep, DeconvStep)) and c != node.in_ch:
        raise ShapeError(f"{node.name}: expects {node.in_ch} input channels, got {c}")
    if isinstance(node, ConvStep):
        _check_stride(h, w, node.stride, node.name)
        ekh = effective_kernel(node.kh, node.dilation)
        ekw = effective_kernel(node.kw, node.dilation)
        oh = _conv_out(h, ekh, node.stride, node.pad_h, node.name)
        ow = _conv_out(w, ekw, node.stride, node.pad_w, node.name)
        acc.macs += node.kh * node.kw * node.in_ch * node.out_ch * oh * ow
        if node.dilation > 1:
            acc.note_dilated(max(ekh, ekw))
        return (node.out_ch, oh, ow), _grow(rf, ekh, ekw, node.stride, node.stride)
    if isinstance(node, DeconvStep):
        oh = (h - 1) * node.stride + node.k
        ow = (w - 1) * node.stride + node.k
        acc.macs += node.k * node.k * node.in_ch * node.out_ch * h * w
        jump = Fraction(1, node.stride)
        return (node.out_ch, oh, ow), _grow(rf, node.k, node.k, jump, jump)
    if isinstance(node, (BnStep, AffineStep)):
        acc.macs += node.channels * h * w
        return shape, rf
    if isinstance(node, ReluStep):
        return shape, rf
    if isinstance(node, MaxPoolStep):
        _check_stride(h, w, node.stride, "maxpool")
        oh = _conv_out(h, node.k, node.stride, node.pad, "maxpool")
        ow = _conv_out(w, node.k, node.stride, node.pad, "maxpool")
        return (c, oh, ow), _grow(rf, node.k, node.k, node.stride, node.stride)
    if isinstance(node, AvgPoolStep):
        _check_stride(h, w, node.stride, "avgpool")
        oh = _conv_out(h, node.k, node.stride, 0, "avgpool")
        ow = _conv_out(w, node.k, node.stride, 0, "avgpool")
        return (c, oh, ow), _grow(rf, node.k, node.k, node.stride, node.stride)
    if isinstance(node, UpsampleStep):
        jump = Fraction(1, node.factor)
        return (c, h * node.factor, w * node.factor), _grow(rf, 2, 2, jump, jump)
    raise TypeError(f"unknown node {node!r}")


def analyze(net: NetworkSpec, input_shape: tuple = (3, 512, 1024)) -> AnalysisReport:
    """Full static pass: per-layer shape, params, multiply-adds, and
    receptive field for the given input (channels, h, w).  ``forward``
    runs this pass before any layer, so every shape error surfaces here."""
    if min(input_shape) < 1:
        raise ShapeError(f"input dimensions must be >= 1, got {tuple(input_shape)}")
    return _analyze(net, tuple(input_shape))


@functools.lru_cache(maxsize=256)
def _analyze(net: NetworkSpec, input_shape: tuple) -> AnalysisReport:
    """``analyze``, computed once per (network, input shape); both hash by
    value and the report is immutable."""
    shape = input_shape
    rf = (Fraction(1),) * 4
    reports = []
    total_params = 0
    total_macs = 0
    for layer in net.layers:
        acc = _Acc()
        try:
            shape, rf = _walk(expand_layer(layer), shape, rf, acc)
        except ShapeError as exc:
            raise ShapeError(f"layer {layer.name!r}: {exc}") from None
        total_params += acc.params
        total_macs += acc.macs
        reports.append(
            LayerReport(
                name=layer.name,
                out_shape=shape,
                params=acc.params,
                multiply_adds=acc.macs,
                rf_h=_num(rf[0]),
                rf_w=_num(rf[1]),
                effective_kernel=acc.eff_kernel,
            )
        )
    return AnalysisReport(
        network=net.name,
        input_shape=input_shape,
        layers=tuple(reports),
        total_params=total_params,
        total_multiply_adds=total_macs,
    )


def _num(x: Fraction):
    return int(x) if x.denominator == 1 else float(x)


def trace_shapes(net: NetworkSpec, input_shape: tuple = (3, 512, 1024)) -> list:
    """Per-layer output shapes [(name, (c, h, w)), ...]."""
    report = analyze(net, input_shape)
    return [(l.name, l.out_shape) for l in report.layers]


def count_params(net: NetworkSpec) -> int:
    """Total learned parameters (BN running statistics excluded)."""
    return sum(
        _learned_params(prim)
        for layer in net.layers
        for prim in iter_prims(expand_layer(layer))
    )


def count_multiply_adds(net: NetworkSpec, input_shape: tuple = (3, 512, 1024)) -> int:
    """Total multiply-accumulate count for one forward pass."""
    return analyze(net, input_shape).total_multiply_adds


def receptive_field(
    net: NetworkSpec, upto_layer: int, input_shape: tuple = (3, 512, 1024)
) -> tuple:
    """Receptive field (rf_h, rf_w) after layers[0..upto_layer] inclusive."""
    report = analyze(net, input_shape)
    if not 0 <= upto_layer < len(report.layers):
        raise IndexError(
            f"layer index {upto_layer} out of range for {len(report.layers)} layers"
        )
    layer = report.layers[upto_layer]
    return (layer.rf_h, layer.rf_w)


# ---------------------------------------------------------------------------
# rendering

def format_quantity(n: int) -> str:
    """Human form using 10^6 / 10^9 with two decimals (e.g. 0.69M, 8.88B)."""
    if n >= 10**9:
        return f"{n / 10**9:.2f}B"
    if n >= 10**4:
        return f"{n / 10**6:.2f}M"
    return str(n)


def _shape_str(shape) -> str:
    return "x".join(str(d) for d in shape)


def render_report(report: AnalysisReport, format: str = "table") -> str:
    """Deterministic text rendering; CSV rows are the table's first six
    columns, layer,out_shape,params,macs,rf_h,rf_w, with a totals row last."""
    if format not in ("table", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    layers = report.layers
    rows = [["layer", "out_shape", "params", "macs", "rf_h", "rf_w", "eff_k"]]
    rows += [[l.name, _shape_str(l.out_shape), str(l.params), str(l.multiply_adds),
              str(l.rf_h), str(l.rf_w), str(l.effective_kernel or "-")] for l in layers]
    rows.append([
        "total", _shape_str(layers[-1].out_shape) if layers else "-",
        str(report.total_params), str(report.total_multiply_adds),
        str(layers[-1].rf_h) if layers else "0", str(layers[-1].rf_w) if layers else "0", "-",
    ])
    if format == "csv":
        return "".join(",".join(row[:6]) + "\n" for row in rows)
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = [f"network {report.network}  input {_shape_str(report.input_shape)}"]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]
    lines.append(
        f"params {format_quantity(report.total_params)}  "
        f"multiply-adds {format_quantity(report.total_multiply_adds)}"
    )
    return "\n".join(lines) + "\n"
