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
    DropoutStep,
    ImagePool,
    MaxPoolStep,
    Parallel,
    ReluStep,
    Residual,
    UpsampleStep,
    iter_prims,
    param_shapes,
)
from .netdef import NetworkSpec, expand_layer, spatial_divisor
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
class _RfState:
    rf_h: Fraction
    rf_w: Fraction
    jump_h: Fraction
    jump_w: Fraction

    def copy(self) -> "_RfState":
        return _RfState(self.rf_h, self.rf_w, self.jump_h, self.jump_w)

    def grow(self, k_h: int, k_w: int, stride_h: Fraction, stride_w: Fraction):
        self.rf_h += (k_h - 1) * self.jump_h
        self.rf_w += (k_w - 1) * self.jump_w
        self.jump_h *= stride_h
        self.jump_w *= stride_w


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


def _learned_params(prim) -> int:
    """Learned parameters of one step; BN running statistics are buffers."""
    return sum(
        math.prod(shape) for suffix, shape in param_shapes(prim)
        if suffix not in ("mean", "var")
    )


def _walk(node, shape, rf: _RfState, acc: _Acc):
    """Advance (shape, rf) through a node, accumulating params/macs."""
    c, h, w = shape
    if isinstance(node, Chain):
        for item in node.steps:
            shape, rf = _walk(item, shape, rf, acc)
        return shape, rf
    if isinstance(node, Parallel):
        results = []
        for branch in node.branches:
            results.append(_walk(branch, shape, rf.copy(), acc))
        hw = {(s[1], s[2]) for s, _ in results}
        if len(hw) != 1:
            raise ShapeError(f"parallel branches disagree on spatial dims: {hw}")
        jumps = {(r.jump_h, r.jump_w) for _, r in results}
        if len(jumps) != 1:
            raise ShapeError("parallel branches disagree on cumulative stride")
        out_c = sum(s[0] for s, _ in results)
        merged = results[0][1].copy()
        merged.rf_h = max(r.rf_h for _, r in results)
        merged.rf_w = max(r.rf_w for _, r in results)
        out_h, out_w = next(iter(hw))
        return (out_c, out_h, out_w), merged
    if isinstance(node, Residual):
        out, body_rf = _walk(node.body, shape, rf.copy(), acc)
        if out != shape:
            raise ShapeError(
                f"residual body changed shape {shape} -> {out}"
            )
        merged = body_rf
        merged.rf_h = max(merged.rf_h, rf.rf_h)
        merged.rf_w = max(merged.rf_w, rf.rf_w)
        return shape, merged
    if isinstance(node, ImagePool):
        rf.grow(h, w, Fraction(h), Fraction(w))
        (c, ph, pw), rf = _walk(node.body, (c, 1, 1), rf, acc)
        rf.grow(2, 2, Fraction(ph, h), Fraction(pw, w))
        return (c, h, w), rf

    acc.params += _learned_params(node)
    if isinstance(node, ConvStep):
        if c != node.in_ch:
            raise ShapeError(
                f"{node.name}: expects {node.in_ch} input channels, got {c}"
            )
        ekh = effective_kernel(node.kh, node.dilation)
        ekw = effective_kernel(node.kw, node.dilation)
        oh = _conv_out(h, ekh, node.stride, node.pad_h, node.name)
        ow = _conv_out(w, ekw, node.stride, node.pad_w, node.name)
        acc.macs += node.kh * node.kw * node.in_ch * node.out_ch * oh * ow
        if node.dilation > 1:
            acc.note_dilated(max(ekh, ekw))
        rf.grow(ekh, ekw, Fraction(node.stride), Fraction(node.stride))
        return (node.out_ch, oh, ow), rf
    if isinstance(node, DeconvStep):
        if c != node.in_ch:
            raise ShapeError(
                f"{node.name}: expects {node.in_ch} input channels, got {c}"
            )
        oh = (h - 1) * node.stride + node.k
        ow = (w - 1) * node.stride + node.k
        acc.macs += node.k * node.k * node.in_ch * node.out_ch * h * w
        rf.grow(node.k, node.k, Fraction(1, node.stride), Fraction(1, node.stride))
        return (node.out_ch, oh, ow), rf
    if isinstance(node, (BnStep, AffineStep)):
        if c != node.channels:
            raise ShapeError(
                f"{node.name}: expects {node.channels} channels, got {c}"
            )
        acc.macs += node.channels * h * w
        return shape, rf
    if isinstance(node, (ReluStep, DropoutStep)):
        return shape, rf
    if isinstance(node, MaxPoolStep):
        oh = _conv_out(h, node.k, node.stride, node.pad, "maxpool")
        ow = _conv_out(w, node.k, node.stride, node.pad, "maxpool")
        if node.k == node.stride and node.pad == 0 and (h % node.stride or w % node.stride):
            raise ShapeError(
                f"maxpool: spatial dims {h}x{w} not divisible by stride {node.stride}"
            )
        rf.grow(node.k, node.k, Fraction(node.stride), Fraction(node.stride))
        return (c, oh, ow), rf
    if isinstance(node, AvgPoolStep):
        if node.k == node.stride and (h % node.stride or w % node.stride):
            raise ShapeError(
                f"avgpool: spatial dims {h}x{w} not divisible by stride {node.stride}"
            )
        oh = _conv_out(h, node.k, node.stride, 0, "avgpool")
        ow = _conv_out(w, node.k, node.stride, 0, "avgpool")
        rf.grow(node.k, node.k, Fraction(node.stride), Fraction(node.stride))
        return (c, oh, ow), rf
    if isinstance(node, UpsampleStep):
        rf.grow(2, 2, Fraction(1, node.factor), Fraction(1, node.factor))
        return (c, h * node.factor, w * node.factor), rf
    raise TypeError(f"unknown node {node!r}")


def analyze(net: NetworkSpec, input_shape: tuple = (3, 512, 1024)) -> AnalysisReport:
    """Full static pass: per-layer shape, params, multiply-adds, and
    receptive field for the given input (channels, h, w)."""
    c, h, w = input_shape
    div = spatial_divisor(net)
    if h % div or w % div:
        raise ShapeError(
            f"input {h}x{w} not divisible by the network's downsampling "
            f"factor {div}"
        )
    shape = (c, h, w)
    rf = _RfState(Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    reports = []
    total_params = 0
    total_macs = 0
    for layer in net.layers:
        acc = _Acc()
        shape, rf = _walk(expand_layer(layer), shape, rf, acc)
        total_params += acc.params
        total_macs += acc.macs
        reports.append(
            LayerReport(
                name=layer.name,
                out_shape=shape,
                params=acc.params,
                multiply_adds=acc.macs,
                rf_h=_num(rf.rf_h),
                rf_w=_num(rf.rf_w),
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


def _rf_str(v) -> str:
    return str(v)


def render_report(report: AnalysisReport, format: str = "table") -> str:
    """Deterministic text rendering; CSV rows are
    layer,out_shape,params,macs,rf_h,rf_w with a totals row last."""
    layers = report.layers
    final_shape = _shape_str(layers[-1].out_shape) if layers else "-"
    final_rf_h = _rf_str(layers[-1].rf_h) if layers else "0"
    final_rf_w = _rf_str(layers[-1].rf_w) if layers else "0"
    if format == "csv":
        rows = ["layer,out_shape,params,macs,rf_h,rf_w"]
        for l in layers:
            rows.append(
                f"{l.name},{_shape_str(l.out_shape)},{l.params},"
                f"{l.multiply_adds},{_rf_str(l.rf_h)},{_rf_str(l.rf_w)}"
            )
        rows.append(
            f"total,{final_shape},{report.total_params},"
            f"{report.total_multiply_adds},{final_rf_h},{final_rf_w}"
        )
        return "\n".join(rows) + "\n"
    if format != "table":
        raise ValueError(f"unknown report format {format!r}")

    header = ["layer", "out_shape", "params", "macs", "rf_h", "rf_w", "eff_k"]
    body = []
    for l in layers:
        body.append([
            l.name,
            _shape_str(l.out_shape),
            str(l.params),
            str(l.multiply_adds),
            _rf_str(l.rf_h),
            _rf_str(l.rf_w),
            str(l.effective_kernel) if l.effective_kernel else "-",
        ])
    body.append([
        "total", final_shape, str(report.total_params),
        str(report.total_multiply_adds), final_rf_h, final_rf_w, "-",
    ])
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = [
        f"network {report.network}  input {_shape_str(report.input_shape)}"
    ]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in body:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
    lines.append(
        f"params {format_quantity(report.total_params)}  "
        f"multiply-adds {format_quantity(report.total_multiply_adds)}"
    )
    return "\n".join(lines) + "\n"
