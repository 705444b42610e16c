"""Network definitions: the seven architecture variants and the ``.nspec``
text format.

A network is an ordered list of layer specs at block granularity (one line
per block in the text format).  ``expand_layer`` lowers a layer to the
primitive-step tree the analyzer and executor consume.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional

from . import blocks
from .blocks import (
    AvgPoolStep,
    BnStep,
    Chain,
    ConvStep,
    DeconvStep,
    MaxPoolStep,
    Node,
    ReluStep,
    UpsampleStep,
)

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "NetspecError",
    "VARIANTS",
    "build_variant",
    "parse_netspec",
    "serialize_netspec",
    "expand_layer",
    "layer_out_channels",
    "spatial_divisor",
]

VARIANTS = (
    "edanet",
    "non_asym",
    "non_dense",
    "shallow",
    "aspp",
    "erfdec",
    "densedown",
)


class NetspecError(ValueError):
    """Malformed network description; carries a 1-based line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class LayerSpec:
    """One block-granularity layer, held to the text format: fields a kind
    does not use stay None, omitted optional ones take their grammar
    defaults, and every other value must survive its codec."""

    kind: str
    name: str
    in_ch: Optional[int] = None
    out_ch: Optional[int] = None
    growth: Optional[int] = None
    width: Optional[int] = None
    dilation: Optional[int] = None
    classes: Optional[int] = None
    kh: Optional[int] = None
    kw: Optional[int] = None
    k: Optional[int] = None
    stride: Optional[int] = None
    pad_h: Optional[int] = None
    pad_w: Optional[int] = None
    pad: Optional[int] = None
    bn: Optional[bool] = None
    act: Optional[bool] = None
    branch_ch: Optional[int] = None
    factor: Optional[int] = None
    folded: bool = False

    def __post_init__(self):
        if self.kind not in _KIND_KEYS:
            raise NetspecError(f"unknown layer kind {self.kind!r}")
        what = f"{self.kind} layer {self.name!r}"
        if self.folded and self.kind not in _FOLDABLE:
            raise NetspecError(f"{what} has no folded form")
        keys = _KIND_KEYS[self.kind] + (("folded", "folded", _BOOL, False),)
        unused = set(vars(self)) - {attr for _, attr, _, _ in keys} - {"kind"}
        for attr in sorted(unused):
            if getattr(self, attr) is not None:
                raise NetspecError(f"{what} takes no {attr!r}")
        for key, attr, codec, default in keys:
            value = getattr(self, attr)
            if value is None:
                if default is _REQUIRED:
                    raise NetspecError(f"{what} missing {key!r}")
                object.__setattr__(self, attr, default)
            elif codec is not None and _decode(codec, f"{what}: {key}", codec[2](value)) != value:
                raise NetspecError(f"{what}: {key} expects {codec[0]}, got {value!r}")


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    classes: int
    layers: tuple
    train_size: tuple = (512, 1024)
    inference_upscale: int = 1

    def __init__(self, name, classes, layers, train_size=(512, 1024),
                 inference_upscale=1):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "classes", int(classes))
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "train_size", tuple(train_size))
        object.__setattr__(self, "inference_upscale", int(inference_upscale))
        _validate_network(self)


# ---------------------------------------------------------------------------
# grammar: canonical key order per kind, with parse defaults

_REQUIRED = object()

_BOOL = ("bool", lambda s: {"0": False, "1": True}[s], lambda v: "1" if v else "0")


def _int_at_least(lo: int) -> tuple:
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise ValueError(text)
        return value

    return (f"int >= {lo}", parse, str)


def _decode(codec: tuple, key: str, text: str, line_no: int = 0, col: int = 0):
    """``text`` read by ``codec``; text it rejects is a NetspecError."""
    try:
        return codec[1](text)
    except (ValueError, KeyError):
        raise NetspecError(f"{key} expects {codec[0]}, got {text!r}", line_no, col)


# pads may be zero; every other integer (channels, kernel sizes, strides,
# dilations, factors) must be positive, or shapes divide by zero later
_INT = _int_at_least(1)
_PAD = _int_at_least(0)

# kind -> ordered (text key, attribute, codec, default)
_KIND_KEYS = {
    "conv": (
        ("name", "name", None, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("out", "out_ch", _INT, _REQUIRED),
        ("kh", "kh", _INT, _REQUIRED),
        ("kw", "kw", _INT, _REQUIRED),
        ("stride", "stride", _INT, 1),
        ("dilation", "dilation", _INT, 1),
        ("pad_h", "pad_h", _PAD, 0),
        ("pad_w", "pad_w", _PAD, 0),
        ("bn", "bn", _BOOL, True),
        ("act", "act", _BOOL, True),
    ),
    "deconv": (
        ("name", "name", None, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("out", "out_ch", _INT, _REQUIRED),
        ("k", "k", _INT, _REQUIRED),
        ("stride", "stride", _INT, _REQUIRED),
        ("bn", "bn", _BOOL, True),
        ("act", "act", _BOOL, True),
    ),
    "maxpool": (
        ("name", "name", None, _REQUIRED),
        ("k", "k", _INT, _REQUIRED),
        ("stride", "stride", _INT, _REQUIRED),
        ("pad", "pad", _PAD, 0),
    ),
    "avgpool": (
        ("name", "name", None, _REQUIRED),
        ("k", "k", _INT, _REQUIRED),
        ("stride", "stride", _INT, _REQUIRED),
    ),
    "eda": (
        ("name", "name", None, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("growth", "growth", _INT, _REQUIRED),
        ("dilation", "dilation", _INT, 1),
    ),
    "eda_na": (
        ("name", "name", None, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("growth", "growth", _INT, _REQUIRED),
        ("dilation", "dilation", _INT, 1),
    ),
    "erf": (
        ("name", "name", None, _REQUIRED),
        ("width", "width", _INT, _REQUIRED),
        ("dilation", "dilation", _INT, 1),
    ),
    "downsample": (
        ("name", "name", None, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("out", "out_ch", _INT, _REQUIRED),
    ),
    "aspp": (
        ("name", "name", None, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("branch", "branch_ch", _INT, _REQUIRED),
    ),
    "projection": (
        ("name", "name", None, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("classes", "classes", _INT, _REQUIRED),
    ),
    "bilinear": (
        ("name", "name", None, _REQUIRED),
        ("factor", "factor", _INT, _REQUIRED),
    ),
}

# kinds that carry internal BN and therefore a folded form
_FOLDABLE = ("eda", "eda_na", "erf", "downsample", "aspp")


def layer_out_channels(layer: LayerSpec, current: Optional[int]) -> Optional[int]:
    """Output channel count of a layer given the incoming count (which may
    be unknown for passthrough-only prefixes)."""
    if layer.kind in ("conv", "deconv", "downsample"):
        return layer.out_ch
    if layer.kind in ("eda", "eda_na"):
        return layer.in_ch + layer.growth
    if layer.kind == "erf":
        return layer.width
    if layer.kind == "aspp":
        return layer.branch_ch
    if layer.kind == "projection":
        return layer.classes
    return current  # pools, bilinear


def _layer_in_channels(layer: LayerSpec) -> Optional[int]:
    if layer.kind == "erf":
        return layer.width
    return layer.in_ch


def _validate_layers(layers, classes: int, lines: Optional[dict] = None) -> None:
    """Check names, the channel chain and projection placement, and lower
    every layer, so a block's own rules fail here, not in a later pass."""
    def err(msg, layer_name):
        line = (lines or {}).get(layer_name, 0)
        raise NetspecError(msg, line=line, col=1 if line else 0)

    seen = set()
    for layer in layers:
        if layer.name in seen:
            err(f"duplicate layer name {layer.name!r}", layer.name)
        seen.add(layer.name)
    current: Optional[int] = None
    for layer in layers:
        try:
            _lowered(layer)
        except ValueError as exc:
            err(f"layer {layer.name!r}: {exc}", layer.name)
        if layer.kind == "projection" and layer.classes != classes:
            err(
                f"projection {layer.name!r} has {layer.classes} classes "
                f"but the network has {classes}",
                layer.name,
            )
        declared = _layer_in_channels(layer)
        if declared is not None and current is not None and declared != current:
            err(
                f"layer {layer.name!r} expects {declared} input channels "
                f"but receives {current}",
                layer.name,
            )
        current = layer_out_channels(layer, current if declared is None else declared)
    projections = [l for l in layers if l.kind == "projection"]
    if len(projections) > 1:
        err("more than one projection layer", projections[1].name)
    if projections:
        idx = list(layers).index(projections[0])
        for later in list(layers)[idx + 1 :]:
            if later.kind != "bilinear":
                err(
                    f"layer {later.name!r} of kind {later.kind!r} appears "
                    "after the projection layer",
                    later.name,
                )


def _validate_network(net: NetworkSpec) -> None:
    if net.classes < 1:
        raise NetspecError(f"classes must be >= 1, got {net.classes}")
    if net.inference_upscale < 1:
        raise NetspecError(f"upscale must be >= 1, got {net.inference_upscale}")
    _validate_layers(net.layers, net.classes)


# ---------------------------------------------------------------------------
# variant builders

def _dense_trunk(kind: str, n_block2: int) -> list:
    """Shared trunk: two widening downsamplers, five dense modules, one
    narrowing downsampler, then n_block2 dense modules at growth 40."""
    g = blocks.GROWTH_RATE
    layers = [
        LayerSpec("downsample", "ds1", in_ch=3, out_ch=15),
        LayerSpec("downsample", "ds2", in_ch=15, out_ch=60),
    ]
    ch = 60
    for i, dil in enumerate((1, 1, 1, 2, 2), start=1):
        layers.append(LayerSpec(kind, f"m1_{i}", in_ch=ch, growth=g, dilation=dil))
        ch += g
    layers.append(LayerSpec("downsample", "ds3", in_ch=ch, out_ch=130))
    ch = 130
    for i, dil in enumerate((2, 2, 4, 4, 8, 8, 16, 16)[:n_block2], start=1):
        layers.append(LayerSpec(kind, f"m2_{i}", in_ch=ch, growth=g, dilation=dil))
        ch += g
    return layers


def _tail(in_ch: int, classes: int) -> list:
    return [
        LayerSpec("projection", "proj", in_ch=in_ch, classes=classes),
        LayerSpec("bilinear", "up8", factor=8),
    ]


def _build_edanet(classes: int) -> list:
    return _dense_trunk("eda", 8) + _tail(450, classes)


def _build_non_asym(classes: int) -> list:
    return _dense_trunk("eda_na", 8) + _tail(450, classes)


def _build_non_dense(classes: int) -> list:
    layers = [
        LayerSpec("downsample", "ds1", in_ch=3, out_ch=15),
        LayerSpec("downsample", "ds2", in_ch=15, out_ch=40),
    ]
    for i in range(1, 6):
        layers.append(LayerSpec("erf", f"m1_{i}", width=40, dilation=1))
    layers.append(LayerSpec("downsample", "ds3", in_ch=40, out_ch=80))
    for i, dil in enumerate((2, 4, 8, 16, 2, 4, 8, 16), start=1):
        layers.append(LayerSpec("erf", f"m2_{i}", width=80, dilation=dil))
    return layers + _tail(80, classes)


def _build_shallow(classes: int) -> list:
    return _dense_trunk("eda", 4) + _tail(290, classes)


def _build_aspp(classes: int) -> list:
    return (
        _dense_trunk("eda", 4)
        + [LayerSpec("aspp", "ctx", in_ch=290, branch_ch=290)]
        + _tail(290, classes)
    )


def _build_erfdec(classes: int) -> list:
    layers = _dense_trunk("eda", 8)
    layers.append(LayerSpec("deconv", "up1", in_ch=450, out_ch=64, k=2, stride=2,
                            bn=True, act=True))
    layers.append(LayerSpec("erf", "d1_1", width=64, dilation=1))
    layers.append(LayerSpec("erf", "d1_2", width=64, dilation=1))
    layers.append(LayerSpec("deconv", "up2", in_ch=64, out_ch=16, k=2, stride=2,
                            bn=True, act=True))
    layers.append(LayerSpec("erf", "d2_1", width=16, dilation=1))
    layers.append(LayerSpec("erf", "d2_2", width=16, dilation=1))
    layers.append(LayerSpec("deconv", "up3", in_ch=16, out_ch=classes, k=2,
                            stride=2, bn=False, act=False))
    return layers


def _build_densedown(classes: int) -> list:
    g = blocks.GROWTH_RATE
    layers = [
        LayerSpec("conv", "stem", in_ch=3, out_ch=60, kh=7, kw=7, stride=2,
                  dilation=1, pad_h=3, pad_w=3, bn=True, act=True),
        LayerSpec("maxpool", "pool0", k=3, stride=2, pad=1),
    ]
    ch = 60
    for i, dil in enumerate((1, 1, 1, 2, 2), start=1):
        layers.append(LayerSpec("eda", f"m1_{i}", in_ch=ch, growth=g, dilation=dil))
        ch += g
    layers += [
        LayerSpec("conv", "trans1", in_ch=ch, out_ch=130, kh=1, kw=1, stride=1,
                  dilation=1, pad_h=0, pad_w=0, bn=True, act=True),
        LayerSpec("avgpool", "pool1", k=2, stride=2),
    ]
    ch = 130
    for i, dil in enumerate((2, 2, 4, 4, 8, 8, 16, 16), start=1):
        layers.append(LayerSpec("eda", f"m2_{i}", in_ch=ch, growth=g, dilation=dil))
        ch += g
    return layers + _tail(450, classes)


_BUILDERS: dict[str, Callable[[int], list]] = {
    "edanet": _build_edanet,
    "non_asym": _build_non_asym,
    "non_dense": _build_non_dense,
    "shallow": _build_shallow,
    "aspp": _build_aspp,
    "erfdec": _build_erfdec,
    "densedown": _build_densedown,
}


def build_variant(
    variant: str,
    classes: int = 19,
    upscale: int = 2,
    train_size: tuple = (512, 1024),
) -> NetworkSpec:
    """Construct one of the seven architecture variants.

    ``classes`` defaults to the 19 Cityscapes object classes; CamVid
    configurations use classes=11, upscale=1, train_size=(360, 480).
    """
    if variant not in _BUILDERS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return NetworkSpec(
        name=variant,
        classes=classes,
        layers=_BUILDERS[variant](classes),
        train_size=train_size,
        inference_upscale=upscale,
    )


# ---------------------------------------------------------------------------
# text format

def serialize_netspec(net: NetworkSpec) -> str:
    """Canonical text form: fixed key order, single spaces, one layer per
    line; the training size rides on the header."""
    th, tw = net.train_size
    lines = [
        f"net name={net.name} classes={net.classes} "
        f"upscale={net.inference_upscale} train={th}x{tw}"
    ]
    for layer in net.layers:
        parts = [layer.kind]
        for key, attr, codec, default in _KIND_KEYS[layer.kind]:
            value = getattr(layer, attr)
            parts.append(f"{key}={value if codec is None else codec[2](value)}")
        if layer.kind in _FOLDABLE and layer.folded:
            parts.append("folded=1")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _parse_kv(token: str, line_no: int, col: int) -> tuple[str, str]:
    if "=" not in token:
        raise NetspecError(f"expected key=value, got {token!r}", line_no, col)
    key, _, value = token.partition("=")
    if not key or not value:
        raise NetspecError(f"expected key=value, got {token!r}", line_no, col)
    return key, value


def _tokenize(raw: str) -> list[tuple[str, int]]:
    """Split a line into (token, 1-based column) pairs, dropping comments."""
    code = raw.split("#", 1)[0]
    out = []
    col = 0
    while col < len(code):
        if code[col].isspace():
            col += 1
            continue
        end = col
        while end < len(code) and not code[end].isspace():
            end += 1
        out.append((code[col:end], col + 1))
        col = end
    return out


def parse_netspec(text: str) -> NetworkSpec:
    """Parse the ``.nspec`` format; raises NetspecError with the offending
    line and column on malformed input."""
    header = None
    layers: list[LayerSpec] = []
    layer_lines: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        (kind, kind_col) = tokens[0]
        if header is None:
            if kind != "net":
                raise NetspecError(
                    f"expected header line starting with 'net', got {kind!r}",
                    line_no, kind_col,
                )
            header = _parse_header(tokens[1:], line_no)
            continue
        if kind == "net":
            raise NetspecError("duplicate header line", line_no, kind_col)
        if kind not in _KIND_KEYS:
            raise NetspecError(f"unknown layer kind {kind!r}", line_no, kind_col)
        fields = _parse_layer_fields(kind, tokens[1:], line_no)
        layer = LayerSpec(kind=kind, **fields)
        if layer.name in layer_lines:
            raise NetspecError(
                f"duplicate layer name {layer.name!r}", line_no, kind_col
            )
        layer_lines[layer.name] = line_no
        layers.append(layer)

    if header is None:
        raise NetspecError("empty network description: missing header line")
    name, classes, upscale, train_size = header
    _validate_layers(layers, classes, layer_lines)
    return NetworkSpec(
        name=name,
        classes=classes,
        layers=layers,
        train_size=train_size,
        inference_upscale=upscale,
    )


def _parse_header(tokens, line_no: int):
    values = {}
    for token, col in tokens:
        key, value = _parse_kv(token, line_no, col)
        if key in values:
            raise NetspecError(f"duplicate header key {key!r}", line_no, col)
        if key == "name":
            values[key] = value
        elif key in ("classes", "upscale"):
            values[key] = _decode(_INT, key, value, line_no, col)
        elif key == "train":
            values[key] = _parse_size(value, line_no, col)
        else:
            raise NetspecError(f"unknown header key {key!r}", line_no, col)
    for required in ("name", "classes"):
        if required not in values:
            raise NetspecError(f"header missing {required!r}", line_no, 1)
    return (
        values["name"],
        values["classes"],
        values.get("upscale", 1),
        values.get("train", (512, 1024)),
    )


def _parse_size(value: str, line_no: int, col: int) -> tuple:
    parts = value.lower().split("x")
    if len(parts) != 2:
        raise NetspecError(f"expected HxW, got {value!r}", line_no, col)
    return (
        _decode(_INT, "train height", parts[0], line_no, col),
        _decode(_INT, "train width", parts[1], line_no, col),
    )


def _parse_layer_fields(kind: str, tokens, line_no: int) -> dict:
    keys = _KIND_KEYS[kind]
    by_key = {key: (attr, codec, default) for key, attr, codec, default in keys}
    fields: dict = {}
    seen = set()
    for token, col in tokens:
        key, value = _parse_kv(token, line_no, col)
        if key == "folded" and kind in _FOLDABLE:
            attr, codec, default = "folded", _BOOL, False
        elif key in by_key:
            attr, codec, default = by_key[key]
        else:
            raise NetspecError(f"unknown key {key!r} for kind {kind!r}", line_no, col)
        if key in seen:
            raise NetspecError(f"duplicate key {key!r}", line_no, col)
        seen.add(key)
        fields[attr] = value if codec is None else _decode(codec, key, value, line_no, col)
    for key, attr, codec, default in keys:
        if attr in fields:
            continue
        if default is _REQUIRED:
            raise NetspecError(f"{kind} line missing required key {key!r}", line_no, 1)
        fields[attr] = default
    return fields


# ---------------------------------------------------------------------------
# lowering to primitive steps

def expand_layer(layer: LayerSpec) -> Node:
    """Lower one layer spec to its primitive-step tree; a folded layer
    lowers to the BN-fold rewrite of its unfolded tree.  Each distinct spec
    is lowered once and its (immutable) tree shared by every caller."""
    return _lowered(layer)


@functools.lru_cache(maxsize=1024)
def _lowered(layer: LayerSpec) -> Node:
    node = _unfolded_tree(layer)
    return blocks.fold_bn(node) if layer.folded else node


def _unfolded_tree(layer: LayerSpec) -> Node:
    kind, name = layer.kind, layer.name
    if kind == "conv":
        steps: list = [ConvStep(
            f"{name}.conv", layer.in_ch, layer.out_ch, layer.kh, layer.kw,
            stride=layer.stride, dilation=layer.dilation,
            pad_h=layer.pad_h, pad_w=layer.pad_w, bias=not layer.bn,
        )]
        if layer.bn:
            steps.append(BnStep(f"{name}.bn", layer.out_ch))
        if layer.act:
            steps.append(ReluStep())
        return Chain(steps)
    if kind == "deconv":
        steps = [DeconvStep(
            f"{name}.deconv", layer.in_ch, layer.out_ch, layer.k, layer.stride,
            bias=not layer.bn,
        )]
        if layer.bn:
            steps.append(BnStep(f"{name}.bn", layer.out_ch))
        if layer.act:
            steps.append(ReluStep())
        return Chain(steps)
    if kind == "maxpool":
        return Chain([MaxPoolStep(layer.k, layer.stride, layer.pad)])
    if kind == "avgpool":
        return Chain([AvgPoolStep(layer.k, layer.stride)])
    if kind == "eda":
        return blocks.make_eda_module(layer.in_ch, layer.growth, layer.dilation, name=name)
    if kind == "eda_na":
        return blocks.make_non_asym_module(layer.in_ch, layer.growth, layer.dilation, name=name)
    if kind == "erf":
        return blocks.make_erf_module(layer.width, layer.dilation, name=name)
    if kind == "downsample":
        return blocks.make_downsampling_block(layer.in_ch, layer.out_ch, name=name)
    if kind == "aspp":
        return blocks.make_aspp(layer.in_ch, layer.branch_ch, name=name)
    if kind == "projection":
        return blocks.make_projection(layer.in_ch, layer.classes, name=name)
    if kind == "bilinear":
        return Chain([UpsampleStep(layer.factor)])
    raise ValueError(f"unknown layer kind {kind!r}")


def fold_layer(layer: LayerSpec) -> LayerSpec:
    """The post-fold form of a layer: internal BN steps disappear and the
    convolutions gain biases."""
    if layer.kind in _FOLDABLE:
        return replace(layer, folded=True)
    if layer.kind in ("conv", "deconv") and layer.bn:
        return replace(layer, bn=False)
    return layer


def _node_stride(node) -> int:
    """Cumulative downsampling stride of a node (upsampling steps count
    as 1; parallel branches share one stride)."""
    if isinstance(node, Chain):
        s = 1
        for item in node.steps:
            s *= _node_stride(item)
        return s
    if isinstance(node, blocks.Parallel):
        return _node_stride(node.branches[0])
    if isinstance(node, (ConvStep, MaxPoolStep, AvgPoolStep)):
        return node.stride
    return 1


def spatial_divisor(net: NetworkSpec) -> int:
    """Product of all downsampling strides; input spatial dims must be
    divisible by it so every stage halves exactly."""
    div = 1
    for layer in net.layers:
        div *= _node_stride(expand_layer(layer))
    return div
