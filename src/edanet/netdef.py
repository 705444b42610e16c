"""Network definitions: the seven architecture variants and the ``.nspec``
text format.

A network is an ordered list of layer specs at block granularity (one line
per block in the text format).  ``expand_layer`` lowers a layer to the
primitive-step tree the analyzer and executor consume.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass, fields, replace
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
    iter_prims,
    param_shapes,
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
]

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
        keys = _KIND_KEYS[self.kind] + (_FOLDED,)
        unused = set(vars(self)) - {attr for _, attr, _, _ in keys} - {"kind"}
        for attr in sorted(unused):
            if getattr(self, attr) is not None:
                raise NetspecError(f"{what} takes no {attr!r}")
        _check_fields(self, keys, what)
        object.__setattr__(self, "_hash", hash(_fields_of(self)))

    # Specs key the lowering, analysis and weight-table memos, so each hashes
    # its fields once, when built.  A pickle rebuilds the spec through its
    # constructor: a string's hash differs between processes.
    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return LayerSpec, _fields_of(self)


@dataclass(frozen=True)
class NetworkSpec:
    """A network, held to the text format as each of its layers is: the
    header's fields follow the header's key table, with no coercion."""

    name: str
    classes: int
    layers: tuple
    train_size: tuple
    inference_upscale: int

    def __init__(self, name, classes, layers, train_size=None,
                 inference_upscale=None):
        if hasattr(train_size, "__iter__"):  # anything else fails the field check
            train_size = tuple(train_size)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "train_size", train_size)
        object.__setattr__(self, "inference_upscale", inference_upscale)
        _check_fields(self, _HEADER_KEYS, f"network {name!r}")
        _validate_layers(self.layers, self.classes)
        object.__setattr__(self, "_hash", hash(_fields_of(self)))

    def __hash__(self):  # as LayerSpec's
        return self._hash

    def __reduce__(self):
        return NetworkSpec, _fields_of(self)


def _fields_of(spec) -> tuple:
    """The spec's field values in declaration order, the tuple the
    generated ``__eq__`` compares."""
    return _field_getter(type(spec))(spec)


@functools.cache
def _field_getter(cls):
    return operator.attrgetter(*(f.name for f in fields(cls)))


# ---------------------------------------------------------------------------
# grammar: canonical key order per line kind, with parse defaults

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


def _check_fields(spec, keys: tuple, what: str) -> None:
    """Hold ``spec`` to its line's key table: an unset optional field takes
    its default; an unset required one, or a value that does not read back
    unchanged from its text form, is a NetspecError."""
    for key, attr, codec, default in keys:
        value = getattr(spec, attr)
        if value is None:
            if default is _REQUIRED:
                raise NetspecError(f"{what} missing required key {key!r}")
            object.__setattr__(spec, attr, default)
        elif _decode(codec, f"{what}: {key}", codec[2](value)) != value:
            raise NetspecError(f"{what}: {key} expects {codec[0]}, got {value!r}")


def _parse_name(text: str) -> str:
    if not text or any(c.isspace() or c == "#" for c in text):
        raise ValueError(text)
    return text


def _parse_size(text: str) -> tuple:
    h, w = text.lower().split("x")
    return _INT[1](h), _INT[1](w)


def _format_size(size) -> str:
    if isinstance(size, tuple) and len(size) == 2:
        return f"{size[0]}x{size[1]}"
    return repr(size)  # not a pair: text the parser rejects


# a name is one token of the text format: no whitespace, no comment mark
_NAME = ("a non-empty name without whitespace or '#'", _parse_name, str)

# pads may be zero; every other integer (channels, kernel sizes, strides,
# dilations, factors, sizes) must be positive, or shapes divide by zero later
_INT = _int_at_least(1)
_PAD = _int_at_least(0)
_SIZE = ("HxW of two ints >= 1", _parse_size, _format_size)

# ordered (text key, attribute, codec, default)
_HEADER_KEYS = (
    ("name", "name", _NAME, _REQUIRED),
    ("classes", "classes", _INT, _REQUIRED),
    ("upscale", "inference_upscale", _INT, 1),
    ("train", "train_size", _SIZE, (512, 1024)),
)

# written only when set, and read only on the foldable kinds
_FOLDED = ("folded", "folded", _BOOL, False)

# layer kind -> ordered (text key, attribute, codec, default)
_KIND_KEYS = {
    "conv": (
        ("name", "name", _NAME, _REQUIRED),
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
        ("name", "name", _NAME, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("out", "out_ch", _INT, _REQUIRED),
        ("k", "k", _INT, _REQUIRED),
        ("stride", "stride", _INT, _REQUIRED),
        ("bn", "bn", _BOOL, True),
        ("act", "act", _BOOL, True),
    ),
    "maxpool": (
        ("name", "name", _NAME, _REQUIRED),
        ("k", "k", _INT, _REQUIRED),
        ("stride", "stride", _INT, _REQUIRED),
        ("pad", "pad", _PAD, 0),
    ),
    "avgpool": (
        ("name", "name", _NAME, _REQUIRED),
        ("k", "k", _INT, _REQUIRED),
        ("stride", "stride", _INT, _REQUIRED),
    ),
    "eda": (
        ("name", "name", _NAME, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("growth", "growth", _INT, _REQUIRED),
        ("dilation", "dilation", _INT, 1),
    ),
    "eda_na": (
        ("name", "name", _NAME, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("growth", "growth", _INT, _REQUIRED),
        ("dilation", "dilation", _INT, 1),
    ),
    "erf": (
        ("name", "name", _NAME, _REQUIRED),
        ("width", "width", _INT, _REQUIRED),
        ("dilation", "dilation", _INT, 1),
    ),
    "downsample": (
        ("name", "name", _NAME, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("out", "out_ch", _INT, _REQUIRED),
    ),
    "aspp": (
        ("name", "name", _NAME, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("branch", "branch_ch", _INT, _REQUIRED),
    ),
    "projection": (
        ("name", "name", _NAME, _REQUIRED),
        ("in", "in_ch", _INT, _REQUIRED),
        ("classes", "classes", _INT, _REQUIRED),
    ),
    "bilinear": (
        ("name", "name", _NAME, _REQUIRED),
        ("factor", "factor", _INT, _REQUIRED),
    ),
}

# kinds that carry internal BN and therefore a folded form
_FOLDABLE = ("eda", "eda_na", "erf", "downsample", "aspp")

# line kind ('net' for the header) -> text key -> (attribute, codec)
_LINE_KEYS = {
    kind: {key: (attr, codec) for key, attr, codec, _ in
           keys + ((_FOLDED,) if kind in _FOLDABLE else ())}
    for kind, keys in {"net": _HEADER_KEYS, **_KIND_KEYS}.items()
}


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


def _validate_layers(layers, classes: int) -> None:
    """Check names, the channel chain and projection placement, and lower
    every layer, so a block's own rules fail here, not in a later pass.
    Each error carries its layer's index as ``_layer``, so a parse can
    report the layer's line."""
    def err(msg, index):
        exc = NetspecError(msg)
        exc._layer = index
        raise exc

    seen = set()
    for i, layer in enumerate(layers):
        if layer.name in seen:
            err(f"duplicate layer name {layer.name!r}", i)
        seen.add(layer.name)
    current: Optional[int] = None
    for i, layer in enumerate(layers):
        try:
            _lowered(layer)
        except ValueError as exc:
            err(f"layer {layer.name!r}: {exc}", i)
        if layer.kind == "projection" and layer.classes != classes:
            err(
                f"projection {layer.name!r} has {layer.classes} classes "
                f"but the network has {classes}",
                i,
            )
        declared = _layer_in_channels(layer)
        if declared is not None and current is not None and declared != current:
            err(
                f"layer {layer.name!r} expects {declared} input channels "
                f"but receives {current}",
                i,
            )
        current = layer_out_channels(layer, current if declared is None else declared)
    projections = [i for i, l in enumerate(layers) if l.kind == "projection"]
    if len(projections) > 1:
        err("more than one projection layer", projections[1])
    if projections:
        for i in range(projections[0] + 1, len(layers)):
            if layers[i].kind != "bilinear":
                err(
                    f"layer {layers[i].name!r} of kind {layers[i].kind!r} appears "
                    "after the projection layer",
                    i,
                )


# ---------------------------------------------------------------------------
# variant builders

def _dense_trunk(kind: str, n_block2: int, stem=None, narrow=None) -> list:
    """Shared trunk: a stem to 60 channels (default: two widening
    downsamplers), five dense modules, a narrowing stage to 130 channels
    (default: one downsampler), then n_block2 dense modules at growth 40."""
    g = blocks.GROWTH_RATE
    layers = list(stem or [
        LayerSpec("downsample", "ds1", in_ch=3, out_ch=15),
        LayerSpec("downsample", "ds2", in_ch=15, out_ch=60),
    ])
    ch = 60
    for i, dil in enumerate((1, 1, 1, 2, 2), start=1):
        layers.append(LayerSpec(kind, f"m1_{i}", in_ch=ch, growth=g, dilation=dil))
        ch += g
    layers += narrow or [LayerSpec("downsample", "ds3", in_ch=ch, out_ch=130)]
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
    stem = [
        LayerSpec("conv", "stem", in_ch=3, out_ch=60, kh=7, kw=7, stride=2,
                  dilation=1, pad_h=3, pad_w=3, bn=True, act=True),
        LayerSpec("maxpool", "pool0", k=3, stride=2, pad=1),
    ]
    narrow = [
        LayerSpec("conv", "trans1", in_ch=260, out_ch=130, kh=1, kw=1, stride=1,
                  dilation=1, pad_h=0, pad_w=0, bn=True, act=True),
        LayerSpec("avgpool", "pool1", k=2, stride=2),
    ]
    return _dense_trunk("eda", 8, stem, narrow) + _tail(450, classes)


_BUILDERS: dict[str, Callable[[int], list]] = {
    "edanet": _build_edanet,
    "non_asym": _build_non_asym,
    "non_dense": _build_non_dense,
    "shallow": _build_shallow,
    "aspp": _build_aspp,
    "erfdec": _build_erfdec,
    "densedown": _build_densedown,
}

VARIANTS = tuple(_BUILDERS)


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
    """Canonical text form: a header line, then one layer per line, each
    with its keys in table order and single spaces."""
    lines = [_write_line("net", net, _HEADER_KEYS)]
    for layer in net.layers:
        keys = _KIND_KEYS[layer.kind] + ((_FOLDED,) if layer.folded else ())
        lines.append(_write_line(layer.kind, layer, keys))
    return "\n".join(lines) + "\n"


def _write_line(kind: str, spec, keys: tuple) -> str:
    return " ".join([kind] + [f"{key}={codec[2](getattr(spec, attr))}"
                              for key, attr, codec, _ in keys])


def parse_netspec(text: str) -> NetworkSpec:
    """Parse the ``.nspec`` format; raises NetspecError with the offending
    line and column on malformed input."""
    header: dict = {}
    layers: list[LayerSpec] = []
    spec_lines: list[int] = []  # the header's line, then each layer's

    for line_no, raw in enumerate(text.splitlines(), start=1):
        # (token, 1-based column) pairs of the line, comment dropped
        code = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]
        if not tokens:
            continue
        (kind, kind_col) = tokens[0]
        if not spec_lines and kind != "net":
            raise NetspecError(f"expected header line starting with 'net', got {kind!r}",
                               line_no, kind_col)
        if spec_lines and kind == "net":
            raise NetspecError("duplicate header line", line_no, kind_col)
        if kind not in _LINE_KEYS:
            raise NetspecError(f"unknown layer kind {kind!r}", line_no, kind_col)
        fields = _parse_fields(kind, tokens[1:], line_no)
        spec_lines.append(line_no)
        if kind == "net":
            header = fields
            continue
        try:
            layers.append(LayerSpec(kind, fields.pop("name", None), **fields))
        except NetspecError as exc:  # a missing required key
            raise NetspecError(str(exc), line_no, 1) from None

    if not spec_lines:
        raise NetspecError("empty network description: missing header line")
    try:
        return NetworkSpec(header.pop("name", None), header.pop("classes", None),
                           layers, **header)
    except NetspecError as exc:  # a missing header key, or a layer's fault
        raise NetspecError(str(exc), spec_lines[getattr(exc, "_layer", -1) + 1], 1) from None


def _parse_fields(kind: str, tokens, line_no: int) -> dict:
    """The decoded fields a line gives; the spec fills the rest."""
    by_key = _LINE_KEYS[kind]
    fields: dict = {}
    for token, col in tokens:
        key, _, value = token.partition("=")
        if not key or not value:
            raise NetspecError(f"expected key=value, got {token!r}", line_no, col)
        if key not in by_key:
            raise NetspecError(f"unknown key {key!r} for kind {kind!r}", line_no, col)
        attr, codec = by_key[key]
        if attr in fields:
            raise NetspecError(f"duplicate key {key!r}", line_no, col)
        fields[attr] = _decode(codec, key, value, line_no, col)
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


@functools.lru_cache(maxsize=256)
def _param_table(net: NetworkSpec) -> tuple:
    """``(step, name, shape)`` of every weight the network reads, in store
    order; computed once per network from its layers' entries, which
    networks that share a layer (as ``infer_image``'s trunk does) share."""
    return tuple(entry for layer in net.layers for entry in _layer_params(layer))


@functools.lru_cache(maxsize=1024)
def _layer_params(layer: LayerSpec) -> tuple:
    return tuple((prim, f"{prim.name}.{suffix}", shape)
                 for prim in iter_prims(_lowered(layer))
                 for suffix, shape in param_shapes(prim))


def _unfolded_tree(layer: LayerSpec) -> Node:
    kind, name = layer.kind, layer.name
    if kind == "maxpool":  # a window wholly in the padding would be -inf
        if layer.pad >= layer.k:
            raise ValueError(f"maxpool: pad {layer.pad} must be below k {layer.k}")
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
    if kind == "conv":
        step = ConvStep(f"{name}.conv", layer.in_ch, layer.out_ch, layer.kh, layer.kw,
                        stride=layer.stride, dilation=layer.dilation,
                        pad_h=layer.pad_h, pad_w=layer.pad_w, bias=not layer.bn)
    elif kind == "deconv":
        step = DeconvStep(f"{name}.deconv", layer.in_ch, layer.out_ch, layer.k,
                          layer.stride, bias=not layer.bn)
    else:
        raise ValueError(f"unknown layer kind {kind!r}")
    steps = [step]
    if layer.bn:
        steps.append(BnStep(f"{name}.bn", layer.out_ch))
    if layer.act:
        steps.append(ReluStep())
    return Chain(steps)


def fold_layer(layer: LayerSpec) -> LayerSpec:
    """The post-fold form of a layer: internal BN steps disappear and the
    convolutions gain biases."""
    if layer.kind in _FOLDABLE:
        return replace(layer, folded=True)
    if layer.kind in ("conv", "deconv") and layer.bn:
        return replace(layer, bn=False)
    return layer
