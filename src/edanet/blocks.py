"""Composite block constructors.

Each constructor expands one architectural block (dense asymmetric module,
non-asymmetric variant, residual module, downsampling block, spatial pyramid,
projection) into a tree of primitive steps.  The tree is what the analyzer
walks and the executor interprets; its leaves carry the names under which
weights live in a WeightStore (``<block>.<step>.<param>``).  ``param_shapes``
lists the tensors each leaf reads, and ``fold_bn`` rewrites a tree into its
BN-folded form.

Structure nodes:

* ``Chain``     run items in sequence
* ``Parallel``  run every branch on the same input, concatenate outputs in
                branch order; dense connectivity is a ``Parallel`` whose
                first branch is the identity ``Chain([])``
* ``Residual``  add the node input to the body output
* ``ImagePool`` run the body on the global average of the node input, then
                resize the result bilinearly to the input's spatial size
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Union

__all__ = [
    "ConvStep",
    "DeconvStep",
    "BnStep",
    "AffineStep",
    "ReluStep",
    "DropoutStep",
    "MaxPoolStep",
    "AvgPoolStep",
    "UpsampleStep",
    "Chain",
    "Parallel",
    "Residual",
    "ImagePool",
    "iter_prims",
    "param_shapes",
    "FoldError",
    "fold_bn",
    "make_eda_module",
    "make_non_asym_module",
    "make_erf_module",
    "make_downsampling_block",
    "make_aspp",
    "make_projection",
    "GROWTH_RATE",
    "DROPOUT_RATE",
]

# Architecture-wide constants: growth rate of the dense modules and the
# (training-only) dropout rate carried in block metadata.
GROWTH_RATE = 40
DROPOUT_RATE = 0.02


@dataclass(frozen=True)
class ConvStep:
    name: str
    in_ch: int
    out_ch: int
    kh: int
    kw: int
    stride: int = 1
    dilation: int = 1
    pad_h: int = 0
    pad_w: int = 0
    bias: bool = False


@dataclass(frozen=True)
class DeconvStep:
    name: str
    in_ch: int
    out_ch: int
    k: int
    stride: int
    bias: bool = False


@dataclass(frozen=True)
class BnStep:
    name: str
    channels: int


@dataclass(frozen=True)
class AffineStep:
    """Per-channel scale+shift; appears only in folded networks where a BN
    slice had no convolution branch to merge into."""

    name: str
    channels: int


@dataclass(frozen=True)
class ReluStep:
    pass


@dataclass(frozen=True)
class DropoutStep:
    """Training-only regularization marker; identity at inference."""

    rate: float


@dataclass(frozen=True)
class MaxPoolStep:
    k: int
    stride: int
    pad: int = 0


@dataclass(frozen=True)
class AvgPoolStep:
    k: int
    stride: int


@dataclass(frozen=True)
class UpsampleStep:
    """Bilinear upsample by an integer factor."""

    factor: int


@dataclass(frozen=True)
class Chain:
    steps: tuple

    def __init__(self, steps):
        object.__setattr__(self, "steps", tuple(steps))


@dataclass(frozen=True)
class Parallel:
    branches: tuple

    def __init__(self, branches):
        object.__setattr__(self, "branches", tuple(branches))


@dataclass(frozen=True)
class Residual:
    body: "Node"


@dataclass(frozen=True)
class ImagePool:
    body: "Node"


Node = Union[
    Chain, Parallel, Residual, ImagePool,
    ConvStep, DeconvStep, BnStep, AffineStep, ReluStep, DropoutStep,
    MaxPoolStep, AvgPoolStep, UpsampleStep,
]


def iter_prims(node: Node) -> Iterator:
    """Yield primitive steps depth-first in execution order."""
    if isinstance(node, Chain):
        for s in node.steps:
            yield from iter_prims(s)
    elif isinstance(node, Parallel):
        for b in node.branches:
            yield from iter_prims(b)
    elif isinstance(node, (Residual, ImagePool)):
        yield from iter_prims(node.body)
    else:
        yield node


def param_shapes(prim) -> tuple:
    """``(suffix, shape)`` of every weight tensor a primitive step reads,
    in store order; the tensors live at ``<step name>.<suffix>``.  This
    table is the one place weight names and shapes are spelled out."""
    if isinstance(prim, BnStep):
        return tuple((s, (prim.channels,)) for s in ("gamma", "beta", "mean", "var"))
    if isinstance(prim, AffineStep):
        return (("scale", (prim.channels,)), ("shift", (prim.channels,)))
    if isinstance(prim, ConvStep):
        w = ("w", (prim.out_ch, prim.in_ch, prim.kh, prim.kw))
    elif isinstance(prim, DeconvStep):
        w = ("w", (prim.out_ch, prim.in_ch, prim.k, prim.k))
    else:
        return ()
    return (w, ("b", (prim.out_ch,))) if prim.bias else (w,)


class FoldError(ValueError):
    """BN folding is impossible for the given structure."""


def _no_merge(step, conv, bn, lo, hi) -> None:
    pass


def fold_bn(node: Node, merge: Callable = _no_merge) -> Node:
    """The BN-folded form of a step tree: a convolution followed by BN
    becomes a biased convolution; a BN after a ``Parallel`` splits per
    branch, and a branch without a convolution ends in an AffineStep
    named ``pool_affine`` next to the BN (``ds1.bn`` -> ``ds1.pool_affine``).

    ``merge(step, conv, bn, lo, hi)`` is called for every new step that
    takes over channels ``lo:hi`` of ``bn``; ``conv`` is the convolution it
    replaces, or None for an AffineStep."""
    if isinstance(node, Chain):
        out: list = []
        prev = None
        for step in node.steps:
            if not isinstance(step, BnStep):
                out.append(fold_bn(step, merge))
            elif isinstance(prev, (ConvStep, DeconvStep)):
                out[-1] = _absorb(prev, step, 0, merge)
            elif isinstance(prev, Parallel):
                out[-1] = _split(prev, step, merge)
            else:
                raise FoldError(
                    f"{step.name}: batch norm without a directly preceding convolution"
                )
            prev = step
        return Chain(out)
    if isinstance(node, Parallel):
        return Parallel([fold_bn(b, merge) for b in node.branches])
    if isinstance(node, (Residual, ImagePool)):
        return type(node)(fold_bn(node.body, merge))
    return node


def _absorb(conv, bn: BnStep, lo: int, merge: Callable):
    folded = replace(conv, bias=True)
    merge(folded, conv, bn, lo, lo + conv.out_ch)
    return folded


def _split(par: Parallel, bn: BnStep, merge: Callable) -> Parallel:
    """A BN after a concat splits per channel slice: a branch ending in its
    only convolution absorbs its slice, a convolution-free branch keeps
    its slice as scale+shift."""
    convs = [
        [p for p in iter_prims(b) if isinstance(p, (ConvStep, DeconvStep))]
        for b in par.branches
    ]
    in_width = next((c[0].in_ch for c in convs if c), None)
    if in_width is None:
        raise FoldError(f"{bn.name}: no convolution branch to absorb the fold")
    branches, lo = [], 0
    for branch, found in zip(par.branches, convs):
        if not isinstance(branch, Chain) or (
            found and (len(found) > 1 or branch.steps[-1] is not found[0])
        ):
            raise FoldError(f"{bn.name}: unsupported branch structure for folding")
        if found:
            conv = _absorb(found[0], bn, lo, merge)
            branches.append(Chain(branch.steps[:-1] + (conv,)))
            lo += conv.out_ch
        else:
            affine = AffineStep(f"{bn.name.rpartition('.')[0]}.pool_affine", in_width)
            merge(affine, None, bn, lo, lo + in_width)
            branches.append(Chain(branch.steps + (affine,)))
            lo += in_width
    return Parallel(branches)


def _check_counts(kind: str, **counts: int) -> None:
    """Every channel count, growth, dilation and class count of a block
    must be >= 1."""
    for key, value in counts.items():
        if value < 1:
            raise ValueError(f"{kind}: {key} must be >= 1, got {value}")


def _same_pad(kh: int, kw: int, dilation: int) -> tuple[int, int]:
    return dilation * (kh - 1) // 2, dilation * (kw - 1) // 2


def _conv_bn_relu(
    name: str,
    conv_tag: str,
    bn_tag: str,
    in_ch: int,
    out_ch: int,
    kh: int,
    kw: int,
    stride: int = 1,
    dilation: int = 1,
) -> list:
    """Post-activation composite: conv, BN, ReLU.  The BN absorbs the conv
    bias, so the conv is biasless until folding rewrites it."""
    pad_h, pad_w = _same_pad(kh, kw, dilation)
    conv = ConvStep(
        f"{name}.{conv_tag}", in_ch, out_ch, kh, kw,
        stride=stride, dilation=dilation, pad_h=pad_h, pad_w=pad_w,
    )
    return [conv, BnStep(f"{name}.{bn_tag}", out_ch), ReluStep()]


def make_eda_module(in_ch: int, growth: int, dilation: int, name: str = "eda") -> Node:
    """Dense module: 1x1 reduction to the growth width, two asymmetric
    pairs (3x1 then 1x3), dilation on the second pair only, and channel
    concatenation of the module input with the new features."""
    _check_counts("eda", in_ch=in_ch, growth=growth, dilation=dilation)
    g = growth
    steps = (
        _conv_bn_relu(name, "conv1x1", "bn1", in_ch, g, 1, 1)
        + _conv_bn_relu(name, "conv3x1a", "bn2", g, g, 3, 1)
        + _conv_bn_relu(name, "conv1x3a", "bn3", g, g, 1, 3)
        + _conv_bn_relu(name, "conv3x1b", "bn4", g, g, 3, 1, dilation=dilation)
        + _conv_bn_relu(name, "conv1x3b", "bn5", g, g, 1, 3, dilation=dilation)
        + [DropoutStep(DROPOUT_RATE)]
    )
    return Parallel([Chain([]), Chain(steps)])


def make_non_asym_module(in_ch: int, growth: int, dilation: int, name: str = "eda_na") -> Node:
    """Dense module variant with the asymmetric pairs replaced by two full
    3x3 convolutions (the second dilated)."""
    _check_counts("eda_na", in_ch=in_ch, growth=growth, dilation=dilation)
    g = growth
    steps = (
        _conv_bn_relu(name, "conv1x1", "bn1", in_ch, g, 1, 1)
        + _conv_bn_relu(name, "conv3x3a", "bn2", g, g, 3, 3)
        + _conv_bn_relu(name, "conv3x3b", "bn3", g, g, 3, 3, dilation=dilation)
        + [DropoutStep(DROPOUT_RATE)]
    )
    return Parallel([Chain([]), Chain(steps)])


def make_erf_module(width: int, dilation: int, name: str = "erf") -> Node:
    """Residual module at constant width: two asymmetric pairs, no
    point-wise reduction, input added to the output, ReLU after the add."""
    _check_counts("erf", width=width, dilation=dilation)
    steps = (
        _conv_bn_relu(name, "conv3x1a", "bn1", width, width, 3, 1)
        + _conv_bn_relu(name, "conv1x3a", "bn2", width, width, 1, 3)
        + _conv_bn_relu(name, "conv3x1b", "bn3", width, width, 3, 1, dilation=dilation)
        + _conv_bn_relu(name, "conv1x3b", "bn4", width, width, 1, 3, dilation=dilation)
        + [DropoutStep(DROPOUT_RATE)]
    )
    return Chain([Residual(Chain(steps)), ReluStep()])


def make_downsampling_block(in_ch: int, out_ch: int, name: str = "down") -> Node:
    """Stride-2 stage.  Widening blocks run a 3x3/stride-2 convolution with
    out_ch - in_ch filters in parallel with a 2x2 max-pool and concatenate;
    narrowing blocks are a single 3x3/stride-2 convolution.  BN+ReLU apply
    once, after the merge."""
    _check_counts("downsample", in_ch=in_ch, out_ch=out_ch)
    if in_ch == out_ch:
        raise ValueError("downsample: in_ch == out_ch is undefined")
    if out_ch < in_ch:
        conv = ConvStep(f"{name}.conv", in_ch, out_ch, 3, 3, stride=2, pad_h=1, pad_w=1)
        return Chain([conv, BnStep(f"{name}.bn", out_ch), ReluStep()])
    conv = ConvStep(
        f"{name}.conv", in_ch, out_ch - in_ch, 3, 3, stride=2, pad_h=1, pad_w=1
    )
    return Chain([
        Parallel([Chain([conv]), Chain([MaxPoolStep(2, 2)])]),
        BnStep(f"{name}.bn", out_ch),
        ReluStep(),
    ])


def make_aspp(in_ch: int, branch_ch: int, name: str = "aspp") -> Node:
    """Spatial pyramid: 1x1 conv, three 3x3 convs at dilations 6/12/18, and
    an image-pooling branch (global average pool, 1x1 conv, bilinear resize
    back), concatenated and fused by a 1x1 conv."""
    _check_counts("aspp", in_ch=in_ch, branch_ch=branch_ch)
    branches = [
        Chain(_conv_bn_relu(name, "b1_conv1x1", "b1_bn", in_ch, branch_ch, 1, 1)),
        Chain(_conv_bn_relu(name, "b2_conv3x3", "b2_bn", in_ch, branch_ch, 3, 3, dilation=6)),
        Chain(_conv_bn_relu(name, "b3_conv3x3", "b3_bn", in_ch, branch_ch, 3, 3, dilation=12)),
        Chain(_conv_bn_relu(name, "b4_conv3x3", "b4_bn", in_ch, branch_ch, 3, 3, dilation=18)),
        ImagePool(Chain(_conv_bn_relu(name, "b5_conv1x1", "b5_bn", in_ch, branch_ch, 1, 1))),
    ]
    fuse = _conv_bn_relu(name, "fuse_conv1x1", "fuse_bn", 5 * branch_ch, branch_ch, 1, 1)
    return Chain([Parallel(branches)] + fuse)


def make_projection(in_ch: int, classes: int, name: str = "proj") -> Node:
    """Final 1x1 convolution to class logits: biased, no BN, no ReLU."""
    _check_counts("projection", in_ch=in_ch, classes=classes)
    return Chain([ConvStep(f"{name}.conv1x1", in_ch, classes, 1, 1, bias=True)])
