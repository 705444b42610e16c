"""Command-line surface: build/analyze/init/infer/fold/selftest.

Exit codes: 0 success, 2 usage, 3 I/O, 4 validation or shape error,
5 selftest failure.  All subcommands are deterministic: identical inputs
and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import analyzer, imageio, netdef, runtime, tensorops
from .netdef import NetspecError
from .runtime import WeightError, WeightFormatError
from .tensorops import Kernel, ShapeError, Tensor

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_SELFTEST = 5


def _parse_size(text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW integers, got {text!r}")


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer seed, got {text!r}")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing leaves
    it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="edanet",
        description="Build, analyze, and run EDANet-family segmentation networks.",
    )
    parser.add_argument("--threads", type=_int_at_least(1), default=None,
                        help="threads of numpy's bundled OpenBLAS, which runs the convolutions "
                             "(default: as the process started; ignored with another BLAS)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a network description (.nspec)")
    p.add_argument("--variant", required=True, choices=netdef.VARIANTS)
    p.add_argument("--classes", type=int, default=19)
    p.add_argument("--upscale", type=int, default=2,
                   help="inference-only bilinear factor (default 2)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="static shape/params/multiply-add report")
    p.add_argument("--net", required=True)
    p.add_argument("--input-size", type=_parse_size, default=(512, 1024),
                   metavar="HxW")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out", default=None)

    p = sub.add_parser("init", help="write deterministic seeded weights (.edaw)")
    p.add_argument("--net", required=True)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("infer", help="segment one PPM image")
    p.add_argument("--net", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True, help="binary P6 input")
    p.add_argument("--out", required=True, help="P5 label-map output")
    p.add_argument("--color", default=None, help="optional colorized P6 output")
    p.add_argument("--palette", default=None,
                   help="palette text file (one 'r g b' line per class)")
    p.add_argument("--fold", action="store_true",
                   help="fold BN into convolutions once, before the first run")
    p.add_argument("--bench", type=_int_at_least(0), default=0, metavar="N",
                   help="report mean wall-clock over N extra runs (folding excluded)")

    p = sub.add_parser("fold", help="persist a BN-folded network + weights")
    p.add_argument("--net", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out-net", required=True)
    p.add_argument("--out-weights", required=True)

    sub.add_parser("selftest", help="run built-in consistency checks")
    return parser


def cmd_build(args) -> int:
    net = netdef.build_variant(args.variant, classes=args.classes,
                               upscale=args.upscale)
    Path(args.out).write_text(netdef.serialize_netspec(net), encoding="utf-8")
    return EXIT_OK


def cmd_analyze(args) -> int:
    net = netdef.parse_netspec(Path(args.net).read_text(encoding="utf-8"))
    h, w = args.input_size
    report = analyzer.analyze(net, (3, h, w))
    text = analyzer.render_report(report, format=args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_init(args) -> int:
    net = netdef.parse_netspec(Path(args.net).read_text(encoding="utf-8"))
    runtime.write_weights(runtime.parameter_names(net),
                          runtime.init_tensors(net, args.seed), args.out)
    return EXIT_OK


def cmd_infer(args) -> int:
    net = netdef.parse_netspec(Path(args.net).read_text(encoding="utf-8"))
    if net.classes > 256:
        raise ValueError(f"a P5 label map holds at most 256 classes, got {net.classes}")
    store = runtime.load_weights(args.weights)
    image = imageio.read_ppm(Path(args.image).read_bytes())
    if args.color:
        if args.palette:
            palette = imageio.load_palette(Path(args.palette).read_text(encoding="utf-8"))
        else:
            palette = imageio.default_palette(net.classes)
        if len(palette) < net.classes:
            raise ValueError(f"palette has {len(palette)} entries for {net.classes} classes")
    if args.fold:
        folded = runtime.fold_batch_norm(net, store)
        net, store = folded.net, folded.weights
    labels = runtime.infer_image(net, store, image)
    Path(args.out).write_bytes(imageio.write_pgm(labels))
    if args.color:
        Path(args.color).write_bytes(imageio.colorize(labels, palette))
    if args.bench > 0:
        start = time.perf_counter()
        for _ in range(args.bench):
            runtime.infer_image(net, store, image)
        mean = (time.perf_counter() - start) / args.bench
        print(f"bench: mean {mean:.3f}s over {args.bench} runs")
    return EXIT_OK


def cmd_fold(args) -> int:
    net = netdef.parse_netspec(Path(args.net).read_text(encoding="utf-8"))
    store = runtime.load_weights(args.weights)
    folded_net, pairs = runtime.fold_tensors(net, store)
    text = netdef.serialize_netspec(folded_net)
    runtime.write_weights(runtime.parameter_names(folded_net), pairs, args.out_weights)
    Path(args.out_net).write_text(text, encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest

def _check_separability(rng: np.random.Generator) -> str | None:
    """Composed 1-D convolutions must match the rank-1 2-D convolution."""
    for trial in range(20):
        n = int(rng.choice([3, 5]))
        wx = rng.uniform(-1, 1, n).astype(np.float32)
        wy = rng.uniform(-1, 1, n).astype(np.float32)
        full = np.outer(wx, wy)[None, None].astype(np.float32)
        x = Tensor(rng.uniform(-1, 1, (1, 1, 12, 14)).astype(np.float32))
        pad = n // 2
        two_d = tensorops.conv2d(x, Kernel(full), pad_h=pad, pad_w=pad)
        col = tensorops.conv2d(
            x, Kernel(wx.reshape(1, 1, n, 1)), pad_h=pad, pad_w=0
        )
        composed = tensorops.conv2d(
            col, Kernel(wy.reshape(1, 1, 1, n)), pad_h=0, pad_w=pad
        )
        scale = float(np.abs(two_d.data).max()) or 1.0
        err = float(np.abs(two_d.data - composed.data).max()) / scale
        if err > 1e-4:
            return f"trial {trial}: relative error {err:.2e}"
    return None


def _check_dilation(rng: np.random.Generator) -> str | None:
    """Dilated conv must equal the zero-inserted kernel bit-exactly, also
    when the channel contraction spans more than one chunk (300 inputs)."""
    for r, in_c in ((2, 3), (4, 3), (8, 3), (16, 3), (4, 300)):
        k = Kernel(rng.uniform(-1, 1, (2, in_c, 3, 3)).astype(np.float32))
        size = 2 * r + 5
        x = Tensor(rng.uniform(-1, 1, (1, in_c, size, size)).astype(np.float32))
        dilated = tensorops.conv2d(x, k, dilation=r, pad_h=r, pad_w=r)
        expanded = tensorops.conv2d(
            x, tensorops.zero_insert_kernel(k, r), pad_h=r, pad_w=r
        )
        if not np.array_equal(
            dilated.data.view(np.uint32), expanded.data.view(np.uint32)
        ):
            return f"rate {r}, {in_c} input channels: outputs not bit-identical"
    return None


def _check_readout(rng: np.random.Generator) -> str | None:
    """The banded readout must give the labels of the full-size resizes and
    argmax bit for bit: on tied maxima and a NaN logit; through x8 then x2
    (an ``up8`` network read out at upscale 2) or x8 alone (at upscale 1)
    with a +-inf logit, whose blends make NaN; where one channel leads
    another by 0, 1 or a few ulps (including two leads that blending
    rounds to a tie, one of them subnormal), or by just more or just less
    than the lead under which a window is blended rather than settled; on
    subnormal logits; on noise read out x8 alone, where most windows are
    blended; and on blocky logits read out x8 then x2 in two bands, where
    the windows on block edges are blended."""
    cases = []
    for in_hw, sizes, planted in (((7, 9), [(13, 31)], np.nan), ((9, 10), [(4, 3)], np.nan),
                                  ((3, 4), [(24, 32), (48, 64)], np.inf),
                                  ((3, 4), [(24, 32)], -np.inf)):
        data = rng.integers(-2, 3, (1, 5) + in_hw).astype(np.float32)
        data[0, 3, in_hw[0] // 2, in_hw[1] // 2] = planted
        cases.append((data, sizes))
    base = rng.uniform(1, 2, (1, 1, 6, 8)).astype(np.float32)
    for ulps in (0, 1, 3):
        steps = rng.integers(0, ulps + 1, base.shape, dtype=np.int32)
        ahead = (base.view(np.int32) + steps).view(np.float32)
        cases.append((np.concatenate([base, ahead, base - 1], axis=1), [(12, 16)]))
    for scale in (0.875, 1.125):
        data = np.concatenate([base, base, base - 1], axis=1)
        data[0, 1] += np.float32(scale) * tensorops._lead_bound(data)
        cases.append((data, [(12, 16)]))
    # blending rounds a lead of 1-2 ulps, or of one subnormal step, to a tie
    base = np.array([[1.8574042, 1.0335855], [1.7296555, 1.1756556]], np.float32)
    ahead = (base.view(np.int32) + np.array([[1, 2], [1, 2]], np.int32)).view(np.float32)
    cases.append((np.stack([base, ahead])[None], [(4, 4)]))
    step = np.float32(2.0**-149)
    cases.append((np.array([[[[0, 2]], [[1, 3]]]], np.float32) * step, [(2, 4)]))
    tiny = rng.integers(0, 4, (1, 3, 5, 6)).astype(np.float32) * step
    cases += [(tiny, [(10, 12)]), (tiny, [(10, 12), (20, 24)]),
              (rng.standard_normal((1, 5, 6, 7)).astype(np.float32), [(48, 56)])]
    blocky = rng.uniform(0, 1, (1, 19, 16, 16)).astype(np.float32)
    top = np.kron(rng.integers(0, 19, (4, 4)), np.ones((4, 4), int))[None]
    np.put_along_axis(blocky[0], top, np.float32(3), axis=0)
    cases.append((blocky, [(128, 128), (256, 256)]))
    for data, sizes in cases:
        x = Tensor(data)
        with np.errstate(invalid="ignore"):
            y = x
            for size in sizes:
                y = tensorops.bilinear_resize(y, *size)
            want = tensorops.argmax_channels(y)
            got = tensorops.resize_argmax(x, *sizes[-1], sizes[:-1])
        if not np.array_equal(got, want):
            return (f"{data.shape[2:]} -> {' -> '.join(map(str, sizes))}: "
                    "label maps differ")
    return None


def _check_fold(rng: np.random.Generator) -> str | None:
    """Folded and unfolded forward passes must agree to 1e-4."""
    net = netdef.build_variant("edanet", classes=19)
    store = runtime.init_weights(net, seed=2024)
    x = Tensor(rng.uniform(0, 1, (1, 3, 64, 128)).astype(np.float32))
    plain = runtime.forward(net, store, x)
    folded = runtime.fold_batch_norm(net, store)
    merged = runtime.forward(folded.net, folded.weights, x)
    diff = float(np.abs(plain.data - merged.data).max())
    if diff > 1e-4:
        return f"max logit difference {diff:.2e}"
    if not np.array_equal(
        tensorops.argmax_channels(plain), tensorops.argmax_channels(merged)
    ):
        return "label maps differ"
    return None


_PARAM_BANDS = {
    "edanet": (680_000, 0.02),
    "non_asym": (810_000, 0.02),
    "non_dense": (730_000, 0.02),
    "shallow": (550_000, 0.02),
    "aspp": (3_410_000, 0.02),
    "densedown": (420_000, 0.03),
}

_MAC_BANDS = {
    "edanet": (8_970_000_000, 0.05),
    "non_asym": (11_410_000_000, 0.05),
    "non_dense": (8_870_000_000, 0.05),
    "shallow": (7_770_000_000, 0.05),
    "densedown": (8_510_000_000, 0.05),
}


def _check_analyzer() -> str | None:
    macs = {}
    for variant, (target, tol) in _PARAM_BANDS.items():
        net = netdef.build_variant(variant, classes=19)
        total = analyzer.count_params(net)
        if abs(total - target) > tol * target:
            return f"{variant}: {total} params outside {target}±{tol:.0%}"
    for variant, (target, tol) in _MAC_BANDS.items():
        net = netdef.build_variant(variant, classes=19)
        macs[variant] = analyzer.count_multiply_adds(net, (3, 512, 1024))
        if abs(macs[variant] - target) > tol * target:
            return (
                f"{variant}: {macs[variant]} multiply-adds outside "
                f"{target}±{tol:.0%}"
            )
    ratio = macs["non_asym"] / macs["edanet"]
    if not 1.22 <= ratio <= 1.30:
        return f"non_asym/edanet multiply-add ratio {ratio:.4f} outside [1.22, 1.30]"
    return None


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(7)
    checks = [
        ("separability", lambda: _check_separability(rng)),
        ("dilation-equivalence", lambda: _check_dilation(rng)),
        ("readout-equivalence", lambda: _check_readout(rng)),
        ("bn-fold-equivalence", lambda: _check_fold(rng)),
        ("analyzer-regressions", _check_analyzer),
    ]
    failed = False
    for name, fn in checks:
        detail = fn()
        if detail is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
            failed = True
    return EXIT_SELFTEST if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "palette", None) and not args.color:
            parser.error("--palette needs --color")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.threads is not None:
            tensorops.set_num_threads(args.threads)
        # looked up per call, not bound into the shared parser, so a
        # command wrapped or patched after the first call is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except OSError as exc:
        print(f"edanet: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NetspecError, ShapeError, WeightError, WeightFormatError,
            imageio.ImageFormatError, ValueError) as exc:
        print(f"edanet: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
