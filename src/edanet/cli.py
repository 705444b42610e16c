"""Command-line surface: build/analyze/init/infer/fold/selftest.

Exit codes: 0 success, 2 usage, 3 I/O, 4 validation or shape error,
5 selftest failure.  All subcommands are deterministic: identical inputs
and flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
import time

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edanet",
        description="Build, analyze, and run EDANet-family segmentation networks.",
    )
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for the executor (default 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a network description (.nspec)")
    p.add_argument("--variant", required=True, choices=netdef.VARIANTS)
    p.add_argument("--classes", type=int, default=19)
    p.add_argument("--upscale", type=int, default=2,
                   help="inference-only bilinear factor (default 2)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="static shape/params/multiply-add report")
    p.add_argument("--net", required=True)
    p.add_argument("--input-size", type=_parse_size, default=(512, 1024),
                   metavar="HxW")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("init", help="write deterministic seeded weights (.edaw)")
    p.add_argument("--net", required=True)
    p.add_argument("--seed", type=_parse_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init)

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
    p.add_argument("--bench", type=int, default=0, metavar="N",
                   help="report mean wall-clock over N extra runs (folding excluded)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("fold", help="persist a BN-folded network + weights")
    p.add_argument("--net", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out-net", required=True)
    p.add_argument("--out-weights", required=True)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("selftest", help="run built-in consistency checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def cmd_build(args) -> int:
    net = netdef.build_variant(args.variant, classes=args.classes,
                               upscale=args.upscale)
    _write_text(args.out, netdef.serialize_netspec(net))
    return EXIT_OK


def cmd_analyze(args) -> int:
    net = netdef.parse_netspec(_read_text(args.net))
    h, w = args.input_size
    report = analyzer.analyze(net, (3, h, w))
    text = analyzer.render_report(report, format=args.format)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_init(args) -> int:
    net = netdef.parse_netspec(_read_text(args.net))
    store = runtime.init_weights(net, args.seed)
    runtime.save_weights(store, args.out)
    return EXIT_OK


def cmd_infer(args) -> int:
    net = netdef.parse_netspec(_read_text(args.net))
    store = runtime.load_weights(args.weights)
    image = imageio.read_ppm(_read_bytes(args.image))
    if args.color:
        if args.palette:
            palette = imageio.load_palette(_read_text(args.palette))
        else:
            palette = imageio.default_palette(net.classes)
        if len(palette) < net.classes:
            raise ValueError(f"palette has {len(palette)} entries for {net.classes} classes")
    if args.fold:
        folded = runtime.fold_batch_norm(net, store)
        net, store = folded.net, folded.weights
    labels = runtime.infer_image(net, store, image)
    _write_bytes(args.out, imageio.write_pgm(labels))
    if args.color:
        _write_bytes(args.color, imageio.colorize(labels, palette))
    if args.bench > 0:
        start = time.perf_counter()
        for _ in range(args.bench):
            runtime.infer_image(net, store, image)
        mean = (time.perf_counter() - start) / args.bench
        print(f"bench: mean {mean:.3f}s over {args.bench} runs")
    return EXIT_OK


def cmd_fold(args) -> int:
    net = netdef.parse_netspec(_read_text(args.net))
    store = runtime.load_weights(args.weights)
    folded = runtime.fold_batch_norm(net, store)
    _write_text(args.out_net, netdef.serialize_netspec(folded.net))
    runtime.save_weights(folded.weights, args.out_weights)
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
    """Dilated conv must equal the zero-inserted kernel bit-exactly."""
    for r in (2, 4, 8, 16):
        k = Kernel(rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32))
        size = 2 * r + 5
        x = Tensor(rng.uniform(-1, 1, (1, 3, size, size)).astype(np.float32))
        dilated = tensorops.conv2d(x, k, dilation=r, pad_h=r, pad_w=r)
        expanded = tensorops.conv2d(
            x, tensorops.zero_insert_kernel(k, r), pad_h=r, pad_w=r
        )
        if not np.array_equal(
            dilated.data.view(np.uint32), expanded.data.view(np.uint32)
        ):
            return f"rate {r}: outputs not bit-identical"
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
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        tensorops.set_num_threads(args.threads)
        return args.func(args)
    except OSError as exc:
        print(f"edanet: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NetspecError, ShapeError, WeightError, WeightFormatError,
            imageio.ImageFormatError, ValueError) as exc:
        print(f"edanet: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
