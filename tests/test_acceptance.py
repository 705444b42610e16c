"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else.

Reference values:

* parameter and multiply-add targets are the reference totals for this
  architecture family (0.68M etc.); bands are +/-2% for params (densedown
  +/-3%) and +/-5% for multiply-adds at a 512x1024 input;
* erfdec params and aspp multiply-adds have no reconcilable published
  counterpart under the stated counting convention, so the independently
  derived values are frozen as golden numbers;
* per-layer channel/size tables are exact.
"""

import math

import numpy as np
import pytest

from edanet import analyzer, netdef, runtime, schedmetrics
from edanet.cli import main as cli_main
from edanet.imageio import read_ppm, write_ppm
from edanet.netdef import build_variant, parse_netspec, serialize_netspec
from edanet.runtime import (
    deserialize_weights,
    fold_batch_norm,
    forward,
    init_weights,
    serialize_weights,
)
from edanet.tensorops import Kernel, Tensor, argmax_channels, conv2d, zero_insert_kernel

CLASSES = 19


def report(criterion: str, failures: list):
    if failures:
        print(f"FAIL {criterion}: {failures[0]}")
        raise AssertionError(f"{criterion}: {failures}")
    print(f"PASS {criterion}")


def within(value, target, tol):
    return abs(value - target) <= tol * target


# criterion 1 ---------------------------------------------------------------

PARAM_BANDS = {
    "edanet": (680_000, 0.02),
    "non_asym": (810_000, 0.02),
    "non_dense": (730_000, 0.02),
    "shallow": (550_000, 0.02),
    "aspp": (3_410_000, 0.02),
    "densedown": (420_000, 0.03),
}

# Derived by closed-form counting; the family's quoted 0.78M is not reachable
# from the documented decoder structure, so the derived value is pinned exactly.
ERFDEC_PARAMS_GOLDEN = 906_628


def test_criterion_1_parameter_regression():
    failures = []
    for variant, (target, tol) in sorted(PARAM_BANDS.items()):
        total = analyzer.count_params(build_variant(variant, classes=CLASSES))
        if not within(total, target, tol):
            failures.append(f"{variant} params {total} outside {target}±{tol:.0%}")
    erfdec = analyzer.count_params(build_variant("erfdec", classes=CLASSES))
    if erfdec != ERFDEC_PARAMS_GOLDEN:
        failures.append(f"erfdec params {erfdec} != golden {ERFDEC_PARAMS_GOLDEN}")
    report("criterion 1: parameter counts", failures)


# criterion 2 ---------------------------------------------------------------

MAC_BANDS = {
    "edanet": (8_970_000_000, 0.05),
    "non_asym": (11_410_000_000, 0.05),
    "non_dense": (8_870_000_000, 0.05),
    "shallow": (7_770_000_000, 0.05),
    "densedown": (8_510_000_000, 0.05),
}

# Derived multiply-adds; the family's quoted 41.42B is not reachable from the
# documented counting convention, so the derived value is pinned exactly.
ASPP_MACS_GOLDEN = 30_511_630_758


def test_criterion_2_multiply_add_regression():
    failures = []
    macs = {}
    for variant, (target, tol) in sorted(MAC_BANDS.items()):
        macs[variant] = analyzer.count_multiply_adds(
            build_variant(variant, classes=CLASSES), (3, 512, 1024)
        )
        if not within(macs[variant], target, tol):
            failures.append(
                f"{variant} multiply-adds {macs[variant]} outside {target}±{tol:.0%}"
            )
    ratio = macs["non_asym"] / macs["edanet"]
    if not 1.22 <= ratio <= 1.30:
        failures.append(f"non_asym/edanet ratio {ratio:.4f} outside [1.22, 1.30]")
    aspp = analyzer.count_multiply_adds(
        build_variant("aspp", classes=CLASSES), (3, 512, 1024)
    )
    if aspp != ASPP_MACS_GOLDEN:
        failures.append(f"aspp multiply-adds {aspp} != golden {ASPP_MACS_GOLDEN}")
    report("criterion 2: multiply-add counts", failures)


# criterion 3 ---------------------------------------------------------------

def _dense_rows(prefix_ch):
    rows = []
    ch = prefix_ch
    for i in range(1, 6):
        ch += 40
        rows.append((f"m1_{i}", ch, 128, 256))
    return rows


def _block2_rows(count):
    rows = []
    ch = 130
    for i in range(1, count + 1):
        ch += 40
        rows.append((f"m2_{i}", ch, 64, 128))
    return rows


_TRUNK = (
    [("ds1", 15, 256, 512), ("ds2", 60, 128, 256)]
    + _dense_rows(60)
    + [("ds3", 130, 64, 128)]
)

_TAIL = [("proj", CLASSES, 64, 128), ("up8", CLASSES, 512, 1024)]

GOLDEN_SHAPES = {
    "edanet": _TRUNK + _block2_rows(8) + _TAIL,
    "non_asym": _TRUNK + _block2_rows(8) + _TAIL,
    "non_dense": (
        [("ds1", 15, 256, 512), ("ds2", 40, 128, 256)]
        + [(f"m1_{i}", 40, 128, 256) for i in range(1, 6)]
        + [("ds3", 80, 64, 128)]
        + [(f"m2_{i}", 80, 64, 128) for i in range(1, 9)]
        + _TAIL
    ),
    "shallow": _TRUNK + _block2_rows(4) + _TAIL,
    "aspp": _TRUNK + _block2_rows(4) + [("ctx", 290, 64, 128)] + _TAIL,
    "erfdec": (
        _TRUNK + _block2_rows(8)
        + [
            ("up1", 64, 128, 256),
            ("d1_1", 64, 128, 256),
            ("d1_2", 64, 128, 256),
            ("up2", 16, 256, 512),
            ("d2_1", 16, 256, 512),
            ("d2_2", 16, 256, 512),
            ("up3", CLASSES, 512, 1024),
        ]
    ),
    "densedown": (
        [("stem", 60, 256, 512), ("pool0", 60, 128, 256)]
        + _dense_rows(60)
        + [("trans1", 130, 128, 256), ("pool1", 130, 64, 128)]
        + _block2_rows(8)
        + _TAIL
    ),
}


def test_criterion_3_channel_and_size_goldens():
    failures = []
    for variant, golden in sorted(GOLDEN_SHAPES.items()):
        net = build_variant(variant, classes=CLASSES)
        traced = analyzer.trace_shapes(net, (3, 512, 1024))
        if len(traced) != len(golden):
            failures.append(
                f"{variant}: {len(traced)} layers, expected {len(golden)}"
            )
            continue
        for (name, shape), (g_name, c, h, w) in zip(traced, golden):
            if name != g_name or shape != (c, h, w):
                failures.append(
                    f"{variant}.{g_name}: expected {(c, h, w)}, "
                    f"got {name}={shape}"
                )
    report("criterion 3: per-layer channels and sizes", failures)


# criterion 4 ---------------------------------------------------------------

def test_criterion_4_separable_kernel_identity():
    rng = np.random.default_rng(2718)
    failures = []
    for trial in range(100):
        n = int(rng.choice([3, 5]))
        wx = rng.uniform(-1, 1, n).astype(np.float32)
        wy = rng.uniform(-1, 1, n).astype(np.float32)
        full = Kernel(np.outer(wx, wy)[None, None].astype(np.float32))
        x = Tensor(rng.uniform(-1, 1, (1, 1, 11, 13)).astype(np.float32))
        pad = n // 2
        two_d = conv2d(x, full, pad_h=pad, pad_w=pad)
        col = conv2d(x, Kernel(wx.reshape(1, 1, n, 1)), pad_h=pad)
        composed = conv2d(col, Kernel(wy.reshape(1, 1, 1, n)), pad_w=pad)
        scale = max(float(np.abs(two_d.data).max()), 1e-12)
        err = float(np.abs(two_d.data - composed.data).max()) / scale
        if err > 1e-4:
            failures.append(f"trial {trial} (n={n}): relative error {err:.3e}")
    report("criterion 4: separable-kernel identity (100 trials)", failures)


# criterion 5 ---------------------------------------------------------------

def test_criterion_5_dilation_equivalence():
    rng = np.random.default_rng(314)
    failures = []
    for r in (2, 4, 8, 16):
        k = Kernel(rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32))
        expanded_kernel = zero_insert_kernel(k, r)
        if expanded_kernel.kh != r * 2 + 1:
            failures.append(f"r={r}: effective size {expanded_kernel.kh}")
        size = 2 * r + 6
        x = Tensor(rng.uniform(-1, 1, (1, 3, size, size)).astype(np.float32))
        dilated = conv2d(x, k, dilation=r, pad_h=r, pad_w=r)
        expanded = conv2d(x, expanded_kernel, pad_h=r, pad_w=r)
        if not np.array_equal(
            dilated.data.view(np.uint32), expanded.data.view(np.uint32)
        ):
            failures.append(f"r={r}: dilated conv not bit-identical")
    report("criterion 5: dilation equivalence (bit-exact)", failures)


# criterion 6 ---------------------------------------------------------------

def test_criterion_6_bn_fold_equivalence():
    rng = np.random.default_rng(1618)
    x = Tensor(rng.uniform(0, 1, (1, 3, 64, 128)).astype(np.float32))
    failures = []
    for variant in sorted(netdef.VARIANTS):
        net = build_variant(variant, classes=CLASSES)
        store = init_weights(net, seed=97)
        folded = fold_batch_norm(net, store)
        plain = forward(net, store, x)
        merged = forward(folded.net, folded.weights, x)
        diff = float(np.abs(plain.data - merged.data).max())
        if diff > 1e-4:
            failures.append(f"{variant}: max logit difference {diff:.3e}")
        elif not np.array_equal(argmax_channels(plain), argmax_channels(merged)):
            failures.append(f"{variant}: label maps differ")
    report("criterion 6: BN-fold equivalence (7 variants)", failures)


# criterion 7 ---------------------------------------------------------------

def test_criterion_7_receptive_field_units():
    failures = []

    def stack(count):
        layers = [
            netdef.LayerSpec("conv", f"c{i}", in_ch=1, out_ch=1, kh=3, kw=3,
                             stride=1, dilation=1, pad_h=1, pad_w=1,
                             bn=False, act=False)
            for i in range(count)
        ]
        return netdef.NetworkSpec("stack", 2, layers)

    if analyzer.receptive_field(stack(2), 1, (1, 16, 16)) != (5, 5):
        failures.append("two stacked 3x3 convs should give rf 5")
    if analyzer.receptive_field(stack(3), 2, (1, 16, 16)) != (7, 7):
        failures.append("three stacked 3x3 convs should give rf 7")
    if analyzer.effective_kernel(3, 2) != 5:
        failures.append("effective_kernel(3, 2) != 5")
    if analyzer.effective_kernel(3, 16) != 33:
        failures.append("effective_kernel(3, 16) != 33")
    report("criterion 7: receptive-field units", failures)


# criterion 8 ---------------------------------------------------------------

def test_criterion_8_asymmetric_saving():
    failures = []
    for width in (8, 40, 64, 80, 128):
        pair = 3 * 1 * width * width + 1 * 3 * width * width
        full = 3 * 3 * width * width
        if pair * 3 != full * 2:
            failures.append(f"width {width}: pair {pair} != 2/3 of {full}")
    report("criterion 8: asymmetric pair is exactly 2/3 of a 3x3", failures)


# criterion 9 ---------------------------------------------------------------

def test_criterion_9_end_to_end_determinism(tmp_path):
    rng = np.random.default_rng(55)
    img = Tensor(rng.uniform(0, 1, (1, 3, 64, 128)).astype(np.float32))
    (tmp_path / "in.ppm").write_bytes(write_ppm(img))
    net = tmp_path / "net.nspec"
    w = tmp_path / "w.edaw"
    failures = []
    assert cli_main(["build", "--variant", "edanet", "--out", str(net)]) == 0
    assert cli_main(["init", "--net", str(net), "--seed", "42",
                     "--out", str(w)]) == 0
    blobs = []
    for i, threads in enumerate(("1", "4", "1")):
        out = tmp_path / f"seg{i}.pgm"
        code = cli_main(["--threads", threads, "infer", "--net", str(net),
                         "--weights", str(w), "--image", str(tmp_path / "in.ppm"),
                         "--out", str(out)])
        if code != 0:
            failures.append(f"run {i}: exit code {code}")
            break
        blobs.append(out.read_bytes())
    if not failures and len(set(blobs)) != 1:
        failures.append("label maps differ across runs/thread counts")
    report("criterion 9: end-to-end determinism (3 runs, threads 1/4)", failures)


# criterion 10 --------------------------------------------------------------

def test_criterion_10_formula_functions():
    failures = []
    (w0,) = schedmetrics.class_weights(schedmetrics.ClassFrequencies([0.0]))
    if abs(w0 - 1.0 / math.log(1.12)) > 1e-9 * abs(w0):
        failures.append(f"class weight at p=0: {w0}")
    lr0 = schedmetrics.poly_lr(5e-4, 0, 1500)
    if abs(lr0 - 5e-4) > 1e-9 * 5e-4:
        failures.append(f"poly lr at iter 0: {lr0}")
    if schedmetrics.poly_lr(5e-4, 1500, 1500) != 0.0:
        failures.append("poly lr at max_iter should be exactly 0")
    pred = np.array([[0, 0], [1, 1]], np.int32)
    gt = np.array([[0, 1], [1, 1]], np.int32)
    _, miou = schedmetrics.mean_iou(pred, gt, classes=2)
    if abs(miou - 7 / 12) > 1e-9 * (7 / 12):
        failures.append(f"hand-counted mIoU: {miou} != 7/12")
    report("criterion 10: formula functions", failures)


# criterion 11 --------------------------------------------------------------

def test_criterion_11_format_round_trips():
    failures = []
    for variant in sorted(netdef.VARIANTS):
        net = build_variant(variant, classes=CLASSES)
        if parse_netspec(serialize_netspec(net)) != net:
            failures.append(f"{variant}: .nspec round trip not identity")
    net = build_variant("shallow", classes=CLASSES)
    store = init_weights(net, seed=8)
    blob = serialize_weights(store)
    if serialize_weights(deserialize_weights(blob)) != blob:
        failures.append(".edaw round trip not byte-identical")
    rng = np.random.default_rng(12)
    pixels = rng.integers(0, 256, (6, 9, 3), dtype=np.uint8)
    ppm = b"P6\n9 6\n255\n" + pixels.tobytes()
    if write_ppm(read_ppm(ppm)) != ppm:
        failures.append("P6 round trip not byte-identical")
    report("criterion 11: format round trips", failures)
