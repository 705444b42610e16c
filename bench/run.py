"""End-to-end and per-layer benchmark of the edanet engine.

Run from the repository root:

    python3 bench/run.py --workload city_full --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --selfcheck      # every workload at tiny sizes
    python3 bench/run.py --write-refs     # regenerate bench/refs/*.npz

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  Everything runs in this one process, with
at most two executor threads.

* ``city_full`` -- the Cityscapes setting: edanet, 19 classes, upscale 2,
  512x1024 frames (1024x2048 labels), BN folded once at set-up, two
  executor threads.  Convolutions run at DRAM scale with row-parallel
  threads, and the 152 MiB readout upscale plus argmax drives peak memory.
* ``ablation_sweep`` -- the paper's ablation table as a user runs it,
  through in-process ``edanet.cli.main``: for each of the seven variants
  ``build``, ``analyze --format csv``, ``init``, ``fold``, then ``infer``
  on a 32x64 image with the unfolded and with the folded pair.  File
  writes sit beside parses and loads, every node type runs, and the tiny
  forwards are dominated by executor overhead.

The CamVid setting (128x256, unfolded, one thread) is not a workload: on a
shared two-core Xeon VM its cache-resident frames drift between levels 1.5x
apart that last minutes, so no run that fits the time budget repeats within
a 25 % bound.  Unfolded BN steps, pooling and small-image kernels still run,
in the sweep's ``infer`` commands.

A frame is ``read_ppm -> infer_image -> write_pgm -> colorize`` on one
image; in the sweep, a frame is one ``infer`` command.  A sweep is one pass
over the workload's distinct inputs: the seven variants, or the cycled
image set.  Images are seeded noise in [0, 1]: the arithmetic is dense, so
pixel content does not change the work.  ``--seed`` picks and orders the
images from a fixed pool whose reference labels are stored in
``bench/refs``, so outputs are checked on every seed.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` spends half the run untraced and half with every public
edanet function wrapped in a span (see ``spans.py``), then runs one op
under ``tracemalloc``, and reports per-layer metrics per op.  Full
results, the environment and the spans are written to ``bench/results``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import ModuleType

import numpy as np

import spans as spanlib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFS = BENCH / "refs"
RESULTS = BENCH / "results"
WORK = BENCH / "work"

MIB = float(1 << 20)
WEIGHT_SEED = 42
# Untraced runs set up this many times back to back before the first op and
# report the median.  The host's speed moves between levels within seconds,
# and 40 set-ups span a few of them.  The count is fixed, not the time:
# every re-import leaves some heap behind, so peak_rss_mib grows with it.
SETUP_REPS = 40
# An op whose labels agree with the reference on fewer pixels than this
# fails.  Rounding-level label flips (a BLAS-ordered convolution) stay
# well above it; a broken network agrees on about 1/classes of them.
LABEL_AGREE_MIN = 0.99

VARIANTS = ("edanet", "non_asym", "non_dense", "shallow", "aspp", "erfdec",
            "densedown")
EDANET_LAYERS = ("ds1", "ds2", "m1_1", "m1_2", "m1_3", "m1_4", "m1_5", "ds3",
                 "m2_1", "m2_2", "m2_3", "m2_4", "m2_5", "m2_6", "m2_7",
                 "m2_8", "proj", "up8")

# The paper's totals at 512x1024 with the relative band each may deviate
# by; the ablation sweep checks every ``analyze`` report against them.
PARAM_BANDS = {
    "edanet": (680_000, 0.02), "non_asym": (810_000, 0.02),
    "non_dense": (730_000, 0.02), "shallow": (550_000, 0.02),
    "aspp": (3_410_000, 0.02), "densedown": (420_000, 0.03),
}
MAC_BANDS = {
    "edanet": (8_970_000_000, 0.05), "non_asym": (11_410_000_000, 0.05),
    "non_dense": (8_870_000_000, 0.05), "shallow": (7_770_000_000, 0.05),
    "densedown": (8_510_000_000, 0.05),
}

END_TO_END = {
    "frame_s_p50": "s",
    "frames_per_s": "1/s",
    "sweep_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "label_agree": "ratio",
}

# (metric, unit, span names summed, field of spans.summarize); seconds,
# calls and MiB are per traced op.
SPAN_METRICS = [
    ("tensorops.conv2d.s", "s", ("tensorops.conv2d",), "s"),
    ("tensorops.conv2d.calls", "count", ("tensorops.conv2d",), "calls"),
    ("tensorops.conv2d.strided.s", "s", ("tensorops.conv2d",), "strided_s"),
    ("tensorops.conv2d.dilated.s", "s", ("tensorops.conv2d",), "dilated_s"),
    ("tensorops.bilinear_resize.s", "s", ("tensorops.bilinear_resize",), "s"),
    ("tensorops.bilinear_resize.out_mib", "MiB",
     ("tensorops.bilinear_resize",), "bytes"),
    ("tensorops.argmax_channels.s", "s", ("tensorops.argmax_channels",), "s"),
    ("tensorops.concat_channels.s", "s", ("tensorops.concat_channels",), "s"),
    ("tensorops.concat_channels.copied_mib", "MiB",
     ("tensorops.concat_channels",), "bytes"),
    ("tensorops.eltwise.s", "s", ("tensorops.batch_norm",
     "tensorops.channel_affine", "tensorops.relu", "tensorops.add"), "s"),
    ("tensorops.batch_norm.calls", "count", ("tensorops.batch_norm",), "calls"),
    ("tensorops.pool.s", "s", ("tensorops.max_pool2d", "tensorops.avg_pool2d",
     "tensorops.global_avg_pool"), "s"),
    ("tensorops.transposed_conv2d.s", "s", ("tensorops.transposed_conv2d",),
     "s"),
    ("runtime.forward.self_s", "s", ("runtime.forward",), "self_s"),
    ("runtime.infer_image.self_s", "s", ("runtime.infer_image",), "self_s"),
    ("netdef.expand_layer.s", "s", ("netdef.expand_layer",), "s"),
    ("netdef.expand_layer.calls", "count", ("netdef.expand_layer",), "calls"),
    ("cli.main.self_s", "s", ("cli.main",), "self_s"),
] + [(f"{name}.s", "s", (name,), "s") for name in (
    "runtime.fold_batch_norm", "runtime.init_weights",
    "runtime.serialize_weights", "runtime.deserialize_weights",
    "netdef.parse_netspec", "netdef.serialize_netspec", "netdef.build_variant",
    "analyzer.analyze", "imageio.read_ppm", "imageio.write_pgm",
    "imageio.colorize",
)]

PER_LAYER = {
    **{metric: unit for metric, unit, _names, _field in SPAN_METRICS},
    "tensorops.conv2d.gmac_per_s": "GMAC/s",
    "tensorops.alloc_peak_mib": "MiB",
    **{f"layer.{name}.s": "s" for name in EDANET_LAYERS},
    **{f"layer.{name}.gmac_per_s": "GMAC/s" for name in EDANET_LAYERS},
    "layer.readout.s": "s",
    "layer.forward_share": "ratio",
    "trace.coverage_min": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    size: tuple       # input (h, w)
    classes: int
    upscale: int
    fold: bool        # fold BN once at set-up (frame workloads)
    threads: int      # executor threads
    cycle: int        # distinct images one run cycles through
    pool: int         # images with stored reference labels
    sweep: bool = False


WORKLOADS = {
    "city_full": Workload("city_full", (512, 1024), 19, 2, True, 2, 2, 6),
    "ablation_sweep": Workload("ablation_sweep", (32, 64), 19, 2, False, 1, 4, 4,
                               sweep=True),
}
# Sizes for --tiny, the quick self-check; they have reference labels too.
TINY_SIZES = {"city_full": (64, 128), "ablation_sweep": (16, 32)}


# ---------------------------------------------------------------------------
# inputs, outputs and references

_NETPBM = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+255\s")


def pool_image(index: int, size: tuple) -> bytes:
    """Binary P6 image number ``index`` of the pool for ``size``."""
    h, w = size
    rng = np.random.default_rng([index, h, w])
    return b"P6\n%d %d\n255\n" % (w, h) + rng.integers(
        0, 256, (h, w, 3), dtype=np.uint8).tobytes()


def decode_netpbm(data: bytes, magic: bytes) -> np.ndarray:
    """Pixels of a binary P5 (h, w) or P6 (h, w, 3) image with maxval 255."""
    m = _NETPBM.match(data)
    if m is None or m.group(1) != magic:
        raise ValueError(f"not a binary {magic.decode()} image with maxval 255")
    w, h = int(m.group(2)), int(m.group(3))
    shape = (h, w, 3) if magic == b"P6" else (h, w)
    pixels = np.frombuffer(data, np.uint8, offset=m.end())
    if pixels.size != int(np.prod(shape)):
        raise ValueError(f"{magic.decode()} payload has {pixels.size} bytes, "
                         f"expected {int(np.prod(shape))}")
    return pixels.reshape(shape)


def refs_path(wl: Workload) -> Path:
    return REFS / f"{wl.name}-{wl.size[0]}x{wl.size[1]}.npz"


def load_refs(wl: Workload, indices) -> dict:
    """Reference label maps of the pool images ``indices``."""
    with np.load(refs_path(wl)) as data:
        return {key: data[key] for key in data.files
                if int(key.rsplit("img", 1)[1]) in indices}


def import_edanet():
    """Import edanet and its CLI afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "edanet" or m.startswith("edanet.")]:
        del sys.modules[name]
    ed = importlib.import_module("edanet")
    importlib.import_module("edanet.cli")
    return ed


# ---------------------------------------------------------------------------
# workloads: an op returns (outputs, frame seconds or None); check() is
# untimed and returns (agreeing label pixels, label pixels, problems)

class Frames:
    def __init__(self, ed, net, weights, images, refs):
        self.ed, self.net, self.weights = ed, net, weights
        self.images, self.refs = images, refs
        self.palette = ed.imageio.default_palette(net.classes)

    def op(self, i: int):
        io = self.ed.imageio
        image = io.read_ppm(self.images[i % len(self.images)][1])
        labels = self.ed.runtime.infer_image(self.net, self.weights, image)
        return (io.write_pgm(labels), io.colorize(labels, self.palette)), None

    def labels(self, out) -> dict:
        """Label maps of an op's outputs, by reference-name prefix."""
        return {"img": decode_netpbm(out[0], b"P5")}

    def check(self, i: int, out):
        labels = decode_netpbm(out[0], b"P5")
        problems = []
        if not np.array_equal(decode_netpbm(out[1], b"P6"), self.palette[labels]):
            problems.append("colorized image does not match the label map")
        ref = self.refs[f"img{self.images[i % len(self.images)][0]}"]
        if labels.shape != ref.shape:
            return 0, ref.size, problems + [f"labels {labels.shape}, expected {ref.shape}"]
        return int(np.count_nonzero(labels == ref)), ref.size, problems


class Sweep:
    def __init__(self, ed, tmp: Path, images, refs):
        self.ed, self.images, self.refs = ed, images, refs
        self.files = {v: {k: str(tmp / f"{v}.{k}") for k in (
            "nspec", "edaw", "csv", "f.nspec", "f.edaw", "pgm", "f.pgm")}
            for v in VARIANTS}
        self.paths = [str(tmp / f"img{idx}.ppm") for idx, _ppm in images]

    def commands(self, v: str, image: str) -> list:
        f = self.files[v]
        return [
            (False, ["build", "--variant", v, "--out", f["nspec"]]),
            (False, ["analyze", "--net", f["nspec"], "--format", "csv",
                     "--out", f["csv"]]),
            (False, ["init", "--net", f["nspec"], "--seed", str(WEIGHT_SEED),
                     "--out", f["edaw"]]),
            (False, ["fold", "--net", f["nspec"], "--weights", f["edaw"],
                     "--out-net", f["f.nspec"], "--out-weights", f["f.edaw"]]),
            (True, ["infer", "--net", f["nspec"], "--weights", f["edaw"],
                    "--image", image, "--out", f["pgm"]]),
            (True, ["infer", "--net", f["f.nspec"], "--weights", f["f.edaw"],
                    "--image", image, "--out", f["f.pgm"]]),
        ]

    def op(self, i: int):
        main = self.ed.cli.main
        image = self.paths[i % len(self.paths)]
        codes, frames = [], []
        for v in VARIANTS:
            for is_frame, argv in self.commands(v, image):
                t0 = time.perf_counter()
                codes.append(main(["--threads", "1", *argv]))
                if is_frame:
                    frames.append(time.perf_counter() - t0)
        return codes, frames

    def labels(self, out) -> dict:
        return {f"{v}_img": decode_netpbm(Path(self.files[v]["pgm"]).read_bytes(), b"P5")
                for v in VARIANTS}

    def check(self, i: int, out):
        idx = self.images[i % len(self.images)][0]
        problems = [f"exit code {c}" for c in out if c != 0]
        agree = total = 0
        for v in VARIANTS:
            f = self.files[v]
            try:
                plain = Path(f["pgm"]).read_bytes()
                if Path(f["f.pgm"]).read_bytes() != plain:
                    problems.append(f"{v}: folded labels differ from unfolded")
                labels = decode_netpbm(plain, b"P5")
                ref = self.refs[f"{v}_img{idx}"]
                total += ref.size
                if labels.shape == ref.shape:
                    agree += int(np.count_nonzero(labels == ref))
                else:
                    problems.append(f"{v}: labels {labels.shape}, expected {ref.shape}")
                total_row = Path(f["csv"]).read_text("utf-8").splitlines()[-1]
                params, macs = (int(x) for x in total_row.split(",")[2:4])
            except (OSError, ValueError) as exc:
                problems.append(f"{v}: {exc}")
                continue
            for value, bands, what in ((params, PARAM_BANDS, "params"),
                                       (macs, MAC_BANDS, "multiply-adds")):
                if v in bands and abs(value - bands[v][0]) > bands[v][1] * bands[v][0]:
                    problems.append(f"{v}: {value} {what} outside the paper's "
                                    f"{bands[v][0]} +-{bands[v][1]:.0%}")
        return agree, total, problems


def prepare(wl: Workload, ed, tmp: Path, images) -> None:
    """Write the sweep's input images, or the frame workloads' .nspec and
    .edaw with the program."""
    if wl.sweep:
        for idx, ppm in images:
            (tmp / f"img{idx}.ppm").write_bytes(ppm)
        return
    net = ed.netdef.build_variant("edanet", classes=wl.classes, upscale=wl.upscale)
    (tmp / "net.nspec").write_text(ed.netdef.serialize_netspec(net), "utf-8")
    ed.runtime.save_weights(ed.runtime.init_weights(net, WEIGHT_SEED),
                            tmp / "net.edaw")


def setup(wl: Workload, tmp: Path, images, refs):
    """Everything before the first timed op; returns (seconds, workload)."""
    t0 = time.perf_counter()
    ed = import_edanet()
    if wl.sweep:
        return time.perf_counter() - t0, Sweep(ed, tmp, images, refs)
    net = ed.netdef.parse_netspec((tmp / "net.nspec").read_text("utf-8"))
    weights = ed.runtime.load_weights(tmp / "net.edaw")
    if wl.fold:
        folded = ed.runtime.fold_batch_norm(net, weights)
        net, weights = folded.net, folded.weights
    ed.tensorops.set_num_threads(wl.threads)
    work = Frames(ed, net, weights, images, refs)
    return time.perf_counter() - t0, work


# ---------------------------------------------------------------------------
# measurement

@dataclass
class Tally:
    op_s: list = field(default_factory=list)
    frame_s: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    agree: int = 0
    pixels: int = 0
    problems: list = field(default_factory=list)

    def run(self, work, i: int, timed: bool = True) -> None:
        """Run op ``i``, record its times if ``timed``, check its outputs."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out, frames = work.op(i)
            t1 = time.perf_counter()
            agree, total, problems = work.check(i, out)
        except Exception:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(traceback.format_exc())
            return
        if total and agree < LABEL_AGREE_MIN * total:
            problems.append(f"labels agree on {agree}/{total} pixels")
        self.agree += agree
        self.pixels += total
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])
        if timed:
            self.op_s.append(t1 - t0)
            self.frame_s.extend([t1 - t0] if frames is None else frames)
            self.windows.append((t0, t1))

    def loop(self, work, seconds: float, start: int, min_ops: int) -> int:
        """Closed loop: start ops until ``seconds`` have passed (and at
        least ``min_ops`` ran); returns the next op index."""
        deadline = time.perf_counter() + seconds
        i = start
        while i - start < min_ops or time.perf_counter() < deadline:
            self.run(work, i)
            i += 1
        return i


def sweeps(wl: Workload, tally: Tally) -> list:
    """Seconds per sweep: one op of the sweep workload, or any ``cycle``
    consecutive frames, which pass over every image once."""
    n = 1 if wl.sweep else wl.cycle
    s = tally.op_s
    return [sum(s[k:k + n]) for k in range(len(s) - n + 1)]


def environment(ed, wl: Workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "executor_threads": wl.threads,
        "executor_threads_after_run": ed.tensorops.get_num_threads(),
        **{var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(wl: Workload, tally: Tally, setup_s: list) -> dict:
    metrics = {
        "frame_s_p50": statistics.median(tally.frame_s),
        "frames_per_s": len(tally.frame_s) / sum(tally.op_s),
        "sweep_s_p50": statistics.median(sweeps(wl, tally)),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "label_agree": tally.agree / tally.pixels if tally.pixels else 0.0,
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def extras(tally: Tally) -> dict:
    """Figures reported beside the metrics: sample counts, failures and,
    where at least ten frames lie beyond it, the 90th percentile."""
    out = {"ops": len(tally.op_s), "frames": len(tally.frame_s),
           "attempted": tally.attempted, "failed": tally.failed,
           "failed_frac": tally.failed / max(1, tally.attempted)}
    if len(tally.frame_s) >= 100:
        out["frame_s_p90"] = statistics.quantiles(tally.frame_s, n=10)[-1]
    return out


def per_layer(ed, tracer, traced: Tally, untraced: Tally, alloc_peak: int):
    """Per-layer metrics of the traced phase, per op, and the layer table."""
    n = len(traced.op_s)
    rows = spanlib.summarize(tracer.spans)

    def total(names, fld):
        return sum(rows[s][fld] for s in names if s in rows)

    m = {}
    for metric, unit, names, fld in SPAN_METRICS:
        value = total(names, fld) / n
        m[metric] = (value / MIB if fld == "bytes" else value, unit)
    conv_s = total(("tensorops.conv2d",), "s")
    m["tensorops.conv2d.gmac_per_s"] = (
        total(("tensorops.conv2d",), "macs") / conv_s / 1e9 if conv_s else 0.0,
        "GMAC/s")
    m["tensorops.alloc_peak_mib"] = (alloc_peak / MIB, "MiB")

    macs_memo: dict = {}
    layer_s = dict.fromkeys(EDANET_LAYERS, 0.0)
    layer_macs = dict.fromkeys(EDANET_LAYERS, 0)
    forward_s = readout_s = 0.0
    for attrs, f_s, layers, r_s in spanlib.forward_layers(tracer.spans, "edanet"):
        net, hw = tracer.nets[attrs["ref"]], tuple(attrs["hw"])
        key = (ed.netdef.serialize_netspec(net), hw)
        if key not in macs_memo:
            report = ed.analyzer.analyze(net, (3, *hw))
            macs_memo[key] = {l.name: l.multiply_adds for l in report.layers}
        for name, s in layers.items():
            layer_s[name] = layer_s.get(name, 0.0) + s
            layer_macs[name] = layer_macs.get(name, 0) + macs_memo[key].get(name, 0)
        forward_s += f_s
        readout_s += r_s
    table = []
    for name in EDANET_LAYERS:
        s = layer_s[name]
        rate = layer_macs[name] / s / 1e9 if s else 0.0
        m[f"layer.{name}.s"] = (s / n, "s")
        m[f"layer.{name}.gmac_per_s"] = (rate, "GMAC/s")
        table.append({"layer": name, "s": s / n, "gmac": layer_macs[name] / n / 1e9,
                      "gmac_per_s": rate})
    m["layer.readout.s"] = (readout_s / n, "s")
    m["layer.forward_share"] = (sum(layer_s.values()) / forward_s if forward_s
                                else 0.0, "ratio")
    m["trace.coverage_min"] = (min(spanlib.coverage(tracer.spans, traced.windows)),
                               "ratio")
    m["trace.overhead_ratio"] = (statistics.median(traced.frame_s)
                                 / statistics.median(untraced.frame_s), "ratio")
    return {name: m[name] for name in PER_LAYER}, table


def run(wl: Workload, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    pick = np.random.default_rng(seed & (2**64 - 1)).permutation(wl.pool)[:wl.cycle]
    images = [(int(idx), pool_image(int(idx), wl.size)) for idx in pick]
    refs = load_refs(wl, {idx for idx, _ppm in images})
    prepare(wl, import_edanet(), tmp, images)
    # Set-up is timed back to back before the first op, as a new process
    # meets it: after a frame the grown heap makes it about a quarter slower.
    # Traced runs do not report it.
    setup_s = []
    for _ in range(1 if trace else SETUP_REPS):
        gc.collect()
        t, work = setup(wl, tmp, images, refs)
        setup_s.append(t)
    result = {"workload": wl.name, "size": list(wl.size), "seed": seed,
              "seconds": seconds, "trace": int(trace)}
    tally = Tally()
    try:
        tally.run(work, 0, timed=False)  # warm-up: lazy set-up and allocator
        if not trace:
            tally.loop(work, seconds, 0, min_ops=1 if wl.sweep else wl.cycle)
            if tally.op_s:
                result["metrics"] = end_to_end(wl, tally, setup_s)
        else:
            result.update(traced_run(work, tally, seconds))
        result["env"] = environment(work.ed, wl)
    finally:
        work.ed.tensorops.set_num_threads(1)  # joins the executor's threads
    result["samples"] = {"setup_s": setup_s, "op_s": tally.op_s,
                         "frame_s": tally.frame_s}
    return {**result, "tally": tally}


def traced_run(work, tally: Tally, seconds: float) -> dict:
    """Half the run untraced, half traced, then one op under tracemalloc;
    counts of every phase go to ``tally``."""
    ed = work.ed
    i = tally.loop(work, seconds / 2, 0, min_ops=1)
    traced = Tally()
    tracer = spanlib.Tracer()
    tracer.install([ed, *(m for m in vars(ed).values() if isinstance(m, ModuleType)
                          and m.__name__.startswith("edanet."))])
    tracer.active = True
    try:
        i = traced.loop(work, seconds / 2, i, min_ops=1)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        tally.run(work, i, timed=False)
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for k in ("attempted", "failed", "agree", "pixels"):
        setattr(tally, k, getattr(tally, k) + getattr(traced, k))
    tally.problems += traced.problems
    if not (tally.op_s and traced.op_s):
        return {}
    metrics, layers = per_layer(ed, tracer, traced, tally, alloc_peak)
    return {"metrics": metrics, "layers": layers, "spans": tracer,
            "traced_samples": {"op_s": traced.op_s, "frame_s": traced.frame_s}}


# ---------------------------------------------------------------------------
# entry points

def report(result: dict) -> dict:
    """Print the human-readable report, write the results file, and return
    the final JSON line's object."""
    tally = result.pop("tally")
    tracer = result.pop("spans", None)
    metrics = result.get("metrics", {})
    result["extras"] = extras(tally)
    result["problems"] = tally.problems
    for problem in tally.problems:
        print(f"bench: problem: {problem.rstrip()}", file=sys.stderr)
    print(f"env: {json.dumps(result.get('env'))}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, value in result["extras"].items():
        print(f"{name:40s} {value:14.6g}")
    if result.get("layers"):
        print(f"{'layer':8s} {'s/op':>10s} {'GMAC/op':>10s} {'GMAC/s':>8s}")
        for row in result["layers"]:
            print(f"{row['layer']:8s} {row['s']:10.5f} {row['gmac']:10.4f} "
                  f"{row['gmac_per_s']:8.3f}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{result['workload']}-{result['size'][0]}x{result['size'][1]}" \
           f"-seed{result['seed']}-trace{result['trace']}"
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1), "utf-8")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.json.gz")
    return {"correct": bool(metrics) and tally.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": result["metrics"]}


def write_refs() -> int:
    """Regenerate the reference labels of every workload's image pool, at
    the full and the tiny sizes, with the current program."""
    REFS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        for size in (wl.size, TINY_SIZES[wl.name]):
            w = replace(wl, size=size, cycle=wl.pool)
            images = [(idx, pool_image(idx, size)) for idx in range(w.pool)]
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                prepare(w, import_edanet(), Path(tmp), images)
                _t, work = setup(w, Path(tmp), images, {})
                refs = {}
                for i, (idx, _ppm) in enumerate(images):
                    out, _frames = work.op(i)
                    for prefix, labels in work.labels(out).items():
                        refs[f"{prefix}{idx}"] = labels
                work.ed.tensorops.set_num_threads(1)
            np.savez_compressed(refs_path(w), **refs)
            print(f"wrote {refs_path(w).relative_to(ROOT)} ({len(refs)} label maps)")
    return 0


def selfcheck() -> int:
    """Run every workload at tiny sizes, traced and untraced, each in a
    fresh process, and check the result lines against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    if want[0] != END_TO_END or want[1] != PER_LAYER:
        errors.append("BENCHMARK.json metrics differ from bench/run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from bench/run.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name,
                    "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            tag = f"{name} trace={trace}"
            before = len(errors)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            res = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{tag}: result keys {sorted(res)}")
            if got != want[trace]:
                errors.append(f"{tag}: metrics or units differ: "
                              f"{set(got.items()) ^ set(want[trace].items())}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                errors.append(f"{tag}: correct={res['correct']} "
                              f"failed={res['failed']}/{res['attempted']}")
            if trace:
                for metric, low in (("trace.coverage_min", 0.95),
                                    ("layer.forward_share", 0.9)):
                    value = res["metrics"][metric]["value"]
                    if value < low:
                        errors.append(f"{tag}: {metric} {value:.3f} < {low}")
                bn_calls = res["metrics"]["tensorops.batch_norm.calls"]["value"]
                if WORKLOADS[name].fold and bn_calls:
                    errors.append(f"{tag}: {bn_calls} batch norms per frame after folding")
            print(f"{'ok ' if len(errors) == before else 'ERR'} {tag}")
    for e in errors:
        print(f"selfcheck: {e}", file=sys.stderr)
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="use the self-check's tiny input sizes")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-refs", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "edanet" / "__init__.py").is_file():
        print(f"bench: no edanet sources at {SRC}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    sys.path.insert(0, str(SRC))
    if args.write_refs:
        return write_refs()
    if args.workload is None:
        parser.error("--workload is required")
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = replace(wl, size=TINY_SIZES[wl.name])
    if not refs_path(wl).is_file():
        print(f"bench: no reference labels at {refs_path(wl)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        result = run(wl, args.seed, args.seconds, bool(args.trace), Path(tmp))
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
