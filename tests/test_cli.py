"""Command-line surface: subcommands, exit codes, determinism."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import edanet
from edanet import cli, netdef, runtime, tensorops
from edanet.cli import main
from edanet.imageio import read_pgm, read_ppm, write_ppm
from edanet.tensorops import Tensor


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(99)
    img = Tensor(rng.uniform(0, 1, (1, 3, 64, 128)).astype(np.float32))
    (tmp_path / "in.ppm").write_bytes(write_ppm(img))
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestBuildAnalyze:
    def test_build_then_analyze_reports_reference_params(self, workdir, capsys):
        net_path = workdir / "net.nspec"
        assert run("build", "--variant", "edanet", "--classes", "19",
                   "--out", net_path) == 0
        assert run("analyze", "--net", net_path) == 0
        out = capsys.readouterr().out
        assert "params 0.69M" in out  # 688,778 == 0.68M reference within 2%
        totals = [l for l in out.splitlines() if l.startswith("total")][0]
        assert "688778" in totals

    def test_analyze_csv_header_contract(self, workdir, capsys):
        net_path = workdir / "net.nspec"
        run("build", "--variant", "shallow", "--out", net_path)
        assert run("analyze", "--net", net_path, "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "layer,out_shape,params,macs,rf_h,rf_w"
        assert lines[-1].startswith("total,")

    def test_analyze_to_file_deterministic(self, workdir):
        net_path = workdir / "net.nspec"
        run("build", "--variant", "densedown", "--out", net_path)
        a, b = workdir / "a.csv", workdir / "b.csv"
        run("analyze", "--net", net_path, "--format", "csv", "--out", a)
        run("analyze", "--net", net_path, "--format", "csv", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_analyze_custom_input_size(self, workdir, capsys):
        net_path = workdir / "net.nspec"
        run("build", "--variant", "edanet", "--out", net_path)
        assert run("analyze", "--net", net_path, "--input-size", "64x128",
                   "--format", "csv") == 0
        out = capsys.readouterr().out
        assert "m2_8,450x8x16" in out


class TestInfer:
    def test_end_to_end_shapes(self, workdir):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "edanet", "--out", net)
        assert run("init", "--net", net, "--seed", "42", "--out", w) == 0
        seg = workdir / "seg.pgm"
        assert run("infer", "--net", net, "--weights", w,
                   "--image", workdir / "in.ppm", "--out", seg) == 0
        labels = read_pgm(seg.read_bytes())
        assert labels.shape == (128, 256)  # x2 inference upscale
        assert labels.max() < 19

    def test_byte_identical_across_runs_and_threads(self, workdir):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "edanet", "--out", net)
        run("init", "--net", net, "--seed", "7", "--out", w)
        blobs = []
        for threads in ("1", "4", "1"):
            seg = workdir / f"seg_{len(blobs)}.pgm"
            assert run("--threads", threads, "infer", "--net", net,
                       "--weights", w, "--image", workdir / "in.ppm",
                       "--out", seg) == 0
            blobs.append(seg.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.skipif(tensorops.get_num_threads() is None,
                        reason="numpy links a BLAS other than its bundled OpenBLAS")
    def test_blas_threads_change_only_with_threads_flag(self, workdir):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        tensorops.set_num_threads(2)
        assert run("build", "--variant", "shallow", "--out", net) == 0
        assert run("init", "--net", net, "--seed", "3", "--out", w) == 0
        assert run("infer", "--net", net, "--weights", w,
                   "--image", workdir / "in.ppm", "--out", workdir / "a.pgm") == 0
        assert tensorops.get_num_threads() == 2
        assert run("--threads", "1", "build", "--variant", "shallow", "--out", net) == 0
        assert tensorops.get_num_threads() == 1

    def test_fold_flag_matches_plain(self, workdir):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "shallow", "--out", net)
        run("init", "--net", net, "--seed", "3", "--out", w)
        a, b = workdir / "a.pgm", workdir / "b.pgm"
        run("infer", "--net", net, "--weights", w, "--image", workdir / "in.ppm",
            "--out", a)
        run("infer", "--net", net, "--weights", w, "--image", workdir / "in.ppm",
            "--out", b, "--fold")
        assert a.read_bytes() == b.read_bytes()

    def test_full_resolution_shapes(self, workdir):
        """A 512x1024 P6 input yields a 1024x2048 P5 label map."""
        rng = np.random.default_rng(17)
        big = Tensor(rng.uniform(0, 1, (1, 3, 512, 1024)).astype(np.float32))
        (workdir / "big.ppm").write_bytes(write_ppm(big))
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "edanet", "--out", net)
        run("init", "--net", net, "--seed", "42", "--out", w)
        seg = workdir / "big.pgm"
        assert run("--threads", "4", "infer", "--net", net, "--weights", w,
                   "--image", workdir / "big.ppm", "--out", seg) == 0
        labels = read_pgm(seg.read_bytes())
        assert labels.shape == (1024, 2048)

    def test_bench_flag_reports_timing(self, workdir, capsys):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "shallow", "--out", net)
        run("init", "--net", net, "--seed", "3", "--out", w)
        assert run("infer", "--net", net, "--weights", w,
                   "--image", workdir / "in.ppm", "--out", workdir / "b.pgm",
                   "--bench", "1") == 0
        assert "bench: mean" in capsys.readouterr().out

    def test_fold_with_bench_folds_once(self, workdir, monkeypatch, capsys):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "shallow", "--out", net)
        run("init", "--net", net, "--seed", "3", "--out", w)
        fold, calls = runtime.fold_batch_norm, []
        monkeypatch.setattr(runtime, "fold_batch_norm",
                            lambda *a: calls.append(a) or fold(*a))
        assert run("infer", "--net", net, "--weights", w, "--fold",
                   "--image", workdir / "in.ppm", "--out", workdir / "b.pgm",
                   "--bench", "2") == 0
        assert len(calls) == 1
        assert "over 2 runs" in capsys.readouterr().out

    def test_color_output(self, workdir):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "shallow", "--out", net)
        run("init", "--net", net, "--seed", "3", "--out", w)
        seg, color = workdir / "seg.pgm", workdir / "seg.ppm"
        assert run("infer", "--net", net, "--weights", w,
                   "--image", workdir / "in.ppm", "--out", seg,
                   "--color", color) == 0
        img = read_ppm(color.read_bytes())
        assert (img.h, img.w) == (128, 256)


class TestFoldCommand:
    def test_persisted_pair_reproduces_labels(self, workdir):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "edanet", "--out", net)
        run("init", "--net", net, "--seed", "5", "--out", w)
        fnet, fw = workdir / "folded.nspec", workdir / "folded.edaw"
        assert run("fold", "--net", net, "--weights", w,
                   "--out-net", fnet, "--out-weights", fw) == 0
        assert "folded=1" in fnet.read_text()
        a, b = workdir / "a.pgm", workdir / "b.pgm"
        run("infer", "--net", net, "--weights", w,
            "--image", workdir / "in.ppm", "--out", a)
        run("infer", "--net", fnet, "--weights", fw,
            "--image", workdir / "in.ppm", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("variant", netdef.VARIANTS)
    def test_streamed_files_are_the_serialized_stores(self, workdir, variant):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        fnet, fw = workdir / "folded.nspec", workdir / "folded.edaw"
        assert run("build", "--variant", variant, "--out", net) == 0
        assert run("init", "--net", net, "--seed", "5", "--out", w) == 0
        assert run("fold", "--net", net, "--weights", w,
                   "--out-net", fnet, "--out-weights", fw) == 0
        spec = netdef.parse_netspec(net.read_text())
        store = runtime.init_weights(spec, 5)
        assert w.read_bytes() == runtime.serialize_weights(store)
        folded = runtime.fold_batch_norm(spec, store)
        assert fw.read_bytes() == runtime.serialize_weights(folded.weights)
        assert fnet.read_text() == netdef.serialize_netspec(folded.net)

    def test_init_and_fold_hold_one_step_at_a_time(self, workdir):
        """aspp's init then save peaked at 14.7 MiB traced, and its fold
        then save at 26.3 MiB: each built the whole store before writing."""
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "aspp", "--out", net)
        peaks = []
        for argv in (("init", "--net", net, "--seed", "5", "--out", w),
                     ("fold", "--net", net, "--weights", w, "--out-net", workdir / "f.nspec",
                      "--out-weights", workdir / "f.edaw")):
            tracemalloc.start()
            try:
                assert run(*argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 6 * 2**20
        assert peaks[1] < w.stat().st_size + 8 * 2**20


class TestSelftest:
    def test_passes_on_clean_build(self, capsys):
        assert run("selftest") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_fold_check_detects_single_weight_perturbation(self):
        """A >1e-2 nudge to any single folded weight must break the
        fold-equivalence comparison."""
        net = netdef.build_variant("shallow", classes=19)
        store = runtime.init_weights(net, seed=2024)
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0, 1, (1, 3, 64, 128)).astype(np.float32))
        plain = runtime.forward(net, store, x)
        for name, index in (("proj.conv1x1.b", 4), ("m2_4.conv1x3b.w", 123)):
            folded = runtime.fold_batch_norm(net, store)
            arr = folded.weights[name].copy()
            arr.reshape(-1)[index] += 0.02
            folded.weights[name] = arr
            merged = runtime.forward(folded.net, folded.weights, x)
            diff = float(np.abs(plain.data - merged.data).max())
            assert diff > 1e-4, f"perturbing {name} went undetected"


class TestExitCodes:
    def test_unknown_variant_is_usage_error(self, workdir, capsys):
        assert run("build", "--variant", "vggnet", "--out", workdir / "x") == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("selftest", "--frobnicate") == 2

    def test_missing_file_is_io_error(self, workdir, capsys):
        assert run("analyze", "--net", workdir / "absent.nspec") == 3

    def test_malformed_net_is_validation_error(self, workdir, capsys):
        bad = workdir / "bad.nspec"
        bad.write_text("net name=x classes=2\neda name=m in=60\n")
        assert run("analyze", "--net", bad) == 4

    def test_non_positive_input_size_is_validation_error(self, workdir, capsys):
        net = workdir / "up.nspec"
        net.write_text("net name=up classes=3\nbilinear name=up factor=2\n")
        assert run("analyze", "--net", net, "--input-size", "0x8") == 4
        assert "input dimensions must be >= 1" in capsys.readouterr().err

    def test_max_pool_padding_at_its_kernel_is_validation_error(self, workdir, capsys):
        net = workdir / "pool.nspec"
        net.write_text("net name=x classes=2\nmaxpool name=p k=2 stride=2 pad=2\n")
        assert run("analyze", "--net", net) == 4
        err = capsys.readouterr().err
        assert "line 2, col 1: layer 'p': maxpool: pad 2 must be below k 2" in err

    def test_name_too_long_for_the_weight_file_writes_nothing(self, workdir, capsys):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        net.write_text(f"net name=x classes=2\ndownsample name={'d' * 70000} in=3 out=8\n")
        assert run("init", "--net", net, "--seed", "1", "--out", w) == 4
        assert "at most 65535" in capsys.readouterr().err
        assert not w.exists()

    @pytest.mark.parametrize("layer", [
        "conv name=c in=3 out=8 kh=3 kw=3 stride=0",
        "bilinear name=u factor=0",
    ])
    def test_zero_stride_or_factor_is_validation_error(self, workdir, layer):
        bad = workdir / "bad.nspec"
        bad.write_text(f"net name=x classes=2\n{layer}\n")
        src = str(Path(edanet.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "edanet.cli", "analyze", "--net", str(bad)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert "line 2" in proc.stderr

    def test_projection_classes_mismatch_fails_before_any_output(self, workdir, capsys):
        bad, w = workdir / "bad.nspec", workdir / "w.edaw"
        bad.write_text("net name=x classes=2\nprojection name=p in=3 classes=5\n")
        runtime.save_weights(runtime.WeightStore({
            "p.conv1x1.w": np.zeros((5, 3, 1, 1)), "p.conv1x1.b": np.zeros(5),
        }), w)
        seg, color = workdir / "seg.pgm", workdir / "seg.ppm"
        assert run("infer", "--net", bad, "--weights", w, "--image", workdir / "in.ppm",
                   "--out", seg, "--color", color) == 4
        assert "line 2, col 1" in capsys.readouterr().err
        assert not seg.exists() and not color.exists()

    def test_short_palette_fails_before_any_output(self, workdir, capsys):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "shallow", "--out", net)
        run("init", "--net", net, "--seed", "1", "--out", w)
        (workdir / "two.txt").write_text("1 2 3\n4 5 6\n")
        seg, color = workdir / "seg.pgm", workdir / "seg.ppm"
        assert run("infer", "--net", net, "--weights", w, "--image", workdir / "in.ppm",
                   "--out", seg, "--color", color, "--palette", workdir / "two.txt") == 4
        assert "palette has 2 entries for 19 classes" in capsys.readouterr().err
        assert not seg.exists() and not color.exists()

    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_bad_thread_count_is_usage_error(self, workdir, capsys, threads):
        assert run("--threads", threads, "build", "--variant", "shallow",
                   "--out", workdir / "net.nspec") == 2
        assert "--threads" in capsys.readouterr().err
        assert not (workdir / "net.nspec").exists()

    @pytest.mark.parametrize("argv, message", [
        (("analyze", "--input-size", "8"), "expected HxW, got '8'"),
        (("analyze", "--input-size", "8xA"), "expected HxW integers, got '8xA'"),
        (("init", "--seed", "x", "--out", "w.edaw"), "expected an integer seed, got 'x'"),
    ], ids=["size_one_number", "size_not_integer", "seed_not_integer"])
    def test_malformed_size_or_seed_is_usage_error(self, workdir, capsys, argv, message):
        # the net file is absent: exit 2, not 3, shows it was never opened
        assert run(*argv, "--net", workdir / "absent.nspec") == 2
        assert message in capsys.readouterr().err

    def test_negative_bench_count_is_usage_error(self, workdir, capsys):
        # every input path is absent: exit 2, not 3, shows none was opened
        assert run("infer", "--net", workdir / "absent.nspec", "--weights",
                   workdir / "absent.edaw", "--image", workdir / "absent.ppm",
                   "--out", workdir / "seg.pgm", "--bench", "-3") == 2
        assert "--bench: must be >= 0, got -3" in capsys.readouterr().err

    def test_palette_without_color_is_usage_error(self, workdir, capsys):
        # every input path is absent: exit 2, not 3, shows none was opened
        seg = workdir / "seg.pgm"
        assert run("infer", "--net", workdir / "absent.nspec", "--weights",
                   workdir / "absent.edaw", "--image", workdir / "absent.ppm",
                   "--out", seg, "--palette", workdir / "absent.txt") == 2
        assert "--palette needs --color" in capsys.readouterr().err
        assert not seg.exists()

    def test_usage_error_leaves_the_next_command_unchanged(self, workdir, capsys):
        """One parser serves every call in a process: a refused command
        must not change what a valid one after it does."""
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "shallow", "--out", net)
        run("init", "--net", net, "--seed", "3", "--out", w)
        first, after = workdir / "first.pgm", workdir / "after.pgm"
        infer = ("infer", "--net", net, "--weights", w, "--image", workdir / "in.ppm")
        assert run(*infer, "--out", first) == 0
        assert run(*infer, "--out", workdir / "seg.pgm",
                   "--palette", workdir / "p.txt") == 2
        assert run(*infer, "--out", after) == 0
        assert after.read_bytes() == first.read_bytes()

    def test_commands_are_looked_up_per_call(self, workdir, monkeypatch):
        """The shared parser holds no command function: one wrapped after
        the first call, as a tracer wraps it, is the one that runs."""
        net = workdir / "net.nspec"
        assert run("build", "--variant", "shallow", "--out", net) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_build", lambda args: calls.append(args.variant) or 0)
        assert run("build", "--variant", "edanet", "--out", net) == 0
        assert calls == ["edanet"]

    @pytest.mark.parametrize("name, value", [
        ("orphan.w", np.zeros(3)),
        ("m1_1.bn1.var", np.full(40, -1.0)),
        ("m1_1.conv1x1.w", np.zeros((40, 60, 3, 3))),
    ], ids=["dangling", "negative_var", "misshaped"])
    def test_fold_rejects_weights_infer_rejects(self, workdir, capsys, name, value):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "shallow", "--out", net)
        run("init", "--net", net, "--seed", "1", "--out", w)
        store = runtime.load_weights(w)
        store[name] = value
        runtime.save_weights(store, w)
        out_net, out_w = workdir / "f.nspec", workdir / "f.edaw"
        assert run("fold", "--net", net, "--weights", w,
                   "--out-net", out_net, "--out-weights", out_w) == 4
        assert run("infer", "--net", net, "--weights", w, "--image", workdir / "in.ppm",
                   "--out", workdir / "o.pgm") == 4
        assert not out_net.exists() and not out_w.exists()

    def test_too_many_classes_for_label_map_fails_before_inference(
            self, workdir, monkeypatch, capsys):
        """A P5 label map holds one byte per pixel: more than 256 classes
        is rejected before the network runs."""
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "shallow", "--classes", "300", "--upscale", "1",
            "--out", net)
        run("init", "--net", net, "--seed", "1", "--out", w)
        infer, calls = runtime.infer_image, []

        def counted(*args):
            calls.append(args)
            return infer(*args)

        monkeypatch.setattr(runtime, "infer_image", counted)
        seg = workdir / "seg.pgm"
        assert run("infer", "--net", net, "--weights", w, "--image", workdir / "in.ppm",
                   "--out", seg) == 4
        assert "at most 256 classes, got 300" in capsys.readouterr().err
        assert calls == [] and not seg.exists()

    def test_wrong_image_size_is_validation_error(self, workdir, capsys):
        net, w = workdir / "net.nspec", workdir / "w.edaw"
        run("build", "--variant", "shallow", "--out", net)
        run("init", "--net", net, "--seed", "1", "--out", w)
        rng = np.random.default_rng(1)
        odd = Tensor(rng.uniform(0, 1, (1, 3, 30, 62)).astype(np.float32))
        (workdir / "odd.ppm").write_bytes(write_ppm(odd))
        assert run("infer", "--net", net, "--weights", w,
                   "--image", workdir / "odd.ppm", "--out", workdir / "o.pgm") == 4

    def test_corrupt_weights_is_validation_error(self, workdir, capsys):
        net = workdir / "net.nspec"
        run("build", "--variant", "shallow", "--out", net)
        bad = workdir / "bad.edaw"
        bad.write_bytes(b"WRONGDATA" + b"\x00" * 16)
        assert run("infer", "--net", net, "--weights", bad,
                   "--image", workdir / "in.ppm", "--out", workdir / "o.pgm") == 4
