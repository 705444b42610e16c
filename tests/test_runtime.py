"""Weight init, BN folding, executor, and the .edaw container format."""

import os
import struct
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from edanet import blocks, netdef, runtime, tensorops
from edanet.analyzer import analyze
from edanet.blocks import BnStep, Chain, fold_bn
from edanet.netdef import (
    LayerSpec, NetworkSpec, build_variant, parse_netspec, serialize_netspec,
)
from edanet.runtime import (
    FoldError,
    WeightError,
    WeightFormatError,
    WeightStore,
    deserialize_weights,
    fnv1a64,
    fold_batch_norm,
    forward,
    infer_image,
    init_weights,
    load_weights,
    parameter_names,
    save_weights,
    serialize_weights,
    splitmix64,
)
from edanet.tensorops import (
    BN_EPS, BnParams, Kernel, ShapeError, Tensor, argmax_channels, batch_norm,
    bilinear_resize, conv2d, global_avg_pool, relu, set_num_threads,
)

SMALL_INPUT = (1, 3, 16, 32)


def count_calls(monkeypatch, module, name) -> list:
    """Record each call of ``module.name`` in the returned list."""
    fn, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def rand_input(seed=0, shape=SMALL_INPUT, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(lo, hi, shape).astype(np.float32))


def randomize_bn(store, rng):
    """Give every BN non-trivial statistics so folding is exercised."""
    for name in store.names():
        n = len(store[name])
        if name.endswith(".gamma"):
            store[name] = rng.uniform(0.5, 1.5, n).astype(np.float32)
        elif name.endswith(".beta"):
            store[name] = rng.uniform(-0.5, 0.5, n).astype(np.float32)
        elif name.endswith(".mean"):
            store[name] = rng.uniform(-0.5, 0.5, n).astype(np.float32)
        elif name.endswith(".var"):
            store[name] = rng.uniform(0.25, 2.0, n).astype(np.float32)


class TestPrngPrimitives:
    def test_splitmix64_reference_sequence(self):
        state, out = splitmix64(0)
        assert out == 0xE220A8397B1DCDAF
        state, out = splitmix64(state)
        assert out == 0x6E789E6AA1B965F4
        state, out = splitmix64(state)
        assert out == 0x06C45D188009454F

    def test_fnv1a64_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a64("foobar") == 0x85944171F73967E8


class TestInitWeights:
    def test_deterministic_across_calls(self):
        net = build_variant("shallow", classes=19)
        a = init_weights(net, seed=42)
        b = init_weights(net, seed=42)
        assert a == b
        assert serialize_weights(a) == serialize_weights(b)

    def test_seed_changes_weights(self):
        net = build_variant("shallow", classes=19)
        assert init_weights(net, seed=1) != init_weights(net, seed=2)

    def test_fan_in_bound(self):
        net = NetworkSpec("t", 2, [LayerSpec(
            "conv", "c", in_ch=60, out_ch=8, kh=3, kw=3, stride=1, dilation=1,
            pad_h=1, pad_w=1, bn=False, act=False)])
        store = init_weights(net, seed=0)
        bound = np.sqrt(6.0 / 540.0)
        w = store["c.conv.w"]
        assert np.abs(w).max() <= bound + 1e-7
        # the draw should actually use the range, not collapse near zero
        assert np.abs(w).max() > 0.5 * bound

    def test_bn_starts_as_identity(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=0)
        assert np.all(store["m1_1.bn1.gamma"] == 1.0)
        assert np.all(store["m1_1.bn1.beta"] == 0.0)
        assert np.all(store["m1_1.bn1.mean"] == 0.0)
        assert np.all(store["m1_1.bn1.var"] == 1.0)

    def test_store_names_match_parameter_names(self):
        net = build_variant("edanet", classes=19)
        names = parameter_names(net)
        assert len(names) == len(set(names))
        assert init_weights(net, seed=3).names() == names

    def test_chunked_draw_matches_scalar_splitmix64(self, monkeypatch):
        """Chunks of 7 put seams at 7 and 14 in a 20-value draw; each value
        is the top 24 bits of the full splitmix64 output, mapped linearly."""
        monkeypatch.setattr(runtime, "_DRAW_CHUNK", 7)
        name, seed, bound = "c.conv.w", 42, 0.37
        state, expected = (seed ^ fnv1a64(name)), []
        for _ in range(20):
            state, out = splitmix64(state)
            expected.append(((out >> 40) * (2.0 / (2**24 - 1)) - 1.0) * bound)
        drawn = runtime._draw_uniform(name, seed, (4, 5), bound)
        assert drawn.dtype == np.float32 and drawn.shape == (4, 5)
        assert np.array_equal(drawn.reshape(-1), np.array(expected, np.float32))

    def test_draw_peaks_near_its_output(self):
        """A 1024x1024 1x1 conv's 4 MiB of weights peaked at 36 MiB traced
        with full-size uint64 temporaries; the chunked draw stays below
        twice its output."""
        net = NetworkSpec("t", 2, [LayerSpec(
            "conv", "c", in_ch=1024, out_ch=1024, kh=1, kw=1, stride=1,
            dilation=1, pad_h=0, pad_w=0, bn=False, act=False)])
        init_weights(net, seed=0)
        tracemalloc.start()
        try:
            init_weights(net, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestForward:
    def test_edanet_shape(self):
        net = build_variant("edanet", classes=19)
        store = init_weights(net, seed=7)
        y = forward(net, store, rand_input(shape=(1, 3, 64, 128)))
        assert y.shape == (1, 19, 64, 128)

    def test_bit_identical_runs(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=7)
        x = rand_input(1)
        a = forward(net, store, x)
        b = forward(net, store, x)
        assert np.array_equal(a.data.view(np.uint32), b.data.view(np.uint32))

    def test_bit_identical_across_thread_counts(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=7)
        x = rand_input(2, shape=(1, 3, 64, 128))
        set_num_threads(1)
        a = forward(net, store, x)
        set_num_threads(4)
        b = forward(net, store, x)
        assert np.array_equal(a.data.view(np.uint32), b.data.view(np.uint32))

    def test_projection_only_net_equals_conv2d(self):
        net = NetworkSpec("p", 4, [LayerSpec("projection", "p", in_ch=3, classes=4)])
        store = init_weights(net, seed=5)
        rng = np.random.default_rng(5)
        store["p.conv1x1.b"] = rng.uniform(-1, 1, 4).astype(np.float32)
        x = rand_input(3, shape=(1, 3, 6, 6))
        want = conv2d(x, Kernel(store["p.conv1x1.w"], store["p.conv1x1.b"]))
        got = forward(net, store, x)
        assert np.array_equal(got.data, want.data)

    def test_max_pool_padding_below_its_kernel_stays_finite(self):
        """Each window of a pool whose padding is below its kernel holds
        one input pixel at least."""
        net = parse_netspec("net name=p classes=3\nmaxpool name=p k=3 stride=2 pad=2\n")
        y = forward(net, WeightStore(), rand_input(4, shape=(1, 3, 4, 4), lo=-1.0))
        assert y.shape == (1, 3, 3, 3) and np.isfinite(y.data).all()

    def test_aspp_image_pool_branch(self):
        """The pyramid's fifth branch averages the whole plane, runs
        conv1x1 + BN + ReLU on the 1x1 result and resizes it back to the
        input size.  The fuse conv here passes only that branch through,
        and identity BN plus the final ReLU leave it unchanged."""
        c, b = 3, 4
        net = NetworkSpec("a", 2, [LayerSpec("aspp", "a", in_ch=c, branch_ch=b)])
        store = init_weights(net, seed=11)
        randomize_bn(store, np.random.default_rng(11))
        for suffix, value in (("gamma", 1), ("beta", 0), ("mean", 0), ("var", 1)):
            store[f"a.fuse_bn.{suffix}"] = np.full(b, value, np.float32)
        fuse = np.zeros((b, 5 * b, 1, 1), np.float32)
        fuse[:, 4 * b:, 0, 0] = np.eye(b)
        store["a.fuse_conv1x1.w"] = fuse
        x = rand_input(11, shape=(1, c, 6, 10), lo=-1.0)
        bn = BnParams(*(store[f"a.b5_bn.{s}"] for s in ("gamma", "beta", "mean", "var")))
        pooled = relu(batch_norm(conv2d(global_avg_pool(x), Kernel(store["a.b5_conv1x1.w"])), bn))
        want = bilinear_resize(pooled, 6, 10)
        got = forward(net, store, x)
        assert got.shape == (1, b, 6, 10)
        assert np.array_equal(got.data, want.data)

    def test_missing_weight_names_layer(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=7)
        broken = WeightStore({n: store[n] for n in store.names()
                              if n != "m2_1.conv1x1.w"})
        with pytest.raises(WeightError, match="m2_1"):
            forward(net, broken, rand_input())

    def test_dangling_weight_rejected(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=7)
        store["orphan.w"] = np.zeros(3, np.float32)
        with pytest.raises(WeightError, match="never consumed"):
            forward(net, store, rand_input())

    def test_wrong_weight_shape_rejected(self):
        net = NetworkSpec("p", 4, [LayerSpec("projection", "p", in_ch=3, classes=4)])
        store = init_weights(net, seed=5)
        store["p.conv1x1.w"] = np.zeros((4, 3, 3, 3), np.float32)
        with pytest.raises(ShapeError, match="p.conv1x1.w"):
            forward(net, store, rand_input())

    def test_indivisible_input_rejected(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=7)
        with pytest.raises(ShapeError, match="divisible"):
            forward(net, store, rand_input(shape=(1, 3, 20, 32)))

    def test_stage_that_cannot_halve_fails_before_any_layer_runs(self, monkeypatch):
        """A 3x3 stride-2 conv without padding takes 16 to 7, which the
        pool cannot halve: the static pass rejects it before the conv."""
        net = NetworkSpec("t", 4, [
            LayerSpec("conv", "c", in_ch=3, out_ch=4, kh=3, kw=3, stride=2),
            LayerSpec("maxpool", "p", k=2, stride=2),
        ])
        store = init_weights(net, seed=1)
        calls = count_calls(monkeypatch, runtime, "conv2d")
        with pytest.raises(ShapeError, match="layer 'p': maxpool: .* not divisible by stride 2"):
            forward(net, store, rand_input(shape=(1, 3, 16, 16)))
        assert calls == []

    def test_each_stage_checked_on_its_own_input(self):
        """Halving, doubling and halving again is exact on 6x6, though
        the strides multiply to 4."""
        net = NetworkSpec("t", 3, [
            LayerSpec("maxpool", "p1", k=2, stride=2),
            LayerSpec("bilinear", "up", factor=2),
            LayerSpec("maxpool", "p2", k=2, stride=2),
        ])
        assert analyze(net, (3, 6, 6)).layers[-1].out_shape == (3, 3, 3)
        out = forward(net, WeightStore(), rand_input(shape=(1, 3, 6, 6)))
        assert out.shape == (1, 3, 3, 3)

    def test_wrong_channel_count_fails_before_any_layer_runs(self, monkeypatch):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=7)
        calls = count_calls(monkeypatch, runtime, "conv2d")
        with pytest.raises(ShapeError, match="expects 3 input channels, got 4"):
            forward(net, store, rand_input(shape=(1, 4, 16, 32)))
        assert calls == []

    @pytest.mark.parametrize("name, value, error, match", [
        ("proj.conv1x1.w", None, WeightError, "missing weight 'proj.conv1x1.w'"),
        ("proj.conv1x1.w", np.zeros((19, 290, 3, 3)), ShapeError, "proj.conv1x1.w"),
        ("m2_4.bn5.var", np.full(40, -1.0), ValueError, "running_var"),
    ], ids=["missing", "misshaped", "negative_var"])
    def test_weight_fault_fails_before_any_layer_runs(self, monkeypatch, name,
                                                      value, error, match):
        """Faults in the last layers are found before the first conv."""
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=7)
        if value is None:
            store = WeightStore({n: a for n, a in store.items() if n != name})
        else:
            store[name] = value
        calls = count_calls(monkeypatch, runtime, "conv2d")
        with pytest.raises(error, match=match):
            forward(net, store, rand_input())
        assert calls == []

    def test_expands_each_layer_once_in_layer_order(self, monkeypatch):
        """Per-layer timing from outside the package marks each layer by
        the forward pass's call to edanet.runtime.expand_layer."""
        net = build_variant("aspp", classes=4)
        store = init_weights(net, seed=7)
        expand, seen = runtime.expand_layer, []

        def record(layer):
            seen.append(layer.name)
            return expand(layer)

        monkeypatch.setattr(runtime, "expand_layer", record)
        forward(net, store, rand_input())
        assert seen == [layer.name for layer in net.layers]

    def test_returns_the_upsampled_logits(self):
        """A network's trailing bilinear layers still run in ``forward``."""
        net = build_variant("edanet", classes=19)
        store = init_weights(net, seed=19)
        x = rand_input(19)
        trunk = NetworkSpec(net.name, net.classes, net.layers[:-1])
        small = forward(trunk, store, x)
        logits = forward(net, store, x)
        assert small.shape == (1, 19, 2, 4) and logits.shape == (1, 19, 16, 32)
        assert np.array_equal(logits.data, bilinear_resize(small, 16, 32).data)

    def test_layers_lowered_once_when_built(self, monkeypatch):
        """Lowering, BN-fold rewrite included, runs when the network is
        built; running, analyzing and initializing it reuse the trees."""
        net = build_variant("aspp", classes=4)
        folded = fold_batch_norm(net, init_weights(net, seed=7))
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(netdef, "_unfolded_tree", counted(netdef._unfolded_tree))
        monkeypatch.setattr(blocks, "fold_bn", counted(blocks.fold_bn))
        for _ in range(2):
            forward(folded.net, folded.weights, rand_input())
        analyze(folded.net, SMALL_INPUT[1:])
        init_weights(folded.net, seed=1)
        assert calls == []
        layer = folded.net.layers[0]  # a folded downsampler
        assert netdef.expand_layer(layer) is netdef.expand_layer(layer)


def concat_composition(net, store, x):
    """The forward pass as ``_eval`` of each layer in turn, every dense
    layer concatenating its input with its new channels."""
    bound = runtime._bind(net, store)
    for layer in net.layers:
        x = runtime._eval(netdef.expand_layer(layer), x, bound)
    return x


class TestDenseStages:
    def test_edanet_concatenates_only_in_the_downsamplers(self, monkeypatch):
        net = build_variant("edanet", classes=4)
        store = init_weights(net, seed=7)
        calls = count_calls(monkeypatch, runtime, "concat_channels")
        forward(net, store, rand_input(shape=(1, 3, 64, 128)))
        assert calls == ["concat_channels"] * 2  # ds1 and ds2

    @pytest.mark.parametrize("variant", netdef.VARIANTS)
    def test_matches_concatenating_composition_bit_for_bit(self, variant):
        net = build_variant(variant, classes=19)
        store = init_weights(net, seed=3)
        randomize_bn(store, np.random.default_rng(4))
        folded = fold_batch_norm(net, store)
        x = rand_input(5, shape=(1, 3, 64, 128))
        for n, s in ((net, store), (folded.net, folded.weights)):
            got = forward(n, s, x)
            want = concat_composition(n, s, x)
            assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))

    def test_batch_of_two_matches_concatenating_composition(self):
        """With batch > 1 a stage prefix is not contiguous, and Tensor
        copies it."""
        net = build_variant("edanet", classes=4)
        store = init_weights(net, seed=3)
        x = rand_input(6, shape=(2, 3, 64, 128))
        got = forward(net, store, x)
        want = concat_composition(net, store, x)
        assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))

    @pytest.mark.parametrize("n", [1, 2])
    def test_growth_is_written_in_place(self, monkeypatch, n):
        """Each folded dense module's last conv, with its ReLU, writes the
        module's growth into the stage buffer, and each folded widening
        downsampler's conv writes its channels of the merge into the
        layer's output; unfolded, a BN follows each of them and the
        results are copied in."""
        net = build_variant("edanet", classes=4)
        store = init_weights(net, seed=3)
        randomize_bn(store, np.random.default_rng(4))
        folded = fold_batch_norm(net, store)
        monkeypatch.setattr(tensorops, "_SGEMM_MIN_PIXELS", 1)
        conv, into = runtime.conv2d, []

        def spy(*args, out=None, **kwargs):
            into.append(out is not None)
            return conv(*args, out=out, **kwargs)

        monkeypatch.setattr(runtime, "conv2d", spy)
        x = rand_input(9, shape=(n, 3, 64, 128))
        for network, weights, in_place in ((folded.net, folded.weights, 15),
                                           (net, store, 0)):
            into.clear()
            got = forward(network, weights, x)
            assert sum(into) == in_place  # ds1, ds2, m1_1..m1_5 and m2_1..m2_8
            want = concat_composition(network, weights, x)
            assert np.array_equal(got.data.view(np.uint32), want.data.view(np.uint32))

    def test_folded_edanet_neither_concatenates_nor_allocates_a_relu(self, monkeypatch):
        """Folded, each widening downsampler is a merge then a ReLU: its
        branches write into the layer's output and the ReLU runs in place."""
        net = build_variant("edanet", classes=4)
        folded = fold_batch_norm(net, init_weights(net, seed=7))
        calls = count_calls(monkeypatch, runtime, "concat_channels")
        calls += count_calls(monkeypatch, runtime, "relu")
        forward(folded.net, folded.weights, rand_input(shape=(1, 3, 64, 128)))
        assert calls == []

    def test_stage_input_is_written_in_place(self, monkeypatch):
        """ds2's output is the prefix of the stage buffer m1_1 reads."""
        net = build_variant("edanet", classes=4)
        folded = fold_batch_norm(net, init_weights(net, seed=7))
        ds2, m1_1 = (netdef.expand_layer(layer) for layer in folded.net.layers[1:3])
        inner, seen = runtime._eval, {}

        def spy(node, x, *args, **kwargs):
            y = inner(node, x, *args, **kwargs)
            if node is ds2:
                seen["ds2"] = y
            elif node in m1_1.branches:
                seen.setdefault("m1_1", x)
            return y

        monkeypatch.setattr(runtime, "_eval", spy)
        forward(folded.net, folded.weights, rand_input(shape=(1, 3, 64, 128)))
        made, read = seen["ds2"].data, seen["m1_1"].data
        assert np.shares_memory(made, read)
        assert (made.shape, made.ctypes.data) == (read.shape, read.ctypes.data)
        assert read.base.shape == (1, 260, 16, 32)  # the stage at m1_5's width

    @pytest.mark.parametrize("variant", netdef.VARIANTS)
    @pytest.mark.parametrize("fold", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_every_handed_buffer_holds_its_layers_result(self, monkeypatch, variant, fold, n):
        """Each layer ``forward`` hands a buffer, every dense layer among
        them, returns a view of its leading channels.  Where a batch's
        channel prefix is not contiguous, ``Tensor`` copies it, and the
        buffer holds the same bytes."""
        net = build_variant(variant, classes=19)
        store = init_weights(net, seed=3)
        randomize_bn(store, np.random.default_rng(4))
        if fold:
            folded = fold_batch_norm(net, store)
            net, store = folded.net, folded.weights
        names = {id(netdef.expand_layer(layer)): layer.name for layer in net.layers}
        inner, handed = runtime._eval, []

        def spy(node, x, bound, fuse_relu=False, out=None):
            y = inner(node, x, bound, fuse_relu, out)
            if out is not None and id(node) in names:
                handed.append(names[id(node)])
                lead = out[:, : y.c]
                assert np.array_equal(lead.view(np.uint32), y.data.view(np.uint32))
                if lead.flags.c_contiguous:
                    assert (y.data.shape, y.data.ctypes.data) == (lead.shape, lead.ctypes.data)
            return y

        monkeypatch.setattr(runtime, "_eval", spy)
        forward(net, store, rand_input(5, shape=(n, 3, 64, 128)))
        dense = {layer.name for layer in net.layers
                 if isinstance(node := netdef.expand_layer(layer), blocks.Parallel)
                 and node.branches[0] == Chain([])}
        assert dense <= set(handed) and len(handed) == len(set(handed))

    @pytest.mark.parametrize("variant", ["edanet", "densedown"])
    @pytest.mark.parametrize("fold", [False, True])
    def test_one_stage_buffer_at_a_time(self, monkeypatch, variant, fold):
        """The layer between two dense runs reads the first run's buffer,
        so the second run's buffer is made only once it has run."""
        net = build_variant(variant, classes=4)
        store = init_weights(net, seed=7)
        if fold:
            folded = fold_batch_norm(net, store)
            net, store = folded.net, folded.weights
        report = analyze(net, (3, 64, 128))
        stages = {(1, *report.layers[k].out_shape) for k in range(len(net.layers) - 1)
                  if isinstance(netdef.expand_layer(net.layers[k]), blocks.Parallel)
                  and not isinstance(netdef.expand_layer(net.layers[k + 1]), blocks.Parallel)}
        inner, buffers, live = runtime._eval, [], []

        def spy(node, x, bound, fuse_relu=False, out=None):
            for arr in (x.data, out):
                root = arr if arr is None or arr.base is None else arr.base
                if root is not None and root.shape in stages and all(
                        b() is not root for b in buffers):
                    buffers.append(weakref.ref(root))
            live.append(sum(b() is not None for b in buffers))
            return inner(node, x, bound, fuse_relu, out)

        monkeypatch.setattr(runtime, "_eval", spy)
        forward(net, store, rand_input(shape=(1, 3, 64, 128)))
        assert len(stages) == len(buffers) == 2 and max(live) == 1

    def test_aspp_concatenates_its_branches_once(self, monkeypatch):
        net = NetworkSpec("a", 2, [LayerSpec("aspp", "a", in_ch=3, branch_ch=4)])
        store = init_weights(net, seed=11)
        widths = []

        def concat(*parts):
            widths.append([p.c for p in parts])
            return tensorops.concat_channels(*parts)

        monkeypatch.setattr(runtime, "concat_channels", concat)
        forward(net, store, rand_input(12, shape=(1, 3, 8, 8)))
        assert widths == [[4] * 5]

    def test_earlier_outputs_stay_unchanged(self, monkeypatch):
        """A dense layer's output is a read-only prefix of its stage buffer;
        the layers after it write only past that prefix."""
        net = build_variant("edanet", classes=4)
        store = init_weights(net, seed=3)
        outputs = []

        def keep(data):
            outputs.append((Tensor(data), np.array(data)))
            return outputs[-1][0]

        monkeypatch.setattr(runtime, "Tensor", keep)
        forward(net, store, rand_input(7, shape=(1, 3, 64, 128)))
        assert len(outputs) == 15  # each stage's input, m1_1..m1_5 and m2_1..m2_8
        for tensor, copy in outputs:
            assert not tensor.data.flags.writeable
            assert np.array_equal(tensor.data, copy)

    def test_edanet_forward_allocates_less_than_with_concat(self):
        """An edanet forward at 128x256 peaked at 6.4 MiB traced when each
        dense module concatenated into a new array; one buffer per stage
        brings it to about 5.2 MiB."""
        net = build_variant("edanet", classes=19)
        store = init_weights(net, seed=7)
        x = rand_input(8, shape=(1, 3, 128, 256))
        forward(net, store, x)
        tracemalloc.start()
        try:
            forward(net, store, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.0 * 2**20

    def test_folded_frame_peaks_below_growth_copies(self):
        """A folded edanet frame at 128x256 peaked at 4.73 MiB traced when
        each dense module's growth was a new tensor copied into the stage
        buffer and each later product filled a band-sized buffer; writing
        the growth in place brings it to 4.42 MiB, and accumulating inside
        sgemm to 4.25 MiB."""
        net = build_variant("edanet", classes=19)
        folded = fold_batch_norm(net, init_weights(net, seed=7))
        x = rand_input(8, shape=(1, 3, 128, 256))
        infer_image(folded.net, folded.weights, x)
        tracemalloc.start()
        try:
            infer_image(folded.net, folded.weights, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20


class TestFoldBatchNorm:
    def test_identity_bn_folds_bit_exactly(self):
        """Freshly initialized BN (var = 1) is the identity, so folding it
        must leave the weights bit-identical with a zero bias."""
        net = NetworkSpec("t", 2, [LayerSpec(
            "conv", "c", in_ch=3, out_ch=4, kh=3, kw=3, stride=1, dilation=1,
            pad_h=1, pad_w=1, bn=True, act=True)])
        store = init_weights(net, seed=0)
        folded = fold_batch_norm(net, store)
        assert np.array_equal(folded.weights["c.conv.w"], store["c.conv.w"])
        assert np.all(folded.weights["c.conv.b"] == 0.0)

    def test_fold_formula_hand_check(self):
        net = NetworkSpec("t", 2, [LayerSpec(
            "conv", "c", in_ch=1, out_ch=1, kh=1, kw=1, stride=1, dilation=1,
            pad_h=0, pad_w=0, bn=True, act=False)])
        store = init_weights(net, seed=0)
        store["c.conv.w"] = np.full((1, 1, 1, 1), 2.0, np.float32)
        store["c.bn.gamma"] = np.full(1, 3.0, np.float32)
        store["c.bn.beta"] = np.full(1, 0.5, np.float32)
        store["c.bn.mean"] = np.full(1, 1.0, np.float32)
        store["c.bn.var"] = np.full(1, 4.0, np.float32)
        folded = fold_batch_norm(net, store)
        s = 3.0 / np.sqrt(np.float32(4.0) + np.float32(BN_EPS))
        assert folded.weights["c.conv.w"][0, 0, 0, 0] == pytest.approx(2.0 * s, rel=1e-6)
        assert folded.weights["c.conv.b"][0] == pytest.approx(s * (0.0 - 1.0) + 0.5, rel=1e-6)

    @pytest.mark.parametrize("variant", sorted(
        ["edanet", "non_asym", "non_dense", "shallow", "aspp", "erfdec", "densedown"]))
    def test_forward_equivalence_seeded(self, variant):
        """Ten seeds per variant: folded and unfolded forwards agree to
        1e-4 on every logit."""
        net = build_variant(variant, classes=19)
        for seed in range(10):
            store = init_weights(net, seed=seed)
            folded = fold_batch_norm(net, store)
            x = rand_input(seed)
            plain = forward(net, store, x)
            merged = forward(folded.net, folded.weights, x)
            diff = float(np.abs(plain.data - merged.data).max())
            assert diff <= 1e-4, f"{variant} seed {seed}: diff {diff}"

    @pytest.mark.parametrize("variant", sorted(
        ["edanet", "non_asym", "non_dense", "shallow", "aspp", "erfdec", "densedown"]))
    def test_forward_equivalence_random_stats(self, variant):
        """Non-trivial BN statistics: the rewrite must track the unfolded
        pass to float32 rounding, which scales with logit magnitude."""
        net = build_variant(variant, classes=19)
        store = init_weights(net, seed=123)
        randomize_bn(store, np.random.default_rng(321))
        folded = fold_batch_norm(net, store)
        x = rand_input(6)
        plain = forward(net, store, x)
        merged = forward(folded.net, folded.weights, x)
        diff = float(np.abs(plain.data - merged.data).max())
        scale = max(1.0, float(np.abs(plain.data).max()))
        assert diff <= 1e-4 * scale, f"{variant}: diff {diff} at scale {scale}"

    def test_folded_network_has_no_bn_and_roundtrips(self):
        net = build_variant("edanet", classes=19)
        folded = fold_batch_norm(net, init_weights(net, seed=1))
        assert not any(n.endswith(".gamma") for n in folded.weights.names())
        reparsed = parse_netspec(serialize_netspec(folded.net))
        assert reparsed == folded.net

    def test_net_without_bn_unchanged(self):
        net = NetworkSpec("p", 4, [LayerSpec("projection", "p", in_ch=3, classes=4)])
        store = init_weights(net, seed=2)
        folded = fold_batch_norm(net, store)
        assert folded.net == net
        assert folded.weights == store

    def test_bn_without_conv_rejected(self):
        with pytest.raises(FoldError, match="preceding"):
            fold_bn(Chain([BnStep("x.bn", 2)]))

    @pytest.mark.parametrize("branch, match", [
        (Chain([blocks.MaxPoolStep(1, 1)]), "no convolution branch"),
        (Chain([blocks.ConvStep("x.c1", 2, 2, 1, 1), blocks.ConvStep("x.c2", 2, 2, 1, 1)]),
         "unsupported branch structure"),
    ], ids=["no_conv_branch", "two_convs_in_branch"])
    def test_bn_after_unfoldable_parallel_rejected(self, branch, match):
        with pytest.raises(FoldError, match=match):
            fold_bn(Chain([blocks.Parallel([branch]), BnStep("x.bn", 2)]))

    @pytest.mark.parametrize("name, value, error, match", [
        ("orphan.w", np.zeros(3), WeightError, "never consumed"),
        ("m1_1.conv1x1.x", np.zeros(3), WeightError, "never consumed"),
        ("m1_1.bn1.var", np.full(40, -1.0), ValueError, "running_var"),
        ("m1_1.conv1x1.w", np.zeros((40, 60, 3, 3)), ShapeError, "m1_1.conv1x1.w"),
    ], ids=["dangling", "unknown_suffix", "negative_var", "misshaped"])
    def test_rejects_weights_forward_rejects(self, name, value, error, match):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=7)
        store[name] = value
        with pytest.raises(error, match=match):
            forward(net, store, rand_input())
        with pytest.raises(error, match=match):
            fold_batch_norm(net, store)

    def test_downsample_pool_slice_becomes_affine(self):
        net = NetworkSpec("d", 2, [LayerSpec("downsample", "d", in_ch=3, out_ch=8)])
        store = init_weights(net, seed=4)
        randomize_bn(store, np.random.default_rng(4))
        folded = fold_batch_norm(net, store)
        assert "d.pool_affine.scale" in folded.weights
        assert "d.pool_affine.shift" in folded.weights
        s = folded.weights["d.pool_affine.scale"]
        expected = store["d.bn.gamma"][5:] / np.sqrt(
            store["d.bn.var"][5:] + np.float32(BN_EPS))
        assert np.allclose(s, expected, rtol=1e-6)


class TestWeightFile:
    @pytest.mark.parametrize("other", [3, WeightStore({"b": np.ones(1, np.float32)})],
                             ids=["not_a_store", "other_names"])
    def test_store_differs(self, other):
        store = WeightStore({"a": np.ones(1, np.float32)})
        assert (store == other) is False
        assert store != other

    def test_round_trip_bytes(self, tmp_path):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=11)
        path = tmp_path / "w.edaw"
        save_weights(store, path)
        loaded = load_weights(path)
        assert loaded == store
        blob = path.read_bytes()
        save_weights(loaded, path)
        assert path.read_bytes() == blob

    def test_saved_file_is_the_serialized_store(self, tmp_path):
        store = init_weights(build_variant("edanet", classes=19), seed=42)
        path = tmp_path / "w.edaw"
        save_weights(store, path)
        assert path.read_bytes() == serialize_weights(store)

    def test_save_copies_no_tensor(self, tmp_path):
        """Joining the file in memory peaked at twice the payload (8 MiB
        for one 4 MiB tensor); writing views copies none of it."""
        store = WeightStore({"a.w": np.ones((1024, 1024), np.float32)})
        path = tmp_path / "w.edaw"
        tracemalloc.start()
        try:
            save_weights(store, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert load_weights(path) == store

    def test_loaded_tensors_are_aligned_float32(self, tmp_path):
        """The loaded tensors view the file buffer, and those views are
        aligned: 244 of edanet's 342 payloads sit at an offset that is not
        a multiple of 4 and move down before they are viewed.  conv2d hands
        a 1x1 kernel to sgemm without a copy."""
        path = tmp_path / "w.edaw"
        save_weights(init_weights(build_variant("edanet", classes=19), seed=3), path)
        for name, arr in load_weights(path).items():
            assert arr.dtype == np.float32, name
            assert arr.flags.aligned and arr.flags.c_contiguous, name

    def test_every_payload_offset_loads_aligned_and_read_only(self, tmp_path):
        """A payload's offset mod 4 moves by its record's name length, so
        one-byte names put the first four at every offset mod 4."""
        rng = np.random.default_rng(5)
        store = WeightStore({name: rng.standard_normal(shape).astype(np.float32)
                             for name, shape in (("a", (3,)), ("b", (2, 3)), ("c", (5,)),
                                                 ("d", (1, 2, 2)), ("ee", (0, 3)), ("f", ()))})
        blob = serialize_weights(store)
        offsets, pos = [], 16
        for name, arr in store.items():
            pos += 4 + len(name) + 4 * arr.ndim
            offsets.append(pos % 4)
            pos += arr.nbytes
        assert set(offsets) == {0, 1, 2, 3}
        path = tmp_path / "w.edaw"
        path.write_bytes(blob)
        for loaded in (load_weights(path), deserialize_weights(blob)):
            assert loaded == store
            for name, arr in loaded.items():
                assert arr.dtype == np.float32 and arr.flags.aligned, name
                assert arr.ctypes.data % 4 == 0 and not arr.flags.writeable, name
        assert serialize_weights(load_weights(path)) == blob

    def test_deserialize_equals_load(self, tmp_path):
        path = tmp_path / "w.edaw"
        save_weights(init_weights(build_variant("edanet", classes=19), seed=6), path)
        assert deserialize_weights(path.read_bytes()) == load_weights(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_loads_from_a_pipe(self, tmp_path):
        """A pipe reports size 0, so the reader must not size its buffer
        from ``fstat`` alone."""
        path, fifo = tmp_path / "w.edaw", tmp_path / "fifo"
        save_weights(init_weights(build_variant("shallow", classes=19), seed=6), path)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()),
                                  daemon=True)
        writer.start()
        loaded = load_weights(fifo)
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert loaded == load_weights(path)

    def test_load_holds_the_file_once(self, tmp_path):
        """Loading aspp's 13.1 MiB file peaked at 26.2 MiB traced when each
        tensor was copied out of the file."""
        path = tmp_path / "w.edaw"
        save_weights(init_weights(build_variant("aspp", classes=19), seed=6), path)
        tracemalloc.start()
        try:
            load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * path.stat().st_size

    def test_folded_store_shares_no_memory_with_the_loaded_buffer(self, tmp_path):
        """A carried-over tensor that viewed the loaded buffer would keep
        all of it alive after the loaded store is dropped."""
        path = tmp_path / "w.edaw"
        net = build_variant("edanet", classes=19)
        store = init_weights(net, seed=6)
        randomize_bn(store, np.random.default_rng(6))
        save_weights(store, path)
        loaded = load_weights(path)
        buffer = next(iter(loaded.items()))[1]
        while isinstance(buffer.base, np.ndarray):
            buffer = buffer.base
        assert buffer.nbytes == path.stat().st_size
        folded = fold_batch_norm(net, loaded)
        carried = [name for name, arr in folded.weights.items()
                   if name in loaded and np.array_equal(arr, loaded[name])]
        assert carried == ["proj.conv1x1.w", "proj.conv1x1.b"]
        for name, arr in folded.weights.items():
            assert not np.shares_memory(arr, buffer), name

    def test_fold_tensors_checks_before_the_first_tensor(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=7)
        store["m1_1.bn1.var"] = np.full(40, -1.0)
        with pytest.raises(ValueError, match="running_var"):
            runtime.fold_tensors(net, store)

    @pytest.mark.parametrize("name", ["a" * 65536, "é" * 32768], ids=["ascii", "utf8"])
    def test_name_the_format_cannot_hold_rejected_before_writing(self, tmp_path, name):
        store = WeightStore({"short": np.ones(1, np.float32), name: np.ones(1, np.float32)})
        with pytest.raises(WeightFormatError, match="65536 UTF-8 bytes"):
            serialize_weights(store)
        path = tmp_path / "w.edaw"
        with pytest.raises(WeightFormatError, match="at most 65535"):
            save_weights(store, path)
        assert not path.exists()

    def test_longest_name_round_trips(self):
        store = WeightStore({"a" * 65535: np.ones(1, np.float32)})
        assert deserialize_weights(serialize_weights(store)) == store

    def test_empty_store_is_16_byte_header(self):
        assert len(serialize_weights(WeightStore())) == 16

    def test_bad_magic_rejected(self):
        blob = bytearray(serialize_weights(WeightStore()))
        blob[:4] = b"NOPE"
        with pytest.raises(WeightFormatError, match="magic"):
            deserialize_weights(bytes(blob))

    def test_version_mismatch_rejected(self):
        blob = bytearray(serialize_weights(WeightStore()))
        blob[4] = 9
        with pytest.raises(WeightFormatError, match="version"):
            deserialize_weights(bytes(blob))

    def test_truncation_rejected(self):
        store = WeightStore({"a.w": np.ones((2, 3), np.float32)})
        blob = serialize_weights(store)
        with pytest.raises(WeightFormatError, match="truncated"):
            deserialize_weights(blob[:-5])

    def test_trailing_garbage_rejected(self):
        blob = serialize_weights(WeightStore()) + b"xx"
        with pytest.raises(WeightFormatError, match="trailing"):
            deserialize_weights(blob)

    def test_non_utf8_name_rejected(self):
        blob = bytearray(serialize_weights(WeightStore({"ab": np.ones(1, np.float32)})))
        blob[18:20] = b"\xff\xfe"  # the name follows the header and its u16 length
        with pytest.raises(WeightFormatError, match="UTF-8"):
            deserialize_weights(bytes(blob))

    def test_too_many_dims_rejected(self):
        ndims = 65  # beyond what numpy can reshape to
        blob = (b"EDAW" + struct.pack("<III", 1, 1, 0) + struct.pack("<H", 1) + b"a"
                + struct.pack(f"<BB{ndims}I", 0, ndims, *[1] * ndims) + bytes(4))
        with pytest.raises(WeightFormatError, match="'a'"):
            deserialize_weights(blob)

    def test_duplicate_name_rejected(self):
        entry = serialize_weights(WeightStore({"a": np.ones(1, np.float32)}))[16:]
        blob = b"EDAW" + struct.pack("<III", 1, 2, 0) + entry + entry
        with pytest.raises(WeightFormatError, match="duplicate tensor name 'a'"):
            deserialize_weights(blob)

    def test_scalar_and_multidim_entries(self):
        store = WeightStore({
            "v": np.arange(5, dtype=np.float32),
            "m": np.arange(24, dtype=np.float32).reshape(2, 3, 4),
        })
        assert deserialize_weights(serialize_weights(store)) == store


class TestInferImage:
    def test_upscaled_label_map_shape(self):
        net = build_variant("edanet", classes=19, upscale=2)
        store = init_weights(net, seed=9)
        labels = infer_image(net, store, rand_input(shape=(1, 3, 64, 128)))
        assert labels.shape == (128, 256)
        assert labels.dtype == np.int32

    def test_fold_flag_gives_identical_labels(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=10)
        x = rand_input(10)
        plain = infer_image(net, store, x)
        folded = fold_batch_norm(net, store)
        merged = infer_image(folded.net, folded.weights, x)
        assert np.array_equal(plain, merged)

    def test_zero_weights_all_labels_zero(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=0)
        for name in store.names():
            if name.endswith(".w") or name.endswith(".b"):
                store[name] = np.zeros_like(store[name])
        labels = infer_image(net, store, rand_input(1))
        assert np.all(labels == 0)

    def test_upscaled_readout_builds_no_full_size_logits(self, monkeypatch):
        """At upscale 2 the labels come from the banded readout alone: no
        full-size resize and no separate argmax, and the labels equal the
        composed ops on the same logits."""
        net = NetworkSpec("p", 5, [
            LayerSpec("projection", "proj", in_ch=3, classes=5),
        ], inference_upscale=2)
        store = init_weights(net, seed=3)
        x = rand_input(3, shape=(1, 3, 9, 14))
        logits = forward(net, store, x)
        resized = count_calls(monkeypatch, runtime, "bilinear_resize")
        argmaxed = count_calls(monkeypatch, runtime, "argmax_channels")
        labels = infer_image(net, store, x)
        assert resized == [] and argmaxed == []
        assert labels.shape == (18, 28)
        assert np.array_equal(
            labels, argmax_channels(bilinear_resize(logits, 18, 28))
        )

    @pytest.mark.parametrize("folded", [False, True], ids=["unfolded", "folded"])
    @pytest.mark.parametrize("upscale", [1, 2])
    @pytest.mark.parametrize("variant", netdef.VARIANTS)
    def test_labels_are_the_composed_ops_bit_for_bit(self, variant, upscale, folded):
        net = build_variant(variant, classes=19, upscale=upscale)
        store = init_weights(net, seed=11)
        randomize_bn(store, np.random.default_rng(12))
        if folded:
            f = fold_batch_norm(net, store)
            net, store = f.net, f.weights
        x = rand_input(13)
        logits = forward(net, store, x)
        if upscale > 1:
            logits = bilinear_resize(logits, logits.h * upscale, logits.w * upscale)
        assert np.array_equal(infer_image(net, store, x), argmax_channels(logits))

    @pytest.mark.parametrize("upscale", [1, 3])
    def test_two_trailing_bilinear_layers(self, upscale):
        net = NetworkSpec("two_up", 4, [
            LayerSpec("conv", "c", in_ch=3, out_ch=6, kh=3, kw=3, pad_h=1, pad_w=1),
            LayerSpec("projection", "proj", in_ch=6, classes=4),
            LayerSpec("bilinear", "up2", factor=2),
            LayerSpec("bilinear", "up3", factor=3),
        ], inference_upscale=upscale)
        store = init_weights(net, seed=14)
        x = rand_input(14, shape=(1, 3, 5, 7))
        logits = forward(net, store, x)
        if upscale > 1:
            logits = bilinear_resize(logits, 30 * upscale, 42 * upscale)
        assert np.array_equal(infer_image(net, store, x), argmax_channels(logits))

    @pytest.mark.parametrize("upscale", [1, 2])
    def test_infinite_logits_read_out_as_the_composed_ops(self, upscale):
        """Projection weights of +-3e38 overflow to +inf logits in one
        channel and -inf in another wherever two input channels sum past
        about 1.13.  Blends that weigh an infinity by zero make NaN, so a
        resize to the same size would change labels at upscale 1."""
        net = NetworkSpec("inf", 5, [
            LayerSpec("projection", "proj", in_ch=3, classes=5),
            LayerSpec("bilinear", "up4", factor=4),
        ], inference_upscale=upscale)
        store = init_weights(net, seed=15)
        w = store["proj.conv1x1.w"].copy()
        w[2, :2, 0, 0] = 3e38
        w[3, ::2, 0, 0] = -3e38
        store["proj.conv1x1.w"] = w
        x = rand_input(15, shape=(1, 3, 6, 7))
        with np.errstate(invalid="ignore", over="ignore"):
            logits = forward(net, store, x)
            upscaled = bilinear_resize(logits, 48, 56) if upscale > 1 else logits
            want = argmax_channels(upscaled)
            got = infer_image(net, store, x)
        assert np.isposinf(logits.data[0, 2]).any() and np.isneginf(logits.data[0, 3]).any()
        assert np.array_equal(got, want)

    def test_edanet_readout_never_builds_the_up8_output(self, monkeypatch):
        net = build_variant("edanet", classes=19, upscale=2)
        store = init_weights(net, seed=16)
        x = rand_input(16)
        want = argmax_channels(bilinear_resize(forward(net, store, x), 32, 64))
        resized = count_calls(monkeypatch, runtime, "bilinear_resize")
        assert np.array_equal(infer_image(net, store, x), want)
        assert resized == []

    def test_trunk_shares_the_weight_table_entries(self):
        """The trunk's weight table holds the network's own entries, so
        memoizing it beside the network's costs no second copy."""
        net = build_variant("edanet", classes=19)
        trunk = NetworkSpec(net.name, net.classes, net.layers[:-1])
        assert all(a is b for a, b in zip(runtime._param_table(trunk),
                                          runtime._param_table(net), strict=True))

    @pytest.mark.parametrize("net,dropped", [
        (build_variant("edanet", classes=19), 1),
        (build_variant("erfdec", classes=19), 0),
        (NetworkSpec("ups", 3, [LayerSpec("bilinear", "a", factor=2),
                                LayerSpec("bilinear", "b", factor=3)]), 1),
    ], ids=["edanet", "erfdec", "bilinear_only"])
    def test_runs_the_trunk_through_the_public_forward(self, monkeypatch, net, dropped):
        """``infer_image`` calls ``edanet.runtime.forward``, which per-layer
        timing from outside the package wraps, on a trunk memoized per
        network that keeps every layer but the trailing bilinear ones (at
        least one), and ``forward`` marks each layer it runs."""
        store = init_weights(net, seed=17)
        fwd, trunks = runtime.forward, []

        def record(n, weights, x):
            trunks.append(n)
            return fwd(n, weights, x)

        monkeypatch.setattr(runtime, "forward", record)
        marked = []
        expand = runtime.expand_layer
        monkeypatch.setattr(runtime, "expand_layer",
                            lambda layer: marked.append(layer.name) or expand(layer))
        for seed in (17, 18):
            infer_image(net, store, rand_input(seed))
        kept = net.layers[: len(net.layers) - dropped]
        assert trunks[0] is trunks[1]
        assert trunks[0].layers == kept
        assert marked == [layer.name for layer in kept] * 2

    def test_unit_upscale_is_the_argmax_of_the_logits(self):
        net = build_variant("shallow", classes=19, upscale=1)
        store = init_weights(net, seed=4)
        x = rand_input(4)
        want = argmax_channels(forward(net, store, x))
        assert np.array_equal(infer_image(net, store, x), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_pixel_rejected(self, bad):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=0)
        data = rand_input(0, shape=(1, 3, 32, 64)).data.copy()
        data[0, 1, 5, 7] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            infer_image(net, store, Tensor(data))

    def test_out_of_range_values_rejected(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            infer_image(net, store, rand_input(0, lo=-0.5, hi=1.5))

    def test_batch_must_be_one(self):
        net = build_variant("shallow", classes=19)
        store = init_weights(net, seed=0)
        with pytest.raises(ShapeError, match="batch"):
            infer_image(net, store, rand_input(0, shape=(2, 3, 16, 32)))
