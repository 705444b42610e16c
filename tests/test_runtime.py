"""Weight init, BN folding, executor, and the .edaw container format."""

import struct

import numpy as np
import pytest

from edanet import blocks, netdef, runtime
from edanet.analyzer import analyze
from edanet.blocks import BnStep, Chain, fold_bn
from edanet.netdef import (
    LayerSpec, NetworkSpec, build_variant, parse_netspec, serialize_netspec, spatial_divisor,
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
    BN_EPS, BnParams, Kernel, ShapeError, Tensor, batch_norm, bilinear_resize, conv2d,
    global_avg_pool, relu, set_num_threads,
)

SMALL_INPUT = (1, 3, 16, 32)


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
        try:
            set_num_threads(1)
            a = forward(net, store, x)
            set_num_threads(4)
            b = forward(net, store, x)
        finally:
            set_num_threads(1)
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
        spatial_divisor(folded.net)
        assert calls == []
        layer = folded.net.layers[0]  # a folded downsampler
        assert netdef.expand_layer(layer) is netdef.expand_layer(layer)


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

    @pytest.mark.parametrize("name, value, error, match", [
        ("orphan.w", np.zeros(3), WeightError, "never consumed"),
        ("m1_1.bn1.var", np.full(40, -1.0), ValueError, "running_var"),
        ("m1_1.conv1x1.w", np.zeros((40, 60, 3, 3)), ShapeError, "m1_1.conv1x1.w"),
    ], ids=["dangling", "negative_var", "misshaped"])
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
