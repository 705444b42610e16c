"""Block constructor tests: channel arithmetic and closed-form weight counts."""

import numpy as np
import pytest

from edanet.blocks import (
    BnStep,
    ConvStep,
    MaxPoolStep,
    Parallel,
    iter_prims,
    make_aspp,
    make_downsampling_block,
    make_eda_module,
    make_erf_module,
    make_non_asym_module,
    make_projection,
)
from edanet.netdef import LayerSpec, NetworkSpec
from edanet.runtime import forward, init_weights
from edanet.tensorops import Tensor


def conv_weight_count(node):
    """Conv weights only, excluding BN parameters and biases."""
    total = 0
    for prim in iter_prims(node):
        if isinstance(prim, ConvStep):
            total += prim.kh * prim.kw * prim.in_ch * prim.out_ch
    return total


def convs(node):
    return [p for p in iter_prims(node) if isinstance(p, ConvStep)]


class TestEdaModule:
    def test_output_channels(self):
        node = make_eda_module(60, 40, 1)
        out = sum(c.out_ch for c in convs(node)[:1])  # pointwise output
        assert out == 40
        # dense concat: 60 + 40 new features
        assert 60 + 40 == 100

    def test_channels_deep_in_block(self):
        make_eda_module(410, 40, 16)  # 410 -> 450, validated on build

    def test_weight_count_closed_form(self):
        node = make_eda_module(60, 40, 1)
        assert conv_weight_count(node) == 60 * 40 + 4 * (3 * 40 * 40) == 21600

    def test_dilation_applies_to_second_pair_only(self):
        node = make_eda_module(60, 40, 8)
        dilations = [c.dilation for c in convs(node)]
        assert dilations == [1, 1, 1, 8, 8]

    def test_asymmetric_shapes(self):
        node = make_eda_module(60, 40, 2)
        shapes = [(c.kh, c.kw) for c in convs(node)]
        assert shapes == [(1, 1), (3, 1), (1, 3), (3, 1), (1, 3)]

    def test_asymmetric_padding(self):
        node = make_eda_module(60, 40, 2)
        pads = [(c.pad_h, c.pad_w) for c in convs(node)]
        assert pads == [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)]

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            make_eda_module(0, 40, 1)
        with pytest.raises(ValueError):
            make_eda_module(60, 40, 0)


class TestNonAsymModule:
    def test_weight_count_closed_form(self):
        node = make_non_asym_module(60, 40, 1)
        assert conv_weight_count(node) == 60 * 40 + 2 * (9 * 40 * 40) == 31200

    def test_two_full_convs_second_dilated(self):
        node = make_non_asym_module(100, 40, 4)
        c = convs(node)
        assert [(x.kh, x.kw) for x in c] == [(1, 1), (3, 3), (3, 3)]
        assert [x.dilation for x in c] == [1, 1, 4]

    def test_undilated_when_rate_one(self):
        node = make_non_asym_module(60, 40, 1)
        assert all(c.dilation == 1 for c in convs(node))


class TestErfModule:
    def test_weight_count_closed_form(self):
        assert conv_weight_count(make_erf_module(80, 1)) == 4 * 3 * 80 * 80 == 76800
        assert conv_weight_count(make_erf_module(40, 1)) == 19200

    def test_constant_width(self):
        for c in convs(make_erf_module(64, 2)):
            assert c.in_ch == c.out_ch == 64

    def test_zero_weights_identity_on_nonnegative_input(self):
        """With zero convs and identity BN the module is max(0, x) + 0."""
        net = NetworkSpec("tiny", 1, [LayerSpec("erf", "r", width=3, dilation=1)])
        store = init_weights(net, seed=1)
        for name in store.names():
            if name.endswith(".w"):
                store[name] = np.zeros_like(store[name])
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(0, 1, (1, 3, 6, 6)).astype(np.float32))
        y = forward(net, store, x)
        assert np.array_equal(y.data, x.data)


class TestDownsamplingBlock:
    def test_widening_branch_filter_count(self):
        node = make_downsampling_block(3, 15)
        (conv,) = convs(node)
        assert conv.out_ch == 12 and conv.stride == 2
        pools = [p for p in iter_prims(node) if isinstance(p, MaxPoolStep)]
        assert len(pools) == 1 and pools[0].k == 2 and pools[0].stride == 2

    def test_narrowing_is_single_conv(self):
        node = make_downsampling_block(260, 130)
        (conv,) = convs(node)
        assert conv.out_ch == 130
        assert not any(isinstance(p, MaxPoolStep) for p in iter_prims(node))
        assert not any(isinstance(p, Parallel) for p in iter_prims(node))

    def test_bn_applies_once_after_merge(self):
        node = make_downsampling_block(15, 60)
        bns = [p for p in iter_prims(node) if isinstance(p, BnStep)]
        assert len(bns) == 1 and bns[0].channels == 60

    def test_halves_spatial_dims(self):
        net = NetworkSpec("tiny", 1, [LayerSpec("downsample", "d", in_ch=3, out_ch=8)])
        store = init_weights(net, seed=3)
        x = Tensor(np.zeros((1, 3, 128, 256), np.float32))
        y = forward(net, store, x)
        assert (y.h, y.w) == (64, 128)

    def test_equal_channels_rejected(self):
        with pytest.raises(ValueError):
            make_downsampling_block(64, 64)


class TestAspp:
    def test_concat_width_and_fusion(self):
        node = make_aspp(290, 290)
        fuse = convs(node)[-1]
        assert fuse.in_ch == 1450 and fuse.out_ch == 290

    def test_branch_dilations(self):
        node = make_aspp(290, 290)
        rates = [c.dilation for c in convs(node) if (c.kh, c.kw) == (3, 3)]
        assert rates == [6, 12, 18]

    def test_weight_count_closed_form(self):
        got = conv_weight_count(make_aspp(290, 290))
        want = 290 * 290 + 3 * 9 * 290 * 290 + 290 * 290 + 1450 * 290
        assert got == want == 2859400


class TestProjection:
    def test_weight_count_with_bias(self):
        node = make_projection(450, 19)
        (conv,) = convs(node)
        assert conv.bias
        assert 450 * 19 + 19 == 8569

    def test_single_plane(self):
        (conv,) = convs(make_projection(20, 1))
        assert conv.out_ch == 1

    def test_bare_conv_no_bn_no_relu(self):
        prims = list(iter_prims(make_projection(450, 19)))
        assert len(prims) == 1 and isinstance(prims[0], ConvStep)

    def test_invalid_classes(self):
        with pytest.raises(ValueError):
            make_projection(450, 0)


class TestBlockInvariants:
    @pytest.mark.parametrize("in_ch", [13, 60, 130, 410])
    def test_dense_growth_exact(self, in_ch):
        for maker in (make_eda_module, make_non_asym_module):
            node = maker(in_ch, 40, 2)
            new_feats = convs(node)[-1].out_ch
            assert (in_ch + new_feats) - in_ch == 40

    @pytest.mark.parametrize("width", [8, 40, 64, 128])
    def test_asymmetric_pair_saves_exactly_one_third(self, width):
        pair = 3 * width * width + 3 * width * width
        full = 9 * width * width
        assert pair * 3 == full * 2  # pair == (2/3) * full, in integers
