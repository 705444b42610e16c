"""Static analysis: shapes, parameter counts, multiply-adds, receptive fields.

The exact totals asserted here were derived independently by closed-form
counting of each block (conv weights kh*kw*in*out, BN 2 per channel) before
the analyzer existed; the analyzer must reproduce them to the digit.
"""

import pytest

from edanet.analyzer import (
    analyze,
    count_multiply_adds,
    count_params,
    effective_kernel,
    format_quantity,
    receptive_field,
    render_report,
    trace_shapes,
)
from edanet.netdef import LayerSpec, NetworkSpec, build_variant
from edanet.tensorops import ShapeError

# Closed-form totals per variant (params; multiply-adds at 3x512x1024).
EXPECTED_PARAMS = {
    "edanet": 688_778,
    "non_asym": 811_498,
    "non_dense": 737_028,
    "shallow": 551_338,
    "aspp": 3_414_218,
    "erfdec": 906_628,
    "densedown": 420_769,
}

EXPECTED_MACS = {
    "edanet": 8_883_765_248,
    "non_asym": 11_067_424_768,
    "non_dense": 8_513_486_848,
    "shallow": 7_764_410_368,
    "aspp": 30_511_630_758,
    "erfdec": 14_115_323_904,
    "densedown": 8_420_966_400,
}


def conv_net(*layer_args):
    return NetworkSpec("tiny", 2, [LayerSpec(*args[0], **args[1]) for args in layer_args])


def stacked_convs(count, k=3, stride=1):
    layers = [
        LayerSpec("conv", f"c{i}", in_ch=1, out_ch=1, kh=k, kw=k,
                  stride=stride, dilation=1, pad_h=k // 2, pad_w=k // 2,
                  bn=False, act=False)
        for i in range(count)
    ]
    return NetworkSpec("stack", 2, layers)


class TestTraceShapes:
    def test_edanet_landmarks(self):
        shapes = dict(trace_shapes(build_variant("edanet", classes=19), (3, 512, 1024)))
        assert shapes["ds1"] == (15, 256, 512)
        assert shapes["ds2"] == (60, 128, 256)
        assert shapes["m1_5"] == (260, 128, 256)
        assert shapes["ds3"] == (130, 64, 128)
        assert shapes["m2_8"] == (450, 64, 128)
        assert shapes["proj"] == (19, 64, 128)
        assert shapes["up8"] == (19, 512, 1024)

    def test_erfdec_decoder_sizes(self):
        shapes = dict(trace_shapes(build_variant("erfdec", classes=19), (3, 512, 1024)))
        assert shapes["up1"] == (64, 128, 256)
        assert shapes["up2"] == (16, 256, 512)
        assert shapes["up3"] == (19, 512, 1024)

    def test_minimum_divisible_input(self):
        shapes = dict(trace_shapes(build_variant("edanet", classes=19), (3, 8, 8)))
        assert shapes["m2_8"] == (450, 1, 1)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            trace_shapes(build_variant("edanet", classes=19), (3, 512, 1020))

    def test_wrong_channels_rejected(self):
        with pytest.raises(ShapeError):
            trace_shapes(build_variant("edanet", classes=19), (4, 512, 1024))

    def test_non_positive_extent_rejected(self):
        net = NetworkSpec("tiny", 2, [LayerSpec("conv", "c", in_ch=3, out_ch=2, kh=3, kw=3)])
        with pytest.raises(ShapeError, match="layer 'c': c.conv: non-positive output extent"):
            analyze(net, (3, 1, 1))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (3, 0, 4), (3, 4, -1)],
                             ids=["zero_channels", "zero_height", "negative_width"])
    def test_non_positive_input_rejected(self, shape):
        """A resize alone accepts any extent, so the input is checked first."""
        net = NetworkSpec("up", 3, [LayerSpec("bilinear", "up", factor=2)])
        with pytest.raises(ShapeError, match=r"input dimensions must be >= 1, got \("):
            analyze(net, shape)


class TestCountParams:
    def test_single_biased_conv(self):
        net = conv_net((("conv", "c"), dict(in_ch=3, out_ch=12, kh=3, kw=3,
                                            stride=1, dilation=1, pad_h=1, pad_w=1,
                                            bn=False, act=False)))
        assert count_params(net) == 3 * 3 * 3 * 12 + 12 == 336

    def test_bn_counts_two_per_channel(self):
        net = conv_net((("conv", "c"), dict(in_ch=3, out_ch=12, kh=3, kw=3,
                                            stride=1, dilation=1, pad_h=1, pad_w=1,
                                            bn=True, act=True)))
        assert count_params(net) == 3 * 3 * 3 * 12 + 2 * 12

    @pytest.mark.parametrize("variant,total", sorted(EXPECTED_PARAMS.items()))
    def test_variant_totals_exact(self, variant, total):
        assert count_params(build_variant(variant, classes=19)) == total


class TestCountMultiplyAdds:
    def test_pointwise_conv_formula(self):
        net = conv_net((("conv", "c"), dict(in_ch=8, out_ch=4, kh=1, kw=1,
                                            stride=1, dilation=1, pad_h=0, pad_w=0,
                                            bn=False, act=False)))
        assert count_multiply_adds(net, (8, 16, 32)) == 8 * 4 * 16 * 32

    @pytest.mark.parametrize("variant,total", sorted(EXPECTED_MACS.items()))
    def test_variant_totals_exact(self, variant, total):
        net = build_variant(variant, classes=19)
        assert count_multiply_adds(net, (3, 512, 1024)) == total

    def test_conv_macs_equal_weights_times_positions(self):
        report = analyze(build_variant("edanet", classes=19), (3, 512, 1024))
        layer = {l.name: l for l in report.layers}["proj"]
        c, h, w = layer.out_shape
        weights_only = 450 * 19  # projection weights, bias excluded
        assert layer.multiply_adds == weights_only * h * w


class TestOrderings:
    def test_param_ordering_chain(self):
        order = ["densedown", "shallow", "edanet", "non_dense", "erfdec", "aspp"]
        values = [EXPECTED_PARAMS[v] for v in order]
        counted = [count_params(build_variant(v, classes=19)) for v in order]
        assert counted == values
        for a, b in zip(counted, counted[1:]):
            assert a < b

    def test_mac_ordering_chain(self):
        order = ["shallow", "densedown", "non_dense", "edanet", "non_asym",
                 "erfdec", "aspp"]
        counted = [
            count_multiply_adds(build_variant(v, classes=19), (3, 512, 1024))
            for v in order
        ]
        for a, b in zip(counted, counted[1:]):
            assert a < b

    def test_non_asym_cost_ratio(self):
        ratio = EXPECTED_MACS["non_asym"] / EXPECTED_MACS["edanet"]
        assert 1.22 <= ratio <= 1.30


class TestEffectiveKernel:
    def test_values(self):
        assert effective_kernel(3, 2) == 5
        assert effective_kernel(3, 16) == 33
        assert effective_kernel(7, 1) == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            effective_kernel(0, 1)


class TestReceptiveField:
    def test_two_stacked_3x3(self):
        net = stacked_convs(2)
        assert receptive_field(net, 1, (1, 16, 16)) == (5, 5)

    def test_three_stacked_3x3(self):
        net = stacked_convs(3)
        assert receptive_field(net, 2, (1, 16, 16)) == (7, 7)

    def test_strided_base_case(self):
        net = stacked_convs(1, stride=2)
        assert receptive_field(net, 0, (1, 16, 16)) == (3, 3)

    def test_jump_doubles_after_stride(self):
        layers = [
            LayerSpec("conv", "c0", in_ch=1, out_ch=1, kh=3, kw=3, stride=2,
                      dilation=1, pad_h=1, pad_w=1, bn=False, act=False),
            LayerSpec("conv", "c1", in_ch=1, out_ch=1, kh=3, kw=3, stride=1,
                      dilation=1, pad_h=1, pad_w=1, bn=False, act=False),
        ]
        net = NetworkSpec("s", 2, layers)
        # rf = 3, then 3 + (3-1)*2 = 7
        assert receptive_field(net, 1, (1, 16, 16)) == (7, 7)

    def test_monotone_over_edanet(self):
        report = analyze(build_variant("edanet", classes=19), (3, 512, 1024))
        rf = [(l.rf_h, l.rf_w) for l in report.layers]
        for a, b in zip(rf, rf[1:]):
            assert b[0] >= a[0] and b[1] >= a[1]

    def test_dilated_layer_reports_effective_kernel(self):
        report = analyze(build_variant("edanet", classes=19), (3, 512, 1024))
        by_name = {l.name: l for l in report.layers}
        assert by_name["m2_8"].effective_kernel == 33
        assert by_name["m1_1"].effective_kernel is None

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            receptive_field(stacked_convs(1), 5, (1, 16, 16))


class TestRenderReport:
    def test_csv_header_and_totals(self):
        report = analyze(build_variant("edanet", classes=19), (3, 512, 1024))
        lines = render_report(report, format="csv").splitlines()
        assert lines[0] == "layer,out_shape,params,macs,rf_h,rf_w"
        assert len(lines) == 1 + len(report.layers) + 1
        assert lines[-1].startswith("total,19x512x1024,688778,8883765248,")

    def test_empty_network_renders_zero_totals(self):
        report = analyze(NetworkSpec("empty", 1, []), (3, 8, 8))
        lines = render_report(report, format="csv").splitlines()
        assert lines == [
            "layer,out_shape,params,macs,rf_h,rf_w",
            "total,-,0,0,0,0",
        ]

    def test_byte_identical_across_runs(self):
        net = build_variant("shallow", classes=19)
        a = render_report(analyze(net, (3, 512, 1024)), format="table")
        b = render_report(analyze(net, (3, 512, 1024)), format="table")
        assert a == b

    def test_unknown_format_rejected(self):
        report = analyze(NetworkSpec("empty", 1, []), (3, 8, 8))
        with pytest.raises(ValueError):
            render_report(report, format="yaml")

    def test_quantity_formatting(self):
        assert format_quantity(688_778) == "0.69M"
        assert format_quantity(8_883_765_248) == "8.88B"
        assert format_quantity(42) == "42"


class TestReportConsistency:
    @pytest.mark.parametrize("variant", sorted(EXPECTED_PARAMS))
    def test_totals_equal_layer_sums(self, variant):
        report = analyze(build_variant(variant, classes=19), (3, 512, 1024))
        assert sum(l.params for l in report.layers) == report.total_params
        assert sum(l.multiply_adds for l in report.layers) == report.total_multiply_adds
