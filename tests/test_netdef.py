"""Variant builders and the .nspec text format."""

import dataclasses
import os
import pickle
import re
import subprocess
import sys

import pytest

from edanet import netdef
from edanet.analyzer import analyze
from edanet.netdef import (
    LayerSpec,
    NetspecError,
    NetworkSpec,
    VARIANTS,
    build_variant,
    layer_out_channels,
    parse_netspec,
    serialize_netspec,
)
from edanet.tensorops import ShapeError


class TestVariants:
    def test_edanet_final_features(self):
        net = build_variant("edanet", classes=19)
        last_module = [l for l in net.layers if l.kind == "eda"][-1]
        assert layer_out_channels(last_module, None) == 450

    def test_edanet_dilation_schedule(self):
        net = build_variant("edanet", classes=19)
        rates = [l.dilation for l in net.layers if l.kind == "eda"]
        assert rates == [1, 1, 1, 2, 2, 2, 2, 4, 4, 8, 8, 16, 16]

    def test_non_dense_block2_widths_and_dilations(self):
        net = build_variant("non_dense", classes=19)
        block2 = [l for l in net.layers if l.kind == "erf" and l.name.startswith("m2")]
        assert [l.width for l in block2] == [80] * 8
        assert [l.dilation for l in block2] == [2, 4, 8, 16, 2, 4, 8, 16]

    def test_non_dense_block1_width(self):
        net = build_variant("non_dense", classes=19)
        block1 = [l for l in net.layers if l.name.startswith("m1")]
        assert [l.width for l in block1] == [40] * 5

    def test_shallow_has_four_block2_modules(self):
        net = build_variant("shallow", classes=19)
        block2 = [l for l in net.layers if l.name.startswith("m2")]
        assert len(block2) == 4
        assert layer_out_channels(block2[-1], None) == 290

    def test_erfdec_has_no_projection_or_upsample_layer(self):
        net = build_variant("erfdec", classes=19)
        kinds = [l.kind for l in net.layers]
        assert "projection" not in kinds
        assert "bilinear" not in kinds
        assert kinds[-1] == "deconv"
        assert net.layers[-1].out_ch == 19

    def test_densedown_uses_densenet_style_downsampling(self):
        net = build_variant("densedown", classes=19)
        stem = net.layers[0]
        assert (stem.kind, stem.kh, stem.stride, stem.out_ch) == ("conv", 7, 2, 60)
        assert net.layers[1].kind == "maxpool" and net.layers[1].k == 3
        trans = [l for l in net.layers if l.name == "trans1"][0]
        assert (trans.kh, trans.out_ch) == (1, 130)
        pools = [l for l in net.layers if l.kind == "avgpool"]
        assert len(pools) == 1 and pools[0].k == 2

    def test_variants_share_prefix_through_block1(self):
        reference = build_variant("edanet", classes=19).layers[:7]
        for variant in ("non_asym", "shallow", "aspp", "erfdec"):
            prefix = build_variant(variant, classes=19).layers[:7]
            for ref, got in zip(reference, prefix):
                assert (ref.name, ref.dilation) == (got.name, got.dilation)
                assert layer_out_channels(ref, None) == layer_out_channels(got, None)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            build_variant("resnet", classes=19)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_spatial_divisor_is_eight(self, variant):
        """Three stages each halve their input exactly, so the input's
        height and width must be multiples of 8."""
        net = build_variant(variant, classes=19)
        analyze(net, (3, 8, 16))
        for h, w in ((12, 16), (8, 20), (4, 8)):
            with pytest.raises(ShapeError, match="not divisible by stride 2"):
                analyze(net, (3, h, w))

    def test_camvid_configuration(self):
        net = build_variant("edanet", classes=11, upscale=1, train_size=(360, 480))
        assert net.classes == 11
        assert net.inference_upscale == 1
        assert net.train_size == (360, 480)


class TestNetspecFormat:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip_identity(self, variant):
        net = build_variant(variant, classes=19)
        assert parse_netspec(serialize_netspec(net)) == net

    def test_round_trip_camvid(self):
        net = build_variant("shallow", classes=11, upscale=1, train_size=(360, 480))
        assert parse_netspec(serialize_netspec(net)) == net

    def test_single_eda_line(self):
        net = parse_netspec(
            "net name=demo classes=2\n"
            "eda name=m1_1 in=60 growth=40 dilation=1\n"
        )
        (layer,) = net.layers
        assert layer == LayerSpec("eda", "m1_1", in_ch=60, growth=40, dilation=1)

    def test_comments_and_blank_lines_ignored(self):
        net = parse_netspec(
            "# a network\n"
            "net name=demo classes=2  # header\n"
            "\n"
            "eda name=m in=60 growth=40 dilation=1  # module\n"
        )
        assert len(net.layers) == 1

    def test_duplicate_name_reports_line(self):
        text = (
            "net name=demo classes=2\n"
            "eda name=m in=60 growth=40\n"
            "eda name=m in=100 growth=40\n"
        )
        with pytest.raises(NetspecError, match="line 3") as exc:
            parse_netspec(text)
        assert "duplicate layer name" in str(exc.value)

    def test_syntax_error_reports_location(self):
        with pytest.raises(NetspecError, match="line 2, col 5"):
            parse_netspec("net name=demo classes=2\neda garbage\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetspecError, match="unknown layer kind"):
            parse_netspec("net name=demo classes=2\nlstm name=x\n")

    def test_channel_arithmetic_violation(self):
        text = (
            "net name=demo classes=2\n"
            "eda name=a in=60 growth=40\n"
            "eda name=b in=90 growth=40\n"
        )
        with pytest.raises(NetspecError, match="line 3"):
            parse_netspec(text)

    def test_missing_required_key(self):
        with pytest.raises(NetspecError, match="missing required key 'growth'"):
            parse_netspec("net name=demo classes=2\neda name=m in=60\n")

    def test_non_integer_value_rejected(self):
        with pytest.raises(NetspecError, match="expects int"):
            parse_netspec("net name=demo classes=2\neda name=m in=sixty growth=40\n")

    @pytest.mark.parametrize("text, where", [
        ("conv name=c in=3 out=8 kh=3 kw=3 stride=0", "line 2, col 34: stride"),
        ("bilinear name=u factor=0", "line 2, col 17: factor"),
        ("maxpool name=p k=0 stride=2", "line 2, col 16: k"),
        ("eda name=m in=60 growth=0", "line 2, col 18: growth"),
        ("conv name=c in=3 out=8 kh=3 kw=3 pad_h=-1", "line 2, col 34: pad_h"),
    ])
    def test_out_of_range_integer_rejected_at_parse(self, text, where):
        with pytest.raises(NetspecError, match=f"{where} expects int >= "):
            parse_netspec(f"net name=demo classes=2\n{text}\n")

    def test_out_of_range_header_integer_rejected(self):
        with pytest.raises(NetspecError, match="line 1, col 15: classes expects int >= 1"):
            parse_netspec("net name=demo classes=0\n")

    @pytest.mark.parametrize("size", ["0x4", "512", "1x2x3", "ax4", "4x"])
    def test_malformed_train_size_rejected_at_its_column(self, size):
        with pytest.raises(NetspecError, match=re.escape(
                f"line 1, col 25: train expects HxW of two ints >= 1, got '{size}'")):
            parse_netspec(f"net name=demo classes=2 train={size}\n")

    def test_zero_pad_accepted(self):
        net = parse_netspec("net name=demo classes=2\nmaxpool name=p k=3 stride=2 pad=0\n")
        assert net.layers[0].pad == 0

    def test_missing_header_rejected(self):
        with pytest.raises(NetspecError, match="header"):
            parse_netspec("eda name=m in=60 growth=40\n")

    @pytest.mark.parametrize("text, message", [
        ("net name=demo classes=2\neda name=m in=60 growth=40 in=60\n",
         "line 2, col 28: duplicate key 'in'"),
        ("net name=demo classes=2 depth=3\n", "line 1, col 25: unknown key 'depth' for kind 'net'"),
        ("net name=demo upscale=2\n", "line 1, col 1: network 'demo' missing required key 'classes'"),
        ("# a comment\n\n", "empty network description: missing header line"),
    ], ids=["repeated_layer_key", "unknown_header_key", "header_without_classes",
            "no_header"])
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(NetspecError, match=message):
            parse_netspec(text)

    @pytest.mark.parametrize("layers, where", [
        ("eda name=a in=60 growth=40\n\n  # a comment\n\neda name=b in=90 growth=40\n",
         "line 7, col 1: layer 'b' expects 90 input channels"),
        ("eda name=a in=60 growth=40\n# a comment\n    eda name=a in=100 growth=40\n",
         "line 5, col 1: duplicate layer name 'a'"),
        ("\n# a comment\n\neda name=m in=60\n",
         "line 6, col 1: eda layer 'm' missing required key 'growth'"),
    ], ids=["channel_chain", "indented_duplicate_name", "missing_key"])
    def test_layer_fault_after_blank_and_comment_lines_reports_its_line(self, layers, where):
        with pytest.raises(NetspecError, match=where):
            parse_netspec(f"# a network\nnet name=demo classes=2\n{layers}")

    def test_field_error_reported_before_an_earlier_duplicate_name(self):
        text = (
            "net name=demo classes=2\n"
            "eda name=m in=60 growth=40\n"
            "eda name=m in=100 growth=40\n"
            "eda name=n in=140 growth=zero\n"
        )
        with pytest.raises(NetspecError, match="line 4, col 19: growth expects int"):
            parse_netspec(text)

    def test_each_parse_validates_the_layers_once(self, monkeypatch):
        texts = [serialize_netspec(build_variant(variant)) for variant in VARIANTS]
        real, calls = netdef._validate_layers, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(netdef, "_validate_layers", counted)
        for text in texts:
            parse_netspec(text)
        assert len(calls) == len(texts)

    def test_two_projections_rejected(self):
        text = (
            "net name=demo classes=2\n"
            "projection name=p1 in=8 classes=2\n"
            "projection name=p2 in=2 classes=2\n"
        )
        with pytest.raises(NetspecError, match="projection"):
            parse_netspec(text)

    def test_layer_after_projection_rejected(self):
        text = (
            "net name=demo classes=2\n"
            "projection name=p in=8 classes=2\n"
            "eda name=m in=2 growth=40\n"
        )
        with pytest.raises(NetspecError, match="after the projection"):
            parse_netspec(text)

    def test_serialization_is_canonical(self):
        net = build_variant("edanet", classes=19)
        text = serialize_netspec(net)
        assert text == serialize_netspec(parse_netspec(text))
        assert text.splitlines()[0] == "net name=edanet classes=19 upscale=2 train=512x1024"
        assert "eda name=m1_1 in=60 growth=40 dilation=1" in text


class TestNetworkSpecValidation:
    def test_duplicate_names_rejected_at_build(self):
        layers = [
            LayerSpec("eda", "m", in_ch=60, growth=40, dilation=1),
            LayerSpec("eda", "m", in_ch=100, growth=40, dilation=1),
        ]
        with pytest.raises(NetspecError):
            NetworkSpec("demo", 2, layers)

    def test_channel_chain_checked_at_build(self):
        layers = [
            LayerSpec("downsample", "d", in_ch=3, out_ch=16),
            LayerSpec("erf", "r", width=32, dilation=1),
        ]
        with pytest.raises(NetspecError):
            NetworkSpec("demo", 2, layers)

    @pytest.mark.parametrize("line, layer, message", [
        ("downsample name=d in=3 out=3",
         LayerSpec("downsample", "d", in_ch=3, out_ch=3), "in_ch == out_ch"),
        ("projection name=d in=3 classes=5",
         LayerSpec("projection", "d", in_ch=3, classes=5), "5 classes but the network has 2"),
    ])
    def test_block_rules_checked_at_parse_and_build(self, line, layer, message):
        with pytest.raises(NetspecError, match=f"line 2, col 1: .*'d'.*{message}"):
            parse_netspec(f"net name=demo classes=2\n{line}\n")
        with pytest.raises(NetspecError, match=message):
            NetworkSpec("demo", 2, [layer])

    @pytest.mark.parametrize("k, pad", [(2, 2), (1, 1)])
    def test_max_pool_padding_must_be_below_its_kernel(self, k, pad):
        """At ``pad >= k`` a border window lies wholly in the padding, and
        its output would be ``-inf``."""
        message = f"layer 'p': maxpool: pad {pad} must be below k {k}"
        with pytest.raises(NetspecError, match=f"line 2, col 1: {message}"):
            parse_netspec(f"net name=demo classes=2\nmaxpool name=p k={k} stride=2 pad={pad}\n")
        with pytest.raises(NetspecError, match=message):
            NetworkSpec("demo", 2, [LayerSpec("maxpool", "p", k=k, stride=2, pad=pad)])

    @pytest.mark.parametrize("name", ["", "a b", "a#b", "a\tb", "a\nb"])
    def test_name_the_text_format_cannot_hold_is_rejected(self, name):
        with pytest.raises(NetspecError, match="name expects"):
            LayerSpec("bilinear", name, factor=2)
        with pytest.raises(NetspecError, match=re.escape(f"network {name!r}: name expects")):
            NetworkSpec(name, 2, [LayerSpec("bilinear", "u", factor=2)])

    @pytest.mark.parametrize("classes, upscale, message", [
        (0, 1, "network 'demo': classes expects int >= 1, got '0'"),
        (2, 0, "network 'demo': upscale expects int >= 1, got '0'"),
    ], ids=["classes", "upscale"])
    def test_out_of_range_network_integer_rejected(self, classes, upscale, message):
        with pytest.raises(NetspecError, match=message):
            NetworkSpec("demo", classes, [LayerSpec("bilinear", "u", factor=2)],
                        inference_upscale=upscale)

    def test_unknown_kind_rejected_in_code(self):
        with pytest.raises(NetspecError, match="unknown layer kind 'lstm'"):
            LayerSpec("lstm", "x")

    def test_name_with_equals_sign_round_trips(self):
        net = NetworkSpec("n=1", 2, [LayerSpec("bilinear", "a=b", factor=2)])
        assert parse_netspec(serialize_netspec(net)) == net


def field_values(spec) -> tuple:
    return tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))


class TestSpecHashing:
    """Specs key the lowering, analysis and weight-table memos; each
    hashes its fields once, when built."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equal_specs_hash_equal(self, variant):
        built = build_variant(variant)
        parsed = parse_netspec(serialize_netspec(built))
        assert parsed == built and parsed is not built
        assert hash(parsed) == hash(built) == hash(field_values(built))
        for a, b in zip(built.layers, parsed.layers):
            assert hash(a) == hash(b) == hash(field_values(a))
        first = built.layers[0]
        assert hash(dataclasses.replace(dataclasses.replace(first, name="x"),
                                        name=first.name)) == hash(first)

    def test_unequal_specs_hash_their_own_fields(self):
        a, b = build_variant("edanet"), build_variant("edanet", classes=11)
        assert a != b and hash(b) == hash(field_values(b))
        folded = netdef.fold_layer(a.layers[0])
        assert folded != a.layers[0] and hash(folded) == hash(field_values(folded))

    def test_lookup_does_not_rehash_the_layers(self, monkeypatch):
        a, b = build_variant("edanet"), build_variant("edanet")

        def rehash(self):
            raise AssertionError("LayerSpec hashed again")

        monkeypatch.setattr(LayerSpec, "__hash__", rehash)
        assert {a: "memo"}[b] == "memo"

    def test_pickle_in_another_hash_seed_round_trips(self):
        """A string's hash differs between processes, so an unpickled spec
        hashes its fields again rather than carrying the sender's hash."""
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = ("import pickle, sys; from edanet.netdef import build_variant; "
                "sys.stdout.buffer.write(pickle.dumps(build_variant('edanet')))")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        sent = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, check=True).stdout
        net = pickle.loads(sent)
        assert {build_variant("edanet"): "memo"}[net] == "memo"
        assert all(hash(layer) == hash(field_values(layer)) for layer in net.layers)
