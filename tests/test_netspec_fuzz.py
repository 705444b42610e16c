"""Property tests of the .nspec format.  A text one token away from a valid
network either fails to parse with NetspecError, or parses to a network
whose every layer lowers and which survives a serialize/parse round trip.
A one-layer network built in code either fails with NetspecError, or
survives the round trip with the same parameter table; a network built in
code with any header values either fails, or holds them as given and
survives the round trip."""

import dataclasses

import pytest

from edanet.netdef import (
    _KIND_KEYS,
    VARIANTS,
    LayerSpec,
    NetspecError,
    NetworkSpec,
    build_variant,
    expand_layer,
    parse_netspec,
    serialize_netspec,
)
from edanet.runtime import parameter_names

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

LINES = {
    v: [line.split(" ") for line in serialize_netspec(build_variant(v, classes=19)).splitlines()]
    for v in VARIANTS
}
REPLACEMENTS = st.one_of(
    st.integers(-2, 600).map(str),
    st.sampled_from(["", "=", "x", "1x1", "folded=1", "classes=5", "net", "eda",
                     "downsample", "projection", "# comment"]),
    st.text(alphabet="abcdefgilnorstuwx0123456789=_- #", max_size=12),
)


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(variant=st.sampled_from(VARIANTS), data=st.data())
def test_one_token_mutation_fails_at_parse_or_round_trips(variant, data):
    lines = [list(line) for line in LINES[variant]]
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    j = data.draw(st.integers(0, len(lines[i]) - 1), label="token")
    # another value of the same line is the likeliest near miss, such as a
    # downsampler whose input width equals its output width
    same_line = [token.partition("=")[2] for token in lines[i] if "=" in token]
    new = data.draw(st.one_of(st.sampled_from(same_line), REPLACEMENTS), label="replacement")
    key, eq, _ = lines[i][j].partition("=")
    if eq and "=" not in new:
        new = f"{key}={new}"
    lines[i][j] = new
    try:
        net = parse_netspec("\n".join(" ".join(line) for line in lines) + "\n")
    except NetspecError as exc:
        assert exc.line >= 1  # every parse error names its line
        return
    for layer in net.layers:
        expand_layer(layer)
    assert parse_netspec(serialize_netspec(net)) == net


FIELDS = [f.name for f in dataclasses.fields(LayerSpec) if f.name not in ("kind", "name")]
VALUES = st.one_of(st.none(), st.integers(-1, 48), st.booleans())
# mostly plain names, now and then one with a blank, a tab, '#' or '='
NAMES = st.one_of(st.just("l"), st.text(alphabet="ab #\t=", max_size=3))


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(kind=st.sampled_from(sorted(_KIND_KEYS)), data=st.data())
def test_layer_built_in_code_is_rejected_or_round_trips(kind, data):
    own = [attr for _, attr, _, _ in _KIND_KEYS[kind] if attr != "name"]
    # mostly the kind's own fields, now and then one it does not use
    extra = data.draw(st.sampled_from([None] * 3 + FIELDS), label="extra")
    kwargs = {attr: data.draw(VALUES, label=attr) for attr in own + [extra] if attr}
    kwargs["folded"] = data.draw(st.one_of(st.booleans(), st.integers(-1, 2)), label="folded")
    try:
        layer = LayerSpec(kind, data.draw(NAMES, label="name"), **kwargs)
        net = NetworkSpec(data.draw(NAMES, label="net_name"), layer.classes or 2, [layer])
    except NetspecError:
        return
    again = parse_netspec(serialize_netspec(net))
    assert again == net
    assert parameter_names(again) == parameter_names(net)


# every kind of value a header field might be handed in code: in and out of
# range, a pair too short or too long, and the types int() would coerce
NET_INTS = st.one_of(st.integers(-2, 40), st.floats(-2, 40), st.booleans(),
                     st.integers(-2, 40).map(str))
SIZES = st.one_of(
    st.tuples(st.integers(-1, 600), st.integers(-1, 600)),
    st.tuples(st.integers(1, 600)),
    st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    st.tuples(NET_INTS, NET_INTS),
    NET_INTS,
)


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(name=NAMES, classes=NET_INTS, upscale=NET_INTS, train_size=SIZES)
def test_network_built_in_code_is_rejected_or_round_trips(name, classes, upscale,
                                                          train_size):
    try:
        net = NetworkSpec(name, classes, [LayerSpec("bilinear", "u", factor=2)],
                          train_size=train_size, inference_upscale=upscale)
    except NetspecError:
        return
    # held as given: nothing was coerced into range or type
    assert (net.name, net.classes, net.inference_upscale, net.train_size) == (
        name, classes, upscale, train_size)
    assert parse_netspec(serialize_netspec(net)) == net
