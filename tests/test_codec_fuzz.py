"""Property tests of the binary decoders.  Bytes a few edits away from a
valid .edaw weight file, P6 image or P5 label map either decode, or fail
with the format's own error: WeightFormatError or ImageFormatError, never
another exception."""

import numpy as np
import pytest

from edanet.imageio import ImageFormatError, read_pgm, read_ppm, write_pgm
from edanet.runtime import WeightFormatError, WeightStore, deserialize_weights, serialize_weights

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_rng = np.random.default_rng(0)
_STORE = WeightStore()
_STORE["ds1.conv.w"] = _rng.uniform(-1, 1, (2, 3, 3, 3)).astype(np.float32)
_STORE["ds1.bn.gamma"] = _rng.uniform(-1, 1, 2).astype(np.float32)
DECODERS = {
    "edaw": (deserialize_weights, WeightFormatError, serialize_weights(_STORE)),
    "ppm": (read_ppm, ImageFormatError,
            b"P6\n# test\n3 2\n255\n" + _rng.integers(0, 256, 18, np.uint8).tobytes()),
    "pgm": (read_pgm, ImageFormatError, write_pgm(np.arange(6).reshape(2, 3))),
}
# header-like tokens, now and then a run of digits past Python's 4300-digit
# limit for int() of a string
INSERTS = st.one_of(
    st.binary(min_size=1, max_size=6),
    st.sampled_from([b" ", b"\n", b"#", b"0", b"255", b"-1", b"P5", b"P6"]),
    st.integers(1, 6000).map(lambda n: b"7" * n),
)


@st.composite
def mutated(draw, name):
    data = bytearray(DECODERS[name][2])
    for _ in range(draw(st.integers(1, 3), label="edits")):
        at = draw(st.integers(0, len(data)), label="at")
        edit = draw(st.sampled_from(["set", "insert", "delete", "truncate"]), label="edit")
        if edit == "set" and at < len(data):
            data[at] = draw(st.integers(0, 255), label="byte")
        elif edit == "insert":
            data[at:at] = draw(INSERTS, label="insert")
        elif edit == "delete":
            del data[at : at + draw(st.integers(1, 8), label="length")]
        elif edit == "truncate":
            del data[at:]
    return name, bytes(data)


@hypothesis.settings(max_examples=600, derandomize=True, deadline=None, database=None)
@hypothesis.given(case=st.sampled_from(sorted(DECODERS)).flatmap(mutated))
@hypothesis.example(case=("ppm", b"P6\n" + b"9" * 5000 + b" 1\n255\n" + b"\0" * 3))
@hypothesis.example(case=("pgm", b"P5\n1 1\n" + b"2" * 5000 + b"\n\0"))
def test_edited_file_decodes_or_raises_format_error(case):
    name, data = case
    decode, error, _valid = DECODERS[name]
    try:
        decode(data)
    except error:
        pass
