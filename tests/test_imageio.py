"""Netpbm I/O and label-map rendering."""

import tracemalloc

import numpy as np
import pytest

from edanet.imageio import (
    ImageFormatError,
    colorize,
    default_palette,
    load_palette,
    read_pgm,
    read_ppm,
    save_palette,
    write_pgm,
    write_ppm,
)
from edanet.tensorops import Tensor


def make_ppm(width, height, pixels=None, comment=False):
    header = b"P6\n"
    if comment:
        header += b"# synthetic test image\n"
    header += f"{width} {height}\n255\n".encode()
    if pixels is None:
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
    return header + pixels.tobytes(), pixels


class TestReadPpm:
    def test_single_white_pixel(self):
        data, _ = make_ppm(1, 1, np.full((1, 1, 3), 255, np.uint8))
        img = read_ppm(data)
        assert img.shape == (1, 3, 1, 1)
        assert np.all(img.data == 1.0)

    def test_scales_by_255(self):
        data, _ = make_ppm(1, 1, np.array([[[51, 102, 204]]], np.uint8))
        img = read_ppm(data)
        want = np.array([51, 102, 204], np.float32) / np.float32(255.0)
        assert np.array_equal(img.data[0, :, 0, 0], want)

    def test_comment_header_parses_identically(self):
        plain, px = make_ppm(4, 3)
        commented = make_ppm(4, 3, px, comment=True)[0]
        assert np.array_equal(read_ppm(plain).data, read_ppm(commented).data)

    def test_round_trip_byte_identity(self):
        data, _ = make_ppm(7, 5)
        assert write_ppm(read_ppm(data)) == data

    @pytest.mark.parametrize("width, height", [(1, 1), (5, 3), (31, 17), (1024, 512)])
    def test_decode_is_the_float32_division_bit_for_bit(self, width, height):
        data, px = make_ppm(width, height)
        got = read_ppm(data).data
        want = px.transpose(2, 0, 1).astype(np.float32) / np.float32(255)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint32), want[None].view(np.uint32))

    def test_payload_is_read_in_place(self):
        """A 512x1024 decode traced 13.5 MiB when the payload was sliced
        out, cast, divided and made contiguous, each into a new array; it
        now allocates only its 6 MiB output."""
        data, _ = make_ppm(1024, 512)
        read_ppm(data)
        tracemalloc.start()
        try:
            read_ppm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 6 * 2**20 + 1.5 * 2**20

    def test_bytes_past_the_payload_ignored(self):
        data, _ = make_ppm(4, 3)
        assert np.array_equal(read_ppm(data + b"\0\1").data, read_ppm(data).data)

    def test_bad_magic_rejected(self):
        with pytest.raises(ImageFormatError, match="magic"):
            read_ppm(b"P3\n1 1\n255\n aaa")

    def test_wrong_maxval_rejected(self):
        with pytest.raises(ImageFormatError, match="maxval"):
            read_ppm(b"P6\n1 1\n65535\n" + b"\x00" * 6)

    def test_truncated_payload_rejected(self):
        data, _ = make_ppm(4, 4)
        with pytest.raises(ImageFormatError, match="truncated"):
            read_ppm(data[:-1])

    def test_truncated_header_rejected(self):
        with pytest.raises(ImageFormatError):
            read_ppm(b"P6\n17 ")

    def test_zero_width_rejected(self):
        with pytest.raises(ImageFormatError, match="invalid dimensions 0x1"):
            read_ppm(b"P6\n0 1\n255\n")

    @pytest.mark.parametrize("read, magic", [(read_ppm, b"P6"), (read_pgm, b"P5")])
    def test_header_integer_past_digit_limit_rejected(self, read, magic):
        """int() refuses strings over 4300 digits; that is a format error."""
        with pytest.raises(ImageFormatError, match="5000 digits"):
            read(magic + b"\n" + b"9" * 5000 + b" 1\n255\n\0\0\0")


class TestPgm:
    def test_write_stores_raw_indices(self):
        labels = np.array([[0, 3], [18, 7]], np.int32)
        data = write_pgm(labels)
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([0, 3, 18, 7])

    def test_round_trip(self):
        labels = np.arange(12, dtype=np.int32).reshape(3, 4)
        assert np.array_equal(read_pgm(write_pgm(labels)), labels)

    def test_rejects_wide_labels(self):
        with pytest.raises(ValueError):
            write_pgm(np.full((1, 1), 300, np.int32))


class TestPalette:
    def test_text_round_trip(self):
        pal = default_palette(19)
        again = load_palette(save_palette(pal))
        assert np.array_equal(pal, again)

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_palette("1 2 3\n4 5\n")

    def test_rejects_non_integer_with_its_line(self):
        with pytest.raises(ValueError, match="palette line 3: expected integers, got '4 5 x'"):
            load_palette("1 2 3\n# comment\n4 5 x\n")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            load_palette("0 0 300\n")

    def test_comments_and_blanks_skipped(self):
        pal = load_palette("# hdr\n\n10 20 30\n")
        assert pal.tolist() == [[10, 20, 30]]


class TestColorize:
    def test_solid_map(self):
        pal = np.array([[9, 8, 7], [1, 2, 3]], np.uint8)
        data = colorize(np.zeros((2, 2), np.int32), pal)
        img = read_ppm(data)
        flat = np.rint(img.data[0] * 255).astype(np.uint8)
        assert np.all(flat[0] == 9) and np.all(flat[1] == 8) and np.all(flat[2] == 7)

    def test_checkerboard(self):
        pal = np.array([[255, 0, 0], [0, 255, 0]], np.uint8)
        labels = np.array([[0, 1], [1, 0]], np.int32)
        payload = colorize(labels, pal)[-12:]
        assert payload == bytes([255, 0, 0, 0, 255, 0, 0, 255, 0, 255, 0, 0])

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="palette"):
            colorize(np.full((1, 1), 5, np.int32), default_palette(3))


@pytest.mark.parametrize("call, match", [
    (lambda: write_pgm(np.zeros((1, 2, 2), np.int32)), "must be 2-D"),
    (lambda: load_palette("# only a comment\n\n"), "empty palette"),
    (lambda: colorize(np.zeros((2, 2), np.int32), np.zeros((3, 4), np.uint8)),
     r"must be \(C, 3\)"),
], ids=["pgm_3d_labels", "palette_comments_only", "colorize_palette_3x4"])
def test_invalid_arguments_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestWritePpm:
    def test_requires_three_channels(self):
        with pytest.raises(ValueError):
            write_ppm(Tensor.zeros(1, 1, 2, 2))

    def test_clips_and_rounds(self):
        img = Tensor(np.array([1.2, 0.5, -0.1], np.float32).reshape(1, 3, 1, 1))
        data = write_ppm(img)
        assert data[-3:] == bytes([255, 128, 0])
