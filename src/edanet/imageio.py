"""Minimal Netpbm image I/O and label-map rendering for the inference CLI.

Only binary P6 (RGB) and P5 (grayscale) with maxval 255 are supported;
palettes load from a plain text file with one ``r g b`` line per class.
"""

from __future__ import annotations

import numpy as np

from .tensorops import LabelMap, Tensor

__all__ = [
    "ImageFormatError",
    "read_ppm",
    "write_ppm",
    "read_pgm",
    "write_pgm",
    "Palette",
    "load_palette",
    "save_palette",
    "default_palette",
    "colorize",
]

# C RGB triples, one per class: uint8 array of shape (C, 3).
Palette = np.ndarray


class ImageFormatError(ValueError):
    """Not a valid binary Netpbm file of the supported flavor."""


def _parse_netpbm_header(data: bytes, magic: bytes):
    """Return (width, height, payload offset) after the maxval token.

    Netpbm grammar: tokens separated by whitespace, ``#`` comments run to
    end of line, and exactly one whitespace byte follows the maxval.
    """
    if not data.startswith(magic):
        raise ImageFormatError(
            f"bad magic: expected {magic.decode()} header"
        )
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise ImageFormatError("truncated header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            try:
                fields.append(int(data[start:pos]))
            except ValueError:  # past Python's digit limit for int()
                raise ImageFormatError(f"header integer of {pos - start} digits") from None
        else:
            raise ImageFormatError(f"unexpected byte {ch!r} in header")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ImageFormatError("missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval} (only 255)")
    if width < 1 or height < 1:
        raise ImageFormatError(f"invalid dimensions {width}x{height}")
    return width, height, pos


def read_ppm(data: bytes) -> Tensor:
    """Decode binary P6 into a (1, 3, H, W) tensor scaled to [0, 1]: the
    pixels, read in place, are divided by float32(255) straight into the
    tensor's one array, the float32 division of their float32 values."""
    width, height, pos = _parse_netpbm_header(data, b"P6")
    need = width * height * 3
    if len(data) - pos < need:
        raise ImageFormatError(
            f"truncated payload: expected {need} bytes, got {len(data) - pos}"
        )
    pixels = np.frombuffer(data, np.uint8, need, pos).reshape(height, width, 3)
    chw = np.empty((1, 3, height, width), np.float32)
    np.divide(pixels.transpose(2, 0, 1), np.float32(255.0), out=chw[0], dtype=np.float32)
    return Tensor(chw)


def write_ppm(image: Tensor) -> bytes:
    """Encode a (1, 3, H, W) tensor with values in [0, 1] as binary P6."""
    if image.n != 1 or image.c != 3:
        raise ValueError(f"write_ppm expects a 1x3xHxW tensor, got {image.shape}")
    scaled = np.rint(image.data[0] * np.float32(255.0))
    pixels = np.clip(scaled, 0, 255).astype(np.uint8).transpose(1, 2, 0)
    return _encode(b"P6", pixels)


def read_pgm(data: bytes) -> LabelMap:
    """Decode binary P5 into an int32 label map."""
    width, height, pos = _parse_netpbm_header(data, b"P5")
    need = width * height
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ImageFormatError(
            f"truncated payload: expected {need} bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, np.uint8).reshape(height, width).astype(np.int32)


def write_pgm(labels: LabelMap) -> bytes:
    """Encode a label map as binary P5, storing raw class indices."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"label map must be 2-D, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() > 255:
        raise ValueError("labels must fit in a byte")
    return _encode(b"P5", labels.astype(np.uint8))


def _encode(magic: bytes, pixels: np.ndarray) -> bytes:
    h, w = pixels.shape[:2]
    return magic + f"\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


# ---------------------------------------------------------------------------
# palettes

def load_palette(text: str) -> Palette:
    """One class per line: three integers 0..255 separated by spaces."""
    rows = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"palette line {line_no}: expected 'r g b'")
        try:
            rgb = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"palette line {line_no}: expected integers, got {line!r}") from None
        if any(not 0 <= v <= 255 for v in rgb):
            raise ValueError(f"palette line {line_no}: values must be 0..255")
        rows.append(rgb)
    if not rows:
        raise ValueError("empty palette")
    return np.array(rows, np.uint8)


def save_palette(palette: Palette) -> str:
    return "\n".join(f"{r} {g} {b}" for r, g, b in palette) + "\n"


def default_palette(classes: int) -> Palette:
    """Deterministic fallback palette with well-separated hues."""
    rows = []
    for c in range(classes):
        rows.append((
            (37 * c + 101) % 256,
            (97 * c + 29) % 256,
            (173 * c + 67) % 256,
        ))
    return np.array(rows, np.uint8)


def colorize(labels: LabelMap, palette: Palette) -> bytes:
    """Render a label map as binary P6 via per-pixel palette lookup."""
    labels = np.asarray(labels)
    palette = np.asarray(palette, np.uint8)
    if palette.ndim != 2 or palette.shape[1] != 3:
        raise ValueError(f"palette must be (C, 3), got {palette.shape}")
    if labels.min() < 0 or labels.max() >= len(palette):
        raise ValueError(
            f"labels reach {int(labels.max())} but the palette has "
            f"{len(palette)} entries"
        )
    return _encode(b"P6", np.take(palette, labels, axis=0))
