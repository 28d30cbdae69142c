"""Reading image frames: binary PGM (P5) natively, PNG via Pillow.

Color inputs are reduced to luma with weights 0.299 / 0.587 / 0.114,
rounded half-up, using exact integer arithmetic.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import InputDataError
from .frontend import GrayImage

# One header token after any whitespace and "#" comments. The lookahead
# makes a comment run to the end of its line: without it, backtracking
# could end the comment early and take a token from inside it.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]\S*)")


def rgb_to_luma(rgb: np.ndarray) -> np.ndarray:
    """(h, w, 3) uint8 -> (h, w) uint8 luma, round half up."""
    r = rgb[..., 0].astype(np.int64)
    g = rgb[..., 1].astype(np.int64)
    b = rgb[..., 2].astype(np.int64)
    return ((299 * r + 587 * g + 114 * b + 500) // 1000).astype(np.uint8)


def load_pgm(path) -> GrayImage:
    """Parse a binary (P5) PGM with maxval <= 255."""
    with open(path, "rb") as fh:
        data = fh.read()

    tokens = []
    pos = 0
    for _ in range(4):   # magic, width, height, maxval
        m = _PGM_TOKEN.match(data, pos)
        if m is None:
            raise InputDataError(f"{path}: truncated PGM header")
        if not tokens and m[1] != b"P5":
            raise InputDataError(f"{path}: not a binary PGM (magic {m[1]!r})")
        tokens.append(m[1])
        pos = m.end()
    fields = tokens[1:]
    # bytes.isdigit is ASCII-only; int alone would also take signs and "_"
    if not all(f.isdigit() for f in fields):
        raise InputDataError(f"{path}: non-integer PGM header field")
    width, height, maxval = map(int, fields)
    if maxval <= 0 or maxval > 255:
        raise InputDataError(f"{path}: PGM maxval {maxval} unsupported (need <= 255)")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise InputDataError(f"{path}: PGM raster truncated")
    pixels = np.frombuffer(raster, np.uint8).reshape(height, width)
    return GrayImage(width=width, height=height, pixels=pixels.copy())


def save_pgm(image: GrayImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n255\n".encode("ascii"))
        fh.write(image.pixels.tobytes())


def load_png(path) -> GrayImage:
    try:
        from PIL import Image
    except ImportError:  # pillow is the optional [png] extra
        raise InputDataError("PNG input requires pillow (pip install dynafeat[png])") from None
    with Image.open(path) as im:
        if im.mode == "L":
            arr = np.asarray(im, np.uint8)
        elif im.mode in ("RGB", "RGBA"):
            arr = rgb_to_luma(np.asarray(im.convert("RGBA"))[..., :3])
        else:
            raise InputDataError(f"{path}: unsupported PNG mode {im.mode}")
    return GrayImage.from_array(arr)


def load_image(path) -> GrayImage:
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".pgm":
        return load_pgm(path)
    if ext == ".png":
        return load_png(path)
    raise InputDataError(f"{path}: unsupported image type {ext!r} (need .pgm or .png)")
