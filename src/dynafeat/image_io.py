"""Reading image frames: binary PGM (P5) natively, PNG via Pillow.

Color inputs are reduced to luma with weights 0.299 / 0.587 / 0.114,
rounded half-up, using exact integer arithmetic.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InputDataError
from .frontend import PATCH_MARGIN, GrayImage


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

    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            ch = data[pos:pos + 1]
            if ch == b"#":
                while pos < len(data) and data[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise InputDataError(f"{path}: truncated PGM header")
        return data[start:pos]

    magic = token()
    if magic != b"P5":
        raise InputDataError(f"{path}: not a binary PGM (magic {magic!r})")
    fields = [token() for _ in range(3)]  # width, height, maxval
    # bytes.isdigit is ASCII-only; int alone would also take signs and "_"
    if not all(f.isdigit() for f in fields):
        raise InputDataError(f"{path}: non-integer PGM header field")
    width, height, maxval = map(int, fields)
    if width < PATCH_MARGIN or height < PATCH_MARGIN:
        raise InputDataError(f"{path}: PGM size {width}x{height} is below the "
                             f"{PATCH_MARGIN}x{PATCH_MARGIN} minimum")
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
