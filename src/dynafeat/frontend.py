"""Per-frame feature extraction and the feature file format.

The detector is a single-scale segment-test corner detector with 3x3
non-maximum suppression; descriptors are 256-bit intensity-comparison
signatures sampled from a seeded test pattern inside a 31x31 patch after
5x5 box smoothing. Any binary descriptor with a Hamming metric works with
the rest of the pipeline; feature files allow ingesting external ones.

A frame is one FrameFeatures record of column arrays whether it was
detected and described or parsed from a file; no per-feature objects are
built on either path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import FeatureFileError, InputDataError, decode_error_line

PATCH_MARGIN = 16
DEFAULT_DESC_BITS = 256
DEFAULT_DESCRIPTOR_SEED = 42
DEFAULT_MAX_FEATURES = 7000
DEFAULT_FAST_THRESHOLD = 5

FEATURE_FILE_MAGIC = "DYNAFEAT"
FEATURE_FILE_VERSION = "v1"

_NMS_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _fmt(x: float) -> str:
    """Shortest round-trip decimal for a float (stable across runs)."""
    return repr(float(x))


@dataclass
class GrayImage:
    """8-bit grayscale frame; pixels stored row-major as (height, width).

    Pixels must be uint8 or integers in 0..255, which are stored as uint8;
    any other array raises ValueError.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        pixels = np.asarray(self.pixels)
        if pixels.dtype != np.uint8:
            # a plain cast would wrap 300 to 44 and -1.5 to 255
            if pixels.dtype.kind not in "iu" or (
                    pixels.size and (pixels.min() < 0 or pixels.max() > 255)):
                raise ValueError("pixels must be integers in 0..255")
            pixels = pixels.astype(np.uint8)
        self.pixels = pixels
        if self.width < PATCH_MARGIN or self.height < PATCH_MARGIN:
            raise InputDataError(
                f"image must be at least {PATCH_MARGIN}x{PATCH_MARGIN}, "
                f"got {self.width}x{self.height}")
        if self.pixels.shape != (self.height, self.width):
            raise ValueError("pixels must be a (height, width) array")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "GrayImage":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D grayscale array")
        return cls(width=arr.shape[1], height=arr.shape[0], pixels=arr)


@dataclass
class FrameFeatures:
    """All features of one frame, stored as column arrays.

    ``descriptors`` rows hold ``ceil(desc_bits / 8)`` bytes, unpadded; the
    matching kernel pads them to whole 64-bit words itself. Feature ids
    are the row indices 0..count-1.
    """

    frame_index: int
    width: int
    height: int
    positions: np.ndarray          # (n, 2) float64, columns (x, y)
    responses: np.ndarray          # (n,) float64
    descriptors: np.ndarray        # (n, ceil(desc_bits / 8)) uint8
    desc_bits: int = DEFAULT_DESC_BITS
    descriptor_seed: int = DEFAULT_DESCRIPTOR_SEED

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        self.positions = np.ascontiguousarray(self.positions, np.float64).reshape(-1, 2)
        self.responses = np.ascontiguousarray(self.responses, np.float64).reshape(-1)
        self.descriptors = np.ascontiguousarray(self.descriptors, np.uint8)
        n = self.positions.shape[0]
        if self.responses.shape[0] != n or self.descriptors.shape[0] != n:
            raise ValueError("positions, responses and descriptors disagree on count")
        if self.descriptors.shape[1] != _desc_bytes(self.desc_bits):
            raise ValueError("descriptor byte width does not match desc_bits")

    @property
    def count(self) -> int:
        return self.positions.shape[0]


def _desc_bytes(desc_bits: int) -> int:
    return (desc_bits + 7) // 8


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

def detect_corners(image: GrayImage, fast_threshold: int = DEFAULT_FAST_THRESHOLD,
                   max_features: int = DEFAULT_MAX_FEATURES) -> tuple[np.ndarray, np.ndarray]:
    """Segment-test corners, 3x3 non-max suppressed, strongest first.

    Returns integer pixel positions (k, 2) and int32 responses (k,). A
    corner survives suppression when no pixel in its 3x3 neighborhood has
    a larger response; the survivors are ordered by response descending
    with row-major position as the tie-break, then truncated to
    ``max_features``.
    """
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    resp = _kernels.fast_response_map(image.pixels, fast_threshold)
    keep = resp > 0
    padded = np.pad(resp, 1)
    for dy, dx in _NMS_OFFSETS:
        keep &= resp >= padded[1 + dy:1 + dy + resp.shape[0], 1 + dx:1 + dx + resp.shape[1]]
    ys, xs = np.nonzero(keep)
    if xs.size == 0:
        return np.zeros((0, 2), np.int64), np.zeros(0, np.int32)
    scores = resp[ys, xs]
    order = np.lexsort((xs, ys, -scores))[:max_features]
    positions = np.stack([xs[order], ys[order]], axis=1).astype(np.int64)
    return positions, scores[order].astype(np.int32)


# ---------------------------------------------------------------------------
# Description
# ---------------------------------------------------------------------------

def _box_sums_5x5(pixels: np.ndarray) -> np.ndarray:
    """Integer 5x5 block sums with replicated borders (exact, no division).

    Separable: five shifted row adds, then five column adds. int16 holds
    every sum, the largest being 25 * 255 = 6375.
    """
    padded = np.pad(pixels.astype(np.int16), 2, mode="edge")
    h, w = pixels.shape
    rows = sum(padded[:, i:i + w] for i in range(5))
    return sum(rows[i:i + h] for i in range(5))


def descriptor_pattern(rng_seed: int, desc_bits: int = DEFAULT_DESC_BITS) -> np.ndarray:
    """The (desc_bits, 4) test-offset table for a seed; offsets in [-15, 15]."""
    rng = np.random.default_rng(rng_seed)
    return rng.integers(-15, 16, size=(desc_bits, 4), dtype=np.int64)


def describe(image: GrayImage, corners: np.ndarray,
             rng_seed: int = DEFAULT_DESCRIPTOR_SEED,
             responses: np.ndarray | None = None,
             desc_bits: int = DEFAULT_DESC_BITS, frame_index: int = 0) -> FrameFeatures:
    """Binary descriptors for corners; border corners are dropped silently.

    The test pattern is drawn once from the seeded generator, so equal
    seeds give comparable descriptors across frames and runs. Corners whose
    rounded position is closer than PATCH_MARGIN to any border are filtered
    out (the caller can diff lengths for the filtered count). Row i of the
    result is the i-th surviving corner.
    """
    corners = np.asarray(corners, np.float64).reshape(-1, 2)
    if responses is None:
        responses = np.zeros(corners.shape[0], np.float64)
    responses = np.asarray(responses, np.float64).reshape(-1)
    xi = np.rint(corners[:, 0]).astype(np.int64)
    yi = np.rint(corners[:, 1]).astype(np.int64)
    ok = ((xi >= PATCH_MARGIN) & (xi <= image.width - 1 - PATCH_MARGIN)
          & (yi >= PATCH_MARGIN) & (yi <= image.height - 1 - PATCH_MARGIN))
    sums = _box_sums_5x5(image.pixels)
    pattern = descriptor_pattern(rng_seed, desc_bits)
    packed = _kernels.brief_descriptors(sums, xi[ok], yi[ok], pattern)
    return FrameFeatures(frame_index, image.width, image.height, corners[ok],
                         responses[ok], packed, desc_bits=desc_bits,
                         descriptor_seed=rng_seed)


def extract_frame(image: GrayImage, frame_index: int,
                  fast_threshold: int = DEFAULT_FAST_THRESHOLD,
                  max_features: int = DEFAULT_MAX_FEATURES,
                  rng_seed: int = DEFAULT_DESCRIPTOR_SEED) -> FrameFeatures:
    """Detect + describe one image into a FrameFeatures record."""
    positions, responses = detect_corners(image, fast_threshold, max_features)
    return describe(image, positions, rng_seed, responses, frame_index=frame_index)


# ---------------------------------------------------------------------------
# Feature file format
# ---------------------------------------------------------------------------

def save_features(frame: FrameFeatures, path) -> None:
    """Write the text feature format: a header line then one feature per line.

    Header: ``DYNAFEAT v1 <width> <height> <desc_bits> <seed>``.
    Feature: ``<id> <x> <y> <response> <hex-descriptor>`` (hex lowercase,
    most significant bit first).
    """
    lines = [f"{FEATURE_FILE_MAGIC} {FEATURE_FILE_VERSION} {frame.width} "
             f"{frame.height} {frame.desc_bits} {frame.descriptor_seed}"]
    for i in range(frame.count):
        hexdesc = bytes(frame.descriptors[i]).hex()
        lines.append(f"{i} {_fmt(frame.positions[i, 0])} {_fmt(frame.positions[i, 1])} "
                     f"{_fmt(frame.responses[i])} {hexdesc}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_features(path, frame_index: int = 0,
                  max_features: int | None = DEFAULT_MAX_FEATURES) -> FrameFeatures:
    """Parse a feature file, checking every feature line.

    A file laid out as ``save_features`` writes it is parsed a whole
    column at a time (``_parse_columns``). Any other layout, and any file
    that fails a check there, is parsed line by line (``_parse_lines``),
    which accepts every layout the format allows and names the line of the
    first error. Both return the same arrays for a file both accept.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FeatureFileError("non-ASCII byte", line=decode_error_line(exc)) from None
    parsed = _parse_columns(text, max_features)
    if parsed is None:
        parsed = _parse_lines(text, max_features)
    (width, height, desc_bits, seed), positions, responses, desc = parsed
    return FrameFeatures(frame_index, width, height, positions, responses,
                         desc.reshape(-1, _desc_bytes(desc_bits)),
                         desc_bits=desc_bits, descriptor_seed=seed)


def _parse_header(fields: list[str]) -> tuple[int, int, int, int]:
    """(width, height, desc_bits, seed) from the header line's fields."""
    if len(fields) != 6 or fields[0] != FEATURE_FILE_MAGIC or fields[1] != FEATURE_FILE_VERSION:
        raise FeatureFileError("bad header, expected 'DYNAFEAT v1 <w> <h> <bits> <seed>'", line=1)
    try:
        width, height, desc_bits, seed = (int(v) for v in fields[2:])
    except ValueError:
        raise FeatureFileError("non-integer header field", line=1) from None
    if width < PATCH_MARGIN or height < PATCH_MARGIN or desc_bits < 8 or desc_bits % 8:
        raise FeatureFileError("header dimensions out of range", line=1)
    return width, height, desc_bits, seed


def _parse_columns(text: str, max_features: int | None):
    """Whole-column parse of a file in the writer's layout, else None.

    The layout is pinned byte by byte before any field is read: the only
    bytes below '!' are single spaces and newlines, the header line has six
    fields, every later line five, and the file ends with a newline. So
    ``text.split()`` yields exactly the fields ``_parse_lines`` would see,
    line by line, and the header check shared with it raises what it would
    raise first. Every other check runs on whole columns; a failure returns
    None, so the line-by-line parse reports it.
    """
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    seps = np.flatnonzero(data <= 32)
    n, extra = divmod(seps.size - 6, 5)
    if n < 0 or extra or seps[-1] != data.size - 1:
        return None
    newline = np.zeros(seps.size, bool)
    newline[5::5] = True
    if not (np.array_equal(data[seps], np.where(newline, 10, 32))
            and (np.diff(seps, prepend=-1) > 1).all()):
        return None
    del data, newline
    fields = text.split()
    header = _parse_header(fields[:6])
    if (max_features is not None and n > max_features) \
            or (seps[10::5] - seps[9::5] - 1 != 2 * _desc_bytes(header[2])).any():
        return None
    del seps
    try:
        if list(map(int, fields[6::5])) != list(range(n)):
            return None
        x, y, responses = (np.fromiter(map(float, fields[k::5]), np.float64, n)
                           for k in (7, 8, 9))
        desc = np.frombuffer(bytearray.fromhex("".join(fields[10::5])), np.uint8)
    except ValueError:
        return None
    del fields
    positions = np.column_stack((x, y))
    if not ((responses >= 0).all() and (responses < math.inf).all()):
        return None
    width, height = header[:2]
    if n:
        (x0, y0), (x1, y1) = positions.min(axis=0).tolist(), positions.max(axis=0).tolist()
        if not (PATCH_MARGIN <= x0 and x1 <= width - 1 - PATCH_MARGIN
                and PATCH_MARGIN <= y0 and y1 <= height - 1 - PATCH_MARGIN):
            return None
    return header, positions, responses, desc


def _parse_lines(text: str, max_features: int | None):
    """Line-by-line parse of any layout; raises on the first bad line."""
    lines = text.splitlines()
    if not lines:
        raise FeatureFileError("empty file", line=1)
    header = _parse_header(lines[0].split())
    width, height, desc_bits = header[:3]
    raw = _desc_bytes(desc_bits)
    rows = []     # (x, y, response) per feature
    descs = []    # raw descriptor bytes per feature
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FeatureFileError(f"expected 5 fields, got {len(parts)}", line=lineno)
        try:
            fid = int(parts[0])
            x = float(parts[1])
            y = float(parts[2])
            response = float(parts[3])
        except ValueError:
            raise FeatureFileError("malformed numeric field", line=lineno) from None
        if fid != len(rows):
            raise FeatureFileError(f"feature id {fid} out of sequence", line=lineno)
        hexdesc = parts[4]
        if len(hexdesc) != raw * 2:
            raise FeatureFileError(
                f"descriptor length {len(hexdesc) * 4} bits does not match header "
                f"{desc_bits}", line=lineno)
        try:
            descs.append(bytes.fromhex(hexdesc))
        except ValueError:
            raise FeatureFileError("descriptor is not valid hex", line=lineno) from None
        if not 0 <= response < math.inf:
            raise FeatureFileError("response must be finite and non-negative", line=lineno)
        if not (PATCH_MARGIN <= x <= width - 1 - PATCH_MARGIN
                and PATCH_MARGIN <= y <= height - 1 - PATCH_MARGIN):
            raise FeatureFileError("position violates the descriptor patch margin",
                                   line=lineno)
        rows.append((x, y, response))
    if max_features is not None and len(rows) > max_features:
        raise FeatureFileError(f"{len(rows)} features exceed the cap of {max_features}")
    del lines
    cols = np.array(rows, np.float64).reshape(-1, 3)
    return (header, cols[:, :2], cols[:, 2],
            np.frombuffer(bytearray().join(descs), np.uint8))
