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
    """8-bit grayscale frame; pixels stored row-major as (height, width)."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, np.uint8)
        if self.width < PATCH_MARGIN or self.height < PATCH_MARGIN:
            raise InputDataError(
                f"image must be at least {PATCH_MARGIN}x{PATCH_MARGIN}, "
                f"got {self.width}x{self.height}")
        if self.pixels.shape != (self.height, self.width):
            raise ValueError("pixels must be a (height, width) array")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "GrayImage":
        arr = np.asarray(arr, np.uint8)
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

    def __len__(self) -> int:
        return self.count


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
    if fast_threshold < 1:
        raise ValueError("fast_threshold must be >= 1")
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
    """Integer 5x5 block sums with replicated borders (exact, no division)."""
    padded = np.pad(pixels.astype(np.int64), 2, mode="edge")
    ii = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), np.int64)
    np.cumsum(np.cumsum(padded, axis=0), axis=1, out=ii[1:, 1:])
    h, w = pixels.shape
    return ii[5:5 + h, 5:5 + w] - ii[:h, 5:5 + w] - ii[5:5 + h, :w] + ii[:h, :w]


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
    """Parse a feature file, checking every feature line as it is read."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FeatureFileError("non-ASCII byte", line=decode_error_line(exc)) from None
    lines = text.splitlines()
    if not lines:
        raise FeatureFileError("empty file", line=1)
    header = lines[0].split()
    if len(header) != 6 or header[0] != FEATURE_FILE_MAGIC or header[1] != FEATURE_FILE_VERSION:
        raise FeatureFileError("bad header, expected 'DYNAFEAT v1 <w> <h> <bits> <seed>'", line=1)
    try:
        width, height, desc_bits, seed = (int(v) for v in header[2:])
    except ValueError:
        raise FeatureFileError("non-integer header field", line=1) from None
    if width < PATCH_MARGIN or height < PATCH_MARGIN or desc_bits < 8 or desc_bits % 8:
        raise FeatureFileError("header dimensions out of range", line=1)
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
    cols = np.array(rows, np.float64).reshape(-1, 3)
    desc = np.frombuffer(bytearray().join(descs), np.uint8).reshape(-1, raw)
    return FrameFeatures(frame_index, width, height, cols[:, :2], cols[:, 2], desc,
                         desc_bits=desc_bits, descriptor_seed=seed)
