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

import functools
import math
import numbers
from dataclasses import dataclass, field

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

    ``descriptors`` rows hold ``desc_bits / 8`` bytes, unpadded; the
    matching kernel pads them to whole 64-bit words itself. Feature ids
    are the row indices 0..count-1.

    ``position_text`` is a second copy of ``positions``, made on first
    read and kept with the record, so positions must not change once it
    exists. A frame read by ``load_features`` keeps the file's x and y
    tokens until then: the text reuses the tokens of each row they are
    proven to be ``repr`` of, and formats every other row, so it follows
    positions changed before the first read.
    """

    frame_index: int
    width: int
    height: int
    positions: np.ndarray          # (n, 2) finite float64, columns (x, y)
    responses: np.ndarray          # (n,) float64
    descriptors: np.ndarray        # (n, desc_bits / 8) uint8
    desc_bits: int = DEFAULT_DESC_BITS
    descriptor_seed: int = DEFAULT_DESCRIPTOR_SEED
    # (x tokens, y tokens, their byte lengths, the values parsed from
    # them), x then y; set by load_features, dropped by position_text
    _tokens: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        if not _dimensions_in_range(self.width, self.height, self.desc_bits):
            raise ValueError("a feature file cannot hold the frame: width or height "
                             f"below {PATCH_MARGIN}, or desc_bits not a positive multiple of 8")
        self.positions = np.ascontiguousarray(self.positions, np.float64).reshape(-1, 2)
        self.responses = np.ascontiguousarray(self.responses, np.float64).reshape(-1)
        self.descriptors = np.ascontiguousarray(self.descriptors, np.uint8)
        if self.descriptors.ndim != 2:
            raise ValueError("descriptors must be a 2-D (n, desc_bits / 8) array")
        if not np.isfinite(self.positions).all():
            raise ValueError("positions must be finite")
        n = self.positions.shape[0]
        if self.responses.shape[0] != n or self.descriptors.shape[0] != n:
            raise ValueError("positions, responses and descriptors disagree on count")
        if self.descriptors.shape[1] != _desc_bytes(self.desc_bits):
            raise ValueError("descriptor byte width does not match desc_bits")

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @functools.cached_property
    def position_text(self) -> list[str]:
        """One ``"x y"`` string per feature, each coordinate as ``_fmt``.

        A row whose two file tokens are proven to be ``repr`` of its
        current coordinates joins them; every other row formats them."""
        tokens, self._tokens = self._tokens, None
        n = self.count
        if tokens is None or tokens[3].shape[0] != 2 * n:
            return [f"{x!r} {y!r}" for x, y in zip(*self.positions.T.tolist())]
        xs, ys, lengths, parsed = tokens
        proven = _repr_tokens("".join(xs) + "".join(ys), lengths, parsed,
                              self.positions.T.reshape(-1))
        text = [f"{x} {y}" for x, y in zip(xs, ys)]
        for i in np.flatnonzero(~(proven[:n] & proven[n:])).tolist():
            x, y = self.positions[i].tolist()
            text[i] = f"{x!r} {y!r}"
        return text


# 10^k as float64 (exact for k <= 22) and as uint64 (k <= 17); the
# integer digits of 1 <= x < 2^33 are 1 + the count of 10^1..10^10 <= x
_POW10 = 10.0 ** np.arange(23)
_POW10_INT = 10 ** np.arange(18, dtype=np.uint64)


def _repr_tokens(text: str, lengths: np.ndarray, parsed: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """Which tokens are proven to be ``repr`` of their current value.

    ``text`` is the tokens joined, ``lengths`` their lengths, ``parsed``
    ``float`` of each token and ``values`` the current values. CPython's
    ``repr`` is the shortest decimal that rounds to x, and the nearest to
    x of the shortest. A token is proven when:

    - x is the value parsed from it, and 1 <= x < 2^33;
    - it is the k integer digits of x, the first non-zero, a ``.`` and
      F >= 1 more digits, the last d non-zero, 17 digits at most;
    - with N its digits as an integer and x = M 2^-s (2^52 <= M < 2^53),
      R = N 2^s - M 10^F, which is (token - x) 10^F 2^s, has
      |R| < 2^(s-1): the token is x rounded to F digits;
    - |R - d 2^s| and |R + (10 - d) 2^s| exceed 10^F / 2: neither
      (F-1)-digit decimal next to the token rounds to x, so no shorter
      decimal does.

    A token rounds to its parsed value, so |R| <= 10^F / 2 and wrapping
    uint64 arithmetic gives R exactly. For the same reason x 10^F lies
    within 20 of N, which is taken as the integer that ends in the token's
    last three digits nearest to it.
    """
    lengths = np.asarray(lengths, np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    if not starts.size:
        return np.zeros(0, bool)
    # '0' padding: gathers a few bytes past either end read digits
    b = np.frombuffer((text + "0" * 16).encode("ascii"), np.uint8)
    k = np.searchsorted(_POW10[1:11], values, "right") + 1
    f = lengths - k - 1
    ok = ((values == parsed) & (values >= 1) & (values < 2.0 ** 33) & (f >= 1)
          & (lengths <= 18))
    # one byte outside 0-9 per token, the '.' after the integer digits
    ok &= ((np.add.reduceat((b - 48) > 9, starts, dtype=np.intp) == 1)
           & (b[starts + k] == 46) & (b[starts] != 48) & (b[ends - 1] != 48))
    f = np.where(ok, f, 0)
    near = np.rint(np.where(ok, values * _POW10[f], 0.0)).astype(np.int64)
    last3 = b[ends - 3] * np.int64(100) + b[ends - 2] * np.int64(10) + b[ends - 1] - 5328
    # with F < 3, N < 2^40 and the product rounds to N itself
    digits = np.where(f >= 3, near + (last3 - near + 500) % 1000 - 500, near)
    mant, exp = np.frexp(values)
    s = np.where(ok, 53 - exp, 0).astype(np.uint64)
    r = ((digits.astype(np.uint64) << s)
         - (mant * 2.0 ** 53).astype(np.int64).view(np.uint64) * _POW10_INT[f]).view(np.int64)
    unit = np.left_shift(1, s.astype(np.int64))
    d = digits % 10
    pow10 = _POW10_INT[f].astype(np.int64)
    return (ok & (2 * np.abs(r) < unit) & (2 * np.abs(r - d * unit) > pow10)
            & (2 * np.abs(r + (10 - d) * unit) > pow10))


def _desc_bytes(desc_bits: int) -> int:
    return desc_bits // 8


def _dimensions_in_range(width: int, height: int, desc_bits: int) -> bool:
    """The feature-file header rule: room for a patch, whole descriptor bytes."""
    return min(width, height) >= PATCH_MARGIN and desc_bits >= 8 and desc_bits % 8 == 0


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
    if isinstance(max_features, bool) or not isinstance(max_features, numbers.Integral):
        raise ValueError(f"max_features must be an integer, got {max_features!r}")
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    resp = _kernels.fast_response_map(image.pixels, fast_threshold)
    # Nonzero responses lie 3 pixels inside every border, so the 8
    # neighbours of each sit inside the image at flat offsets dy * w + dx,
    # none wrapping to another row.
    w = resp.shape[1]
    flat = resp.reshape(-1)
    # numpy finds the nonzeros of a bool mask several times faster than
    # those of an int32 array
    p = np.flatnonzero(flat != 0)
    r = flat[p]
    keep = np.ones(p.size, bool)
    for dy, dx in _NMS_OFFSETS:
        keep &= r >= flat[p + (dy * w + dx)]
    p = p[keep]
    if p.size == 0:
        return np.zeros((0, 2), np.int64), np.zeros(0, np.int32)
    scores = r[keep]
    # response descending, then row-major position: one int64 key, distinct
    # for every pixel, since a position is below flat.size
    order = np.argsort(p - scores.astype(np.int64) * flat.size)[:max_features]
    ys, xs = np.divmod(p[order], w)
    positions = np.stack([xs, ys], axis=1).astype(np.int64)
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

    Every layout takes one path. Each line's fields are counted once, at
    the byte level, every field comes from one ``text.split()``, and each
    rule then runs over a whole column. After the header's rules, a file
    fails on its first bad line, with the first rule that line breaks in
    the order field count, numeric fields, id sequence, descriptor length,
    descriptor hex, response range, patch margin. The cap comes last.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # \r\n ends one line, as \n does
        data = data.replace(b"\r\n", b"\n")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FeatureFileError("non-ASCII byte", line=decode_error_line(exc)) from None
    if not text:
        raise FeatureFileError("empty file", line=1)
    counts, lengths = _count_fields(np.frombuffer(data, np.uint8))
    del data
    fields = text.split()
    del text
    width, height, desc_bits, seed = _parse_header(fields[:counts[0]])
    per_row = counts[1:][counts[1:] > 0]  # fields on each non-blank feature line
    n, error = per_row.size, None

    def fail(row: int, message: str, values=None) -> None:
        """Keep a failure of row ``row`` (``values[row]`` fills the message)
        if it comes first; later rules check only the rows before it."""
        nonlocal n, error
        if row < n:
            n, error = row, message if values is None else message.format(values[row])

    def column(k: int) -> list[str]:
        """Field k (0..4) of the first n rows."""
        return fields[6 + k:6 + 5 * n:5]

    def numeric():
        """The ids as ints and x, y and response as float arrays."""
        return (list(map(int, column(0))),
                *(np.fromiter(map(float, column(k)), np.float64, n) for k in (1, 2, 3)))

    fail(_first(per_row != 5), "expected 5 fields, got {}", per_row)
    try:
        ids, x, y, responses = numeric()
    except ValueError:
        fail(min(_first_rejected(float if k else int, column(k)) for k in range(4)),
             "malformed numeric field")
        ids, x, y, responses = numeric()
    if ids != list(range(n)):
        fail(next(k for k, fid in enumerate(ids) if fid != k), "feature id {} out of sequence", ids)
    bits = lengths[10:6 + 5 * n:5] * 4
    fail(_first(bits != desc_bits),
         f"descriptor length {{}} bits does not match header {desc_bits}", bits)
    try:
        desc = np.frombuffer(bytearray.fromhex("".join(column(4))), np.uint8)
    except ValueError:
        fail(_first_rejected(bytes.fromhex, column(4)), "descriptor is not valid hex")
    fail(_first(~((responses[:n] >= 0) & (responses[:n] < math.inf))),
         "response must be finite and non-negative")
    fail(_first(~((PATCH_MARGIN <= x[:n]) & (x[:n] <= width - 1 - PATCH_MARGIN)
                  & (PATCH_MARGIN <= y[:n]) & (y[:n] <= height - 1 - PATCH_MARGIN))),
         "position violates the descriptor patch margin")
    if error:  # row n is the bad line's row
        raise FeatureFileError(error, line=int(np.flatnonzero(counts[1:])[n]) + 2)
    if max_features is not None and n > max_features:
        raise FeatureFileError(f"{n} features exceed the cap of {max_features}")
    frame = FrameFeatures(frame_index, width, height, np.column_stack((x, y)), responses,
                          desc.reshape(-1, _desc_bytes(desc_bits)),
                          desc_bits=desc_bits, descriptor_seed=seed)
    frame._tokens = (column(1), column(2),
                     np.concatenate((lengths[7:6 + 5 * n:5], lengths[8:6 + 5 * n:5])),
                     np.concatenate((x, y)))
    return frame


def _parse_header(fields: list[str]) -> tuple[int, int, int, int]:
    """(width, height, desc_bits, seed) from the header line's fields."""
    if len(fields) != 6 or fields[0] != FEATURE_FILE_MAGIC or fields[1] != FEATURE_FILE_VERSION:
        raise FeatureFileError("bad header, expected 'DYNAFEAT v1 <w> <h> <bits> <seed>'", line=1)
    try:
        width, height, desc_bits, seed = (int(v) for v in fields[2:])
    except ValueError:
        raise FeatureFileError("non-integer header field", line=1) from None
    if not _dimensions_in_range(width, height, desc_bits):
        raise FeatureFileError("header dimensions out of range", line=1)
    return width, height, desc_bits, seed


# 1 for an ASCII byte str.split() separates fields at, 2 for one that
# str.splitlines() also ends a line at
_BYTE_KIND = np.array([chr(b).isspace() + (len(f"a{chr(b)}a".splitlines()) > 1)
                       for b in range(128)] + [0] * 128, np.uint8)


def _count_fields(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fields on each line of ASCII text without ``\\r\\n`` up to its last
    field, and the length of every field, as ``str.splitlines`` and
    ``str.split`` see them: ten whitespace bytes separate fields, and seven
    of them also end a line."""
    seps = np.flatnonzero(data <= 32)
    kind = _BYTE_KIND[data[seps]]
    if not kind.all():  # control bytes that are not whitespace belong to fields
        seps, kind = seps[kind > 0], kind[kind > 0]
    bounds = np.concatenate(([-1], seps, [data.size]))
    gaps = bounds[1:] - bounds[:-1] - 1  # bytes between separators: a field if > 0
    starts = gaps > 0
    line = np.concatenate(([0], (kind == 2).cumsum()))  # the line each gap lies on
    return np.bincount(line[starts], minlength=1), gaps[starts]


def _first(flags: np.ndarray) -> int:
    """Index of the first true flag, else len(flags)."""
    return int(flags.argmax()) if flags.any() else flags.size


def _first_rejected(convert, values: list) -> int:
    """Index of the first value ``convert`` raises ValueError on, else len(values)."""
    for k, value in enumerate(values):
        try:
            convert(value)
        except ValueError:
            return k
    return len(values)
