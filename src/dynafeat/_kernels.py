"""Hot inner loops, vectorized with numpy.

One implementation per kernel: the segment-test corner response, packed
descriptor extraction, batched mutual-NN Hamming matching and the greedy
match claim. All kernels are integer-exact, so their outputs are fully
determined by their inputs.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


# Bresenham circle of radius 3: the 16 ring offsets, clockwise from (0, -3).
_CIRCLE_DX = np.array([0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3, -3, -3, -2, -1], np.int64)
_CIRCLE_DY = np.array([-3, -3, -2, -1, 0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3], np.int64)

# On 8-bit pixels no ring pixel is brighter than c + 255 or darker than
# c - 255, so a larger threshold detects nothing; up to 254, c + threshold
# is at most 509 and every comparison and clamped sum is exact in int16.
MAX_FAST_THRESHOLD = 254


# ---------------------------------------------------------------------------
# Segment-test corner response
# ---------------------------------------------------------------------------

def _rotr(code: np.ndarray, k: int) -> np.ndarray:
    """Rotate 16-bit codes right by k: bit j of the result is bit
    (j + k) mod 16 of ``code``."""
    return (code >> k) | (code << (16 - k))


def _has_arc(code: np.ndarray) -> np.ndarray:
    """Nonzero where the uint16 ring code holds a circular run of 9 set bits:
    bit j of the result is set when ring bits j..j+8 (mod 16) all are."""
    run = code & _rotr(code, 1)   # bit j: bits j..j+1 set
    run &= _rotr(run, 2)          # j..j+3
    run &= _rotr(run, 4)          # j..j+7
    run &= _rotr(code, 8)         # j..j+8: an arc of 9
    return run


def fast_response_map(img: np.ndarray, threshold: int) -> np.ndarray:
    """Segment-test corner response (int32, zero at non-corners).

    A pixel scores when a contiguous arc of at least 9 of its 16 ring
    pixels is brighter or darker than the center by more than ``threshold``;
    the score is the larger of the brighter/darker clamped difference sums.
    ``img`` is a 2-D uint8 array and ``threshold`` lies in
    1..MAX_FAST_THRESHOLD; anything else raises ValueError.
    """
    if not 1 <= threshold <= MAX_FAST_THRESHOLD:
        raise ValueError(f"fast_threshold must be in 1..{MAX_FAST_THRESHOLD}, "
                         f"got {threshold!r}")
    threshold = int(threshold)
    img = np.asarray(img)
    if img.ndim != 2 or img.dtype != np.uint8:
        raise ValueError("expected a 2-D uint8 image")
    h, w = img.shape
    resp = np.zeros((h, w), np.int32)
    if h < 7 or w < 7:
        return resp
    # Row-major flat pixels: ring pixel k of pixel p is flat[p + ring[k]].
    # Every p in [start, start + n) has its whole ring inside the array;
    # those within 3 columns of a side read neighbouring rows and are
    # dropped below.
    flat = img.astype(np.int16).ravel()
    ring = _CIRCLE_DY * w + _CIRCLE_DX
    start = 3 * w + 3
    n = (h - 6) * w - 6
    center = flat[start:start + n]
    hi = center + threshold
    lo = center - threshold
    # bit k of a code: ring pixel k is brighter (darker) than the center
    bright = np.zeros(n, np.uint16)
    dark = np.zeros(n, np.uint16)
    flag = np.empty(n, bool)
    bit = np.empty(n, np.uint16)
    for k, off in enumerate(ring.tolist()):
        shifted = flat[start + off:start + off + n]
        np.greater(shifted, hi, out=flag)
        np.left_shift(flag, k, out=bit, dtype=np.uint16)
        bright |= bit
        np.less(shifted, lo, out=flag)
        np.left_shift(flag, k, out=bit, dtype=np.uint16)
        dark |= bit
    arc = _has_arc(bright)
    arc |= _has_arc(dark)
    p = np.flatnonzero(arc) + start
    col = p % w
    p = p[(col >= 3) & (col < w - 3)]
    # the clamped sums at the corners only, ring-major so each sum adds
    # 16 rows; a sum is at most 16 * 254, exact in int16
    vals = flat[ring[:, None] + p]
    center = flat[p]
    bsum = np.maximum(vals - (center + threshold), 0).sum(axis=0, dtype=np.int16)
    dsum = np.maximum((center - threshold) - vals, 0).sum(axis=0, dtype=np.int16)
    resp.reshape(-1)[p] = np.maximum(bsum, dsum)
    return resp


# ---------------------------------------------------------------------------
# Binary descriptor extraction (intensity-pair comparisons, packed MSB first)
# ---------------------------------------------------------------------------

def brief_descriptors(sums: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                      pattern: np.ndarray) -> np.ndarray:
    """Packed comparison descriptors for corners at (xs, ys).

    ``sums`` is the smoothed-intensity plane (box block sums, any integer
    dtype), ``pattern`` an (nbits, 4) table of (dx1, dy1, dx2, dy2) test
    offsets. Bit k is set when the first test point is darker than the
    second; bits are packed most significant first. A test point outside
    the plane raises ValueError.
    """
    if pattern.shape[0] % 8 != 0:
        raise ValueError("descriptor bit count must be a multiple of 8")
    xs = np.asarray(xs, np.int64)
    ys = np.asarray(ys, np.int64)
    if xs.size == 0:
        return np.zeros((0, pattern.shape[0] // 8), np.uint8)
    sums = np.asarray(sums)
    h, w = sums.shape
    p = np.asarray(pattern, np.int64)
    dx = p[:, 0::2]
    dy = p[:, 1::2]
    # flat indexing would read a neighbouring row, not fail, off the plane
    if (xs.min() + dx.min() < 0 or xs.max() + dx.max() >= w
            or ys.min() + dy.min() < 0 or ys.max() + dy.max() >= h):
        raise ValueError("descriptor pattern reaches outside the plane")
    flat = sums.reshape(-1)
    base = (ys * w + xs)[:, None]
    a = flat[base + (p[:, 1] * w + p[:, 0])]
    b = flat[base + (p[:, 3] * w + p[:, 2])]
    return np.packbits(a < b, axis=1)


# ---------------------------------------------------------------------------
# Mutual nearest neighbors under Hamming distance, batched over group pairs
# (the per-frame matching hot loop, and the only copy of the mutual-NN rule)
# ---------------------------------------------------------------------------

# Cells (padded member pairs) per chunk: bounds the kernel's temporaries to
# a few MB whatever the number of pairs in the call.
_CHUNK_CELLS = 1 << 16


def _group_planes(desc, mem, off, cnt, width):
    """Descriptor words of every group, padded to ``width`` members:
    (nwords, width, groups) uint64, with the (width, groups) member ids
    (padding repeats member id mem[0]) and the padding mask. Rows are
    zero-padded to whole words, which adds nothing to any distance."""
    pad = (-desc.shape[1]) % 8
    if pad:
        desc = np.pad(desc, ((0, 0), (0, pad)))
    words = np.ascontiguousarray(np.ascontiguousarray(desc).view(np.uint64).T)
    pos = np.arange(width)[:, None]
    padding = pos >= cnt[None, :]
    ids = mem[np.where(padding, 0, off[None, :] + pos)]
    return np.take(words, ids, axis=1), ids, padding


def batch_mutual_nn(desc_a: np.ndarray, desc_b: np.ndarray,
                    mem_a: np.ndarray, off_a: np.ndarray, cnt_a: np.ndarray,
                    mem_b: np.ndarray, off_b: np.ndarray, cnt_b: np.ndarray,
                    pair_a: np.ndarray, pair_b: np.ndarray):
    """Mutual-NN supports for many group pairs in one call.

    A support of a pair is a member i of its first group and a member j of
    its second whose Hamming distance is the unique minimum of both i's row
    and j's column; a tied minimum disqualifies the row or column.
    ``desc_*`` are the full frame descriptor tables (uint8, equal widths;
    rows are padded to whole 64-bit words here); groups are given as
    flattened member-id arrays with offset/count tables, and each pair
    indexes a group slot per side.
    Returns (scores, out_off, ia, ib, dist): the supports come packed,
    pair after pair, so pair p's occupy ``[out_off[p], out_off[p] +
    scores[p])`` of the flat arrays, ordered by ascending member position
    on the first side.
    """
    if desc_a.ndim != 2 or desc_b.ndim != 2 or desc_a.shape[1] != desc_b.shape[1]:
        raise ValueError("descriptor arrays must be 2-D with matching widths")
    n_pairs = pair_a.shape[0]
    # A chunk of pairs is padded to the largest group sizes of the call and
    # laid out pair-innermost, so each numpy call runs over the whole chunk:
    # d[i, j, p] is the distance of member i of pair p's first group to
    # member j of its second group.
    ma = int(cnt_a[pair_a].max(initial=0))
    mb = int(cnt_b[pair_b].max(initial=0))
    if ma == 0 or mb == 0:
        none = np.zeros(0, np.int64)
        return np.zeros(n_pairs, np.int64), np.zeros(n_pairs, np.int64), none, none, none
    planes_a, ids_a, padding_a = _group_planes(desc_a, mem_a, off_a, cnt_a, ma)
    planes_b, ids_b, padding_b = _group_planes(desc_b, mem_b, off_b, cnt_b, mb)
    n_words = planes_a.shape[0]
    # Padding cells read one more than the largest distance, so they are
    # never a minimum and never tie one. A row key packs a distance above
    # its column position: one min reduction yields the row minimum and its
    # first position, as argmin would.
    pad_dist = 64 * n_words + 1
    shift = max(1, (mb - 1).bit_length())
    key_bits = pad_dist.bit_length() + shift
    dt = np.uint16 if key_bits <= 16 else np.uint32 if key_bits <= 32 else np.uint64
    pad_a = np.where(padding_a, pad_dist, 0).astype(dt)
    pad_b = np.where(padding_b, pad_dist, 0).astype(dt)
    pos_b = np.arange(mb, dtype=dt)[None, :, None]
    low = dt((1 << shift) - 1)
    # a tie count reaches the block side: uint8 would wrap 257 ties to 1
    tie_dt = np.min_scalar_type(max(ma, mb))
    row_key = np.empty((ma, n_pairs), dt)
    ok = np.empty((ma, n_pairs), bool)
    step = max(1, _CHUNK_CELLS // (ma * mb))
    for s in range(0, n_pairs, step):
        e = min(s + step, n_pairs)
        ga = pair_a[s:e]
        gb = pair_b[s:e]
        wa = np.take(planes_a, ga, axis=2)
        wb = np.take(planes_b, gb, axis=2)
        x = np.empty((ma, mb, e - s), np.uint64)
        bits = np.empty((n_words, ma, mb, e - s), np.uint8)
        for w in range(n_words):
            np.bitwise_xor(wa[w, :, None], wb[w, None], out=x)
            np.bitwise_count(x, out=bits[w])
        d = np.add.reduce(bits, axis=0, dtype=dt)
        np.maximum(d, np.take(pad_a, ga, axis=1)[:, None], out=d)
        np.maximum(d, np.take(pad_b, gb, axis=1)[None], out=d)
        key = d << shift
        key |= pos_b
        rk = row_key[:, s:e] = key.min(axis=1)
        r_min = rk >> shift
        r_arg = (rk & low).astype(np.intp)
        col_min = d.min(axis=0)
        row_ties = (d == r_min[:, None]).sum(axis=1, dtype=tie_dt)
        col_ties = (d == col_min[None]).sum(axis=0, dtype=tie_dt)
        cols = np.arange(e - s)
        # the unique minimum of column j = r_arg[i] sits in row i exactly
        # when it equals row i's minimum; a padding minimum means row i or
        # all of its columns are padding
        ok[:, s:e] = ((row_ties == 1) & (col_ties[r_arg, cols] == 1)
                      & (col_min[r_arg, cols] == r_min) & (r_min < pad_dist))
    # pair-major, ascending member position within a pair
    p, i = np.nonzero(ok.T)
    scores = np.bincount(p, minlength=n_pairs).astype(np.int64, copy=False)
    keys = row_key[i, p]
    return (scores, np.cumsum(scores) - scores, ids_a[i, pair_a[p]],
            ids_b[keys & low, pair_b[p]], (keys >> shift).astype(np.int64))


# ---------------------------------------------------------------------------
# Greedy one-match-per-feature claim (the dedup inner loop)
# ---------------------------------------------------------------------------

def claim_first(ia: np.ndarray, ib: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Scan support rows in order; keep a row when neither endpoint is taken
    yet. Returns the kept mask."""
    # Greedy in rounds: a row that is the first remaining claimant of both
    # its endpoints is kept by the sequential scan too (every earlier row
    # sharing an endpoint has been dropped), and rows sharing an endpoint
    # with a kept row are dropped. The earliest remaining row always wins,
    # so each round decides at least one row. Rounds follow the longest
    # chain of rows each blocked by the one before it: 2-4 on the dense
    # scene, one per kept row on a deliberately chained input.
    n = ia.shape[0]
    keep = np.zeros(n, bool)
    taken_a = np.zeros(n_a, bool)
    taken_b = np.zeros(n_b, bool)
    first_a = np.full(n_a, n, np.int64)
    first_b = np.full(n_b, n, np.int64)
    live = np.arange(n, dtype=np.int64)
    while live.size:
        a = ia[live]
        b = ib[live]
        np.minimum.at(first_a, a, live)
        np.minimum.at(first_b, b, live)
        won = live[(first_a[a] == live) & (first_b[b] == live)]
        first_a[a] = n
        first_b[b] = n
        keep[won] = True
        taken_a[ia[won]] = True
        taken_b[ib[won]] = True
        live = live[~(taken_a[a] | taken_b[b])]
    return keep
