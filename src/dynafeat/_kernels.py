"""Hot inner loops, vectorized with numpy.

One implementation per kernel: the segment-test corner response, packed
descriptor extraction, batched mutual-NN Hamming matching and the greedy
match claim. All kernels are integer-exact, so their outputs are fully
determined by their inputs.

Every kernel runs in the calling thread, and works in buffers of a fixed
size wherever its input can grow: descriptor extraction in blocks of
corners (``_BRIEF_BLOCK``), the mutual-NN kernel in chunks of cells
(``_CHUNK_CELLS``). Each block or chunk writes its own slice of one
preallocated output, from the same inputs by the same operations as one
whole-call pass, so the blocking does not change a bit of the result.

The segment test first runs a compass over the image: ring pixels 0, 4, 8
and 12. Any circular run of 9 of the 16 ring pixels holds pixel 0 or 8
and pixel 4 or 12, so a pixel scores 0 unless such a pair is brighter
than its center by more than the threshold, or such a pair darker. The
full test then runs at the survivors alone, on the uint8 pixels.

The mutual-NN kernel works in one workspace of a chunk's cells, which it
allocates once per call, so a chunk allocates only small row and column
results, and a block larger than a chunk is scored in tiles of rows: no
input shape grows the kernel's memory beyond one chunk.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


# Bresenham circle of radius 3: the 16 ring offsets, clockwise from (0, -3).
_CIRCLE_DX = np.array([0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3, -3, -3, -2, -1], np.int64)
_CIRCLE_DY = np.array([-3, -3, -2, -1, 0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3], np.int64)

# On 8-bit pixels no ring pixel is brighter than c + 255 or darker than
# c - 255, so a larger threshold detects nothing; up to 254, the bounds
# c + threshold and c - threshold clamped into 0..255 (``_bounds``) decide
# every comparison and clamped sum exactly.
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
    ``img`` is a 2-D uint8 array and ``threshold`` an integer in
    1..MAX_FAST_THRESHOLD; anything else raises ValueError. Nonzero
    responses lie at least 3 pixels inside every border.

    The compass runs first: a run of 9 holds ring pixel 0 or 8 and ring
    pixel 4 or 12, so only pixels with such a pair on one side can score.
    The test then gathers the 16 ring pixels of the survivors alone and
    runs the full test on them: about 5% of the pixels of the image640
    benchmark frames survive, and about 90% of uniform noise's.
    """
    if isinstance(threshold, bool) or not isinstance(threshold, numbers.Integral):
        raise ValueError(f"fast_threshold must be an integer, got {threshold!r}")
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
    _segment_test(img, threshold, resp)
    return resp


def _segment_test(img: np.ndarray, threshold: int, out: np.ndarray) -> None:
    """Write the responses of ``img`` into ``out`` (of its shape, zero on
    entry); ``img`` has at least 7 rows and 7 columns.

    The compass leaves the pixels that may hold an arc; the ring test keeps
    the corners among them and scores them.
    """
    h, w = img.shape
    # Row-major flat pixels from pixel start = (3, 3) on: ring pixel k of
    # pixel start + i is shifted[k][i], for every i in [0, n).
    flat = img.reshape(-1)
    start = 3 * w + 3
    n = (h - 6) * w - 6
    shifted = [flat[start + off:start + off + n]
               for off in (_CIRCLE_DY * w + _CIRCLE_DX).tolist()]
    hi, lo = _bounds(flat[start:start + n], threshold)
    live = _compass(shifted, hi, lo)
    # pixels within 3 columns of a side would read neighbouring rows
    live[:(h - 7) * w].reshape(h - 7, w)[:, w - 6:] = False
    q, resp = _ring_test(shifted, hi, lo, np.flatnonzero(live))
    out.reshape(-1)[start + q] = resp


def _bounds(center: np.ndarray, threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 bounds min(c + threshold, 255) and max(c - threshold, 0).

    No ring pixel is above 255 or below 0, so where a bound is clamped no
    pixel passes it, as none passes the exact one; and each clamped
    difference, max(v - hi, 0) or max(lo - v, 0), is 0 under both. So
    every comparison and response is the exact one's.
    """
    # numpy vectorizes minimum against an array, not against a scalar
    bound = np.full(center.size, 255 - threshold, np.uint8)
    hi = np.minimum(center, bound)
    hi += threshold
    bound.fill(threshold)
    lo = np.maximum(center, bound)
    lo -= threshold
    return hi, lo


def _compass(shifted: list, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The pixels of the image that may hold an arc, by ring pixels 0, 4, 8
    and 12 alone.

    A circular run of 9 of the 16 ring pixels holds pixel 0 or 8 and pixel
    4 or 12. So a bright arc needs the smaller of max(p0, p8) and
    max(p4, p12) above hi, and a dark arc the larger of min(p0, p8) and
    min(p4, p12) below lo; a pixel with neither scores 0.
    """
    p0, p4, p8, p12 = shifted[0::4]
    pair = np.maximum(p0, p8)
    key = np.maximum(p4, p12)
    np.minimum(key, pair, out=key)
    live = key > hi
    np.minimum(p0, p8, out=pair)
    np.minimum(p4, p12, out=key)
    np.maximum(key, pair, out=key)
    live |= key < lo
    return live


def _ring_test(shifted: list, hi: np.ndarray, lo: np.ndarray,
               q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The segment test at the pixels q alone: the corners among them and
    their responses.

    Each ring pixel is read through the one index q into one row of the
    (16, len(q)) ring values (``take``'s wrap mode skips the bounds check,
    which with ``out=`` copies through a buffer; q is in range), so no
    further whole-image array is made. A response is the larger of sum(max(v - hi, 0)) and
    sum(max(lo - v, 0)) over the ring values v, summed at the corners as
    sum(max(v, hi)) - 16 hi and 16 lo - sum(min(v, lo)), each within
    16 * 255, exact in int16.
    """
    chi = np.take(hi, q, mode="wrap")
    clo = np.take(lo, q, mode="wrap")
    vals = np.empty((16, q.size), np.uint8)
    # bit k of a code: ring pixel k is brighter (darker) than the center
    bright = np.zeros(q.size, np.uint16)
    dark = np.zeros(q.size, np.uint16)
    flag = np.empty(q.size, bool)
    bit = np.empty(q.size, np.uint16)
    for k, ring_k in enumerate(shifted):
        v = vals[k]
        np.take(ring_k, q, out=v, mode="wrap")
        np.greater(v, chi, out=flag)
        np.left_shift(flag, k, out=bit, dtype=np.uint16)
        bright |= bit
        np.less(v, clo, out=flag)
        np.left_shift(flag, k, out=bit, dtype=np.uint16)
        dark |= bit
    arc = _has_arc(bright)
    arc |= _has_arc(dark)
    corner = np.flatnonzero(arc)
    vals = np.take(vals, corner, axis=1)
    chi = chi[corner]
    clo = clo[corner]
    bsum = np.maximum(vals, chi).sum(axis=0, dtype=np.int16)
    bsum -= chi.astype(np.int16) * 16
    dsum = clo.astype(np.int16) * 16
    dsum -= np.minimum(vals, clo).sum(axis=0, dtype=np.int16)
    return q[corner], np.maximum(bsum, dsum)


# ---------------------------------------------------------------------------
# Binary descriptor extraction (intensity-pair comparisons, packed MSB first)
# ---------------------------------------------------------------------------

# Corners described per block. The block's index, gather and compare
# buffers (about 0.4 MB at 256 bits on an int16 plane) are reused from
# block to block, so the memory does not grow with the corners: one pass
# over all of them would build two (n, nbits) int64 index arrays, 4 MB
# each at 2,000 corners.
_BRIEF_BLOCK = 128


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
    off_a = p[:, 1] * w + p[:, 0]
    off_b = p[:, 3] * w + p[:, 2]
    base = ys * w + xs
    out = np.empty((xs.size, pattern.shape[0] // 8), np.uint8)
    m = min(xs.size, _BRIEF_BLOCK)
    index = np.empty((m, p.shape[0]), np.int64)
    first = np.empty((m, p.shape[0]), flat.dtype)
    second = np.empty((m, p.shape[0]), flat.dtype)
    darker = np.empty((m, p.shape[0]), bool)
    for s in range(0, xs.size, m):
        e = min(s + m, xs.size)
        k = e - s
        # mode="wrap" skips the bounds check, which with out= copies
        # through a buffer; every index is on the plane
        np.add(base[s:e, None], off_a, out=index[:k])
        np.take(flat, index[:k], out=first[:k], mode="wrap")
        np.add(base[s:e, None], off_b, out=index[:k])
        np.take(flat, index[:k], out=second[:k], mode="wrap")
        np.less(first[:k], second[:k], out=darker[:k])
        out[s:e] = np.packbits(darker[:k], axis=1)
    return out


# ---------------------------------------------------------------------------
# Mutual nearest neighbors under Hamming distance, batched over group pairs
# (the per-frame matching hot loop, and the only copy of the mutual-NN rule)
# ---------------------------------------------------------------------------

# Cells (padded member pairs) per chunk, and so per workspace.
_CHUNK_CELLS = 1 << 17


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


class _Workspace:
    """A call's chunk buffers for tiles of ``rows`` x ``mb`` cells over
    ``pairs`` pairs, flat: a chunk works in contiguous views of their
    leading elements (``_view``). The row keys reuse the XOR buffer and the
    tie mask the popcount buffer, once the distances are summed."""

    def __init__(self, n_words: int, rows: int, mb: int, pairs: int, dt):
        cells = rows * mb * pairs
        self.x = np.empty(cells, np.uint64)      # XOR of one word plane
        self.bits = np.empty(cells, np.uint8)    # its popcount
        self.d = np.empty(cells, dt)             # distances
        self.key = self.x.view(dt)               # distance, then column
        self.tie = self.bits.view(bool)          # cells at a minimum
        self.wa = np.empty(n_words * rows * pairs, np.uint64)  # gathered words
        self.wb = np.empty(n_words * mb * pairs, np.uint64)


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of the flat ``buf`` as a contiguous ``shape`` array."""
    return buf[:math.prod(shape)].reshape(shape)


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
    Returns (scores, ia, ib, dist): supports packed with no gap, pair p's
    ``scores[p]`` rows of the flat arrays right after pair p - 1's, in
    ascending member position on the first side.

    The pairs are scored in chunks of whole pairs, one after another, in
    one workspace of at most ``_CHUNK_CELLS`` cells (or one second-side
    row, if longer) allocated once per call; a chunk allocates only row and
    column results. A pair whose padded block exceeds the chunk is scored
    in tiles of first-side rows, so no input shape grows the kernel's
    memory beyond one chunk.
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
        return np.zeros(n_pairs, np.int64), none, none, none
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
    # A tile is up to `rows` first-side rows of every pair in a chunk. A
    # chunk is `step` pairs of whole blocks, or one pair in tiles when its
    # block holds more than _CHUNK_CELLS cells.
    rows = min(ma, max(1, _CHUNK_CELLS // mb))
    step = max(1, _CHUNK_CELLS // (rows * mb))

    def score_chunks(ws):
        """Fill row_key and ok chunk by chunk, in the workspace ``ws``:
        each chunk writes only its own columns."""
        for s in range(0, n_pairs, step):
            e = min(s + step, n_pairs)
            k = e - s
            ga = pair_a[s:e]
            gb = pair_b[s:e]
            # mode="wrap" indexes as planes_b[:, :, gb] does; the default
            # mode="raise" would copy through a buffer the size of `out`
            wb = np.take(planes_b, gb, axis=2, out=_view(ws.wb, n_words, mb, k), mode="wrap")
            pad_gb = np.take(pad_b, gb, axis=1)[None]
            for r0 in range(0, ma, rows):
                r1 = min(r0 + rows, ma)
                n = r1 - r0
                wa = np.take(planes_a[:, r0:r1], ga, axis=2,
                             out=_view(ws.wa, n_words, n, k), mode="wrap")
                x = _view(ws.x, n, mb, k)
                bits = _view(ws.bits, n, mb, k)
                d = _view(ws.d, n, mb, k)
                for w in range(n_words):
                    np.bitwise_xor(wa[w, :, None], wb[w, None], out=x)
                    np.bitwise_count(x, out=bits)
                    if w:
                        np.add(d, bits, out=d)
                    else:
                        np.copyto(d, bits)
                np.maximum(d, np.take(pad_a[r0:r1], ga, axis=1)[:, None], out=d)
                np.maximum(d, pad_gb, out=d)
                key = np.left_shift(d, shift, out=_view(ws.key, n, mb, k))
                key |= pos_b
                # a row's minimum, first position and ties lie in its tile
                r_min = np.minimum.reduce(key, axis=1, out=row_key[r0:r1, s:e]) >> shift
                tie = _view(ws.tie, n, mb, k)
                np.equal(d, r_min[:, None], out=tie)
                ok[r0:r1, s:e] = (tie.sum(axis=1, dtype=tie_dt) == 1) & (r_min < pad_dist)
                t_min = d.min(axis=0)
                np.equal(d, t_min[None], out=tie)
                t_ties = tie.sum(axis=0, dtype=tie_dt)
                if r0 == 0:
                    col_min, col_ties = t_min, t_ties
                else:
                    # (minimum, ties) merge exactly: each side's ties count
                    # where its minimum is the merged one
                    merged = np.minimum(col_min, t_min)
                    col_ties = (np.where(col_min == merged, col_ties, 0)
                                + np.where(t_min == merged, t_ties, 0))
                    col_min = merged
            # the unique minimum of column j = r_arg[i] sits in row i exactly
            # when it equals row i's minimum; a padding minimum means row i
            # or all of its columns are padding
            rk = row_key[:, s:e]
            r_arg = (rk & low).astype(np.intp)
            cols = np.arange(k)
            ok[:, s:e] &= (col_ties[r_arg, cols] == 1) & (col_min[r_arg, cols] == rk >> shift)

    # The one workspace is freed before the supports are gathered, from
    # row_key and ok alone.
    score_chunks(_Workspace(n_words, rows, mb, min(step, n_pairs), dt))
    # pair-major, ascending member position within a pair
    p, i = np.nonzero(ok.T)
    scores = np.bincount(p, minlength=n_pairs).astype(np.int64, copy=False)
    keys = row_key[i, p]
    return (scores, ids_a[i, pair_a[p]], ids_b[keys & low, pair_b[p]],
            (keys >> shift).astype(np.int64))


# ---------------------------------------------------------------------------
# Greedy one-match-per-feature claim (the dedup inner loop)
# ---------------------------------------------------------------------------

# Rounds claim_first runs before it scans the rows left one by one: the
# dense scene takes 2-4, a chained input one per kept row.
_CLAIM_ROUNDS = 8


def claim_first(ia: np.ndarray, ib: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Scan support rows in order; keep a row when neither endpoint is taken
    yet. Returns the kept mask."""
    return _claim_rounds(ia, ib, n_a, n_b)[0]


def _claim_rounds(ia, ib, n_a: int, n_b: int) -> tuple[np.ndarray, int]:
    """claim_first's mask and the number of rounds it ran."""
    # Greedy in rounds: a row that is the first remaining claimant of both
    # its endpoints is kept by the sequential scan too (every earlier row
    # sharing an endpoint has been dropped), and rows sharing an endpoint
    # with a kept row are dropped. The earliest remaining row always wins,
    # so each round decides at least one row. Rounds follow the longest
    # chain of rows each blocked by the one before it; after _CLAIM_ROUNDS
    # the rows left are scanned in order. No endpoint of theirs is taken,
    # and every kept row shares none with an earlier one, so the scan
    # decides them as the sequential scan of all rows does.
    n = ia.shape[0]
    keep = np.zeros(n, bool)
    taken_a = np.zeros(n_a, bool)
    taken_b = np.zeros(n_b, bool)
    first_a = np.full(n_a, n, np.int64)
    first_b = np.full(n_b, n, np.int64)
    live = np.arange(n, dtype=np.int64)
    rounds = 0
    while live.size and rounds < _CLAIM_ROUNDS:
        rounds += 1
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
    seen_a, seen_b, kept = set(), set(), []
    for row, a, b in zip(live.tolist(), ia[live].tolist(), ib[live].tolist()):
        if a not in seen_a and b not in seen_b:
            seen_a.add(a)
            seen_b.add(b)
            kept.append(row)
    keep[kept] = True
    return keep, rounds
