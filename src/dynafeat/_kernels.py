"""Hot inner loops, vectorized with numpy.

One implementation per kernel: the segment-test corner response, packed
descriptor extraction, batched mutual-NN Hamming matching and the greedy
match claim. All kernels are integer-exact, so their outputs are fully
determined by their inputs.

The segment test, descriptor extraction and the mutual-NN kernel split
large calls into parts that run at once, one per CPU the process may use
(``_WORKERS``, read once from the CPU affinity mask): row bands of an
image, runs of corners, shards of whole pair chunks. numpy releases the
interpreter lock inside these loops, so the parts overlap. Each part
writes its own disjoint slice of one preallocated output, and every
output value is computed from the same inputs by the same operations as
in one part, so the result is the same, bit for bit, whatever the split.
The threads are started and joined inside the call; none outlives it.

The mutual-NN kernel's shards each work in one workspace of a chunk's
cells (``_CHUNK_CELLS``), which the calling thread allocates before the
workers start, so a worker allocates only small row and column results,
and a block larger than a chunk is scored in tiles of rows: no input
shape grows the kernel's memory beyond one chunk per shard.
"""

from __future__ import annotations

import math
import numbers
import os
import threading

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded with benchmark results."""
    return "numpy"


# Parts a kernel call may run at once: the CPUs the process may use.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _WORKERS = os.cpu_count() or 1


def _run_parts(fn, parts: list) -> list:
    """``[fn(part) for part in parts]``, the parts run at once.

    The first part runs in the calling thread, each other in a thread
    started and joined here, so no thread outlives the call (a persistent
    pool would hang in a forked child). After all parts end, the first
    exception in part order is raised.
    """
    results = [None] * len(parts)
    errors = [None] * len(parts)

    def run(k):
        try:
            results[k] = fn(parts[k])
        except BaseException as exc:  # re-raised in the calling thread below
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(parts))]
    for t in threads:
        t.start()
    try:
        results[0] = fn(parts[0])
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _spans(n: int, parts: int) -> list[tuple[int, int]]:
    """[0, n) cut into ``parts`` contiguous spans, of lengths differing by at most 1."""
    return [(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


# Bresenham circle of radius 3: the 16 ring offsets, clockwise from (0, -3).
_CIRCLE_DX = np.array([0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3, -3, -3, -2, -1], np.int64)
_CIRCLE_DY = np.array([-3, -3, -2, -1, 0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3], np.int64)

# On 8-bit pixels no ring pixel is brighter than c + 255 or darker than
# c - 255, so a larger threshold detects nothing; up to 254, c + threshold
# is at most 509 and every comparison and clamped sum is exact in int16.
MAX_FAST_THRESHOLD = 254

# Images below this many pixels run the segment test in one part: thread
# start-up and contention for the interpreter lock would cost more than
# the split saves.
_BAND_MIN_PIXELS = 1 << 17


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
    # A response reads only its pixel's 7x7 neighbourhood, so the band of
    # rows [3 + a, 3 + b) is exact from image rows [a, b + 6).
    parts = min(_WORKERS, h - 6) if h * w >= _BAND_MIN_PIXELS else 1
    _run_parts(lambda band: _segment_test(img[band[0]:band[1] + 6], threshold,
                                          resp[band[0] + 3:band[1] + 3]),
               _spans(h - 6, parts))
    return resp


def _segment_test(img: np.ndarray, threshold: int, out: np.ndarray) -> None:
    """Write the responses of ``img``'s rows 3..h-4 into ``out`` (h - 6 rows
    of the same width, zero on entry); ``img`` has at least 7 rows."""
    h, w = img.shape
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
    out.reshape(-1)[p - 3 * w] = np.maximum(bsum, dsum)


# ---------------------------------------------------------------------------
# Binary descriptor extraction (intensity-pair comparisons, packed MSB first)
# ---------------------------------------------------------------------------

# Calls with fewer corners describe them in one part.
_BRIEF_MIN_CORNERS = 1024


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
    out = np.empty((xs.size, pattern.shape[0] // 8), np.uint8)

    def describe_rows(rows):
        base = (ys[rows[0]:rows[1]] * w + xs[rows[0]:rows[1]])[:, None]
        out[rows[0]:rows[1]] = np.packbits(flat[base + off_a] < flat[base + off_b], axis=1)

    parts = min(_WORKERS, xs.size) if xs.size >= _BRIEF_MIN_CORNERS else 1
    _run_parts(describe_rows, _spans(xs.size, parts))
    return out


# ---------------------------------------------------------------------------
# Mutual nearest neighbors under Hamming distance, batched over group pairs
# (the per-frame matching hot loop, and the only copy of the mutual-NN rule)
# ---------------------------------------------------------------------------

# Cells (padded member pairs) per chunk, and so per shard workspace.
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
    """One shard's chunk buffers for tiles of ``rows`` x ``mb`` cells over
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

    The pairs are scored in chunks of whole pairs, in shards of whole
    chunks (one per worker). Each shard works in one workspace of at most
    ``_CHUNK_CELLS`` cells (or one second-side row, if longer), which the
    calling thread allocates before the workers start; a worker allocates
    only row and column results. A pair whose padded block exceeds the
    chunk is scored in tiles of first-side rows, so no input shape grows
    the kernel's memory beyond one chunk per shard.
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

    def score_chunks(span):
        """Fill the row_key and ok columns of pairs [span[0], span[1]),
        chunk by chunk, in the span's workspace."""
        ws = spaces[span]
        for s in range(span[0], span[1], step):
            e = min(s + step, span[1])
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

    # Shards of whole chunks, at least 2 per shard: a shard writes only its
    # own columns of row_key and ok, and every pair is scored as in one
    # shard, since each chunk's pairs are. The workspaces are allocated
    # here, in the calling thread, one per shard.
    n_chunks = -(-n_pairs // step)
    shards = max(1, min(_WORKERS, n_chunks // 2))
    spans = [(a * step, min(b * step, n_pairs)) for a, b in _spans(n_chunks, shards)]
    spaces = {span: _Workspace(n_words, rows, mb, min(step, span[1] - span[0]), dt)
              for span in spans}
    _run_parts(score_chunks, spans)
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
