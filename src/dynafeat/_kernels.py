"""Hot inner loops, JIT-compiled with numba when available.

Every kernel has two implementations that produce bit-identical results:
a numba ``@njit`` version and a pure-numpy fallback. The backend is chosen
at import time; set the environment variable ``DYNAFEAT_NUMBA=0`` to force
the numpy path (``set_backend`` switches at runtime, used by the backend
benchmark and the equality tests). All kernels are integer-exact, so the
choice only affects speed, never output.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit, prange

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is the optional [numba] extra
    _HAVE_NUMBA = False

_env = os.environ.get("DYNAFEAT_NUMBA", "1").strip().lower()
_active = "numba" if (_HAVE_NUMBA and _env not in ("0", "false", "off", "no")) else "numpy"


def active_backend() -> str:
    """Name of the backend currently used by the dispatchers."""
    return _active


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if _HAVE_NUMBA else ("numpy",)


def set_backend(name: str) -> None:
    """Switch kernel backend at runtime ("numba" or "numpy")."""
    global _active
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not _HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    _active = name


# Bresenham circle of radius 3: the 16 ring offsets, clockwise from (0, -3).
_CIRCLE_DX = np.array([0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3, -3, -3, -2, -1], np.int64)
_CIRCLE_DY = np.array([-3, -3, -2, -1, 0, 1, 2, 3, 3, 3, 2, 1, 0, -1, -2, -3], np.int64)

_ARC_LEN = 9

# SWAR popcount masks; plain ints so numba folds them as int64 constants.
_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_H01 = 0x0101010101010101


# ---------------------------------------------------------------------------
# Segment-test corner response
# ---------------------------------------------------------------------------

def _fast_response_np(img: np.ndarray, threshold: int) -> np.ndarray:
    h, w = img.shape
    resp = np.zeros((h, w), np.int32)
    if h < 7 or w < 7:
        return resp
    c = img[3:h - 3, 3:w - 3]
    hi = c + threshold
    lo = c - threshold
    ring = np.empty((16,) + c.shape, np.int32)
    for k in range(16):
        dx = int(_CIRCLE_DX[k])
        dy = int(_CIRCLE_DY[k])
        ring[k] = img[3 + dy:h - 3 + dy, 3 + dx:w - 3 + dx]
    bright = ring > hi[None]
    dark = ring < lo[None]

    def has_run(mask: np.ndarray) -> np.ndarray:
        out = np.zeros(c.shape, bool)
        for s in range(16):
            seg = mask[s]
            for j in range(1, _ARC_LEN):
                seg = seg & mask[(s + j) % 16]
            out |= seg
        return out

    corner = has_run(bright) | has_run(dark)
    bsum = np.maximum(ring - hi[None], 0).sum(axis=0, dtype=np.int32)
    dsum = np.maximum(lo[None] - ring, 0).sum(axis=0, dtype=np.int32)
    resp[3:h - 3, 3:w - 3] = np.where(corner, np.maximum(bsum, dsum), 0)
    return resp


if _HAVE_NUMBA:

    @njit(cache=True)
    def _fast_response_nb(img, threshold, cdx, cdy):  # pragma: no cover - jitted
        h, w = img.shape
        resp = np.zeros((h, w), np.int32)
        for y in range(3, h - 3):
            for x in range(3, w - 3):
                c = img[y, x]
                hi = c + threshold
                lo = c - threshold
                # Any 9-long arc must contain one of {top, bottom} and one
                # of {left, right}; cheap rejection for flat regions.
                p0 = img[y - 3, x]
                p8 = img[y + 3, x]
                p4 = img[y, x + 3]
                p12 = img[y, x - 3]
                maybe_bright = (p0 > hi or p8 > hi) and (p4 > hi or p12 > hi)
                maybe_dark = (p0 < lo or p8 < lo) and (p4 < lo or p12 < lo)
                if not (maybe_bright or maybe_dark):
                    continue
                bright_run = 0
                dark_run = 0
                best_bright = 0
                best_dark = 0
                bsum = 0
                dsum = 0
                for k in range(32):
                    idx = k & 15
                    v = img[y + cdy[idx], x + cdx[idx]]
                    if v > hi:
                        bright_run += 1
                        if bright_run > best_bright:
                            best_bright = bright_run
                    else:
                        bright_run = 0
                    if v < lo:
                        dark_run += 1
                        if dark_run > best_dark:
                            best_dark = dark_run
                    else:
                        dark_run = 0
                    if k < 16:
                        if v > hi:
                            bsum += v - hi
                        elif v < lo:
                            dsum += lo - v
                if best_bright >= 9 or best_dark >= 9:
                    resp[y, x] = bsum if bsum > dsum else dsum
        return resp


def fast_response_map(img: np.ndarray, threshold: int) -> np.ndarray:
    """Segment-test corner response (int32, zero at non-corners).

    A pixel scores when a contiguous arc of at least 9 of its 16 ring
    pixels is brighter or darker than the center by more than ``threshold``;
    the score is the larger of the brighter/darker clamped difference sums.
    """
    img32 = np.ascontiguousarray(img, dtype=np.int32)
    if _active == "numba":
        return _fast_response_nb(img32, np.int32(threshold), _CIRCLE_DX, _CIRCLE_DY)
    return _fast_response_np(img32, int(threshold))


# ---------------------------------------------------------------------------
# Binary descriptor extraction (intensity-pair comparisons, packed MSB first)
# ---------------------------------------------------------------------------

def _brief_np(sums, xs, ys, p1x, p1y, p2x, p2y):
    a = sums[ys[:, None] + p1y[None, :], xs[:, None] + p1x[None, :]]
    b = sums[ys[:, None] + p2y[None, :], xs[:, None] + p2x[None, :]]
    return np.packbits(a < b, axis=1)


if _HAVE_NUMBA:

    @njit(cache=True)
    def _brief_nb(sums, xs, ys, p1x, p1y, p2x, p2y):  # pragma: no cover - jitted
        n = xs.shape[0]
        nbits = p1x.shape[0]
        nbytes = nbits // 8
        out = np.zeros((n, nbytes), np.uint8)
        for i in range(n):
            x = xs[i]
            y = ys[i]
            for byte in range(nbytes):
                acc = 0
                for bit in range(8):
                    k = byte * 8 + bit
                    acc <<= 1
                    if sums[y + p1y[k], x + p1x[k]] < sums[y + p2y[k], x + p2x[k]]:
                        acc |= 1
                out[i, byte] = acc
        return out


def brief_descriptors(sums: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                      pattern: np.ndarray) -> np.ndarray:
    """Packed comparison descriptors for corners at (xs, ys).

    ``sums`` is the smoothed-intensity plane (box block sums), ``pattern``
    an (nbits, 4) table of (dx1, dy1, dx2, dy2) test offsets. Bit k is set
    when the first test point is darker than the second; bits are packed
    most significant first.
    """
    if pattern.shape[0] % 8 != 0:
        raise ValueError("descriptor bit count must be a multiple of 8")
    xs = np.ascontiguousarray(xs, np.int64)
    ys = np.ascontiguousarray(ys, np.int64)
    sums = np.ascontiguousarray(sums, np.int64)
    p = np.ascontiguousarray(pattern, np.int64)
    if xs.size == 0:
        return np.zeros((0, pattern.shape[0] // 8), np.uint8)
    if _active == "numba":
        return _brief_nb(sums, xs, ys,
                         np.ascontiguousarray(p[:, 0]), np.ascontiguousarray(p[:, 1]),
                         np.ascontiguousarray(p[:, 2]), np.ascontiguousarray(p[:, 3]))
    return _brief_np(sums, xs, ys, p[:, 0], p[:, 1], p[:, 2], p[:, 3])


# ---------------------------------------------------------------------------
# Mutual nearest neighbors under Hamming distance, batched over group pairs
# (the per-frame matching hot loop, and the only copy of the mutual-NN rule)
# ---------------------------------------------------------------------------

# Cells (padded member pairs) per chunk of the numpy kernel: bounds its
# temporaries to a few MB whatever the number of pairs in the call.
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


def _batch_mutual_nn_np(bytes_a, bytes_b, mem_a, off_a, cnt_a, mem_b, off_b,
                        cnt_b, pair_a, pair_b, out_off, out_ia, out_ib, out_dist):
    # A chunk of pairs is padded to the largest group sizes of the call and
    # laid out pair-innermost, so each numpy call runs over the whole chunk:
    # d[i, j, p] is the distance of member i of pair p's first group to
    # member j of its second group.
    n_pairs = pair_a.shape[0]
    ma = int(cnt_a[pair_a].max())
    mb = int(cnt_b[pair_b].max())
    if ma == 0 or mb == 0:
        return np.zeros(n_pairs, np.int64)
    planes_a, ids_a, padding_a = _group_planes(bytes_a, mem_a, off_a, cnt_a, ma)
    planes_b, ids_b, padding_b = _group_planes(bytes_b, mem_b, off_b, cnt_b, mb)
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
        row_ties = (d == r_min[:, None]).sum(axis=1, dtype=np.uint8)
        col_ties = (d == col_min[None]).sum(axis=0, dtype=np.uint8)
        cols = np.arange(e - s)
        # the unique minimum of column j = r_arg[i] sits in row i exactly
        # when it equals row i's minimum; a padding minimum means row i or
        # all of its columns are padding
        ok[:, s:e] = ((row_ties == 1) & (col_ties[r_arg, cols] == 1)
                      & (col_min[r_arg, cols] == r_min) & (r_min < pad_dist))
    # pair-major, ascending member position within a pair
    p, i = np.nonzero(ok.T)
    scores = np.bincount(p, minlength=n_pairs).astype(np.int64, copy=False)
    slot = out_off[p] + np.arange(p.shape[0]) - (np.cumsum(scores) - scores)[p]
    keys = row_key[i, p]
    out_ia[slot] = ids_a[i, pair_a[p]]
    out_ib[slot] = ids_b[keys & low, pair_b[p]]
    out_dist[slot] = keys >> shift
    return scores


if _HAVE_NUMBA:

    @njit(cache=True, parallel=True)
    def _batch_mutual_nn_nb(words_a, words_b, mem_a, off_a, cnt_a, mem_b, off_b,
                            cnt_b, pair_a, pair_b, out_off, out_ia, out_ib,
                            out_dist):  # pragma: no cover - jitted
        # Pairs are independent and write disjoint output slices, so the
        # parallel loop is race-free and its results schedule-invariant.
        n_pairs = pair_a.shape[0]
        scores = np.zeros(n_pairs, np.int64)
        inf = np.int64(1) << 40
        w = words_a.shape[1]
        for p in prange(n_pairs):
            ga = pair_a[p]
            gb = pair_b[p]
            na = cnt_a[ga]
            nb = cnt_b[gb]
            oa = off_a[ga]
            ob = off_b[gb]
            row_min = np.empty(na, np.int64)
            row_arg = np.empty(na, np.int64)
            row_tie = np.empty(na, np.int64)
            col_min = np.full(nb, inf, np.int64)
            col_arg = np.full(nb, -1, np.int64)
            col_tie = np.zeros(nb, np.int64)
            for i in range(na):
                ra = mem_a[oa + i]
                m = inf
                arg = -1
                cnt = 0
                for j in range(nb):
                    rb = mem_b[ob + j]
                    d = np.int64(0)
                    for t in range(w):
                        x = words_a[ra, t] ^ words_b[rb, t]
                        x = x - ((x >> 1) & _M1)
                        x = (x & _M2) + ((x >> 2) & _M2)
                        x = (x + (x >> 4)) & _M4
                        d += (x * _H01) >> 56
                    if d < m:
                        m = d
                        arg = j
                        cnt = 1
                    elif d == m:
                        cnt += 1
                    if d < col_min[j]:
                        col_min[j] = d
                        col_arg[j] = i
                        col_tie[j] = 1
                    elif d == col_min[j]:
                        col_tie[j] += 1
                row_min[i] = m
                row_arg[i] = arg
                row_tie[i] = cnt
            emitted = out_off[p]
            for i in range(na):
                if row_tie[i] != 1:
                    continue
                j = row_arg[i]
                if col_tie[j] != 1 or col_arg[j] != i:
                    continue
                out_ia[emitted] = mem_a[oa + i]
                out_ib[emitted] = mem_b[ob + j]
                out_dist[emitted] = row_min[i]
                emitted += 1
            scores[p] = emitted - out_off[p]
        return scores


def batch_mutual_nn(desc_a: np.ndarray, desc_b: np.ndarray,
                    mem_a: np.ndarray, off_a: np.ndarray, cnt_a: np.ndarray,
                    mem_b: np.ndarray, off_b: np.ndarray, cnt_b: np.ndarray,
                    pair_a: np.ndarray, pair_b: np.ndarray):
    """Mutual-NN supports for many group pairs in one call.

    A support of a pair is a member i of its first group and a member j of
    its second whose Hamming distance is the unique minimum of both i's row
    and j's column; a tied minimum disqualifies the row or column.
    ``desc_*`` are the full frame descriptor tables (uint8, equal widths,
    best a multiple of 8); groups are given as flattened member-id arrays
    with offset/count tables, and each pair indexes a group slot per side.
    Returns (scores, out_off, ia, ib, dist): supports of pair p occupy
    ``[out_off[p], out_off[p] + scores[p])`` in the flat arrays, ordered by
    ascending member position on the first side.
    """
    if desc_a.ndim != 2 or desc_b.ndim != 2 or desc_a.shape[1] != desc_b.shape[1]:
        raise ValueError("descriptor arrays must be 2-D with matching widths")
    n_pairs = pair_a.shape[0]
    bound = np.minimum(cnt_a[pair_a], cnt_b[pair_b]) if n_pairs else np.zeros(0, np.int64)
    out_off = np.zeros(n_pairs, np.int64)
    if n_pairs:
        np.cumsum(bound[:-1], out=out_off[1:])
    total = int(bound.sum())
    # zeroed, not empty: slots past each pair's support count stay deterministic
    out_ia = np.zeros(total, np.int64)
    out_ib = np.zeros(total, np.int64)
    out_dist = np.zeros(total, np.int64)
    if n_pairs == 0:
        return np.zeros(0, np.int64), out_off, out_ia, out_ib, out_dist
    if _active == "numba" and desc_a.shape[1] % 8 == 0:
        scores = _batch_mutual_nn_nb(desc_a.view(np.int64), desc_b.view(np.int64),
                                     mem_a, off_a, cnt_a, mem_b, off_b, cnt_b,
                                     pair_a, pair_b, out_off, out_ia, out_ib, out_dist)
    else:
        scores = _batch_mutual_nn_np(desc_a, desc_b, mem_a, off_a, cnt_a,
                                     mem_b, off_b, cnt_b, pair_a, pair_b,
                                     out_off, out_ia, out_ib, out_dist)
    return scores, out_off, out_ia, out_ib, out_dist


# ---------------------------------------------------------------------------
# Greedy one-match-per-feature claim (the dedup inner loop)
# ---------------------------------------------------------------------------

def _claim_np(ia, ib, n_a, n_b):
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


if _HAVE_NUMBA:

    @njit(cache=True)
    def _claim_nb(ia, ib, taken_a, taken_b):  # pragma: no cover - jitted
        keep = np.zeros(ia.shape[0], np.bool_)
        for s in range(ia.shape[0]):
            i = ia[s]
            j = ib[s]
            if not taken_a[i] and not taken_b[j]:
                taken_a[i] = True
                taken_b[j] = True
                keep[s] = True
        return keep


def claim_first(ia: np.ndarray, ib: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Scan support rows in order; keep a row when neither endpoint is taken
    yet. Returns the kept mask."""
    if _active == "numba":
        return _claim_nb(ia, ib, np.zeros(n_a, np.bool_), np.zeros(n_b, np.bool_))
    return _claim_np(ia, ib, n_a, n_b)


def warmup() -> None:
    """Force JIT compilation of all kernels (no-op on the numpy backend)."""
    if _active != "numba":
        return
    img = np.zeros((16, 16), np.uint8)
    img[8, 8] = 255
    fast_response_map(img, 5)
    sums = np.arange(64, dtype=np.int64).reshape(8, 8)
    pattern = np.zeros((8, 4), np.int64)
    brief_descriptors(sums, np.array([4]), np.array([4]), pattern)
    a = np.arange(16, dtype=np.uint8).reshape(2, 8)
    ids = np.array([0, 1], np.int64)
    off = np.zeros(1, np.int64)
    cnt = np.full(1, 2, np.int64)
    pair = np.zeros(1, np.int64)
    batch_mutual_nn(a, a, ids, off, cnt, ids, off, cnt, pair, pair)
    claim_first(ids, ids, 2, 2)
