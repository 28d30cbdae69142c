"""Kernel checks: every kernel must match its brute-force oracle bit for
bit."""

import threading
import tracemalloc

import numpy as np
import pytest

from dynafeat import _kernels
from oracles import (brief_reference, claim_first_reference, fast_response_reference,
                     mutual_nn_reference)


def _blob_frame(rng, h, w, blobs):
    """A flat background with textured 5x5 blobs, like the image640 frames."""
    pixels = np.full((h, w), 128, np.uint8)
    for y, x in zip(rng.integers(0, h - 4, blobs).tolist(), rng.integers(0, w - 4, blobs).tolist()):
        pixels[y:y + 5, x:x + 5] = rng.integers(0, 256, (5, 5))
    return pixels


def _segment_inputs():
    rng = np.random.default_rng(36)
    yy, xx = np.mgrid[0:30, 0:41]
    textured = 128 + 100 * np.sin(xx / 3.0) * np.cos(yy / 5.0) + rng.normal(0, 4, xx.shape)
    return {"blobs": _blob_frame(rng, 30, 41, 9),
            "noise": rng.integers(0, 256, (30, 41), dtype=np.uint8),
            "textured": np.clip(np.rint(textured), 0, 255).astype(np.uint8),
            # 0/255 pixels make corners at every threshold up to 254, and
            # their bounds c + threshold and c - threshold leave 0..255
            "binary": rng.integers(0, 2, (30, 41)).astype(np.uint8) * 255}


def _compass_mask(pixels, threshold):
    """The kernel's compass over a whole image: True at the pixels it keeps."""
    h, w = pixels.shape
    flat = pixels.reshape(-1)
    start, n = 3 * w + 3, (h - 6) * w - 6
    shifted = [flat[start + off:start + off + n]
               for off in (_kernels._CIRCLE_DY * w + _kernels._CIRCLE_DX).tolist()]
    mask = np.zeros(h * w, bool)
    mask[start:start + n] = _kernels._compass(
        shifted, *_kernels._bounds(flat[start:start + n], threshold))
    return mask.reshape(h, w)


@pytest.mark.parametrize("threshold", [1, 5, 40, 254])
@pytest.mark.parametrize("name", ["blobs", "noise", "textured", "binary"])
def test_segment_test_matches_oracle_at_any_survivor_share(name, threshold):
    # the compass keeps few pixels of the blobs and most of the noise:
    # the ring test runs on sparse and dense survivors alike
    pixels = _segment_inputs()[name]
    want = fast_response_reference(pixels, threshold)
    got = _kernels.fast_response_map(pixels, threshold)
    assert got.dtype == np.int32 and np.array_equal(got, want)
    if threshold < 254 or name == "binary":
        assert want.any()
    if threshold == 5 and name != "binary":
        share = _compass_mask(pixels, threshold).mean()
        assert share < 0.3 if name == "blobs" else share > 0.5


@pytest.mark.parametrize("threshold", [1, 5, 40])
def test_segment_test_of_sparse_and_dense_bands_matches_oracle(threshold):
    # blobs over noise, in two bands of very different survivor shares
    rng = np.random.default_rng(threshold)
    pixels = np.concatenate([_blob_frame(rng, 24, 44, 5),
                             rng.integers(0, 256, (24, 44), dtype=np.uint8)])
    got = _kernels.fast_response_map(pixels, threshold)
    assert np.array_equal(got, fast_response_reference(pixels, threshold))
    assert got[3:24].any() and got[24:45].any()


def test_every_oracle_corner_passes_the_compass():
    # a circular run of 9 of the 16 ring pixels holds ring pixel 0 or 8 and
    # ring pixel 4 or 12, so the compass drops no corner
    rng = np.random.default_rng(16)
    corners = 0
    for _ in range(12):
        levels = int(rng.integers(2, 257))
        pixels = (rng.integers(0, levels, (20, 24)) * (255 // max(1, levels - 1))).astype(np.uint8)
        threshold = int(rng.integers(1, 80))
        resp = fast_response_reference(pixels, threshold)
        mask = _compass_mask(pixels, threshold)
        assert mask[resp != 0].all(), (levels, threshold)
        corners += np.count_nonzero(resp)
    assert corners > 100


_BLOCK = _kernels._BRIEF_BLOCK


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
def test_brief_blocks_match_oracle(n):
    # no corner, a short first block, one whole block, a block and one
    # corner, and two blocks and a short third
    rng = np.random.default_rng(n)
    sums = rng.integers(0, 6375, (60, 70)).astype(np.int16)
    pattern = rng.integers(-15, 16, (256, 4)).astype(np.int64)
    xs = rng.integers(16, 54, n)
    ys = rng.integers(16, 44, n)
    got = _kernels.brief_descriptors(sums, xs, ys, pattern)
    assert got.dtype == np.uint8 and got.shape == (n, 32)
    assert np.array_equal(got, brief_reference(sums, xs, ys, pattern))


@pytest.mark.parametrize("block", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_brief_split_matches_oracle(monkeypatch, block, n):
    # blocks of 2 or 3 corners: 7 corners split into 4 or 3 blocks, the
    # last one short, and the buffers reused from block to block
    monkeypatch.setattr(_kernels, "_BRIEF_BLOCK", block)
    rng = np.random.default_rng(n)
    sums = rng.integers(0, 6375, (60, 70)).astype(np.int16)
    pattern = rng.integers(-15, 16, (256, 4)).astype(np.int64)
    xs = rng.integers(16, 54, n)
    ys = rng.integers(16, 44, n)
    got = _kernels.brief_descriptors(sums, xs, ys, pattern)
    assert got.dtype == np.uint8 and got.shape == (n, 32)
    assert np.array_equal(got, brief_reference(sums, xs, ys, pattern))


def test_brief_of_many_corners_works_in_block_buffers():
    # 2,000 corners and 256 bits on an int16 plane, as on an image640
    # frame: the call peaks at about 0.64 MB traced, where one whole-call
    # pass built two (2000, 256) int64 index arrays of 4.1 MB each
    from dynafeat.frontend import descriptor_pattern
    rng = np.random.default_rng(2000)
    sums = rng.integers(0, 6375, (480, 640)).astype(np.int16)
    pattern = descriptor_pattern(42)
    xs = rng.integers(20, 620, 2000)
    ys = rng.integers(20, 460, 2000)
    want = _kernels.brief_descriptors(sums, xs, ys, pattern)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = _kernels.brief_descriptors(sums, xs, ys, pattern)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert np.array_equal(got[:50], brief_reference(sums, xs[:50], ys[:50], pattern))
    assert peak < 1_000_000, peak


def test_brief_matches_oracle():
    rng = np.random.default_rng(8)
    sums = rng.integers(0, 6375, (90, 120)).astype(np.int64)
    # a 2-value alphabet makes many tests compare equal sums (bit clear)
    sums[:45] = rng.integers(0, 2, (45, 120))
    pattern = rng.integers(-15, 16, (256, 4)).astype(np.int64)
    xs = rng.integers(16, 103, 40)
    ys = rng.integers(16, 73, 40)
    # int16 holds every 5x5 box sum of 8-bit pixels
    for plane in (sums, sums.astype(np.int16)):
        got = _kernels.brief_descriptors(plane, xs, ys, pattern)
        assert got.dtype == np.uint8 and got.shape == (40, 32)
        assert np.array_equal(got, brief_reference(sums, xs, ys, pattern))
    none = _kernels.brief_descriptors(sums, xs[:0], ys[:0], pattern)
    assert none.dtype == np.uint8 and none.shape == (0, 32)


def test_brief_rejects_pattern_outside_the_plane():
    # flat indexing would read a neighbouring row off a side of the plane
    from dynafeat.frontend import descriptor_pattern
    pattern = descriptor_pattern(42)
    sums = np.zeros((90, 120), np.int16)
    with pytest.raises(ValueError, match="outside the plane"):
        _kernels.brief_descriptors(sums, np.array([0]), np.array([0]), pattern)
    # the corners nearest each side whose tests all stay on the plane, and
    # one pixel further out
    x_lo, y_lo = -pattern[:, 0::2].min(), -pattern[:, 1::2].min()
    x_hi, y_hi = 119 - pattern[:, 0::2].max(), 89 - pattern[:, 1::2].max()
    _kernels.brief_descriptors(sums, np.array([x_lo, x_hi]), np.array([y_lo, y_hi]), pattern)
    for x, y in ((x_lo - 1, y_lo), (x_hi + 1, y_lo), (x_lo, y_lo - 1), (x_lo, y_hi + 1)):
        with pytest.raises(ValueError, match="outside the plane"):
            _kernels.brief_descriptors(sums, np.array([40, x]), np.array([40, y]), pattern)


@pytest.mark.parametrize("nbits", [7, 12])
def test_brief_rejects_bit_count_not_a_multiple_of_8(nbits):
    pattern = np.zeros((nbits, 4), np.int64)
    with pytest.raises(ValueError, match="multiple of 8"):
        _kernels.brief_descriptors(np.zeros((8, 8), np.int16), [4], [4], pattern)


def _ragged_groups(rng, n_groups, n_rows):
    cnt = rng.integers(1, 36, n_groups).astype(np.int64)
    cnt[rng.random(n_groups) < 0.1] = 0
    off = np.zeros(n_groups, np.int64)
    np.cumsum(cnt[:-1], out=off[1:])
    mem = rng.permutation(n_rows)[:int(cnt.sum())].astype(np.int64)
    return mem, off, cnt


@pytest.mark.parametrize("chunk_cells", [pytest.param(_kernels._CHUNK_CELLS, id="default"),
                                         pytest.param(1500, id="1500")])
def test_batch_mutual_nn_numpy_matches_oracle(monkeypatch, chunk_cells):
    # a small chunk budget puts every pair in its own chunk
    monkeypatch.setattr(_kernels, "_CHUNK_CELLS", chunk_cells)
    rng = np.random.default_rng(12)
    empty_pairs = full_pairs = 0
    for trial in range(25):
        n_ga = int(rng.integers(1, 7))
        n_gb = int(rng.integers(1, 7))
        # tiny alphabet forces plenty of distance ties; spare rows belong
        # to no group
        desc_a = rng.integers(0, 4, (36 * n_ga + 5, 32), dtype=np.uint8)
        desc_b = rng.integers(0, 4, (36 * n_gb + 5, 32), dtype=np.uint8)
        mem_a, off_a, cnt_a = _ragged_groups(rng, n_ga, desc_a.shape[0])
        mem_b, off_b, cnt_b = _ragged_groups(rng, n_gb, desc_b.shape[0])
        if trial < 4:
            # groups of at most one member, some of them empty
            cnt_a = np.minimum(cnt_a, 1)
            cnt_a[0] = 0
            cnt_b = np.minimum(cnt_b, 1)
            cnt_b[-1] = 0
            off_a[1:] = np.cumsum(cnt_a[:-1])
            off_b[1:] = np.cumsum(cnt_b[:-1])
        # a group of identical descriptors ties every row: zero supports;
        # so does an empty group
        if trial % 3 == 0 and cnt_b[0] > 1:
            desc_b[mem_b[:cnt_b[0]]] = desc_b[mem_b[0]]
        n_pairs = int(rng.integers(1, 40))
        pair_a = rng.integers(0, n_ga, n_pairs).astype(np.int64)
        pair_b = rng.integers(0, n_gb, n_pairs).astype(np.int64)
        scores, ia, ib, dist = _kernels.batch_mutual_nn(
            desc_a, desc_b, mem_a, off_a, cnt_a, mem_b, off_b, cnt_b, pair_a, pair_b)
        # packed with no gap: the supports of pair p follow those of pair
        # p - 1, so each pair's slice ends at the cumulative sum of scores
        assert ia.shape == ib.shape == dist.shape == (int(scores.sum()),)
        for p in range(n_pairs):
            rows_a = mem_a[off_a[pair_a[p]]:][:cnt_a[pair_a[p]]]
            rows_b = mem_b[off_b[pair_b[p]]:][:cnt_b[pair_b[p]]]
            assert _supports(scores, ia, ib, dist, p) == \
                _oracle_supports(desc_a, desc_b, rows_a, rows_b), (trial, p)
            empty_pairs += scores[p] == 0
            full_pairs += scores[p] > 0
    assert empty_pairs > 0 and full_pairs > 0


@pytest.mark.parametrize("scene", [1, 2, 3])
@pytest.mark.parametrize("chunk_pairs", [1, 2])
def test_batch_mutual_nn_odd_chunk_count_matches_oracle(monkeypatch, chunk_pairs, scene):
    # 9 pairs in chunks of 1 or 2 pairs: 9 or 5 chunks, the last one short
    # when 2, on three random scenes of ragged groups
    rng = np.random.default_rng(28 + scene)
    desc_a = rng.integers(0, 4, (150, 32), dtype=np.uint8)
    desc_b = rng.integers(0, 4, (150, 32), dtype=np.uint8)
    mem_a, off_a, cnt_a = _ragged_groups(rng, 4, 150)
    mem_b, off_b, cnt_b = _ragged_groups(rng, 4, 150)
    pair_a = rng.integers(0, 4, 9).astype(np.int64)
    pair_b = rng.integers(0, 4, 9).astype(np.int64)
    block = int(cnt_a[pair_a].max()) * int(cnt_b[pair_b].max())
    monkeypatch.setattr(_kernels, "_CHUNK_CELLS", chunk_pairs * block)
    out = _kernels.batch_mutual_nn(desc_a, desc_b, mem_a, off_a, cnt_a,
                                   mem_b, off_b, cnt_b, pair_a, pair_b)
    for p in range(9):
        rows_a = mem_a[off_a[pair_a[p]]:][:cnt_a[pair_a[p]]]
        rows_b = mem_b[off_b[pair_b[p]]:][:cnt_b[pair_b[p]]]
        assert _supports(*out, p) == _oracle_supports(desc_a, desc_b, rows_a, rows_b), p


def _supports(scores, ia, ib, dist, p):
    """Pair p's (row a, row b, distance) supports from the kernel's packed
    output: the rows up to the cumulative sum of scores through pair p."""
    end = int(scores[:p + 1].sum())
    s = slice(end - int(scores[p]), end)
    return list(zip(ia[s].tolist(), ib[s].tolist(), dist[s].tolist()))


def _oracle_supports(desc_a, desc_b, rows_a, rows_b):
    """The oracle's supports of the group pair with member rows rows_a, rows_b."""
    if not (rows_a.size and rows_b.size):
        return []
    return [(int(rows_a[i]), int(rows_b[j]), m)
            for i, j, m in mutual_nn_reference(desc_a[rows_a], desc_b[rows_b])]


def _tied_rows(ties):
    """``ties`` copies of row x, then one row y: x's matches tie ``ties`` ways."""
    rng = np.random.default_rng(ties)
    x, y = rng.integers(0, 256, (2, 1, 32), dtype=np.uint8)
    return np.concatenate([np.repeat(x, ties, axis=0), y])


@pytest.mark.parametrize("ties", [255, 256, 257, 513])
def test_batch_mutual_nn_counts_every_tie(ties):
    # a minimum tied any number of ways is no unique minimum, on either side,
    # so only y keeps its match; uint8 tie counts read 257 and 513 ties as one
    tied = _tied_rows(ties)
    pair = tied[-2:]     # x, y
    for desc_a, desc_b in ((pair, tied), (tied, pair)):
        out = _kernels.batch_mutual_nn(desc_a, desc_b, *_one_pair(len(desc_a), len(desc_b)))
        want = _oracle_supports(desc_a, desc_b, np.arange(len(desc_a)), np.arange(len(desc_b)))
        assert _supports(*out, 0) == want
        assert len(want) == 1


def test_batch_mutual_nn_counts_ties_in_a_large_group():
    # groups of 258 (257 tied rows and y), 2 (x, y) and 10 random rows per side,
    # every pairing in one call
    rng = np.random.default_rng(257)
    tied = _tied_rows(257)
    desc = np.concatenate([tied, rng.integers(0, 256, (10, 32), dtype=np.uint8)])
    mem = np.concatenate([np.arange(258), [256, 257], np.arange(258, 268)]).astype(np.int64)
    cnt = np.array([258, 2, 10], np.int64)
    off = np.array([0, 258, 260], np.int64)
    pair_a, pair_b = (g.ravel().astype(np.int64) for g in np.indices((3, 3)))
    out = _kernels.batch_mutual_nn(desc, desc, mem, off, cnt, mem, off, cnt, pair_a, pair_b)
    for p, (ga, gb) in enumerate(zip(pair_a.tolist(), pair_b.tolist())):
        rows_a = mem[off[ga]:off[ga] + cnt[ga]]
        rows_b = mem[off[gb]:off[gb] + cnt[gb]]
        assert _supports(*out, p) == _oracle_supports(desc, desc, rows_a, rows_b), (ga, gb)


def _record_workspaces(monkeypatch):
    """Make batch_mutual_nn log the (rows, mb, pairs) of every workspace it
    allocates, and the thread that allocates it; returns the log."""
    log = []
    workspace = _kernels._Workspace

    def record(n_words, rows, mb, pairs, dt):
        log.append((rows, mb, pairs, threading.current_thread()))
        return workspace(n_words, rows, mb, pairs, dt)

    monkeypatch.setattr(_kernels, "_Workspace", record)
    return log


def _tile_scene():
    """7 rows against 5: rows 0 and 6 both equal column 0, so column 0's
    minimum ties across any two row tiles; column 1's unique minimum is row
    5, while row 1, whose own minimum is column 1 at distance 3, comes first."""
    rng = np.random.default_rng(35)
    desc_b = rng.integers(0, 256, (5, 32), dtype=np.uint8)
    desc_a = rng.integers(0, 256, (7, 32), dtype=np.uint8)
    desc_a[[0, 6]] = desc_b[0]
    desc_a[5] = desc_b[1]
    desc_a[1] = desc_b[1]
    desc_a[1, :3] ^= 1
    return desc_a, desc_b


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_row_tiles_merge_column_minima_exactly(monkeypatch, rows):
    # tiles of 1, 2 and 3 rows (the last one short for 2 and 3), and the
    # whole block as one tile
    desc_a, desc_b = _tile_scene()
    monkeypatch.setattr(_kernels, "_CHUNK_CELLS", rows * 5)
    log = _record_workspaces(monkeypatch)
    got = _supports(*_kernels.batch_mutual_nn(desc_a, desc_b, *_one_pair(7, 5)), 0)
    assert [entry[:3] for entry in log] == [(rows, 5, 1)]
    assert got == _oracle_supports(desc_a, desc_b, np.arange(7), np.arange(5))
    # the tie disqualifies column 0; column 1 goes to row 5, not row 1
    assert (5, 1, 0) in got
    assert not [s for s in got if s[1] == 0 or s[0] == 1]


@pytest.mark.parametrize("rows", [1, 100, 258])
def test_row_tiles_count_every_tie(monkeypatch, rows):
    # 257 tied rows against (x, y): in one tile, across three tiles (the
    # last short) and across 257 one-row tiles, x's column counts all 257
    # ties; against 258 tied columns, each row's ties lie in its tile
    tied = _tied_rows(257)
    pair = tied[-2:]
    for desc_a, desc_b in ((tied, pair), (pair, tied)):
        n_a, n_b = len(desc_a), len(desc_b)
        monkeypatch.setattr(_kernels, "_CHUNK_CELLS", rows * n_b)
        out = _kernels.batch_mutual_nn(desc_a, desc_b, *_one_pair(n_a, n_b))
        want = _oracle_supports(desc_a, desc_b, np.arange(n_a), np.arange(n_b))
        assert _supports(*out, 0) == want
        assert len(want) == 1


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_row_tiles_of_many_pairs_match_oracle_on_any_worker_count(monkeypatch, rows):
    # 9 pairs of groups of up to 35 members, each pair a chunk of its own
    # in tiles of `rows` rows, the last one short for 2 and 3; padding rows
    # fill the groups below 35. The kernel has one worker, the calling
    # thread, whatever the number of CPUs.
    rng = np.random.default_rng(46)
    desc_a = rng.integers(0, 4, (150, 32), dtype=np.uint8)
    desc_b = rng.integers(0, 4, (150, 32), dtype=np.uint8)
    mem_a, off_a, cnt_a = _ragged_groups(rng, 4, 150)
    mem_b, off_b, cnt_b = _ragged_groups(rng, 4, 150)
    pair_a = rng.integers(0, 4, 9).astype(np.int64)
    pair_b = rng.integers(0, 4, 9).astype(np.int64)
    ma, mb = int(cnt_a[pair_a].max()), int(cnt_b[pair_b].max())
    assert (ma, mb) == (35, 32)
    monkeypatch.setattr(_kernels, "_CHUNK_CELLS", rows * mb)
    log = _record_workspaces(monkeypatch)
    out = _kernels.batch_mutual_nn(desc_a, desc_b, mem_a, off_a, cnt_a,
                                   mem_b, off_b, cnt_b, pair_a, pair_b)
    # one workspace of one tile for the 9 chunks
    assert [entry[:3] for entry in log] == [(rows, mb, 1)]
    for p in range(9):
        rows_a = mem_a[off_a[pair_a[p]]:][:cnt_a[pair_a[p]]]
        rows_b = mem_b[off_b[pair_b[p]]:][:cnt_b[pair_b[p]]]
        assert _supports(*out, p) == _oracle_supports(desc_a, desc_b, rows_a, rows_b), p


def _square_scene():
    """1,600 pairs of 35-member groups over 1,400 random descriptors."""
    rng = np.random.default_rng(37)
    desc = rng.integers(0, 256, (1400, 32), dtype=np.uint8)
    cnt = np.full(40, 35, np.int64)
    off = np.arange(0, 1400, 35, dtype=np.int64)
    mem = rng.permutation(1400).astype(np.int64)
    pair_a, pair_b = (g.ravel().astype(np.int64) for g in np.indices((40, 40)))
    return desc, mem, off, cnt, pair_a, pair_b


def test_workers_allocate_no_chunk_sized_array(monkeypatch):
    # 1,600 pairs of 35-member groups, 16 chunks: the call allocates one
    # workspace, in the calling thread, and leaves no thread; after that
    # the traced memory grows by the row and column results and numpy's
    # own iteration buffers only, a fixed few hundred kB that is less than
    # one chunk's XOR block (8 B per cell)
    desc, mem, off, cnt, pair_a, pair_b = _square_scene()
    want = _kernels.batch_mutual_nn(desc, desc, mem, off, cnt, mem, off, cnt, pair_a, pair_b)
    log = _record_workspaces(monkeypatch)
    workspace = _kernels._Workspace
    start = []

    def traced_workspace(*args):
        ws = workspace(*args)
        start.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return ws

    monkeypatch.setattr(_kernels, "_Workspace", traced_workspace)
    threads = threading.active_count()
    tracemalloc.start()
    try:
        got = _kernels.batch_mutual_nn(desc, desc, mem, off, cnt, mem, off, cnt, pair_a, pair_b)
        grown = tracemalloc.get_traced_memory()[1] - start[0]
    finally:
        tracemalloc.stop()
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, strict=True)
    step = _kernels._CHUNK_CELLS // (35 * 35)
    assert -(-1600 // step) >= 4
    assert [entry[:3] for entry in log] == [(35, 35, step)]
    assert log[0][3] is threading.current_thread()
    assert threading.active_count() == threads
    assert grown < 8 * _kernels._CHUNK_CELLS, grown


def test_workspaces_are_released_before_the_supports_are_gathered():
    # the same 1,600 pairs: the workspace (about 1.5 MB) goes before the
    # supports are gathered, so the gather does not add to it. The call
    # peaks at 2.14 MB traced; with two workspaces it peaked at 3.99 MB,
    # and at 4.82 MB while they were kept through the gather.
    desc, mem, off, cnt, pair_a, pair_b = _square_scene()
    want = _kernels.batch_mutual_nn(desc, desc, mem, off, cnt, mem, off, cnt, pair_a, pair_b)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = _kernels.batch_mutual_nn(desc, desc, mem, off, cnt, mem, off, cnt, pair_a, pair_b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, strict=True)
    assert peak < 4_400_000, peak


def test_claim_first_numpy_matches_greedy():
    rng = np.random.default_rng(13)
    cases = []
    for _ in range(40):
        n = int(rng.integers(0, 300))
        n_a = int(rng.integers(1, 40))
        n_b = int(rng.integers(1, 40))
        cases.append((rng.integers(0, n_a, n).astype(np.int64),
                      rng.integers(0, n_b, n).astype(np.int64), n_a, n_b))
    # chain (k, k), (k, k + 1), (k + 1, k + 1), ...: each row is blocked by
    # the one before it until that one is dropped, one kept row per round
    m = 400
    chain_a = np.repeat(np.arange(m), 2)[:-1].astype(np.int64)
    chain_b = np.repeat(np.arange(m), 2)[1:].astype(np.int64)
    cases.append((chain_a, chain_b, m, m))
    for ia, ib, n_a, n_b in cases:
        keep = _kernels.claim_first(ia, ib, n_a, n_b)
        assert keep.dtype == np.bool_
        assert keep.tolist() == claim_first_reference(ia, ib)
    assert keep.sum() == m


@pytest.mark.parametrize("rows", [800, 4000, 16000])
def test_claim_first_bounds_its_rounds_on_chains(rows):
    # the chain above takes one round per kept row unbounded; after
    # _CLAIM_ROUNDS the rows left are scanned in order, to the same mask
    ia = np.arange(rows, dtype=np.int64) // 2
    ib = (np.arange(rows, dtype=np.int64) + 1) // 2
    keep, rounds = _kernels._claim_rounds(ia, ib, rows, rows)
    assert rounds == _kernels._CLAIM_ROUNDS
    assert keep.tolist() == claim_first_reference(ia, ib)
    assert keep.sum() == (rows + 1) // 2 > _kernels._CLAIM_ROUNDS


def test_claim_first_scan_alone_matches_greedy(monkeypatch):
    # with no rounds at all, the scan decides every row
    monkeypatch.setattr(_kernels, "_CLAIM_ROUNDS", 0)
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(0, 300))
        ia = rng.integers(0, 30, n).astype(np.int64)
        ib = rng.integers(0, 30, n).astype(np.int64)
        keep, rounds = _kernels._claim_rounds(ia, ib, 30, 30)
        assert rounds == 0
        assert keep.tolist() == claim_first_reference(ia, ib)


def _one_pair(n_a, n_b):
    one = np.zeros(1, np.int64)
    return (np.arange(n_a, dtype=np.int64), one, np.array([n_a], np.int64),
            np.arange(n_b, dtype=np.int64), one, np.array([n_b], np.int64), one, one)


def test_mutual_nn_distances_are_popcounts():
    a = np.array([[0x00, 0xFF, 0x0F, 0x00, 0, 0, 0, 0]], np.uint8)
    b = np.array([[0x00, 0x00, 0x0F, 0x00, 0, 0, 0, 0]], np.uint8)
    scores, ia, ib, dist = _kernels.batch_mutual_nn(a, b, *_one_pair(1, 1))
    assert scores.tolist() == [1]
    assert (ia[0], ib[0], dist[0]) == (0, 0, 8)


def test_batch_mutual_nn_rejects_unequal_widths():
    # 256-bit rows against 512-bit rows: comparing a prefix would report
    # distances of the first 4 words only
    a = np.zeros((3, 32), np.uint8)
    b = np.zeros((3, 64), np.uint8)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="matching widths"):
            _kernels.batch_mutual_nn(x, y, *_one_pair(3, 3))

