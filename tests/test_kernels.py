"""Kernel checks: every kernel must match its brute-force oracle bit for
bit."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dynafeat import _kernels
from oracles import (brief_reference, claim_first_reference, fast_response_reference,
                     mutual_nn_reference)


def _record_parts(monkeypatch):
    """Make the kernels log the parts of every split call; returns the log."""
    log = []
    run_parts = _kernels._run_parts
    monkeypatch.setattr(_kernels, "_run_parts",
                        lambda fn, parts: log.append(parts) or run_parts(fn, parts))
    return log


def test_run_parts_keeps_part_order_and_raises_the_first_error():
    threads = threading.active_count()
    ran = {}

    def square(k):
        ran[k] = threading.current_thread()
        return k * k

    assert _kernels._run_parts(square, [0, 1, 2, 3]) == [0, 1, 4, 9]
    # the first part runs in the calling thread, the others in their own
    assert ran[0] is threading.current_thread()
    assert len({id(t) for t in ran.values()}) == 4

    def fail_after_first(k):
        if k:
            raise ValueError(f"part {k}")
        return k

    # an error in a later part reaches the caller, the first in part order
    with pytest.raises(ValueError, match="part 1"):
        _kernels._run_parts(fail_after_first, [0, 1, 2])
    assert threading.active_count() == threads


def test_split_kernels_under_fast_thread_switching(monkeypatch):
    # more parts than CPUs, and the interpreter switching threads every
    # 10 us: each kernel must still give its one-part output
    monkeypatch.setattr(_kernels, "_BAND_MIN_PIXELS", 1)
    monkeypatch.setattr(_kernels, "_BRIEF_MIN_CORNERS", 1)
    monkeypatch.setattr(_kernels, "_CHUNK_CELLS", 1)
    rng = np.random.default_rng(31)
    pixels = rng.integers(0, 256, (60, 50), dtype=np.uint8)
    sums = rng.integers(0, 6375, (60, 50)).astype(np.int16)
    pattern = rng.integers(-15, 16, (256, 4)).astype(np.int64)
    xs, ys = rng.integers(16, 34, 40), rng.integers(16, 44, 40)
    desc = rng.integers(0, 4, (200, 32), dtype=np.uint8)
    mem, off, cnt = _ragged_groups(rng, 6, 200)
    pairs = [g.ravel().astype(np.int64) for g in np.indices((6, 6))]

    def run_all():
        return (_kernels.fast_response_map(pixels, 5),
                _kernels.brief_descriptors(sums, xs, ys, pattern),
                *_kernels.batch_mutual_nn(desc, desc, mem, off, cnt, mem, off, cnt, *pairs))

    monkeypatch.setattr(_kernels, "_WORKERS", 1)
    want = run_all()
    monkeypatch.setattr(_kernels, "_WORKERS", 9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            for got, expected in zip(run_all(), want):
                np.testing.assert_array_equal(got, expected, strict=True)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("h", [7, 8, 23, 24, 25, 31])
def test_segment_test_bands_match_oracle(monkeypatch, workers, h):
    # a floor of 24 rows of width 29: 23 rows run in one part, 24 and more
    # in row bands, down to bands of one row at height 8
    w = 29
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    monkeypatch.setattr(_kernels, "_BAND_MIN_PIXELS", (24 if h > 8 else 8) * w)
    log = _record_parts(monkeypatch)
    pixels = np.random.default_rng(h).integers(0, 256, (h, w), dtype=np.uint8)
    got = _kernels.fast_response_map(pixels, 5)
    assert np.array_equal(got, fast_response_reference(pixels, 5))
    # bands of the rows 3..h-4 that can score, counted from row 3
    bands = log[0]
    assert len(bands) == (1 if h in (7, 23) else min(workers, h - 6))
    assert [b[0] for b in bands] + [h - 6] == [0] + [b[1] for b in bands]
    # corners on each row within 3 of a seam, where a band reads its halo
    for seam in [b[1] + 3 for b in bands[:-1]]:
        rows = range(max(3, seam - 3), min(h - 3, seam + 4))
        assert all(got[r].any() for r in rows), seam


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_brief_split_matches_oracle(monkeypatch, workers, n):
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    monkeypatch.setattr(_kernels, "_BRIEF_MIN_CORNERS", 1)
    log = _record_parts(monkeypatch)
    rng = np.random.default_rng(n)
    sums = rng.integers(0, 6375, (60, 70)).astype(np.int16)
    pattern = rng.integers(-15, 16, (256, 4)).astype(np.int64)
    xs = rng.integers(16, 54, n)
    ys = rng.integers(16, 44, n)
    got = _kernels.brief_descriptors(sums, xs, ys, pattern)
    assert got.dtype == np.uint8 and got.shape == (n, 32)
    assert np.array_equal(got, brief_reference(sums, xs, ys, pattern))
    assert [len(parts) for parts in log] == ([min(workers, n)] if n else [])


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
        # the same output whatever the number of shards the chunks split into
        outs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "_WORKERS", workers)
            outs.append(_kernels.batch_mutual_nn(
                desc_a, desc_b, mem_a, off_a, cnt_a, mem_b, off_b, cnt_b, pair_a, pair_b))
        for out in outs[1:]:
            for got, want in zip(out, outs[0]):
                np.testing.assert_array_equal(got, want, strict=True)
        scores, ia, ib, dist = outs[0]
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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("chunk_pairs", [1, 2])
def test_batch_mutual_nn_odd_chunk_count_matches_oracle(monkeypatch, workers, chunk_pairs):
    # 9 pairs in chunks of 1 or 2 pairs: 9 or 5 chunks, the last one short
    # when 2, split into shards of unequal chunk counts
    rng = np.random.default_rng(29)
    desc_a = rng.integers(0, 4, (150, 32), dtype=np.uint8)
    desc_b = rng.integers(0, 4, (150, 32), dtype=np.uint8)
    mem_a, off_a, cnt_a = _ragged_groups(rng, 4, 150)
    mem_b, off_b, cnt_b = _ragged_groups(rng, 4, 150)
    pair_a = rng.integers(0, 4, 9).astype(np.int64)
    pair_b = rng.integers(0, 4, 9).astype(np.int64)
    block = int(cnt_a[pair_a].max()) * int(cnt_b[pair_b].max())
    monkeypatch.setattr(_kernels, "_CHUNK_CELLS", chunk_pairs * block)
    monkeypatch.setattr(_kernels, "_WORKERS", workers)
    parts = _record_parts(monkeypatch)
    out = _kernels.batch_mutual_nn(desc_a, desc_b, mem_a, off_a, cnt_a,
                                   mem_b, off_b, cnt_b, pair_a, pair_b)
    # one shard per worker while each gets 2 chunks or more; the shards
    # hold whole chunks and cover the pairs once, in order
    spans = parts[0]
    assert len(spans) == min(workers, -(-9 // chunk_pairs) // 2)
    assert [s for s, _ in spans] + [9] == [0] + [e for _, e in spans]
    assert all(s % chunk_pairs == 0 and e - s > chunk_pairs for s, e in spans)
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
    # fill the groups below 35
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
    outs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        outs.append(_kernels.batch_mutual_nn(desc_a, desc_b, mem_a, off_a, cnt_a,
                                             mem_b, off_b, cnt_b, pair_a, pair_b))
    # one workspace of one tile per shard, 1, 2 and 3 shards of 9 chunks
    assert [entry[:3] for entry in log] == [(rows, mb, 1)] * 6
    for out in outs[1:]:
        for got, want in zip(out, outs[0]):
            np.testing.assert_array_equal(got, want, strict=True)
    for p in range(9):
        rows_a = mem_a[off_a[pair_a[p]]:][:cnt_a[pair_a[p]]]
        rows_b = mem_b[off_b[pair_b[p]]:][:cnt_b[pair_b[p]]]
        assert _supports(*outs[0], p) == _oracle_supports(desc_a, desc_b, rows_a, rows_b), p


def test_workers_allocate_no_chunk_sized_array(monkeypatch):
    # 1,600 pairs of 35-member groups on 2 workers: the calling thread
    # allocates one workspace per shard before the parts start, and while
    # they run the traced memory grows by the row and column results and
    # numpy's own iteration buffers only, a fixed few hundred kB that is
    # less than one chunk's XOR block (8 B per cell) for both workers
    rng = np.random.default_rng(37)
    desc = rng.integers(0, 256, (1400, 32), dtype=np.uint8)
    cnt = np.full(40, 35, np.int64)
    off = np.arange(0, 1400, 35, dtype=np.int64)
    mem = rng.permutation(1400).astype(np.int64)
    pair_a, pair_b = (g.ravel().astype(np.int64) for g in np.indices((40, 40)))
    monkeypatch.setattr(_kernels, "_WORKERS", 2)
    log = _record_workspaces(monkeypatch)
    grown = []
    run_parts = _kernels._run_parts

    def traced_parts(fn, parts):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return run_parts(fn, parts)
        finally:
            grown.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(_kernels, "_run_parts", traced_parts)
    want = _kernels.batch_mutual_nn(desc, desc, mem, off, cnt, mem, off, cnt, pair_a, pair_b)
    tracemalloc.start()
    try:
        got = _kernels.batch_mutual_nn(desc, desc, mem, off, cnt, mem, off, cnt, pair_a, pair_b)
    finally:
        tracemalloc.stop()
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, strict=True)
    step = _kernels._CHUNK_CELLS // (35 * 35)
    assert [entry[:3] for entry in log] == [(35, 35, step)] * 4
    assert all(entry[3] is threading.main_thread() for entry in log)
    assert len(grown) == 2 and grown[1] < 8 * _kernels._CHUNK_CELLS, grown


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

