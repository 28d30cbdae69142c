"""Kernel checks: every kernel must match its brute-force oracle bit for
bit."""

import numpy as np
import pytest

from dynafeat import _kernels
from oracles import brief_reference, claim_first_reference, mutual_nn_reference


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


@pytest.mark.parametrize("chunk_cells", [_kernels._CHUNK_CELLS, 1500])
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
        scores, out_off, ia, ib, dist = _kernels.batch_mutual_nn(
            desc_a, desc_b, mem_a, off_a, cnt_a, mem_b, off_b, cnt_b, pair_a, pair_b)
        # packed: the supports of pair p follow those of pair p - 1
        assert np.array_equal(out_off, np.concatenate([[0], np.cumsum(scores)[:-1]]))
        assert ia.shape == ib.shape == dist.shape == (int(scores.sum()),)
        for p in range(n_pairs):
            rows_a = mem_a[off_a[pair_a[p]]:][:cnt_a[pair_a[p]]]
            rows_b = mem_b[off_b[pair_b[p]]:][:cnt_b[pair_b[p]]]
            assert _supports(scores, out_off, ia, ib, dist, p) == \
                _oracle_supports(desc_a, desc_b, rows_a, rows_b), (trial, p)
            empty_pairs += scores[p] == 0
            full_pairs += scores[p] > 0
    assert empty_pairs > 0 and full_pairs > 0


def _supports(scores, out_off, ia, ib, dist, p):
    """Pair p's (row a, row b, distance) supports from the kernel's packed output."""
    s = slice(int(out_off[p]), int(out_off[p] + scores[p]))
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


def _one_pair(n_a, n_b):
    one = np.zeros(1, np.int64)
    return (np.arange(n_a, dtype=np.int64), one, np.array([n_a], np.int64),
            np.arange(n_b, dtype=np.int64), one, np.array([n_b], np.int64), one, one)


def test_mutual_nn_distances_are_popcounts():
    a = np.array([[0x00, 0xFF, 0x0F, 0x00, 0, 0, 0, 0]], np.uint8)
    b = np.array([[0x00, 0x00, 0x0F, 0x00, 0, 0, 0, 0]], np.uint8)
    scores, out_off, ia, ib, dist = _kernels.batch_mutual_nn(a, b, *_one_pair(1, 1))
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

