"""Mutual-NN matching, pair scoring and inlier deduplication."""

import math
import os

import numpy as np
import pytest

from dynafeat.config import PipelineConfig
from dynafeat.frontend import FrameFeatures
from dynafeat.grouping import FeatureGroup, group_features
from dynafeat.matching import (InlierColumns, dedup_inlier_columns, mutual_nn_match,
                               score_candidate_pairs)
from dynafeat.pipeline import load_frame, run_sequence
from dynafeat.stats import support_threshold
from dynafeat.synthetic import generate_sequence, make_cluster_scene
from dynafeat.tracking import bootstrap, intersect_candidates

from oracles import claim_first_reference, mutual_nn_reference
from table_helpers import group_table


def _flip_bits(desc: np.ndarray, bits) -> np.ndarray:
    out = desc.copy()
    for b in bits:
        out[b // 8] ^= np.uint8(0x80) >> (b % 8)
    return out


def _frame_from_descriptors(descs, spacing=20.0, frame_index=0):
    n = len(descs)
    pos = np.array([[100.0 + spacing * (i % 20), 100.0 + spacing * (i // 20)]
                    for i in range(n)])
    return FrameFeatures(frame_index, 640, 480, pos, np.zeros(n),
                         np.stack(descs).astype(np.uint8))


def _paired_groups(n_prev: int, n_curr: int, n_supports: int, seed: int = 0):
    """Two frames with one group each sharing exactly n_supports mutual
    matches: the first n_supports descriptors are identical pairs, filler
    descriptors on either side point at a copy without being pointed back.
    """
    assert n_supports <= min(n_prev, n_curr)
    rng = np.random.default_rng(seed)
    shared = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(n_supports)]
    filler_prev = _flip_bits(shared[0], range(0, 40, 2))       # 20 bits from shared[0]
    filler_curr = _flip_bits(shared[0], range(100, 160, 2))    # 30 bits, far from filler_prev
    prev_desc = shared + [filler_prev] * (n_prev - n_supports)
    curr_desc = shared + [filler_curr] * (n_curr - n_supports)
    prev = _frame_from_descriptors(prev_desc, frame_index=0)
    curr = _frame_from_descriptors(curr_desc, frame_index=1)
    cfg = PipelineConfig(window=2000.0, min_group=1, max_group=100, max_bbox_side=2000.0)
    gp = group_features(prev, cfg).groups[0]
    gc = group_features(curr, cfg).groups[0]
    return gp, prev, gc, curr


def _supports(gp, prev, gc, curr) -> int:
    """Mutual-NN support count of one group pair, accepted or not."""
    return len(mutual_nn_match(prev.descriptors[gp.members], curr.descriptors[gc.members])[0])


def _score_one(gp, prev, gc, curr, pair=(0, 0)):
    """The accepted rows of one candidate pair of one-group frames."""
    return list(score_candidate_pairs(group_table([gp]), prev, group_table([gc]), curr, [pair]))


def _match_pairs(groups_prev, prev, groups_curr, curr, pairs):
    """The accepted rows and the dedup inliers of candidate pairs of group lists."""
    accepted = score_candidate_pairs(group_table(groups_prev), prev, group_table(groups_curr),
                                     curr, pairs)
    return list(accepted), dedup_inlier_columns(accepted, prev, curr)


# ---------------------------------------------------------------------------
# mutual_nn_match
# ---------------------------------------------------------------------------

def test_identical_sets_match_one_to_one():
    rng = np.random.default_rng(4)
    descs = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(5)]
    prev = _frame_from_descriptors(descs)
    curr = _frame_from_descriptors(descs, frame_index=1)
    ia, ib, dist = mutual_nn_match(prev.descriptors, curr.descriptors)
    assert len(ia) == 5
    assert ia.tolist() == ib.tolist()
    assert dist.tolist() == [0] * 5


def test_distance_tie_disqualifies():
    rng = np.random.default_rng(5)
    d = rng.integers(0, 256, 32, dtype=np.uint8)
    tied_1 = _flip_bits(d, [0, 8, 16])
    tied_2 = _flip_bits(d, [32, 40, 48])
    prev = _frame_from_descriptors([d])
    curr = _frame_from_descriptors([tied_1, tied_2], frame_index=1)
    assert len(mutual_nn_match(prev.descriptors, curr.descriptors)[0]) == 0


@pytest.mark.parametrize("seed", range(20))
def test_matches_equal_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    na, nb = int(rng.integers(1, 25)), int(rng.integers(1, 25))
    prev_desc = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(na)]
    curr_desc = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(nb)]
    if na > 3:  # force tie candidates
        prev_desc[1] = prev_desc[0].copy()
    ia, ib, dist = mutual_nn_match(np.stack(prev_desc), np.stack(curr_desc))
    ours = list(zip(ia.tolist(), ib.tolist(), dist.tolist()))
    assert ours == mutual_nn_reference(prev_desc, curr_desc)


def test_odd_width_rows_match_oracle():
    # 17-byte (136-bit) rows: the kernel pads them to three 64-bit words
    rng = np.random.default_rng(21)
    prev = rng.integers(0, 256, (30, 17), dtype=np.uint8)
    curr = prev[rng.permutation(30)[:24]].copy()
    curr[:, 16] ^= rng.integers(0, 256, 24, dtype=np.uint8)
    curr[:6] = rng.integers(0, 256, (6, 17), dtype=np.uint8)
    prev[1] = prev[0]  # a tied row
    ia, ib, dist = mutual_nn_match(prev, curr)
    ours = list(zip(ia.tolist(), ib.tolist(), dist.tolist()))
    assert len(ours) >= 10
    assert ours == mutual_nn_reference(prev, curr)


def test_mutual_symmetry_property():
    rng = np.random.default_rng(77)
    prev = np.stack([rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(30)])
    curr = np.stack([rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(30)])
    ia, ib, _ = mutual_nn_match(prev, curr)
    assert len(set(ia.tolist())) == len(ia)
    assert len(set(ib.tolist())) == len(ib)
    rb, ra, _ = mutual_nn_match(curr, prev)
    assert set(zip(ia.tolist(), ib.tolist())) <= set(zip(ra.tolist(), rb.tolist()))


def test_empty_inputs_rejected():
    prev = _frame_from_descriptors([np.zeros(32, np.uint8)])
    empty = FrameFeatures(1, 640, 480, np.zeros((0, 2)), np.zeros(0),
                          np.zeros((0, 32), np.uint8))
    with pytest.raises(ValueError):
        mutual_nn_match(prev.descriptors, empty.descriptors)


def test_metric_kind_mismatch_rejected():
    # matching is Hamming only: float descriptors fail
    a = np.zeros((3, 32), np.uint8)
    b = np.zeros((3, 4), np.float64)
    with pytest.raises(ValueError, match="uint8"):
        mutual_nn_match(b, b)
    with pytest.raises(ValueError, match="uint8"):
        mutual_nn_match(a, b)


def test_null_rate_of_unrelated_groups():
    # two unrelated 35-member groups of random 256-bit descriptors: the
    # mutual-NN support count alone mostly clears tau = 2 * sqrt(35) = 11.83
    # (seed 0, 500 trials: mean 15.25, 94.2% above tau), so at this size
    # the threshold rejects few chance pairs
    rng = np.random.default_rng(0)
    scores = np.array([len(mutual_nn_match(rng.integers(0, 256, (35, 32), dtype=np.uint8),
                                           rng.integers(0, 256, (35, 32), dtype=np.uint8))[0])
                       for _ in range(500)])
    tau = support_threshold(35, 2.0)
    assert tau == pytest.approx(2.0 * math.sqrt(35.0))
    assert 14.5 <= scores.mean() <= 16.0
    assert 0.90 <= (scores > tau).mean() <= 0.97


# ---------------------------------------------------------------------------
# score_candidate_pairs: one pair
# ---------------------------------------------------------------------------

def test_pair_accepted_above_threshold():
    gp, prev, gc, curr = _paired_groups(25, 25, 12)
    [gm] = _score_one(gp, prev, gc, curr)
    assert support_threshold(25) == 10.0
    assert len(gm.sup_a) == len(gm.sup_b) == len(gm.sup_dist) == 12


def test_pair_rejected_at_or_below_threshold():
    gp, prev, gc, curr = _paired_groups(25, 25, 9)
    assert _score_one(gp, prev, gc, curr) == []
    assert _supports(gp, prev, gc, curr) == 9
    # strict inequality: a score equal to tau still rejects
    gp, prev, gc, curr = _paired_groups(25, 25, 10)
    assert _supports(gp, prev, gc, curr) == 10
    assert support_threshold(min(gp.n, gc.n), 2.0) == 10.0
    assert _score_one(gp, prev, gc, curr) == []


def test_threshold_uses_smaller_group():
    gp, prev, gc, curr = _paired_groups(35, 9, 7, seed=3)
    # accepted at 7 supports: tau comes from the 9-member group (6.0),
    # not from the 35-member one (11.8)
    [gm] = _score_one(gp, prev, gc, curr)
    assert len(gm.sup_a) == 7


def test_score_bounded_by_smaller_group():
    for seed in range(5):
        gp, prev, gc, curr = _paired_groups(20, 12, 11, seed=seed)
        assert _supports(gp, prev, gc, curr) <= min(gp.n, gc.n)
        for gm in _score_one(gp, prev, gc, curr):
            assert len(gm.sup_a) <= min(gp.n, gc.n)


def test_acceptance_reachable_for_all_legal_sizes():
    for n in range(5, 36):
        assert support_threshold(n, 2.0) < n


def test_adding_support_never_flips_acceptance():
    # once accepted at some support count, higher counts stay accepted
    verdicts = []
    for supports in range(5, 21):
        gp, prev, gc, curr = _paired_groups(25, 25, supports, seed=2)
        verdicts.append(bool(_score_one(gp, prev, gc, curr)))
    assert verdicts == sorted(verdicts)
    assert verdicts[0] is False and verdicts[-1] is True


# ---------------------------------------------------------------------------
# score_candidate_pairs: accepted pairs come back best first
# ---------------------------------------------------------------------------

def _slot_group(frame: FrameFeatures, members) -> FeatureGroup:
    pos = frame.positions[members]
    return FeatureGroup(members=np.asarray(members, np.int64), n=len(members),
                        centroid=pos.mean(axis=0), bbox_min=pos.min(axis=0),
                        bbox_max=pos.max(axis=0))


def _copies_of_one_group(flip_second: bool):
    """Two previous groups of 12 copies of the current group's descriptors;
    the second copy has one bit flipped per descriptor if ``flip_second``."""
    rng = np.random.default_rng(12)
    base = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(12)]
    second = [_flip_bits(d, [7]) for d in base] if flip_second else base
    prev = _frame_from_descriptors(base + second)
    curr = _frame_from_descriptors(base, frame_index=1)
    copies = [_slot_group(prev, range(12)), _slot_group(prev, range(12, 24))]
    return copies, prev, [_slot_group(curr, range(12))], curr


def _ranked(groups_prev, prev, groups_curr, curr, pairs):
    accepted = score_candidate_pairs(group_table(groups_prev), prev, group_table(groups_curr),
                                     curr, pairs)
    return [(gm.group_prev, gm.group_curr, len(gm.sup_a), int(gm.sup_dist.sum()))
            for gm in accepted]


def test_equal_scores_and_distances_rank_lower_prev_slot_first():
    copies, prev, groups_curr, curr = _copies_of_one_group(flip_second=False)
    for pairs in ([(0, 0), (1, 0)], [(1, 0), (0, 0)]):
        assert _ranked(copies, prev, groups_curr, curr, pairs) == [(0, 0, 12, 0), (1, 0, 12, 0)]


def test_equal_scores_rank_smaller_distance_sum_first():
    copies, prev, groups_curr, curr = _copies_of_one_group(flip_second=True)
    for exact in (0, 1):
        groups_prev = copies if exact == 0 else copies[::-1]
        for pairs in ([(0, 0), (1, 0)], [(1, 0), (0, 0)]):
            assert _ranked(groups_prev, prev, groups_curr, curr, pairs) \
                == [(exact, 0, 12, 0), (1 - exact, 0, 12, 12)]


@pytest.mark.parametrize("seed", range(5))
def test_accepted_pairs_equal_per_pair_oracle_best_first(seed):
    scene = make_cluster_scene(seed, frames=2, n_clusters=60, points_per_cluster=25,
                               cluster_radius_px=25.0, trajectory="translate_x", step=0.05,
                               jitter_px=0.5, descriptor_bit_flips=20, outlier_rate=0.3)
    prev, curr = generate_sequence(scene, seed=seed).frames
    cfg = PipelineConfig()
    groups_prev = group_features(prev, cfg).groups
    groups_curr = group_features(curr, cfg).groups
    pairs = [(p, c) for p, gp in enumerate(groups_prev) for c, gc in enumerate(groups_curr)
             if np.hypot(*(gp.centroid - gc.centroid)) <= 60.0]
    want = {}
    for p, c in pairs:
        gp, gc = groups_prev[p], groups_curr[c]
        _, _, dist = mutual_nn_match(prev.descriptors[gp.members],
                                     curr.descriptors[gc.members])
        if len(dist) > support_threshold(min(gp.n, gc.n)):
            want[(p, c)] = (len(dist), int(dist.sum()))
    got = _ranked(groups_prev, prev, groups_curr, curr, pairs)
    assert {(p, c): (score, dist_sum) for p, c, score, dist_sum in got} == want
    keys = [(-score, c, dist_sum, p) for p, c, score, dist_sum in got]
    assert keys == sorted(keys)
    # score ties inside one current group occur, so the later keys decide
    curr_scores = [(c, score) for _, c, score, _ in got]
    assert len(set(curr_scores)) < len(curr_scores)


# ---------------------------------------------------------------------------
# score_candidate_pairs + dedup_inlier_columns
# ---------------------------------------------------------------------------

def test_empty_candidates_give_empty_outputs():
    gp, prev, gc, curr = _paired_groups(10, 10, 10)
    for empty in ([], np.zeros((0, 2), np.int64)):
        accepted, inliers = _match_pairs([gp], prev, [gc], curr, empty)
        assert accepted == [] and len(inliers) == 0


def test_identity_groups_fully_match():
    gp, prev, gc, curr = _paired_groups(10, 10, 10)
    accepted, inliers = _match_pairs([gp], prev, [gc], curr, np.array([[0, 0]]))
    assert len(accepted) == 1
    assert len(accepted[0].sup_a) == 10
    assert len(inliers) == 10
    assert all(d == 0.0 for d in inliers.distance.tolist())


def test_inlier_columns_name_their_frames():
    gp, prev, gc, curr = _paired_groups(10, 10, 10)
    prev.frame_index, curr.frame_index = 4, 9
    for pairs, count in (([], 0), ([[0, 0]], 10)):
        _, inliers = _match_pairs([gp], prev, [gc], curr, pairs)
        assert (inliers.frame_prev, inliers.frame_curr, len(inliers)) == (4, 9, count)


def test_unknown_candidate_pair_rejected():
    gp, prev, gc, curr = _paired_groups(10, 10, 10)
    for pair in ((99, 0), (0, 99), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            _score_one(gp, prev, gc, curr, pair)


def test_dedup_keeps_highest_scoring_pair():
    rng = np.random.default_rng(8)
    base = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(10)]
    # previous frame: group A holds copies of all 10, group B copies of the
    # first 6 placed far away; current frame: one group with the originals
    prev = _frame_from_descriptors(base + base[:6], spacing=10.0)
    prev.positions[10:, 0] += 400.0
    curr = _frame_from_descriptors(base, spacing=10.0, frame_index=1)
    cfg = PipelineConfig(window=200.0, min_group=1, max_group=100, max_bbox_side=500.0)
    prev_groups = group_features(prev, cfg).groups
    curr_groups = group_features(curr, cfg).groups
    assert len(prev_groups) == 2 and len(curr_groups) == 1
    small = min(range(2), key=lambda s: prev_groups[s].n)
    large = 1 - small
    accepted, inliers = _match_pairs(prev_groups, prev, curr_groups, curr,
                                     [(small, 0), (large, 0)])
    assert {gm.group_prev for gm in accepted} == {small, large}
    # every emitted match comes from the 10-support group, none from the 6
    assert len(inliers) == 10
    assert all(g == large for g in inliers.group_prev.tolist())
    # filtering soundness: one match per feature on either side
    assert len(set(inliers.feature_prev.tolist())) == 10
    assert len(set(inliers.feature_curr.tolist())) == 10


def test_inliers_bounded_by_sum_of_scores():
    gp, prev, gc, curr = _paired_groups(20, 20, 15, seed=11)
    accepted, inliers = _match_pairs([gp], prev, [gc], curr, [(0, 0)])
    assert len(inliers) <= sum(len(gm.sup_a) for gm in accepted)


def test_odd_width_sequence_equals_zero_extended_rows():
    # the same 136-bit rows zero-extended to 192 bits add nothing to any
    # distance, so the whole run keeps the same matches
    scene = make_cluster_scene(seed=31, frames=3, trajectory="translate_x", step=0.05,
                               jitter_px=0.3, descriptor_bit_flips=6, outlier_rate=0.1,
                               desc_bits=136)
    frames = generate_sequence(scene, seed=31).frames
    wide = [FrameFeatures(f.frame_index, f.width, f.height, f.positions, f.responses,
                          np.pad(f.descriptors, ((0, 0), (0, 7))), desc_bits=192)
            for f in frames]
    assert frames[0].descriptors.shape[1] == 17
    narrow_run = [p for _, p, _ in run_sequence(PipelineConfig(), frames) if p is not None]
    wide_run = [p for _, p, _ in run_sequence(PipelineConfig(), wide) if p is not None]
    assert len(narrow_run) == len(wide_run) == 2
    assert sum(len(p) for p in narrow_run) > 100
    for a, b in zip(narrow_run, wide_run):
        assert (a.frame_prev, a.frame_curr) == (b.frame_prev, b.frame_curr)
        for name in InlierColumns.__dataclass_fields__:
            x, y = getattr(a, name), getattr(b, name)
            if isinstance(x, FrameFeatures):   # the frames differ in descriptor width only
                x, y = x.positions, y.positions
            assert np.array_equal(x, y), name


def test_accepted_row_views_equal_flat_columns(tmp_path, monkeypatch):
    # the first transition of the seed-301 dense benchmark scene: each
    # GroupMatch row view holds its pair's slots and its slice of the flat
    # supports, and dedup equals the first claim over the rows'
    # supports laid end to end
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import workloads
    workloads.generate(workloads.WORKLOADS["dense7k"], 301, str(tmp_path))
    cfg = PipelineConfig()
    prev, curr = [load_frame(cfg, str(tmp_path / f"frame_{i:06d}.feat"), i) for i in (0, 1)]
    groups_prev, groups_curr = group_features(prev, cfg), group_features(curr, cfg)
    state = bootstrap(prev, groups_prev, cfg.search_margin)
    accepted = score_candidate_pairs(groups_prev, prev, groups_curr, curr,
                                     intersect_candidates(groups_curr, state), k=cfg.k)
    rows = list(accepted)
    assert len(rows) == len(accepted) > 1000
    assert [gm.group_prev for gm in rows] == accepted.group_prev.tolist()
    assert [gm.group_curr for gm in rows] == accepted.group_curr.tolist()
    assert [len(gm.sup_a) for gm in rows] == accepted.scores.tolist()
    assert accepted.ia.shape == (int(accepted.scores.sum()),)
    for gm, end, score in zip(rows, np.cumsum(accepted.scores).tolist(),
                              accepted.scores.tolist()):
        for view, flat in ((gm.sup_a, accepted.ia), (gm.sup_b, accepted.ib),
                           (gm.sup_dist, accepted.dist)):
            assert np.array_equal(view, flat[end - score:end])
    sup_a = np.concatenate([gm.sup_a for gm in rows])
    sup_b = np.concatenate([gm.sup_b for gm in rows])
    keep = np.array(claim_first_reference(sup_a, sup_b))
    inliers = dedup_inlier_columns(accepted, prev, curr)
    assert inliers.feature_prev.tolist() == sup_a[keep].tolist()
    assert inliers.feature_curr.tolist() == sup_b[keep].tolist()
    assert inliers.distance.tolist() == np.concatenate(
        [gm.sup_dist for gm in rows])[keep].astype(float).tolist()
    assert inliers.group_prev.tolist() == np.repeat(
        [gm.group_prev for gm in rows], accepted.scores)[keep].tolist()
    assert inliers.group_curr.tolist() == np.repeat(
        [gm.group_curr for gm in rows], accepted.scores)[keep].tolist()
