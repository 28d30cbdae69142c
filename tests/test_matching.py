"""Mutual-NN matching, pair scoring and inlier deduplication."""

import math

import numpy as np
import pytest

from dynafeat.frontend import FrameFeatures
from dynafeat.grouping import GroupingConfig, group_features
from dynafeat.matching import match_frame_pair, mutual_nn_match, score_group_pair
from dynafeat.stats import support_threshold

from oracles import mutual_nn_reference


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
    cfg = GroupingConfig(window=2000.0, min_group=1, max_group=100, max_bbox_side=2000.0)
    gp = group_features(prev, cfg).groups[0]
    gc = group_features(curr, cfg).groups[0]
    return gp, prev, gc, curr


# ---------------------------------------------------------------------------
# mutual_nn_match
# ---------------------------------------------------------------------------

def test_identical_sets_match_one_to_one():
    rng = np.random.default_rng(4)
    descs = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(5)]
    prev = _frame_from_descriptors(descs)
    curr = _frame_from_descriptors(descs, frame_index=1)
    matches = mutual_nn_match(prev, curr)
    assert len(matches) == 5
    for m in matches:
        assert m.feature_a == m.feature_b
        assert m.distance == 0.0


def test_distance_tie_disqualifies():
    rng = np.random.default_rng(5)
    d = rng.integers(0, 256, 32, dtype=np.uint8)
    tied_1 = _flip_bits(d, [0, 8, 16])
    tied_2 = _flip_bits(d, [32, 40, 48])
    prev = _frame_from_descriptors([d])
    curr = _frame_from_descriptors([tied_1, tied_2], frame_index=1)
    assert mutual_nn_match(prev, curr) == []


@pytest.mark.parametrize("seed", range(20))
def test_matches_equal_bruteforce_oracle(seed):
    rng = np.random.default_rng(seed)
    na, nb = int(rng.integers(1, 25)), int(rng.integers(1, 25))
    prev_desc = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(na)]
    curr_desc = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(nb)]
    if na > 3:  # force tie candidates
        prev_desc[1] = prev_desc[0].copy()
    prev = _frame_from_descriptors(prev_desc)
    curr = _frame_from_descriptors(curr_desc, frame_index=1)
    ours = [(m.feature_a, m.feature_b, int(m.distance)) for m in mutual_nn_match(prev, curr)]
    assert ours == mutual_nn_reference(prev_desc, curr_desc)


def test_mutual_symmetry_property():
    rng = np.random.default_rng(77)
    prev_desc = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(30)]
    curr_desc = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(30)]
    prev = _frame_from_descriptors(prev_desc)
    curr = _frame_from_descriptors(curr_desc, frame_index=1)
    matches = mutual_nn_match(prev, curr)
    seen_a = [m.feature_a for m in matches]
    seen_b = [m.feature_b for m in matches]
    assert len(set(seen_a)) == len(seen_a)
    assert len(set(seen_b)) == len(seen_b)
    rev = {(m.feature_b, m.feature_a) for m in mutual_nn_match(curr, prev)}
    assert all((m.feature_a, m.feature_b) in rev for m in matches)


def test_empty_inputs_rejected():
    prev = _frame_from_descriptors([np.zeros(32, np.uint8)])
    empty = FrameFeatures(1, 640, 480, np.zeros((0, 2)), np.zeros(0),
                          np.zeros((0, 32), np.uint8))
    with pytest.raises(ValueError):
        mutual_nn_match(prev, empty)


def test_metric_kind_mismatch_rejected():
    # matching is Hamming only: float descriptors fail
    a = np.zeros((3, 32), np.uint8)
    b = np.zeros((3, 4), np.float64)
    with pytest.raises(ValueError, match="uint8"):
        mutual_nn_match(b, b)
    with pytest.raises(ValueError, match="uint8"):
        mutual_nn_match(a, b)


# ---------------------------------------------------------------------------
# score_group_pair
# ---------------------------------------------------------------------------

def test_pair_accepted_above_threshold():
    gp, prev, gc, curr = _paired_groups(25, 25, 12)
    gm = score_group_pair(gp, prev, gc, curr)
    assert gm.score == 12
    assert gm.tau == 10.0
    assert gm.accepted
    assert len(gm.supports) == 12


def test_pair_rejected_at_or_below_threshold():
    gp, prev, gc, curr = _paired_groups(25, 25, 9)
    gm = score_group_pair(gp, prev, gc, curr)
    assert gm.score == 9
    assert not gm.accepted
    # strict inequality: a score equal to tau still rejects
    gp, prev, gc, curr = _paired_groups(25, 25, 10)
    gm = score_group_pair(gp, prev, gc, curr)
    assert gm.score == 10 and gm.tau == 10.0
    assert not gm.accepted


def test_threshold_uses_smaller_group():
    gp, prev, gc, curr = _paired_groups(35, 9, 7, seed=3)
    gm = score_group_pair(gp, prev, gc, curr)
    assert gm.tau == pytest.approx(6.0)
    assert gm.score == 7
    assert gm.accepted


def test_score_bounded_by_smaller_group():
    for seed in range(5):
        gp, prev, gc, curr = _paired_groups(20, 12, 11, seed=seed)
        gm = score_group_pair(gp, prev, gc, curr)
        assert gm.score <= min(gp.n, gc.n)


def test_acceptance_reachable_for_all_legal_sizes():
    for n in range(5, 36):
        assert support_threshold(n, 2.0) < n


# ---------------------------------------------------------------------------
# match_frame_pair
# ---------------------------------------------------------------------------

def test_empty_candidates_give_empty_outputs():
    gp, prev, gc, curr = _paired_groups(10, 10, 10)
    accepted, inliers = match_frame_pair([gp], prev, [gc], curr, [])
    assert accepted == [] and len(inliers) == 0


def test_identity_groups_fully_match():
    gp, prev, gc, curr = _paired_groups(10, 10, 10)
    accepted, inliers = match_frame_pair([gp], prev, [gc], curr,
                                         [(gp.group_id, gc.group_id)])
    assert len(accepted) == 1
    assert accepted[0].score == 10
    assert accepted[0].tau == pytest.approx(2.0 * math.sqrt(10.0))
    assert len(inliers) == 10
    assert all(d == 0.0 for d in inliers.distance.tolist())


def test_unknown_candidate_pair_rejected():
    gp, prev, gc, curr = _paired_groups(10, 10, 10)
    with pytest.raises(ValueError):
        match_frame_pair([gp], prev, [gc], curr, [(99, gc.group_id)])


def test_dedup_keeps_highest_scoring_pair():
    rng = np.random.default_rng(8)
    base = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(10)]
    # previous frame: group A holds copies of all 10, group B copies of the
    # first 6 placed far away; current frame: one group with the originals
    prev = _frame_from_descriptors(base + base[:6], spacing=10.0)
    prev.positions[10:, 0] += 400.0
    curr = _frame_from_descriptors(base, spacing=10.0, frame_index=1)
    cfg = GroupingConfig(window=200.0, min_group=1, max_group=100, max_bbox_side=500.0)
    prev_groups = group_features(prev, cfg).groups
    curr_groups = group_features(curr, cfg).groups
    assert len(prev_groups) == 2 and len(curr_groups) == 1
    by_size = sorted(prev_groups, key=lambda g: g.n)
    small, large = by_size[0], by_size[1]
    pairs = [(small.group_id, curr_groups[0].group_id),
             (large.group_id, curr_groups[0].group_id)]
    accepted, inliers = match_frame_pair(prev_groups, prev, curr_groups, curr, pairs)
    assert {gm.group_prev for gm in accepted} == {small.group_id, large.group_id}
    # every emitted match comes from the 10-support group, none from the 6
    assert len(inliers) == 10
    assert all(g == large.group_id for g in inliers.group_prev.tolist())
    # filtering soundness: one match per feature on either side
    assert len(set(inliers.feature_prev.tolist())) == 10
    assert len(set(inliers.feature_curr.tolist())) == 10


def test_inliers_bounded_by_sum_of_scores():
    gp, prev, gc, curr = _paired_groups(20, 20, 15, seed=11)
    accepted, inliers = match_frame_pair([gp], prev, [gc], curr,
                                         [(gp.group_id, gc.group_id)])
    assert len(inliers) <= sum(gm.score for gm in accepted)


def test_adding_support_never_flips_acceptance():
    taus = {}
    for supports in range(5, 21):
        gp, prev, gc, curr = _paired_groups(25, 25, supports, seed=2)
        gm = score_group_pair(gp, prev, gc, curr)
        taus.setdefault(gm.tau, set()).add(gm.accepted)
    for tau, verdicts in taus.items():
        # once accepted at some score, higher scores stay accepted
        assert verdicts in ({True}, {False}, {False, True})
