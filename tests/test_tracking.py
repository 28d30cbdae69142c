"""Search regions, candidate intersection and state advance."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dynafeat.errors import FeatureFileError
from dynafeat.frontend import FrameFeatures, load_features
from dynafeat.grouping import FeatureGroup
from dynafeat.matching import GroupMatch
from dynafeat.tracking import TrackState, advance, bootstrap, intersect_candidates

from oracles import advance_reference, overlap_pairs_reference
from table_helpers import accepted_pairs, group_table


def _group(cx, cy, half_w, half_h, n=10):
    return FeatureGroup(members=np.arange(n), n=n,
                        centroid=np.array([cx, cy], float),
                        bbox_min=np.array([cx - half_w, cy - half_h]),
                        bbox_max=np.array([cx + half_w, cy + half_h]))


def _dummy_features(frame_index=0, count=10):
    return FrameFeatures(frame_index, 640, 480,
                         np.full((count, 2), 100.0), np.zeros(count),
                         np.zeros((count, 32), np.uint8))


def _state(groups, frame_index=0, margin=30.0):
    return bootstrap(_dummy_features(frame_index), group_table(groups), margin)


def _one_group_state(group, displacement, age, margin=30.0):
    return TrackState(_dummy_features(), group_table([group]), np.array([displacement], float),
                      np.array([age]), margin)


def _assert_region(state, lo, hi):
    """Slot 0's search region is exactly the closed box [lo, hi]: a point
    on each edge is a candidate, a point 1e-9 px beyond it is not."""
    center = [(a + b) / 2.0 for a, b in zip(lo, hi)]
    for axis in (0, 1):
        for edge, step in ((lo[axis], -1e-9), (hi[axis], 1e-9)):
            for probe, want in ((edge, [[0, 0]]), (edge + step, [])):
                x, y = [probe if a == axis else center[a] for a in (0, 1)]
                curr = group_table([_group(x, y, 0.0, 0.0)])
                assert intersect_candidates(curr, state).tolist() == want


# ---------------------------------------------------------------------------
# search regions
# ---------------------------------------------------------------------------

def test_static_group_region_is_bbox_plus_margin():
    state = _one_group_state(_group(100.0, 100.0, 15.0, 15.0), [0.0, 0.0], age=1, margin=30.0)
    # centre (100, 100), half extent 45
    _assert_region(state, [55.0, 55.0], [145.0, 145.0])


def test_proxy_shifts_region_center():
    state = _one_group_state(_group(100.0, 100.0, 15.0, 15.0), [12.0, -3.0], age=2)
    # centre (112, 97)
    _assert_region(state, [67.0, 52.0], [157.0, 142.0])


def test_missing_proxy_predicts_standing_still():
    state = _one_group_state(_group(250.0, 120.0, 10.0, 8.0), [0.0, 0.0], age=0, margin=30.0)
    # centre (250, 120), half extents 40 and 38
    _assert_region(state, [210.0, 82.0], [290.0, 158.0])
    assert state.proxies.size == 0


def test_region_validation(tmp_path):
    for margin in (0.0, math.nan):
        with pytest.raises(ValueError):
            bootstrap(_dummy_features(), group_table([_group(0, 0, 5, 5)]), margin=margin)
    # displacements are centroid differences, finite because a non-finite
    # position fails at load time
    path = tmp_path / "nan.feat"
    path.write_text("DYNAFEAT v1 640 480 256 0\n0 nan 100.0 1.0 " + "00" * 32 + "\n")
    with pytest.raises(FeatureFileError):
        load_features(path)


# ---------------------------------------------------------------------------
# intersect_candidates
# ---------------------------------------------------------------------------

def test_exact_cover_yields_one_pair():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    curr = _group(100.0, 100.0, 10.0, 10.0)
    assert intersect_candidates(group_table([curr]), state).tolist() == [[0, 0]]


def test_outside_region_yields_no_pairs():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)], margin=30.0)
    # bootstrap doubles the margin: half extent 75, so keep 200 px away
    curr = _group(400.0, 400.0, 10.0, 10.0)
    assert intersect_candidates(group_table([curr]), state).shape == (0, 2)


@pytest.mark.parametrize("seed", range(10))
def test_random_instances_match_overlap_oracle(seed):
    rng = np.random.default_rng(seed)
    margin = 30.0
    prev_groups = []
    for _ in range(50):
        cx, cy = rng.uniform(0, 600, 2)
        hw, hh = rng.uniform(3, 40, 2)
        prev_groups.append(_group(cx, cy, hw, hh))
    state = _state(prev_groups, margin=margin)
    curr_groups = []
    for _ in range(50):
        cx, cy = rng.uniform(0, 600, 2)
        hw, hh = rng.uniform(3, 40, 2)
        curr_groups.append(_group(cx, cy, hw, hh))
    got = intersect_candidates(group_table(curr_groups), state).tolist()
    assert got == sorted(got)
    regions = []
    for g, (dx, dy) in zip(state.groups.groups, state.displacement.tolist()):
        cx, cy = g.centroid[0] + dx, g.centroid[1] + dy
        hx = (g.bbox_max[0] - g.bbox_min[0]) / 2.0 + state.margin
        hy = (g.bbox_max[1] - g.bbox_min[1]) / 2.0 + state.margin
        regions.append((cx - hx, cy - hy, cx + hx, cy + hy))
    boxes = [(g.bbox_min[0], g.bbox_min[1], g.bbox_max[0], g.bbox_max[1])
             for g in curr_groups]
    assert set(map(tuple, got)) == overlap_pairs_reference(regions, boxes)


def test_closed_interval_boundary_touch_counts():
    state = _state([_group(100.0, 100.0, 10.0, 10.0)], margin=30.0)
    # bootstrap margin is doubled: region spans x in [30, 170]
    curr = _group(180.0, 100.0, 10.0, 10.0)  # bbox starts exactly at 170
    assert intersect_candidates(group_table([curr]), state).tolist() == [[0, 0]]
    curr_out = _group(180.0 + 1e-9, 100.0, 10.0, 10.0)
    assert intersect_candidates(group_table([curr_out]), state).shape == (0, 2)


# ---------------------------------------------------------------------------
# advance / bootstrap
# ---------------------------------------------------------------------------

def _match(gp, gc):
    z = np.zeros(0, np.int64)
    return GroupMatch(group_prev=gp, group_curr=gc, sup_a=z, sup_b=z, sup_dist=z)


def test_no_accepted_matches_means_full_rebirth():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    curr = group_table([_group(300.0, 50.0, 15.0, 15.0)])
    nxt = advance(state, _dummy_features(1), curr, accepted_pairs([]))
    assert nxt.proxies.size == 0
    assert len(nxt.groups) == 1
    # the newborn group searches around its standing centroid (300, 50)
    _assert_region(nxt, [255.0, 5.0], [345.0, 95.0])
    assert nxt.displacement.tolist() == [[0.0, 0.0]] and nxt.age.tolist() == [0]


def test_displacement_is_centroid_difference():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    curr = group_table([_group(110.0, 98.0, 15.0, 15.0)])
    nxt = advance(state, _dummy_features(1), curr, accepted_pairs([_match(0, 0)]))
    assert np.allclose(nxt.displacement[0], [10.0, -2.0])
    assert nxt.age[0] == 1
    assert nxt.proxies.tolist() == [0]


def test_first_listed_partner_wins():
    # the list is best first, so whichever partner comes first continues
    state = _state([_group(100.0, 100.0, 15.0, 15.0),
                    _group(200.0, 100.0, 15.0, 15.0)])
    curr = group_table([_group(130.0, 100.0, 15.0, 15.0)])
    nxt = advance(state, _dummy_features(1), curr, accepted_pairs([_match(0, 0), _match(1, 0)]))
    assert np.allclose(nxt.displacement[0], [30.0, 0.0])
    nxt = advance(state, _dummy_features(1), curr, accepted_pairs([_match(1, 0), _match(0, 0)]))
    assert np.allclose(nxt.displacement[0], [-70.0, 0.0])


def test_age_increments_while_continuously_matched():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    ages = []
    for step in range(1, 4):
        curr = group_table([_group(100.0 + 5.0 * step, 100.0, 15.0, 15.0)])
        state = advance(state, _dummy_features(step), curr, accepted_pairs([_match(0, 0)]))
        ages.append(int(state.age[0]))
    assert ages == [1, 2, 3]


def test_unknown_group_ids_rejected():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    curr = group_table([_group(100.0, 100.0, 15.0, 15.0)])
    for gp, gc in ((9, 0), (0, 9), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            advance(state, _dummy_features(1), curr, accepted_pairs([_match(gp, gc)]))


def test_advance_is_deterministic():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    curr = group_table([_group(108.0, 103.0, 15.0, 15.0)])
    a = advance(state, _dummy_features(1), curr, accepted_pairs([_match(0, 0)]))
    b = advance(state, _dummy_features(1), curr, accepted_pairs([_match(0, 0)]))
    assert np.allclose(a.displacement, b.displacement)
    assert a.features.frame_index == b.features.frame_index == 1


def _random_groups(rng, count):
    return [_group(*rng.uniform(50, 590, 2), *rng.uniform(3, 40, 2)) for _ in range(count)]


@pytest.mark.parametrize("seed", range(20))
def test_advance_matches_reference_loop(seed):
    # narrow score and distance ranges force ties on both keys; ages carry
    # over three transitions
    rng = np.random.default_rng(seed)
    groups = _random_groups(rng, int(rng.integers(1, 12)))
    state = _state(groups)
    ref_age = np.zeros(len(groups), np.int64)
    for step in range(1, 4):
        curr = _random_groups(rng, int(rng.integers(1, 12)))
        accepted = [(int(rng.integers(len(groups))), int(rng.integers(len(curr))),
                     int(rng.integers(5, 8)), int(rng.integers(0, 3)))
                    for _ in range(int(rng.integers(0, 30)))]
        want_disp, ref_age = advance_reference(
            [g.centroid for g in groups], ref_age, [g.centroid for g in curr], accepted)
        # advance takes the list best first, as score_candidate_pairs ranks it
        accepted.sort(key=lambda t: (-t[2], t[1], t[3], t[0]))
        state = advance(state, _dummy_features(step), group_table(curr),
                        accepted_pairs([_match(gp, gc) for gp, gc, _, _ in accepted]))
        assert np.array_equal(state.displacement, want_disp)
        assert np.array_equal(state.age, ref_age)
        assert state.proxies.tolist() == np.flatnonzero(ref_age).tolist()
        groups = curr


def test_bootstrap_empty_frame():
    state = bootstrap(_dummy_features(0, count=0), group_table([]))
    assert state.groups.groups == []
    curr = group_table([_group(100.0, 100.0, 15.0, 15.0)])
    assert intersect_candidates(curr, state).shape == (0, 2)
    assert state.proxies.size == 0


def test_bootstrap_doubles_margin():
    state = bootstrap(_dummy_features(0), group_table([_group(100.0, 100.0, 15.0, 15.0)]),
                      margin=30.0)
    # half extent 15 + 2 * 30 = 75
    _assert_region(state, [25.0, 25.0], [175.0, 175.0])


def test_bootstrap_one_region_per_group():
    groups = group_table([_group(50.0 * i + 50.0, 100.0, 10.0, 10.0) for i in range(6)])
    state = bootstrap(_dummy_features(0), groups)
    # every slot has a region, and it reaches its own box
    pairs = set(map(tuple, intersect_candidates(groups, state).tolist()))
    assert {(slot, slot) for slot in range(len(groups))} <= pairs
    assert state.displacement.shape == (len(groups), 2) and state.age.shape == (len(groups),)


def test_candidate_count_stays_small_on_uniform_scenes():
    # efficiency smoke check with the default margin; uniformly scattered
    # features give sparse groups, so each current group should intersect
    # few regions (observed mean 0.89 over these seeds, bound 6)
    from dynafeat.config import PipelineConfig
    from dynafeat.grouping import group_features

    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        frames = []
        for f in range(2):
            n = 400
            pos = np.column_stack([rng.uniform(20, 619, n), rng.uniform(20, 459, n)])
            frames.append(FrameFeatures(f, 640, 480, pos, np.zeros(n),
                                        rng.integers(0, 256, (n, 32), dtype=np.uint8)))
        cfg = PipelineConfig(seed=seed)
        groups = [group_features(fr, cfg) for fr in frames]
        if not groups[0] or not groups[1]:
            continue
        first = bootstrap(frames[0], groups[0])
        state = replace(first, margin=30.0)
        pairs = intersect_candidates(groups[1], state)
        assert len(pairs) <= len(groups[0]) * len(groups[1])
        ratios.append(len(pairs) / len(groups[1]))
    assert ratios
    assert float(np.mean(ratios)) <= 6.0
