"""Search-region prediction, candidate intersection and state advance."""

import numpy as np
import pytest

from dynafeat.frontend import FrameFeatures
from dynafeat.grouping import FeatureGroup
from dynafeat.matching import GroupMatch
from dynafeat.tracking import (MotionProxy, SearchRegion, TrackState, advance,
                               bootstrap, intersect_candidates,
                               predict_search_region, recompute_regions)

from oracles import overlap_pairs_reference


def _group(gid, cx, cy, half_w, half_h, n=10):
    return FeatureGroup(group_id=gid, members=np.arange(n), n=n,
                        centroid=np.array([cx, cy], float),
                        bbox_min=np.array([cx - half_w, cy - half_h]),
                        bbox_max=np.array([cx + half_w, cy + half_h]))


def _dummy_features(frame_index=0, count=10):
    return FrameFeatures(frame_index, 640, 480,
                         np.full((count, 2), 100.0), np.zeros(count),
                         np.zeros((count, 32), np.uint8))


def _state(groups, proxies=None, frame_index=0, margin=30.0):
    proxies = proxies or {}
    st = bootstrap(_dummy_features(frame_index), groups, margin)
    if proxies:
        st = TrackState(frame_index=st.frame_index, features=st.features,
                        groups=st.groups, proxies=proxies, regions=st.regions)
        st = recompute_regions(st, margin)
    return st


# ---------------------------------------------------------------------------
# predict_search_region
# ---------------------------------------------------------------------------

def test_static_group_region_is_bbox_plus_margin():
    g = _group(0, 100.0, 100.0, 15.0, 15.0)
    region = predict_search_region(g, MotionProxy(np.zeros(2), age=1), margin=30.0)
    assert np.allclose(region.center, [100.0, 100.0])
    assert np.allclose(region.half_extent, [45.0, 45.0])


def test_proxy_shifts_region_center():
    g = _group(0, 100.0, 100.0, 15.0, 15.0)
    region = predict_search_region(g, MotionProxy(np.array([12.0, -3.0]), age=2))
    assert np.allclose(region.center, [112.0, 97.0])


def test_missing_proxy_predicts_standing_still():
    g = _group(0, 250.0, 120.0, 10.0, 8.0)
    region = predict_search_region(g, None, margin=30.0)
    assert np.allclose(region.center, [250.0, 120.0])
    assert np.allclose(region.half_extent, [40.0, 38.0])


def test_region_validation():
    with pytest.raises(ValueError):
        SearchRegion(center=np.zeros(2), half_extent=np.array([0.0, 5.0]))
    with pytest.raises(ValueError):
        predict_search_region(_group(0, 0, 0, 5, 5), None, margin=0.0)
    with pytest.raises(ValueError):
        MotionProxy(np.array([np.nan, 0.0]), age=0)


# ---------------------------------------------------------------------------
# intersect_candidates
# ---------------------------------------------------------------------------

def test_exact_cover_yields_one_pair():
    prev = _group(0, 100.0, 100.0, 15.0, 15.0)
    state = _state([prev])
    curr = _group(5, 100.0, 100.0, 10.0, 10.0)
    assert intersect_candidates([curr], state) == [(0, 5)]


def test_outside_region_yields_no_pairs():
    prev = _group(0, 100.0, 100.0, 15.0, 15.0)
    state = _state([prev], margin=30.0)
    # bootstrap doubles the margin: half extent 75, so keep 200 px away
    curr = _group(5, 400.0, 400.0, 10.0, 10.0)
    assert intersect_candidates([curr], state) == []


@pytest.mark.parametrize("seed", range(10))
def test_random_instances_match_overlap_oracle(seed):
    rng = np.random.default_rng(seed)
    margin = 30.0
    prev_groups = []
    for gid in range(50):
        cx, cy = rng.uniform(0, 600, 2)
        hw, hh = rng.uniform(3, 40, 2)
        prev_groups.append(_group(gid, cx, cy, hw, hh))
    state = _state(prev_groups, margin=margin)
    curr_groups = []
    for gid in range(50):
        cx, cy = rng.uniform(0, 600, 2)
        hw, hh = rng.uniform(3, 40, 2)
        curr_groups.append(_group(gid, cx, cy, hw, hh))
    got = set(intersect_candidates(curr_groups, state))
    regions = []
    for g in prev_groups:
        r = state.regions[g.group_id]
        regions.append((r.center[0] - r.half_extent[0], r.center[1] - r.half_extent[1],
                        r.center[0] + r.half_extent[0], r.center[1] + r.half_extent[1]))
    boxes = [(g.bbox_min[0], g.bbox_min[1], g.bbox_max[0], g.bbox_max[1])
             for g in curr_groups]
    assert got == overlap_pairs_reference(regions, boxes)


def test_closed_interval_boundary_touch_counts():
    prev = _group(0, 100.0, 100.0, 10.0, 10.0)
    state = _state([prev], margin=30.0)
    # bootstrap margin is doubled: region spans x in [30, 170]
    curr = _group(1, 180.0, 100.0, 10.0, 10.0)  # bbox starts exactly at 170
    assert intersect_candidates([curr], state) == [(0, 1)]
    curr_out = _group(2, 180.0 + 1e-9, 100.0, 10.0, 10.0)
    assert intersect_candidates([curr_out], state) == []


# ---------------------------------------------------------------------------
# advance / bootstrap
# ---------------------------------------------------------------------------

def _match(gp, gc, score):
    return GroupMatch(group_prev=gp, group_curr=gc, score=score,
                      tau=0.0, accepted=True)


def test_no_accepted_matches_means_full_rebirth():
    state = _state([_group(0, 100.0, 100.0, 15.0, 15.0)])
    curr = [_group(3, 300.0, 50.0, 15.0, 15.0)]
    nxt = advance(state, _dummy_features(1), curr, [])
    assert nxt.proxies == {}
    assert [g.group_id for g in nxt.groups] == [3]
    assert set(nxt.regions) == {3}


def test_displacement_is_centroid_difference():
    state = _state([_group(0, 100.0, 100.0, 15.0, 15.0)])
    curr = [_group(1, 110.0, 98.0, 15.0, 15.0)]
    nxt = advance(state, _dummy_features(1), curr, [_match(0, 1, 9)])
    assert np.allclose(nxt.proxies[1].displacement, [10.0, -2.0])
    assert nxt.proxies[1].age == 1


def test_best_score_partner_wins():
    state = _state([_group(0, 100.0, 100.0, 15.0, 15.0),
                    _group(1, 200.0, 100.0, 15.0, 15.0)])
    curr = [_group(7, 130.0, 100.0, 15.0, 15.0)]
    nxt = advance(state, _dummy_features(1), curr,
                  [_match(0, 7, 12), _match(1, 7, 8)])
    assert np.allclose(nxt.proxies[7].displacement, [30.0, 0.0])


def test_equal_scores_tie_to_lower_prev_id():
    state = _state([_group(0, 100.0, 100.0, 15.0, 15.0),
                    _group(1, 200.0, 100.0, 15.0, 15.0)])
    curr = [_group(7, 130.0, 100.0, 15.0, 15.0)]
    nxt = advance(state, _dummy_features(1), curr,
                  [_match(1, 7, 9), _match(0, 7, 9)])
    assert np.allclose(nxt.proxies[7].displacement, [30.0, 0.0])


def test_age_increments_while_continuously_matched():
    state = _state([_group(0, 100.0, 100.0, 15.0, 15.0)])
    ages = []
    for step in range(1, 4):
        curr = [_group(step, 100.0 + 5.0 * step, 100.0, 15.0, 15.0)]
        state = advance(state, _dummy_features(step), curr,
                        [_match(step - 1, step, 10)])
        ages.append(state.proxies[step].age)
    assert ages == [1, 2, 3]


def test_unknown_group_ids_rejected():
    state = _state([_group(0, 100.0, 100.0, 15.0, 15.0)])
    curr = [_group(1, 100.0, 100.0, 15.0, 15.0)]
    with pytest.raises(ValueError):
        advance(state, _dummy_features(1), curr, [_match(9, 1, 5)])
    with pytest.raises(ValueError):
        advance(state, _dummy_features(1), curr, [_match(0, 9, 5)])


def test_advance_is_deterministic():
    state = _state([_group(0, 100.0, 100.0, 15.0, 15.0)])
    curr = [_group(1, 108.0, 103.0, 15.0, 15.0)]
    a = advance(state, _dummy_features(1), curr, [_match(0, 1, 7)])
    b = advance(state, _dummy_features(1), curr, [_match(0, 1, 7)])
    assert np.allclose(a.proxies[1].displacement, b.proxies[1].displacement)
    assert a.frame_index == b.frame_index == 1


def test_bootstrap_empty_frame():
    state = bootstrap(_dummy_features(0, count=0), [])
    assert state.groups == [] and state.regions == {} and state.proxies == {}


def test_bootstrap_doubles_margin():
    g = _group(0, 100.0, 100.0, 15.0, 15.0)
    state = bootstrap(_dummy_features(0), [g], margin=30.0)
    assert np.allclose(state.regions[0].half_extent, [75.0, 75.0])


def test_bootstrap_one_region_per_group():
    groups = [_group(i, 50.0 * i + 50.0, 100.0, 10.0, 10.0) for i in range(6)]
    state = bootstrap(_dummy_features(0), groups)
    assert len(state.regions) == len(groups)
    assert set(state.regions) == {g.group_id for g in groups}


def test_candidate_count_stays_small_on_uniform_scenes():
    # efficiency smoke check with the default margin; uniformly scattered
    # features give sparse groups, so each current group should intersect
    # few regions (observed mean 0.89 over these seeds, bound 6)
    from dynafeat.frontend import FrameFeatures
    from dynafeat.grouping import GroupingConfig, group_features

    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        frames = []
        for f in range(2):
            n = 400
            pos = np.column_stack([rng.uniform(20, 619, n), rng.uniform(20, 459, n)])
            frames.append(FrameFeatures(f, 640, 480, pos, np.zeros(n),
                                        rng.integers(0, 256, (n, 32), dtype=np.uint8)))
        cfg = GroupingConfig(rng_seed=seed)
        groups = [group_features(fr, cfg).groups for fr in frames]
        if not groups[0] or not groups[1]:
            continue
        state = recompute_regions(bootstrap(frames[0], groups[0]), 30.0)
        pairs = intersect_candidates(groups[1], state)
        assert len(pairs) <= len(groups[0]) * len(groups[1])
        ratios.append(len(pairs) / len(groups[1]))
    assert ratios
    assert float(np.mean(ratios)) <= 6.0
