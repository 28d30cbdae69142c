"""Search-region prediction, candidate intersection and state advance."""

import numpy as np
import pytest

from dynafeat.errors import FeatureFileError
from dynafeat.frontend import FrameFeatures, load_features
from dynafeat.grouping import FeatureGroup
from dynafeat.matching import GroupMatch
from dynafeat.tracking import advance, bootstrap, intersect_candidates, predict

from oracles import advance_reference, overlap_pairs_reference


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
    return bootstrap(_dummy_features(frame_index), groups, margin)


def _predict_one(group, displacement, age, margin=30.0):
    return predict(_dummy_features(), [group], np.array([displacement], float),
                   np.array([age]), margin)


def _center_half(state, slot=0):
    lo, hi = state.region_lo[slot], state.region_hi[slot]
    return (lo + hi) / 2.0, (hi - lo) / 2.0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_static_group_region_is_bbox_plus_margin():
    state = _predict_one(_group(100.0, 100.0, 15.0, 15.0), [0.0, 0.0], age=1, margin=30.0)
    center, half = _center_half(state)
    assert np.allclose(center, [100.0, 100.0])
    assert np.allclose(half, [45.0, 45.0])


def test_proxy_shifts_region_center():
    state = _predict_one(_group(100.0, 100.0, 15.0, 15.0), [12.0, -3.0], age=2)
    center, _ = _center_half(state)
    assert np.allclose(center, [112.0, 97.0])


def test_missing_proxy_predicts_standing_still():
    state = _predict_one(_group(250.0, 120.0, 10.0, 8.0), [0.0, 0.0], age=0, margin=30.0)
    center, half = _center_half(state)
    assert np.allclose(center, [250.0, 120.0])
    assert np.allclose(half, [40.0, 38.0])
    assert state.proxies.size == 0


def test_region_validation(tmp_path):
    with pytest.raises(ValueError):
        _predict_one(_group(0, 0, 5, 5), [0.0, 0.0], age=0, margin=0.0)
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
    assert intersect_candidates([curr], state).tolist() == [[0, 0]]


def test_outside_region_yields_no_pairs():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)], margin=30.0)
    # bootstrap doubles the margin: half extent 75, so keep 200 px away
    curr = _group(400.0, 400.0, 10.0, 10.0)
    assert intersect_candidates([curr], state).shape == (0, 2)


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
    got = intersect_candidates(curr_groups, state).tolist()
    assert got == sorted(got)
    regions = [tuple(lo) + tuple(hi)
               for lo, hi in zip(state.region_lo.tolist(), state.region_hi.tolist())]
    boxes = [(g.bbox_min[0], g.bbox_min[1], g.bbox_max[0], g.bbox_max[1])
             for g in curr_groups]
    assert set(map(tuple, got)) == overlap_pairs_reference(regions, boxes)


def test_closed_interval_boundary_touch_counts():
    state = _state([_group(100.0, 100.0, 10.0, 10.0)], margin=30.0)
    # bootstrap margin is doubled: region spans x in [30, 170]
    curr = _group(180.0, 100.0, 10.0, 10.0)  # bbox starts exactly at 170
    assert intersect_candidates([curr], state).tolist() == [[0, 0]]
    curr_out = _group(180.0 + 1e-9, 100.0, 10.0, 10.0)
    assert intersect_candidates([curr_out], state).shape == (0, 2)


# ---------------------------------------------------------------------------
# advance / bootstrap
# ---------------------------------------------------------------------------

def _match(gp, gc):
    z = np.zeros(0, np.int64)
    return GroupMatch(group_prev=gp, group_curr=gc, sup_a=z, sup_b=z, sup_dist=z)


def test_no_accepted_matches_means_full_rebirth():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    curr = [_group(300.0, 50.0, 15.0, 15.0)]
    nxt = advance(state, _dummy_features(1), curr, [])
    assert nxt.proxies.size == 0
    assert len(nxt.groups) == 1
    assert nxt.region_lo.shape == nxt.region_hi.shape == (1, 2)
    assert nxt.displacement.tolist() == [[0.0, 0.0]] and nxt.age.tolist() == [0]


def test_displacement_is_centroid_difference():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    curr = [_group(110.0, 98.0, 15.0, 15.0)]
    nxt = advance(state, _dummy_features(1), curr, [_match(0, 0)])
    assert np.allclose(nxt.displacement[0], [10.0, -2.0])
    assert nxt.age[0] == 1
    assert nxt.proxies.tolist() == [0]


def test_first_listed_partner_wins():
    # the list is best first, so whichever partner comes first continues
    state = _state([_group(100.0, 100.0, 15.0, 15.0),
                    _group(200.0, 100.0, 15.0, 15.0)])
    curr = [_group(130.0, 100.0, 15.0, 15.0)]
    nxt = advance(state, _dummy_features(1), curr, [_match(0, 0), _match(1, 0)])
    assert np.allclose(nxt.displacement[0], [30.0, 0.0])
    nxt = advance(state, _dummy_features(1), curr, [_match(1, 0), _match(0, 0)])
    assert np.allclose(nxt.displacement[0], [-70.0, 0.0])


def test_age_increments_while_continuously_matched():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    ages = []
    for step in range(1, 4):
        curr = [_group(100.0 + 5.0 * step, 100.0, 15.0, 15.0)]
        state = advance(state, _dummy_features(step), curr, [_match(0, 0)])
        ages.append(int(state.age[0]))
    assert ages == [1, 2, 3]


def test_unknown_group_ids_rejected():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    curr = [_group(100.0, 100.0, 15.0, 15.0)]
    for gp, gc in ((9, 0), (0, 9), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            advance(state, _dummy_features(1), curr, [_match(gp, gc)])


def test_advance_is_deterministic():
    state = _state([_group(100.0, 100.0, 15.0, 15.0)])
    curr = [_group(108.0, 103.0, 15.0, 15.0)]
    a = advance(state, _dummy_features(1), curr, [_match(0, 0)])
    b = advance(state, _dummy_features(1), curr, [_match(0, 0)])
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
        state = advance(state, _dummy_features(step), curr,
                        [_match(gp, gc) for gp, gc, _, _ in accepted])
        assert np.array_equal(state.displacement, want_disp)
        assert np.array_equal(state.age, ref_age)
        assert state.proxies.tolist() == np.flatnonzero(ref_age).tolist()
        groups = curr


def test_bootstrap_empty_frame():
    state = bootstrap(_dummy_features(0, count=0), [])
    assert state.groups == [] and state.region_lo.shape == (0, 2)
    assert state.proxies.size == 0


def test_bootstrap_doubles_margin():
    state = bootstrap(_dummy_features(0), [_group(100.0, 100.0, 15.0, 15.0)], margin=30.0)
    assert np.allclose(_center_half(state)[1], [75.0, 75.0])


def test_bootstrap_one_region_per_group():
    groups = [_group(50.0 * i + 50.0, 100.0, 10.0, 10.0) for i in range(6)]
    state = bootstrap(_dummy_features(0), groups)
    assert state.region_lo.shape == state.region_hi.shape == (len(groups), 2)
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
        groups = [group_features(fr, cfg).groups for fr in frames]
        if not groups[0] or not groups[1]:
            continue
        first = bootstrap(frames[0], groups[0])
        state = predict(first.features, first.groups, first.displacement, first.age, 30.0)
        pairs = intersect_candidates(groups[1], state)
        assert len(pairs) <= len(groups[0]) * len(groups[1])
        ratios.append(len(pairs) / len(groups[1]))
    assert ratios
    assert float(np.mean(ratios)) <= 6.0
