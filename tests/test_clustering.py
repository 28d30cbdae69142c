"""Grouping: membership labels, caps and oracle equivalence."""

import math

import numpy as np
import pytest

from dynafeat.frontend import FrameFeatures
from dynafeat.config import PipelineConfig
from dynafeat.grouping import group_features
from dynafeat.synthetic import generate_sequence, make_cluster_scene

from oracles import region_grow_reference


def _frame(positions, width=640, height=480):
    positions = np.asarray(positions, float).reshape(-1, 2)
    n = positions.shape[0]
    return FrameFeatures(0, width, height, positions, np.zeros(n),
                         np.zeros((n, 32), np.uint8))


def _random_frame(seed, max_count=500, width=640, height=480):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, max_count + 1))
    pos = np.column_stack([rng.uniform(20, width - 21, n),
                           rng.uniform(20, height - 21, n)])
    return _frame(pos, width, height)


# ---------------------------------------------------------------------------
# group_features
# ---------------------------------------------------------------------------

def test_two_clusters_seed_invariant():
    frame = _frame([(0.0, 0.0), (10.0, 10.0), (100.0, 100.0)], 640, 480)
    for seed in range(10):
        cfg = PipelineConfig(window=30, min_group=1, max_group=35, seed=seed)
        result = group_features(frame, cfg)
        parts = sorted(sorted(g.members.tolist()) for g in result.groups)
        assert parts == [[0, 1], [2]]


def test_below_min_group_discarded():
    frame = _frame([(50.0, 50.0), (51.0, 50.0), (52.0, 53.0), (54.0, 54.0)])
    result = group_features(frame, PipelineConfig())
    assert result.groups == []
    assert result.labels.tolist() == [-1] * 4
    assert all(result.labels[i] == -1 for i in range(4))


def test_empty_frame_gives_empty_output():
    result = group_features(_frame(np.zeros((0, 2))), PipelineConfig())
    assert result.groups == []


@pytest.mark.parametrize("field", ["window", "max_bbox_side"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_sizes_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        PipelineConfig(**{field: value})


def test_partition_matches_replay_oracle_200_random():
    frame = _random_frame(123, max_count=200)
    cfg = PipelineConfig()
    result = group_features(frame, cfg)
    ref = region_grow_reference(frame.positions, cfg.window, cfg.min_group,
                                cfg.max_group, cfg.max_bbox_side, cfg.seed)
    ours = [g.members.tolist() for g in result.groups]
    assert ours == ref


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_caps_connectivity_and_oracle(seed):
    frame = _random_frame(seed)
    cfg = PipelineConfig(seed=seed * 7 + 1)
    result = group_features(frame, cfg)
    ref = region_grow_reference(frame.positions, cfg.window, cfg.min_group,
                                cfg.max_group, cfg.max_bbox_side, cfg.seed)
    assert [g.members.tolist() for g in result.groups] == ref

    seen = set()
    radius = cfg.window / 2.0
    for g in result.groups:
        members = g.members.tolist()
        assert cfg.min_group <= g.n <= cfg.max_group
        assert not seen.intersection(members)
        seen.update(members)
        side = g.bbox_max - g.bbox_min
        assert side[0] <= cfg.max_bbox_side and side[1] <= cfg.max_bbox_side
        assert (g.bbox_min <= g.centroid).all() and (g.centroid <= g.bbox_max).all()
        # connectivity at Chebyshev radius window/2 over the members
        pos = frame.positions[g.members]
        reached = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            d = np.abs(pos - pos[i]).max(axis=1)
            for j in np.nonzero(d <= radius)[0]:
                if int(j) not in reached:
                    reached.add(int(j))
                    frontier.append(int(j))
        assert len(reached) == g.n


def test_dense_clusters_reach_cap_and_veto_like_oracle():
    # Uniform frames never fill a 35-member group, so dense clusters feed
    # the oracle here: at the default sizes every cluster closes at the
    # member cap; at window 12 the 14 px clusters overflow a 12 px box, so
    # absorptions are vetoed (and a few groups still close at the cap).
    capped = vetoed = 0
    for window, max_bbox_side in ((30.0, 90.0), (12.0, 12.0)):
        for seed in range(3):
            scene = make_cluster_scene(seed=seed, n_clusters=60, points_per_cluster=35,
                                       cluster_radius_px=7.0)
            frame = generate_sequence(scene, seed=seed).frames[0]
            cfg = PipelineConfig(window=window, max_bbox_side=max_bbox_side, seed=seed)
            result = group_features(frame, cfg)
            ref = region_grow_reference(frame.positions, cfg.window, cfg.min_group,
                                        cfg.max_group, cfg.max_bbox_side, cfg.seed)
            assert [g.members.tolist() for g in result.groups] == ref

            pos = frame.positions
            for slot, g in enumerate(result.groups):
                own = pos[g.members]
                assert np.array_equal(g.bbox_min, own.min(axis=0))
                assert np.array_equal(g.bbox_max, own.max(axis=0))
                assert np.array_equal(g.centroid, own.mean(axis=0))
                if g.n == cfg.max_group:
                    capped += 1
                    continue
                # Below the cap the queue ran dry, so every member was popped:
                # a feature of a later group within reach of a member was a
                # candidate while this group grew, and the box vetoed it.
                later = pos[result.labels > slot]
                reach = np.abs(later[:, None] - own[None]).max(axis=2) <= cfg.window / 2.0
                vetoed += int(reach.any(axis=1).sum())
    assert capped > 0
    assert vetoed > 0


def _reach_edge_positions(window, shift):
    """Features whose windows just reach into a neighbour cell.

    Around anchor cells six windows apart, moved by ``shift`` cells: pairs
    at the edge of the window test straddling a vertical edge, a horizontal
    edge and a corner, entered from either side, and a feature on its
    cell's centre lines with such a partner on all four sides. Near the
    origin, whatever ``shift``: features on cell 0's centre line whose
    partner sits a hair below 0, in cell -1, where only rounding makes
    ``|dx| <= window/2`` hold.
    """
    radius = window / 2.0

    def partner(p, step):
        q = p + step * radius
        while abs(q - p) > radius:   # one or two ulps at most
            q = math.nextafter(q, p)
        return q

    pos = []
    for a, (ox, oy) in enumerate([(0.75, 0.3), (0.9, 0.35), (0.3, 0.75), (0.35, 0.9),
                                  (0.8, 0.8), (0.5, 0.5)]):
        x = (shift + 6 * a + 3 + ox) * window
        y = (shift + 6 * a + 5 + oy) * window
        if a < 2:
            pos += [(x, y), (partner(x, 1), y)]
        elif a < 4:
            pos += [(x, y), (x, partner(y, 1))]
        elif a == 4:
            pos += [(x, y), (partner(x, 1), partner(y, 1))]
        else:
            pos += [(x, y), (partner(x, -1), y), (partner(x, 1), y),
                    (x, partner(y, -1)), (x, partner(y, 1))]
    far = 200 * window
    pos += [(radius, far), (-1e-17, far), (far, radius), (far, -1e-17)]
    return pos


@pytest.mark.parametrize("window, shift", [(30.0, 0), (30.0, -150), (7.3, 0), (7.3, -150),
                                           (30.0, 10 ** 8), (7.3, 10 ** 8),
                                           (30.0, 10 ** 12), (0.5, 10 ** 12)])
def test_reach_edges_match_oracle(window, shift):
    frame = _frame(_reach_edge_positions(window, shift))
    for seed in range(6):
        cfg = PipelineConfig(window=window, min_group=2, max_bbox_side=window, seed=seed)
        result = group_features(frame, cfg)
        ref = region_grow_reference(frame.positions, cfg.window, cfg.min_group,
                                    cfg.max_group, cfg.max_bbox_side, cfg.seed)
        assert len(ref) == 8   # every pattern is one group: the edges were reached
        assert [g.members.tolist() for g in result.groups] == ref


@pytest.mark.parametrize("axis", [0, 1])
def test_bbox_veto_edge_matches_oracle(axis):
    # A chain of four features a third of a window apart: a box side of
    # exactly max_bbox_side lets the last one join, one ulp more vetoes it.
    # Over the seeds the growth starts at either end, so the vetoed feature
    # would set a new maximum in some runs and a new minimum in the others.
    for last, sizes in ((130.0, [4]), (math.nextafter(130.0, math.inf), [1, 3])):
        pos = np.full((4, 2), 100.0)
        pos[:, axis] = [100.0, 110.0, 120.0, last]
        frame = _frame(pos)
        vetoed = set()
        for seed in range(12):
            cfg = PipelineConfig(window=30.0, min_group=1, max_bbox_side=30.0, seed=seed)
            result = group_features(frame, cfg)
            ref = region_grow_reference(frame.positions, cfg.window, cfg.min_group,
                                        cfg.max_group, cfg.max_bbox_side, cfg.seed)
            assert [g.members.tolist() for g in result.groups] == ref
            assert sorted(g.n for g in result.groups) == sizes
            vetoed.update(g.members[0] for g in result.groups if g.n == 1)
        assert vetoed == (set() if sizes == [4] else {0, 3})


def test_grouping_deterministic():
    frame = _random_frame(55)
    cfg = PipelineConfig(seed=9)
    a = group_features(frame, cfg)
    b = group_features(frame, cfg)
    assert [g.members.tolist() for g in a.groups] == [g.members.tolist() for g in b.groups]


def test_group_of_retained_and_discarded():
    # one viable cluster and one undersized pair far away
    cluster = [(100.0 + dx, 100.0 + dy) for dx in range(3) for dy in range(2)]
    stragglers = [(400.0, 400.0), (401.0, 401.0)]
    frame = _frame(cluster + stragglers)
    result = group_features(frame, PipelineConfig())
    assert len(result.groups) == 1
    g = result.groups[0]
    assert (result.labels[g.members] == 0).all()
    assert {int(result.labels[i]) for i in g.members} == {0}
    # the discarded pair is consumed but labelled ungrouped
    assert result.labels[len(cluster):].tolist() == [-1, -1]
    assert result.labels[len(cluster)] == -1


def test_set_size_matches_membership():
    seen = 0
    for seed in range(77, 87):
        result = group_features(_random_frame(seed, max_count=300), PipelineConfig())
        for slot, g in enumerate(result.groups):
            assert (result.labels[g.members] == slot).all()
        # each group id (list slot) labels exactly its members; everything else is -1
        sizes = np.bincount(result.labels[result.labels >= 0],
                            minlength=len(result.groups))
        assert sizes.tolist() == [g.n for g in result.groups]
        seen += len(result.groups)
    assert seen > 0


@pytest.mark.parametrize("seed", range(6))
def test_centroid_columns_equal_member_sums_bit_for_bit(seed):
    # clusters of 1 to 35 features, 1000 px apart, each one group; half of
    # them draw x from -0.0, +0.0, subnormals and the smallest normals (the
    # second one all -0.0, whose sum from +0.0 is +0.0), the rest sit at
    # ordinary coordinates where the order of the sum matters
    rng = np.random.default_rng(seed)
    tiny = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -3e-320, 2.2250738585072014e-308])
    sizes = rng.integers(1, 36, 40)
    pos = []
    for k, size in enumerate(sizes.tolist()):
        y = 1000.0 * k + rng.uniform(-4.0, 4.0, size)
        x = rng.choice(tiny, size) if k % 2 else 1000.0 * k + rng.uniform(-4.0, 4.0, size)
        if k == 1:
            x = np.full(size, -0.0)
        pos.append(np.column_stack([x, y]))
    frame = _frame(np.vstack(pos))
    cfg = PipelineConfig(window=30.0, min_group=1, max_group=35, max_bbox_side=30.0, seed=seed)
    result = group_features(frame, cfg)
    assert sorted(result.counts.tolist()) == sorted(sizes.tolist())
    seen_negative_zero = seen_subnormal = False
    for g in range(len(result)):
        members = result.members[result.offsets[g]:result.offsets[g] + result.counts[g]]
        own = frame.positions[members]
        want = own.sum(axis=0) / len(members)
        assert result.centroids[g].tobytes() == want.tobytes()
        seen_negative_zero |= bool(((own == 0) & np.signbit(own)).any())
        seen_subnormal |= bool(((own != 0) & (np.abs(own) < 2.2250738585072014e-308)).any())
    assert seen_negative_zero and seen_subnormal
