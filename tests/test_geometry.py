"""Pose recovery, error metrics and the synthetic generator."""

import math

import numpy as np
import pytest

from dynafeat.errors import (InsufficientDataError, SceneValidationError,
                             UndefinedMetricError)
from dynafeat.geometry import (CameraIntrinsics, PoseEstimate, direction_angle_deg,
                               estimate_essential_ransac, pose_error,
                               pose_success_ratio, reprojection_repeatability,
                               rotation_angle_deg, _decompose_essential,
                               _sampson_distance_px, _triangulate_depths)
from dynafeat.synthetic import (SyntheticScene, default_intrinsics,
                                generate_sequence, make_cluster_scene,
                                make_two_view_points)

from oracles import triangulate_depths_reference


def _axis_rotation(axis, angle_deg):
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    cross = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
    return np.eye(3) * c + s * cross + (1 - c) * np.outer(axis, axis)


# ---------------------------------------------------------------------------
# estimate_essential_ransac
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_noiseless_pose_recovery(seed):
    pa, pb, R, t_dir, K = make_two_view_points(seed, 50)
    est = estimate_essential_ransac(pa, pb, K, rng_seed=seed, adaptive=True)
    assert rotation_angle_deg(est.rotation @ R.T) < 1e-6
    assert direction_angle_deg(est.translation_dir, t_dir) < 1e-6
    assert est.inlier_ratio == 1.0


def test_identity_motion_recovers_identity_rotation():
    pa, _, _, _, K = make_two_view_points(3, 50)
    est = estimate_essential_ransac(pa, pa.copy(), K, rng_seed=0)
    assert rotation_angle_deg(est.rotation) < 1e-6
    # every minimal sample is rank-deficient for a zero baseline
    assert est.degenerate_samples > 0


@pytest.mark.parametrize("seed", range(5))
def test_outlier_rejection(seed):
    pa, pb, R, t_dir, K = make_two_view_points(seed, 50)
    rng = np.random.default_rng(seed + 500)
    n_out = 50
    oa = np.column_stack([rng.uniform(0, 640, n_out), rng.uniform(0, 480, n_out)])
    ob = np.column_stack([rng.uniform(0, 640, n_out), rng.uniform(0, 480, n_out)])
    est = estimate_essential_ransac(np.vstack([pa, oa]), np.vstack([pb, ob]), K,
                                    inlier_threshold=1.0, max_iterations=800,
                                    rng_seed=seed)
    assert est.inlier_mask[:50].sum() >= 0.95 * 50
    assert rotation_angle_deg(est.rotation @ R.T) < 0.5


def test_adaptive_stop_on_pure_noise_runs_every_iteration():
    # an early best sample of random pairs explains 1 of 300 pairs: ratio
    # ** 8 is below the float resolution at 1.0, so the early-stop bound is
    # infinite, and no later best (up to 7 of 300) makes it small
    rng = np.random.default_rng(0)
    a = rng.uniform(0, 640, (300, 2))
    b = rng.uniform(0, 480, (300, 2))
    K = default_intrinsics()
    est = estimate_essential_ransac(a, b, K, adaptive=True)
    full = estimate_essential_ransac(a, b, K)
    assert np.array_equal(est.inlier_mask, full.inlier_mask)


def test_too_few_matches_rejected():
    K = default_intrinsics()
    pts = np.zeros((7, 2))
    with pytest.raises(InsufficientDataError):
        estimate_essential_ransac(pts, pts, K)


def test_ransac_deterministic_per_seed():
    pa, pb, R, t_dir, K = make_two_view_points(2, 60)
    a = estimate_essential_ransac(pa, pb, K, rng_seed=11)
    b = estimate_essential_ransac(pa, pb, K, rng_seed=11)
    assert np.array_equal(a.inlier_mask, b.inlier_mask)
    assert np.allclose(a.rotation, b.rotation)
    assert np.allclose(a.translation_dir, b.translation_dir)


def test_inlier_sampson_distances_within_threshold():
    pa, pb, R, t_dir, K = make_two_view_points(9, 60)
    rng = np.random.default_rng(1)
    pa = pa + rng.normal(0, 0.2, pa.shape)
    pb = pb + rng.normal(0, 0.2, pb.shape)
    threshold = 1.0
    est = estimate_essential_ransac(pa, pb, K, inlier_threshold=threshold, rng_seed=4)
    # rebuild the essential matrix the estimate corresponds to
    t = est.translation_dir
    E = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]]) @ est.rotation
    d = _sampson_distance_px(E, pa, pb, np.linalg.inv(K.matrix))
    assert d[est.inlier_mask].mean() <= threshold


def test_exactly_one_decomposition_passes_cheirality_noiseless():
    pa, pb, R, t_dir, K = make_two_view_points(6, 40)
    est = estimate_essential_ransac(pa, pb, K, rng_seed=0, adaptive=True)
    t = est.translation_dir
    E = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]]) @ est.rotation
    K_inv = np.linalg.inv(K.matrix)
    na = (np.column_stack([pa, np.ones(len(pa))]) @ K_inv.T)[:, :2]
    nb = (np.column_stack([pb, np.ones(len(pb))]) @ K_inv.T)[:, :2]
    winners = 0
    for Rc, tc in _decompose_essential(E):
        z1, z2 = _triangulate_depths(Rc, tc, na, nb)
        if ((z1 > 0) & (z2 > 0)).mean() > 0.99:
            winners += 1
    assert winners == 1


@pytest.mark.parametrize("seed", range(5))
def test_triangulate_depths_equal_per_point_loop(seed):
    # one batched SVD must give the loop's depths bit for bit, for all four
    # decompositions (points in front of and behind either camera)
    pa, pb, _, _, K = make_two_view_points(seed, 60)
    K_inv = np.linalg.inv(K.matrix)
    na = (np.column_stack([pa, np.ones(len(pa))]) @ K_inv.T)[:, :2]
    nb = (np.column_stack([pb, np.ones(len(pb))]) @ K_inv.T)[:, :2]
    nb[:5] = na[:5]  # zero parallax rows
    est = estimate_essential_ransac(pa, pb, K, rng_seed=seed)
    t = est.translation_dir
    E = np.array([[0, -t[2], t[1]], [t[2], 0, -t[0]], [-t[1], t[0], 0]]) @ est.rotation
    for Rc, tc in _decompose_essential(E):
        z1, z2 = _triangulate_depths(Rc, tc, na, nb)
        r1, r2 = triangulate_depths_reference(Rc, tc, na, nb)
        assert np.array_equal(z1, r1) and np.array_equal(z2, r2)


# ---------------------------------------------------------------------------
# pose_error / pose_success_ratio
# ---------------------------------------------------------------------------

def _estimate(R, t):
    return PoseEstimate(rotation=R, translation_dir=t, inlier_count=0,
                        inlier_ratio=0.0, inlier_mask=np.zeros(0, bool))


def test_pose_error_zero_for_exact_estimate():
    R = _axis_rotation([1, 2, 3], 17.0)
    t = np.array([0.3, -0.4, 0.5])
    t = t / np.linalg.norm(t)
    assert pose_error(_estimate(R, t), R, t) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("axis", [[1, 0, 0], [0, 1, 0], [1, 1, 1]])
def test_pose_error_five_degree_rotation(axis):
    gt_R = _axis_rotation([2, -1, 1], 30.0)
    est_R = _axis_rotation(axis, 5.0) @ gt_R
    t = np.array([0.0, 0.0, 1.0])
    assert pose_error(_estimate(est_R, t), gt_R, t) == pytest.approx(5.0, abs=1e-9)


def test_pose_error_translation_sign_invariant():
    R = np.eye(3)
    t = np.array([0.6, 0.0, 0.8])
    assert pose_error(_estimate(R, -t), R, t) == pytest.approx(0.0, abs=1e-12)


def test_pose_error_ignores_direction_for_zero_baseline():
    R = np.eye(3)
    err = pose_error(_estimate(R, np.array([1.0, 0.0, 0.0])), R, np.zeros(3))
    assert err == pytest.approx(0.0, abs=1e-12)


def test_success_ratio_counting():
    assert pose_success_ratio([1.0, 2.0, 3.0], [2.0]) == [(2.0, pytest.approx(2 / 3))]


def test_success_ratio_all_zero_errors():
    curve = pose_success_ratio([0.0, 0.0], [0.1, 1.0, 10.0])
    assert all(ratio == 1.0 for _, ratio in curve)


def test_success_ratio_monotone():
    rng = np.random.default_rng(0)
    errors = rng.uniform(0, 20, 200)
    curve = pose_success_ratio(errors, np.linspace(0, 25, 40))
    ratios = [r for _, r in curve]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------------------
# reprojection repeatability
# ---------------------------------------------------------------------------

def test_repeatability_zero_for_identical_points():
    pts = np.random.default_rng(0).uniform(0, 100, (50, 2))
    rep = reprojection_repeatability(pts, pts.copy(), features_per_frame=100)
    assert rep.mean_l2 == 0.0
    assert rep.per_1000_features == 0.0


def test_repeatability_fixed_offset():
    pts = np.random.default_rng(1).uniform(0, 100, (30, 2))
    rep = reprojection_repeatability(pts, pts + [3.0, 0.0], features_per_frame=500)
    assert rep.mean_l2 == pytest.approx(3.0)
    assert rep.per_1000_features == pytest.approx(6.0)


def test_repeatability_jitter_band():
    # both endpoints jittered with sigma = 0.1 per axis: |delta| is
    # Rayleigh(sigma * sqrt(2)), mean sigma * sqrt(pi) ~ 0.177
    rng = np.random.default_rng(2)
    base = rng.uniform(0, 500, (4000, 2))
    a = base + rng.normal(0, 0.1, base.shape)
    b = base + rng.normal(0, 0.1, base.shape)
    rep = reprojection_repeatability(a, b, features_per_frame=4000)
    assert 0.1 <= rep.mean_l2 <= 0.25


def test_repeatability_empty_is_undefined():
    with pytest.raises(UndefinedMetricError):
        reprojection_repeatability(np.zeros((0, 2)), np.zeros((0, 2)), 10)


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_static_noiseless_frames_identical():
    scene = make_cluster_scene(seed=0, frames=2, trajectory="static")
    seq = generate_sequence(scene, seed=0)
    f0, f1 = seq.frames
    assert np.array_equal(f0.positions, f1.positions)
    assert np.array_equal(f0.descriptors, f1.descriptors)
    pairs = seq.gt_pairs[(0, 1)]
    assert np.array_equal(pairs[:, 0], pairs[:, 1])
    assert len(pairs) == f0.count


def test_fronto_parallel_translation_gives_uniform_flow():
    scene = make_cluster_scene(seed=1, frames=2, trajectory="translate_x",
                               step=0.2, flat_depth=True)
    seq = generate_sequence(scene, seed=0)
    pairs = seq.gt_pairs[(0, 1)]
    flow = (seq.clean_positions[1][pairs[:, 1]]
            - seq.clean_positions[0][pairs[:, 0]])
    assert np.allclose(flow[:, 1], 0.0, atol=1e-9)
    assert np.allclose(flow[:, 0], flow[0, 0], atol=1e-9)
    assert abs(flow[0, 0]) > 1.0  # the camera really moved


def test_generated_pairs_reproject_consistently():
    scene = make_cluster_scene(seed=2, frames=10, n_clusters=12,
                               points_per_cluster=9, trajectory="orbit",
                               step=0.004)
    seq = generate_sequence(scene, seed=3)
    K = scene.intrinsics
    for f in range(scene.frame_count):
        ids = seq.point_ids[f]
        true_rows = np.nonzero(ids >= 0)[0]
        cam = scene.points[ids[true_rows]] @ scene.rotations[f].T + scene.translations[f]
        u = K.fx * cam[:, 0] / cam[:, 2] + K.cx
        v = K.fy * cam[:, 1] / cam[:, 2] + K.cy
        stored = seq.clean_positions[f][true_rows]
        assert np.abs(stored - np.column_stack([u, v])).max() < 1e-9


def test_scene_with_point_behind_camera_rejected():
    K = default_intrinsics()
    points = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, -1.0]])
    desc = np.zeros((2, 32), np.uint8)
    with pytest.raises(SceneValidationError):
        SyntheticScene(points=points, descriptors=desc,
                       rotations=np.eye(3)[None], translations=np.zeros((1, 3)),
                       intrinsics=K)


def _scene_args(**overrides):
    args = dict(points=np.array([[0.0, 0.0, 5.0]]), descriptors=np.zeros((1, 32), np.uint8),
                rotations=np.eye(3)[None], translations=np.zeros((1, 3)),
                intrinsics=default_intrinsics())
    return {**args, **overrides}


@pytest.mark.parametrize("overrides,match", [
    ({"descriptors": np.zeros((1, 16), np.uint8)}, "descriptor table"),
    ({"translations": np.zeros((2, 3))}, "counts differ"),
    ({"width": 300}, "principal point"),
    ({"rotations": 2 * np.eye(3)[None]}, "not orthonormal")],
    ids=["descriptor-width", "trajectory-counts", "principal-point", "rotation"])
def test_scene_validation_raises(overrides, match):
    SyntheticScene(**_scene_args())
    with pytest.raises(SceneValidationError, match=match):
        SyntheticScene(**_scene_args(**overrides))


@pytest.mark.parametrize("desc_bits", [12, 0, 4])
def test_scene_rejects_desc_bits_its_frames_cannot_hold(desc_bits):
    with pytest.raises(SceneValidationError, match="desc_bits not a positive multiple of 8"):
        make_cluster_scene(3, desc_bits=desc_bits)


@pytest.mark.parametrize("call,match", [
    (lambda: CameraIntrinsics(0.0, 500.0, 320.0, 240.0), "focal lengths must be positive"),
    (lambda: reprojection_repeatability(np.zeros((3, 2)), np.zeros((2, 2)), 100.0),
     "matching shapes"),
    (lambda: reprojection_repeatability(np.zeros((3, 2)), np.zeros((3, 2)), 0.0),
     "features_per_frame must be positive"),
    (lambda: estimate_essential_ransac(np.zeros((8, 2)), np.zeros((9, 2)),
                                       default_intrinsics()), "equal length")],
    ids=["focal-length", "repeatability-shapes", "features-per-frame", "unequal-matches"])
def test_geometry_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_generator_deterministic():
    scene = make_cluster_scene(seed=5, frames=3, jitter_px=0.2,
                               descriptor_bit_flips=4, outlier_rate=0.1)
    a = generate_sequence(scene, seed=9)
    b = generate_sequence(scene, seed=9)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.positions, fb.positions)
        assert np.array_equal(fa.descriptors, fb.descriptors)


@pytest.mark.parametrize("seed", range(10))
def test_generator_roundtrip_through_pose_estimation(seed):
    pa, pb, R, t_dir, K = make_two_view_points(seed + 100, 50)
    est = estimate_essential_ransac(pa, pb, K, rng_seed=seed, adaptive=True)
    assert rotation_angle_deg(est.rotation @ R.T) < 1e-6
    assert direction_angle_deg(est.translation_dir, t_dir) < 1e-6
