"""Relative pose recovery and the matching quality metrics.

Pose is estimated from pixel correspondences with a RANSAC loop around the
normalized 8-point essential matrix solver. Residuals are Sampson
distances in pixels; the winning model is refit on its inliers, projected
to the (1, 1, 0) singular-value manifold, decomposed into the four (R, t)
candidates and disambiguated by triangulating the inliers in front of both
cameras.

The pose error reported everywhere is the maximum of the rotation angle
and the translation-direction angle (sign-invariant), in degrees. When
the reference translation is numerically zero the direction is undefined
and only the rotation contributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, UndefinedMetricError

DEFAULT_SAMPSON_THRESHOLD = 1.0
DEFAULT_RANSAC_ITERATIONS = 2000
RANSAC_CONFIDENCE = 0.999         # adaptive stop: chance that some sample was all inliers
MIN_CORRESPONDENCES = 8
_RANK_TOL = 1e-10


@dataclass
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])


@dataclass
class PoseEstimate:
    rotation: np.ndarray          # (3, 3), orthonormal, det +1
    translation_dir: np.ndarray   # (3,), unit norm, sign ambiguous
    inlier_count: int
    inlier_ratio: float
    inlier_mask: np.ndarray       # (n,) bool over the input matches
    degenerate_samples: int = 0


# ---------------------------------------------------------------------------
# Angles
# ---------------------------------------------------------------------------

def rotation_angle_deg(rotation: np.ndarray) -> float:
    """Angle of a rotation matrix, numerically stable near zero."""
    r = np.asarray(rotation, np.float64)
    axis = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    sin_t = np.linalg.norm(axis)
    cos_t = (np.trace(r) - 1.0) / 2.0
    return math.degrees(math.atan2(sin_t, cos_t))


def direction_angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two directions, invariant to either sign."""
    u = np.asarray(u, np.float64)
    v = np.asarray(v, np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    u = u / nu
    v = v / nv
    c = abs(float(u @ v))
    s = float(np.linalg.norm(np.cross(u, v)))
    return math.degrees(math.atan2(s, c))


def pose_error(estimate: PoseEstimate, gt_rotation: np.ndarray,
               gt_translation_dir: np.ndarray) -> float:
    """max(rotation angle, translation-direction angle) in degrees."""
    rot_err = rotation_angle_deg(estimate.rotation @ np.asarray(gt_rotation).T)
    gt_t = np.asarray(gt_translation_dir, np.float64)
    if np.linalg.norm(gt_t) < 1e-12:
        return rot_err  # zero baseline: direction undefined
    return max(rot_err, direction_angle_deg(estimate.translation_dir, gt_t))


def pose_success_ratio(errors, thresholds) -> list[tuple[float, float]]:
    """(threshold, fraction of errors <= threshold) for each threshold."""
    errs = np.asarray(list(errors), np.float64)
    if errs.size == 0:
        raise UndefinedMetricError("pose success ratio needs at least one error")
    return [(float(th), float((errs <= th).mean())) for th in thresholds]


# ---------------------------------------------------------------------------
# Repeatability
# ---------------------------------------------------------------------------

@dataclass
class RepeatabilityResult:
    mean_l2: float
    per_1000_features: float


def reprojection_repeatability(prev_points: np.ndarray, curr_points: np.ndarray,
                               features_per_frame: float) -> RepeatabilityResult:
    """Mean pixel displacement of matches on a static scene.

    Zero for perfect matching. Also reports the variant normalized per
    1000 extracted features (mean error * 1000 / features per frame).
    """
    prev_points = np.asarray(prev_points, np.float64).reshape(-1, 2)
    curr_points = np.asarray(curr_points, np.float64).reshape(-1, 2)
    if prev_points.shape[0] == 0:
        raise UndefinedMetricError("repeatability is undefined without matches")
    if prev_points.shape != curr_points.shape:
        raise ValueError("point arrays must have matching shapes")
    if features_per_frame <= 0:
        raise ValueError("features_per_frame must be positive")
    mean = float(np.linalg.norm(curr_points - prev_points, axis=1).mean())
    return RepeatabilityResult(mean_l2=mean,
                               per_1000_features=mean * 1000.0 / features_per_frame)


# ---------------------------------------------------------------------------
# Essential matrix estimation
# ---------------------------------------------------------------------------

def _hartley_normalize(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    mean_dist = np.linalg.norm(centered, axis=1).mean()
    scale = math.sqrt(2.0) / mean_dist if mean_dist > 1e-15 else 1.0
    T = np.array([[scale, 0.0, -scale * centroid[0]],
                  [0.0, scale, -scale * centroid[1]],
                  [0.0, 0.0, 1.0]])
    return centered * scale, T


def _design_matrix(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """One row [b1·a1, b1·a2, b1, b2·a1, b2·a2, b2, a1, a2, 1] per
    correspondence: the epipolar constraint xb^T E xa = 0, linear in the
    row-major entries of E."""
    a1 = xa[:, 0]
    a2 = xa[:, 1]
    b1 = xb[:, 0]
    b2 = xb[:, 1]
    ones = np.ones_like(a1)
    return np.stack([b1 * a1, b1 * a2, b1, b2 * a1, b2 * a2, b2, a1, a2, ones], axis=1)


def _solve_eight_point(xa: np.ndarray, xb: np.ndarray) -> np.ndarray | None:
    """Least-squares essential matrix from normalized camera coordinates.

    Returns None when the SVD does not converge or E is not finite; the
    caller counts that as a degenerate sample. Rank is not tested here:
    ``_minimal_sample_rank_ok`` rejects rank-deficient minimal samples.
    """
    na, Ta = _hartley_normalize(xa)
    nb, Tb = _hartley_normalize(xb)
    try:
        _, _, vt = np.linalg.svd(_design_matrix(na, nb))
    except np.linalg.LinAlgError:
        return None
    E = vt[-1].reshape(3, 3)
    if not np.isfinite(E).all():
        return None
    E = Tb.T @ E @ Ta
    # project onto the essential manifold: singular values (1, 1, 0)
    u, _, vt = np.linalg.svd(E)
    E = u @ np.diag([1.0, 1.0, 0.0]) @ vt
    return E


def _minimal_sample_rank_ok(xa: np.ndarray, xb: np.ndarray) -> bool:
    s = np.linalg.svd(_design_matrix(xa, xb), compute_uv=False)
    return s[7] > _RANK_TOL * s[0]


def _sampson_distance_px(E: np.ndarray, pts_a: np.ndarray, pts_b: np.ndarray,
                         K_inv: np.ndarray) -> np.ndarray:
    F = K_inv.T @ E @ K_inv
    xa = np.column_stack([pts_a, np.ones(len(pts_a))])
    xb = np.column_stack([pts_b, np.ones(len(pts_b))])
    Fa = xa @ F.T        # rows F @ x1
    Fb = xb @ F          # rows F^T @ x2
    num = np.einsum("ij,ij->i", xb, Fa) ** 2
    den = Fa[:, 0] ** 2 + Fa[:, 1] ** 2 + Fb[:, 0] ** 2 + Fb[:, 1] ** 2
    den = np.maximum(den, 1e-30)
    return np.sqrt(num / den)


def _triangulate_depths(R: np.ndarray, t: np.ndarray, xa: np.ndarray,
                        xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """DLT triangulation in normalized coordinates, one batched SVD for all
    points; returns both depths, zero for a point at infinity."""
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    P2 = np.hstack([R, t.reshape(3, 1)])
    A = np.stack([xa[:, :1] * P1[2] - P1[0], xa[:, 1:] * P1[2] - P1[1],
                  xb[:, :1] * P2[2] - P2[0], xb[:, 1:] * P2[2] - P2[1]], axis=1)
    X = np.linalg.svd(A)[2][:, -1]
    at_infinity = np.abs(X[:, 3]) < 1e-15
    X = X[:, :3] / np.where(at_infinity, 1.0, X[:, 3])[:, None]
    z2 = (R @ X[:, :, None])[:, 2, 0] + t[2]
    return np.where(at_infinity, 0.0, X[:, 2]), np.where(at_infinity, 0.0, z2)


def _decompose_essential(E: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    u, _, vt = np.linalg.svd(E)
    if np.linalg.det(u) < 0:
        u = -u
    if np.linalg.det(vt) < 0:
        vt = -vt
    W = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    R1 = u @ W @ vt
    R2 = u @ W.T @ vt
    t = u[:, 2]
    return [(R1, t), (R1, -t), (R2, t), (R2, -t)]


def _choose_pose(E: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    best = None
    for idx, (R, t) in enumerate(_decompose_essential(E)):
        z1, z2 = _triangulate_depths(R, t, xa, xb)
        count = int(((z1 > 0) & (z2 > 0) & np.isfinite(z1) & np.isfinite(z2)).sum())
        if best is None or count > best[0]:
            best = (count, idx, R, t)
    _, _, R, t = best
    norm = np.linalg.norm(t)
    if norm > 1e-15:
        t = t / norm
    return R, t


def estimate_essential_ransac(points_prev: np.ndarray, points_curr: np.ndarray,
                              intrinsics: CameraIntrinsics,
                              inlier_threshold: float = DEFAULT_SAMPSON_THRESHOLD,
                              max_iterations: int = DEFAULT_RANSAC_ITERATIONS,
                              rng_seed: int = 0, adaptive: bool = False) -> PoseEstimate:
    """Relative pose from pixel correspondences, deterministic per seed.

    Minimal samples whose linear system is rank-deficient (collinear or
    coplanar picks) are skipped and counted. When every sample degenerates,
    which happens for a zero-baseline pair where any skew-symmetric matrix
    fits, a single fit on all correspondences still recovers the rotation.
    With ``adaptive`` the loop stops early once the inlier ratio makes a
    better sample unlikely at ``RANSAC_CONFIDENCE``.
    """
    pts_a = np.asarray(points_prev, np.float64).reshape(-1, 2)
    pts_b = np.asarray(points_curr, np.float64).reshape(-1, 2)
    n = pts_a.shape[0]
    if pts_b.shape[0] != n:
        raise ValueError("correspondence arrays must have equal length")
    if n < MIN_CORRESPONDENCES:
        raise InsufficientDataError(
            f"essential matrix needs >= {MIN_CORRESPONDENCES} matches, got {n}")
    K = intrinsics.matrix
    K_inv = np.linalg.inv(K)
    norm_a = (np.column_stack([pts_a, np.ones(n)]) @ K_inv.T)[:, :2]
    norm_b = (np.column_stack([pts_b, np.ones(n)]) @ K_inv.T)[:, :2]

    rng = np.random.default_rng(rng_seed)
    best_count = -1
    best_E = None
    degenerate = 0
    needed = max_iterations
    it = 0
    while it < min(max_iterations, needed):
        sample = rng.choice(n, MIN_CORRESPONDENCES, replace=False)
        it += 1
        sa = norm_a[sample]
        sb = norm_b[sample]
        if not _minimal_sample_rank_ok(sa, sb):
            degenerate += 1
            continue
        E = _solve_eight_point(sa, sb)
        if E is None:
            degenerate += 1
            continue
        resid = _sampson_distance_px(E, pts_a, pts_b, K_inv)
        count = int((resid <= inlier_threshold).sum())
        if count > best_count:
            best_count = count
            best_E = E
            if adaptive and count > 0:
                ratio = count / n
                good = ratio ** MIN_CORRESPONDENCES
                # a good below the float resolution at 1.0 makes log(1 - good)
                # zero: the bound is infinite, so needed is left unchanged
                if good >= 1.0:
                    needed = it
                elif 1.0 - good < 1.0:
                    needed = min(max_iterations,
                                 math.ceil(math.log(1.0 - RANSAC_CONFIDENCE)
                                           / math.log(1.0 - good)))

    if best_E is None:
        # every sample was degenerate; fall back to one global fit
        E = _solve_eight_point(norm_a, norm_b)
        if E is None:
            raise InsufficientDataError("all samples degenerate and global fit failed")
        best_E = E

    resid = _sampson_distance_px(best_E, pts_a, pts_b, K_inv)
    inliers = resid <= inlier_threshold
    if inliers.sum() >= MIN_CORRESPONDENCES:
        refit = _solve_eight_point(norm_a[inliers], norm_b[inliers])
        if refit is not None:
            resid_refit = _sampson_distance_px(refit, pts_a, pts_b, K_inv)
            inliers_refit = resid_refit <= inlier_threshold
            if inliers_refit.sum() >= inliers.sum():
                best_E = refit
                inliers = inliers_refit

    sel = inliers if inliers.any() else np.ones(n, bool)
    R, t = _choose_pose(best_E, norm_a[sel], norm_b[sel])
    count = int(inliers.sum())
    return PoseEstimate(rotation=R, translation_dir=t, inlier_count=count,
                        inlier_ratio=count / n, inlier_mask=inliers,
                        degenerate_samples=degenerate)
