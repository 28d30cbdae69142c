"""Synthetic scenes with exact ground truth for the evaluation harness.

A scene is a cloud of 3-D points, one descriptor per point, a camera
trajectory and a noise model. Rendering a frame projects the visible
points, jitters positions, flips descriptor bits and injects outlier
features; every frame also records which feature id belongs to which
point, so correspondences and relative poses are known exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDataError, SceneValidationError, decode_error_line
from .frontend import (DEFAULT_DESC_BITS, PATCH_MARGIN, FrameFeatures, _desc_bytes,
                       _dimensions_in_range, _fmt, save_features)
from .geometry import CameraIntrinsics

_BORDER_BUFFER = 2.0  # keeps jittered positions inside the patch margin


@dataclass
class SyntheticScene:
    points: np.ndarray            # (n, 3) world coordinates
    descriptors: np.ndarray       # (n, desc_bytes) uint8
    rotations: np.ndarray         # (f, 3, 3) world-to-camera
    translations: np.ndarray      # (f, 3)
    intrinsics: CameraIntrinsics
    width: int = 640
    height: int = 480
    jitter_px: float = 0.0
    descriptor_bit_flips: int = 0
    outlier_rate: float = 0.0
    desc_bits: int = DEFAULT_DESC_BITS

    def __post_init__(self):
        self.points = np.asarray(self.points, np.float64).reshape(-1, 3)
        self.descriptors = np.asarray(self.descriptors, np.uint8)
        self.rotations = np.asarray(self.rotations, np.float64).reshape(-1, 3, 3)
        self.translations = np.asarray(self.translations, np.float64).reshape(-1, 3)
        if not _dimensions_in_range(self.width, self.height, self.desc_bits):
            raise SceneValidationError(f"a feature file cannot hold its frames: width or height "
                                       f"below {PATCH_MARGIN}, or desc_bits not a positive "
                                       "multiple of 8")
        if self.descriptors.shape != (self.points.shape[0], _desc_bytes(self.desc_bits)):
            raise SceneValidationError("descriptor table does not match the point count")
        if self.rotations.shape[0] != self.translations.shape[0]:
            raise SceneValidationError("trajectory rotation/translation counts differ")
        if not (0 < self.intrinsics.cx < self.width and 0 < self.intrinsics.cy < self.height):
            raise SceneValidationError("principal point must be inside the image")
        for name in ("jitter_px", "outlier_rate"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise SceneValidationError(f"{name} must be finite and >= 0")
        if not 0 <= self.descriptor_bit_flips <= self.desc_bits:
            raise SceneValidationError(f"descriptor_bit_flips must lie in 0..{self.desc_bits}")
        for f in range(self.rotations.shape[0]):
            R = self.rotations[f]
            if np.abs(R @ R.T - np.eye(3)).max() > 1e-9 or np.linalg.det(R) < 0:
                raise SceneValidationError(f"trajectory rotation {f} is not orthonormal")
            z = (self.points @ R.T + self.translations[f])[:, 2]
            if (z <= 1e-9).any():
                raise SceneValidationError(
                    f"{int((z <= 1e-9).sum())} points behind the camera in frame {f}")

    @property
    def frame_count(self) -> int:
        return self.rotations.shape[0]


@dataclass
class GeneratedSequence:
    scene: SyntheticScene
    frames: list[FrameFeatures]
    point_ids: list[np.ndarray]          # per frame: 3-D point index per feature, -1 outlier
    clean_positions: list[np.ndarray]    # per frame: jitter-free pixel positions
    gt_pairs: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


def _project(scene: SyntheticScene, frame: int) -> np.ndarray:
    cam = scene.points @ scene.rotations[frame].T + scene.translations[frame]
    K = scene.intrinsics
    u = K.fx * cam[:, 0] / cam[:, 2] + K.cx
    v = K.fy * cam[:, 1] / cam[:, 2] + K.cy
    return np.column_stack([u, v])


def generate_sequence(scene: SyntheticScene, seed: int = 0) -> GeneratedSequence:
    """Render every trajectory frame; deterministic for a fixed seed.

    True features come first in point-index order, injected outliers are
    appended; consecutive-frame ground-truth pairs map feature ids of
    co-visible points.
    """
    rng = np.random.default_rng(seed)
    lo_x, hi_x = PATCH_MARGIN + _BORDER_BUFFER, scene.width - 1 - PATCH_MARGIN - _BORDER_BUFFER
    lo_y, hi_y = PATCH_MARGIN + _BORDER_BUFFER, scene.height - 1 - PATCH_MARGIN - _BORDER_BUFFER
    raw = _desc_bytes(scene.desc_bits)
    frames: list[FrameFeatures] = []
    point_ids: list[np.ndarray] = []
    clean_list: list[np.ndarray] = []
    for f in range(scene.frame_count):
        proj = _project(scene, f)
        visible = np.nonzero((proj[:, 0] >= lo_x) & (proj[:, 0] <= hi_x)
                             & (proj[:, 1] >= lo_y) & (proj[:, 1] <= hi_y))[0]
        clean = proj[visible]
        positions = clean.copy()
        if scene.jitter_px > 0:
            positions = positions + rng.normal(0.0, scene.jitter_px, positions.shape)
            positions[:, 0] = positions[:, 0].clip(PATCH_MARGIN,
                                                   scene.width - 1 - PATCH_MARGIN)
            positions[:, 1] = positions[:, 1].clip(PATCH_MARGIN,
                                                   scene.height - 1 - PATCH_MARGIN)
        desc = scene.descriptors[visible].copy()
        if scene.descriptor_bit_flips > 0:
            for row in range(desc.shape[0]):
                bits = rng.choice(scene.desc_bits, scene.descriptor_bit_flips, replace=False)
                desc[row, bits // 8] ^= (np.uint8(0x80) >> (bits % 8)).astype(np.uint8)
        ids = visible.astype(np.int64)
        n_out = int(round(scene.outlier_rate * visible.size))
        if n_out > 0:
            out_pos = np.column_stack([rng.uniform(lo_x, hi_x, n_out),
                                       rng.uniform(lo_y, hi_y, n_out)])
            out_desc = rng.integers(0, 256, (n_out, raw), dtype=np.uint8)
            positions = np.vstack([positions, out_pos])
            desc = np.vstack([desc, out_desc])
            ids = np.concatenate([ids, np.full(n_out, -1, np.int64)])
            clean = np.vstack([clean, out_pos])
        frames.append(FrameFeatures(
            frame_index=f, width=scene.width, height=scene.height,
            positions=positions, responses=np.zeros(len(positions)),
            descriptors=desc, desc_bits=scene.desc_bits))
        point_ids.append(ids)
        clean_list.append(clean)

    gt_pairs: dict[tuple[int, int], np.ndarray] = {}
    for f in range(1, scene.frame_count):
        prev_ids = point_ids[f - 1]
        curr_ids = point_ids[f]
        prev_lookup = {int(p): i for i, p in enumerate(prev_ids) if p >= 0}
        rows = [(prev_lookup[int(p)], j) for j, p in enumerate(curr_ids)
                if p >= 0 and int(p) in prev_lookup]
        gt_pairs[(f - 1, f)] = (np.array(rows, np.int64).reshape(-1, 2))
    return GeneratedSequence(scene=scene, frames=frames, point_ids=point_ids,
                             clean_positions=clean_list, gt_pairs=gt_pairs)


# ---------------------------------------------------------------------------
# Scene factories
# ---------------------------------------------------------------------------

def default_intrinsics(width: int = 640, height: int = 480) -> CameraIntrinsics:
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=width / 2.0, cy=height / 2.0)


def _rotation_about_y(angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def make_cluster_scene(seed: int, frames: int = 2, n_clusters: int = 30,
                       points_per_cluster: int = 10, cluster_radius_px: float = 8.0,
                       trajectory: str = "static", step: float = 0.0,
                       width: int = 640, height: int = 480,
                       depth_range: tuple[float, float] = (6.0, 10.0),
                       jitter_px: float = 0.0, descriptor_bit_flips: int = 0,
                       outlier_rate: float = 0.0, flat_depth: bool = False,
                       border_margin: float | None = None,
                       desc_bits: int = DEFAULT_DESC_BITS) -> SyntheticScene:
    """Scene whose frame-0 projections form tight pixel clusters.

    Points are sampled around random image-plane landmarks and
    back-projected at random depths (one shared depth per cluster keeps
    clusters compact under motion; ``flat_depth`` puts the whole scene on
    a fronto-parallel plane). Trajectories: "static", "translate_x"
    (camera shift of ``step`` world units per frame along +x) or "orbit"
    (rotation of ``step`` radians per frame about the scene center).
    ``border_margin`` keeps landmarks that far from the image border
    (default one group window past the patch margin); raise it so points
    never leave the frame under the expected drift.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if points_per_cluster < 1:
        raise ValueError("points_per_cluster must be >= 1")
    if not (math.isfinite(cluster_radius_px) and cluster_radius_px >= 0):
        raise ValueError("cluster_radius_px must be finite and >= 0")
    if not math.isfinite(step):
        raise ValueError("step must be finite")
    margin = PATCH_MARGIN + 30.0 if border_margin is None else border_margin
    for side, size in (("width", width), ("height", height)):
        if size - 1 - margin < margin:
            raise ValueError(f"{side} {size} leaves no room for cluster centers "
                             f"{margin:g} px from the border (need >= {2 * margin + 1:g})")
    rng = np.random.default_rng(seed)
    K = default_intrinsics(width, height)
    centers = np.column_stack([rng.uniform(margin, width - 1 - margin, n_clusters),
                               rng.uniform(margin, height - 1 - margin, n_clusters)])
    mid_depth = (depth_range[0] + depth_range[1]) / 2.0
    pts = []
    for c in range(n_clusters):
        offs = rng.uniform(-cluster_radius_px, cluster_radius_px, (points_per_cluster, 2))
        pix = centers[c] + offs
        if flat_depth:
            z = np.full(points_per_cluster, mid_depth)
        else:
            z = np.full(points_per_cluster, rng.uniform(*depth_range))
        x = (pix[:, 0] - K.cx) / K.fx * z
        y = (pix[:, 1] - K.cy) / K.fy * z
        pts.append(np.column_stack([x, y, z]))
    points = np.vstack(pts)
    n = points.shape[0]
    descriptors = rng.integers(0, 256, (n, _desc_bytes(desc_bits)), dtype=np.uint8)

    rotations = np.zeros((frames, 3, 3))
    translations = np.zeros((frames, 3))
    if trajectory == "static":
        for f in range(frames):
            rotations[f] = np.eye(3)
    elif trajectory == "translate_x":
        for f in range(frames):
            rotations[f] = np.eye(3)
            translations[f] = np.array([-step * f, 0.0, 0.0])
    elif trajectory == "orbit":
        center = np.array([0.0, 0.0, mid_depth])
        for f in range(frames):
            R = _rotation_about_y(step * f)
            rotations[f] = R
            translations[f] = center - R @ center
    else:
        raise ValueError(f"unknown trajectory {trajectory!r}")

    return SyntheticScene(points=points, descriptors=descriptors,
                          rotations=rotations, translations=translations,
                          intrinsics=K, width=width, height=height,
                          jitter_px=jitter_px, descriptor_bit_flips=descriptor_bit_flips,
                          outlier_rate=outlier_rate, desc_bits=desc_bits)


def make_two_view_points(seed: int, n_points: int = 50,
                         max_rotation_deg: float = 8.0,
                         baseline: float = 0.5) -> tuple[np.ndarray, np.ndarray,
                                                         np.ndarray, np.ndarray,
                                                         CameraIntrinsics]:
    """Random non-planar two-view geometry for pose-recovery tests.

    Returns pixel correspondences (both views), the relative rotation, the
    unit translation direction and the intrinsics. All points project
    inside both views by construction (resampled until they do).
    """
    rng = np.random.default_rng(seed)
    K = default_intrinsics()
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = math.radians(rng.uniform(1.0, max_rotation_deg))
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
    R = np.eye(3) * c + s * cross + (1 - c) * np.outer(axis, axis)
    t_dir = rng.normal(size=3)
    t_dir /= np.linalg.norm(t_dir)
    t = t_dir * baseline

    pts = []
    while len(pts) < n_points:
        cand = np.array([rng.uniform(-4, 4), rng.uniform(-3, 3), rng.uniform(6, 14)])
        z2 = (R @ cand + t)[2]
        if z2 <= 0.5:
            continue
        p1 = K.matrix @ cand
        p1 = p1[:2] / p1[2]
        cam2 = R @ cand + t
        p2 = K.matrix @ cam2
        p2 = p2[:2] / p2[2]
        if (0 <= p1[0] < 640 and 0 <= p1[1] < 480
                and 0 <= p2[0] < 640 and 0 <= p2[1] < 480):
            pts.append((p1, p2))
    pix_a = np.array([p[0] for p in pts])
    pix_b = np.array([p[1] for p in pts])
    return pix_a, pix_b, R, t_dir, K


# ---------------------------------------------------------------------------
# On-disk layout used by the CLI (feature files + ground-truth directory)
# ---------------------------------------------------------------------------

def frame_filename(index: int) -> str:
    return f"frame_{index:06d}.feat"


def save_sequence(seq: GeneratedSequence, out_dir) -> None:
    """Write feature files plus gt/ with pair files and poses.txt."""
    os.makedirs(out_dir, exist_ok=True)
    gt_dir = os.path.join(out_dir, "gt")
    os.makedirs(gt_dir, exist_ok=True)
    for frame in seq.frames:
        save_features(frame, os.path.join(out_dir, frame_filename(frame.frame_index)))
    for (a, b), pairs in seq.gt_pairs.items():
        with open(os.path.join(gt_dir, f"pairs_{a:06d}_{b:06d}.txt"), "w", encoding="ascii") as fh:
            for ia, ib in pairs:
                fh.write(f"{a} {b} {ia} {ib}\n")
    with open(os.path.join(gt_dir, "poses.txt"), "w", encoding="ascii") as fh:
        for f in range(seq.scene.frame_count):
            vals = [str(f)] + [_fmt(v) for v in seq.scene.rotations[f].ravel()] \
                + [_fmt(v) for v in seq.scene.translations[f]]
            fh.write(" ".join(vals) + "\n")


def _read_gt_rows(path, fields: int, convert) -> list[list]:
    """Non-blank lines of a ground-truth file, each split into ``fields``
    values converted by ``convert``; InputDataError names file and line."""
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: line {decode_error_line(exc)}: non-ASCII byte") from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != fields:
            raise InputDataError(f"{path}: line {lineno}: expected {fields} fields, "
                                 f"got {len(parts)}")
        try:
            rows.append([convert(v) for v in parts])
        except ValueError:
            raise InputDataError(f"{path}: line {lineno}: malformed numeric field") from None
    return rows


def load_gt_pairs(gt_dir, a: int, b: int) -> np.ndarray:
    rows = _read_gt_rows(os.path.join(gt_dir, f"pairs_{a:06d}_{b:06d}.txt"), 4, int)
    return np.array(rows, np.int64).reshape(-1, 4)[:, 2:]


def load_gt_poses(gt_dir) -> tuple[np.ndarray, np.ndarray]:
    rows = np.array(_read_gt_rows(os.path.join(gt_dir, "poses.txt"), 13, float),
                    np.float64).reshape(-1, 13)
    return rows[:, 1:10].reshape(-1, 3, 3), rows[:, 10:]


def relative_pose(rot_a: np.ndarray, t_a: np.ndarray,
                  rot_b: np.ndarray, t_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relative motion a -> b for world-to-camera poses x_c = R x_w + t."""
    R = rot_b @ rot_a.T
    t = t_b - R @ t_a
    return R, t
