"""Benchmark workloads: input generation from a seed and ground-truth scoring.

Each workload writes its frames into a directory that ``dynafeat match``
reads, and keeps the ground truth needed to score the match files the run
writes. Scoring reads only the match files, never the program's in-memory
results, so it checks exactly what a user of the CLI receives.

- ``dense7k``: the criterion-09 scene as feature files (~7,000 features,
  ~204 groups, ~1,740 candidate pairs per frame). The matching kernels
  dominate here.
- ``sparse300``: the README default scene as a long feature-file sequence
  (~360 features, ~22 groups per frame). Per-frame fixed overhead dominates
  and the reject path runs.
- ``image640``: 640x480 binary PGM frames rendered here (no Pillow), run
  through ``input_mode=images`` (~1,970 corners, ~63 groups, ~83 candidate
  pairs per frame). The only workload on the image front end.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from dynafeat.frontend import (DEFAULT_DESC_BITS, PATCH_MARGIN, FrameFeatures, GrayImage,
                               save_features)
from dynafeat.image_io import save_pgm
from dynafeat.synthetic import frame_filename, generate_sequence, make_cluster_scene

WIDTH, HEIGHT = 640, 480  # frame size of every workload scene
BLOB = 5                 # side of a rendered textured blob, px
BACKGROUND = 128         # flat background gray level
IMAGE_GT_TOL_PX = 4.0    # a corner belongs to the nearest projection this close


@dataclasses.dataclass
class Workload:
    name: str
    input_mode: str
    frames: int
    # a reference pass below either floor fails the run; the floors sit a
    # few points under the values measured over many seeds
    min_precision: float
    min_recall: float


WORKLOADS = {
    "dense7k": Workload("dense7k", "features", frames=5, min_precision=0.98, min_recall=0.95),
    "sparse300": Workload("sparse300", "features", frames=40, min_precision=0.97, min_recall=0.95),
    "image640": Workload("image640", "images", frames=6, min_precision=0.92, min_recall=0.90),
}


@dataclasses.dataclass
class GroundTruth:
    """What scoring needs: per frame, position keys or projections."""

    kind: str                                  # "ids" or "projections"
    # kind "ids": per frame {(repr x, repr y): feature id}, per pair the
    # set of true (id_prev, id_curr) correspondences
    pos_to_id: list[dict] = dataclasses.field(default_factory=list)
    pairs: dict = dataclasses.field(default_factory=dict)
    # kind "projections": per frame (n_points, 2) projections and the mask
    # of points visible inside the descriptor margin
    projections: list[np.ndarray] = dataclasses.field(default_factory=list)
    visible: list[np.ndarray] = dataclasses.field(default_factory=list)
    first_positions: np.ndarray | None = None   # frame-0 feature positions


def _ping_pong(scene, step: float, period: int):
    """Camera translating along +x and back, so a long sequence keeps its
    clusters in view and the constant-velocity prior is wrong at each turn."""
    f = np.arange(scene.frame_count)
    phase = f % (2 * period)
    offset = np.where(phase < period, phase, 2 * period - phase) * step
    translations = np.zeros((scene.frame_count, 3))
    translations[:, 0] = -offset
    return dataclasses.replace(scene, translations=translations)


def _feature_scene(name: str, seed: int, frames: int):
    if name == "dense7k":
        return make_cluster_scene(seed=seed, frames=frames, n_clusters=200,
                                  points_per_cluster=35, cluster_radius_px=7.0,
                                  trajectory="translate_x", step=0.05,
                                  jitter_px=0.1, descriptor_bit_flips=6)
    scene = make_cluster_scene(seed=seed, frames=frames, n_clusters=30,
                               points_per_cluster=10, trajectory="translate_x",
                               step=0.08, jitter_px=0.1, descriptor_bit_flips=8,
                               outlier_rate=0.2)
    return _ping_pong(scene, step=0.08, period=8)


def _write_feature_frames(name: str, seed: int, frames: int, out_dir: str) -> GroundTruth:
    seq = generate_sequence(_feature_scene(name, seed, frames), seed=seed)
    gt = GroundTruth(kind="ids")
    for frame in seq.frames:
        save_features(frame, os.path.join(out_dir, frame_filename(frame.frame_index)))
        gt.pos_to_id.append({(repr(float(x)), repr(float(y))): i
                             for i, (x, y) in enumerate(frame.positions.tolist())})
    gt.first_positions = seq.frames[0].positions
    for (a, b), rows in seq.gt_pairs.items():
        gt.pairs[(a, b)] = {(int(i), int(j)) for i, j in rows}
    return gt


def _project(scene, frame: int) -> np.ndarray:
    cam = scene.points @ scene.rotations[frame].T + scene.translations[frame]
    K = scene.intrinsics
    return np.column_stack([K.fx * cam[:, 0] / cam[:, 2] + K.cx,
                            K.fy * cam[:, 1] / cam[:, 2] + K.cy])


def _render_frame(projections: np.ndarray, textures: np.ndarray,
                 width: int, height: int) -> np.ndarray:
    """Splat one textured BLOB x BLOB patch per projected point onto a flat
    background; later points overwrite earlier ones where blobs overlap."""
    img = np.full((height, width), BACKGROUND, np.uint8)
    half = BLOB // 2
    centers = np.rint(projections).astype(np.int64)
    for (cx, cy), tex in zip(centers.tolist(), textures):
        x0, y0 = cx - half, cy - half
        if x0 < 0 or y0 < 0 or x0 + BLOB > width or y0 + BLOB > height:
            continue
        img[y0:y0 + BLOB, x0:x0 + BLOB] = tex
    return img


def _image_scene(seed: int, frames: int):
    """60 clusters of 12 points with their frame-0 centers on a jittered
    10 x 6 grid. Uniformly random centers make the candidate load depend on
    how clusters happen to crowd, which moved the frame time ~8% between
    seeds; the grid keeps the scene statistics close from seed to seed."""
    cols, rows, per = 10, 6, 12
    scene = make_cluster_scene(seed=seed, frames=frames, n_clusters=cols * rows,
                               points_per_cluster=per, cluster_radius_px=10.0,
                               trajectory="translate_x", step=0.05)
    K = scene.intrinsics
    margin = PATCH_MARGIN + 30.0
    gx, gy = np.meshgrid(np.linspace(margin, scene.width - 1 - margin, cols),
                         np.linspace(margin, scene.height - 1 - margin, rows))
    jitter = np.random.default_rng(seed).uniform(-10.0, 10.0, (cols * rows, 2))
    centers = np.column_stack([gx.ravel(), gy.ravel()]) + jitter
    pts = scene.points.reshape(cols * rows, per, 3).copy()
    focal = np.array([K.fx, K.fy])
    z = pts[:, :, 2:3]              # frame 0 is the identity pose
    pix = pts[:, :, :2] / z * focal + np.array([K.cx, K.cy])
    pts[:, :, :2] += (centers - pix.mean(axis=1))[:, None, :] * z / focal
    return dataclasses.replace(scene, points=pts.reshape(-1, 3))


def _write_image_frames(seed: int, frames: int, out_dir: str) -> GroundTruth:
    scene = _image_scene(seed, frames)
    textures = np.random.default_rng(seed).integers(
        0, 256, (scene.points.shape[0], BLOB, BLOB), dtype=np.uint8)
    lo = PATCH_MARGIN
    gt = GroundTruth(kind="projections")
    for f in range(frames):
        proj = _project(scene, f)
        pixels = _render_frame(proj, textures, scene.width, scene.height)
        save_pgm(GrayImage.from_array(pixels), os.path.join(out_dir, f"frame_{f:06d}.pgm"))
        gt.projections.append(proj)
        gt.visible.append((proj[:, 0] >= lo) & (proj[:, 0] <= scene.width - 1 - lo)
                          & (proj[:, 1] >= lo) & (proj[:, 1] <= scene.height - 1 - lo))
    gt.first_positions = gt.projections[0][gt.visible[0]]
    return gt


def generate(workload: Workload, seed: int, out_dir: str) -> GroundTruth:
    """Write the workload's frames for ``seed`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    if workload.input_mode == "images":
        return _write_image_frames(seed, workload.frames, out_dir)
    return _write_feature_frames(workload.name, seed, workload.frames, out_dir)


def write_probe(workload: Workload, gt: GroundTruth, seed: int, out_dir: str) -> tuple[str, str]:
    """One frame for the front end this workload does not use, built from its
    first frame: a rendered image of the feature positions, or a feature file
    of the image's visible projections. Returns (path, input mode)."""
    os.makedirs(out_dir, exist_ok=True)
    pos = gt.first_positions
    rng = np.random.default_rng(seed + 1)
    if workload.input_mode == "images":
        path = os.path.join(out_dir, frame_filename(0))
        desc = rng.integers(0, 256, (len(pos), DEFAULT_DESC_BITS // 8), dtype=np.uint8)
        save_features(FrameFeatures(0, WIDTH, HEIGHT, pos, np.zeros(len(pos)), desc), path)
        return path, "features"
    path = os.path.join(out_dir, "frame_000000.pgm")
    textures = rng.integers(0, 256, (len(pos), BLOB, BLOB), dtype=np.uint8)
    save_pgm(GrayImage.from_array(_render_frame(pos, textures, WIDTH, HEIGHT)), path)
    return path, "images"


# ---------------------------------------------------------------------------
# Scoring match files
# ---------------------------------------------------------------------------

def _read_match_file(path: str):
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if parts:
                rows.append(parts)
    return rows


def _nearest_point(proj: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Index of the nearest projection within IMAGE_GT_TOL_PX, else -1."""
    if pts.shape[0] == 0:
        return np.zeros(0, np.int64)
    d2 = ((pts[:, None, :] - proj[None, :, :]) ** 2).sum(axis=2)
    best = d2.argmin(axis=1)
    near = d2[np.arange(pts.shape[0]), best] <= IMAGE_GT_TOL_PX ** 2
    return np.where(near, best, -1)


def score(gt: GroundTruth,
          match_files: dict[tuple[int, int], str]) -> tuple[int, int, int, int]:
    """(emitted, correct, recalled, true correspondences) over all pairs.

    Feature-file workloads map match positions back to feature ids through
    the exact ``repr`` of the generated positions; image workloads map each
    corner to its nearest projected scene point. A true correspondence is a
    generated id pair, or for images a point visible in both frames;
    ``recalled`` counts the true correspondences some correct match covers.
    A consecutive pair without a match file contributes its truth and no
    matches.
    """
    if gt.kind == "ids":
        truth = {ab: len(pairs) for ab, pairs in gt.pairs.items()}
    else:
        truth = {(f, f + 1): int((gt.visible[f] & gt.visible[f + 1]).sum())
                 for f in range(len(gt.projections) - 1)}
    emitted = correct = recalled = 0
    for (a, b), path in sorted(match_files.items()):
        rows = _read_match_file(path)
        emitted += len(rows)
        if (a, b) not in truth or not rows:
            continue
        if gt.kind == "ids":
            ids_a, ids_b = gt.pos_to_id[a], gt.pos_to_id[b]
            true_pairs = gt.pairs[(a, b)]
            hits = sum((ids_a.get((r[2], r[3])), ids_b.get((r[4], r[5]))) in true_pairs
                       for r in rows)
            correct += hits
            recalled += hits  # one match per feature, and ids pair one-to-one
        else:
            xy = np.array([[float(v) for v in r[2:6]] for r in rows])
            pa = _nearest_point(gt.projections[a], xy[:, 0:2])
            pb = _nearest_point(gt.projections[b], xy[:, 2:4])
            hit = (pa >= 0) & (pa == pb)
            correct += int(hit.sum())
            # a point counts once however many of its corners matched
            recalled += int(np.unique(pa[hit]).size)
    return emitted, correct, recalled, sum(truth.values())
