"""End-to-end frame loop: extract, group, restrict, match, advance.

Per frame the pipeline loads or detects features, clusters them into
groups, intersects current groups with the motion-predicted search
regions of the previous frame, cross-check matches every candidate pair,
keeps pairs whose support count clears the threshold, emits the surviving
feature matches and carries the group state forward. Stage wall times are
taken with a monotonic clock.

The run is a stream: ``run_sequence`` yields each frame's records as soon
as the frame is done and keeps only the tracking state the next frame
needs, so memory does not grow with the sequence length. The ``match``,
``eval`` and ``bench`` verbs each consume that one stream as it arrives.

Frames that yield zero features are skipped with a warning; the previous
state is kept and its regions re-dilated with a doubled margin so the
next usable frame can still be matched. Every frame must carry descriptors
of the first frame's bit width; a frame that differs stops the run with
InputDataError at that frame.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import matching, tracking
from .config import PipelineConfig
from .errors import InputDataError, UndefinedMetricError
from .frontend import FrameFeatures, _fmt, extract_frame, load_features
from .geometry import (estimate_essential_ransac, pose_error, pose_success_ratio,
                       reprojection_repeatability, rotation_angle_deg)
from .grouping import group_features
from .image_io import load_image
from .synthetic import default_intrinsics, load_gt_pairs, load_gt_poses, relative_pose

DEFAULT_POSE_THRESHOLDS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0)

# stage name -> its time column in RunStats rows
STAGES = {"detection": "detect_ms", "grouping": "group_ms", "matching": "match_ms",
          "filtering": "filter_ms"}
# the stats.txt table columns after the frame number, one key per row
COLUMNS = ("features", "groups", "candidates", "accepted", "inliers",
           *STAGES.values(), "total_ms")


def _stage_summary_lines(fps: float, median_ms: dict[str, float],
                         percentages: dict[str, float]) -> list[str]:
    """The fps, median and percentage lines shared by stats.txt and bench.txt."""
    return ([f"fps={fps:.3f}"]
            + [f"median_{name}_ms={median_ms[name]:.4f}" for name in STAGES]
            + [f"pct_{name}={percentages[name]:.2f}" for name in STAGES])


@dataclass
class RunStats:
    """One row per input frame: pipeline counters and stage timings (ms),
    keyed by COLUMNS. A skipped frame's row is zero but for detect_ms and
    total_ms."""

    rows: list[dict] = field(default_factory=list)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    @property
    def frame_count(self) -> int:
        return len(self.rows)

    @property
    def fps(self) -> float:
        total = sum(self.column("total_ms"))
        return self.frame_count * 1000.0 / total if total > 0 else 0.0

    def median_stage_ms(self) -> dict[str, float]:
        return {name: (statistics.median(self.column(col)) if self.rows else 0.0)
                for name, col in STAGES.items()}

    def stage_percentages(self) -> dict[str, float]:
        med = self.median_stage_ms()
        total = sum(med.values())
        if total <= 0:
            return {name: 0.0 for name in STAGES}
        return {name: 100.0 * v / total for name, v in med.items()}

    def to_text(self) -> str:
        lines = ["format=dynafeat-stats-v1", f"frames={self.frame_count}"]
        lines += _stage_summary_lines(self.fps, self.median_stage_ms(),
                                      self.stage_percentages())
        lines.append(" ".join(("table=frame",) + COLUMNS))
        for i, row in enumerate(self.rows):
            lines.append(" ".join([str(i)] + [f"{row[c]:.4f}" if c.endswith("_ms")
                                              else str(row[c]) for c in COLUMNS]))
        return "\n".join(lines) + "\n"


def load_frame(config: PipelineConfig, path, index: int) -> FrameFeatures:
    try:
        if config.input_mode == "images":
            image = load_image(path)
            return extract_frame(image, index, fast_threshold=config.fast_threshold,
                                 max_features=config.max_features, rng_seed=config.seed)
        return load_features(path, frame_index=index, max_features=config.max_features)
    except OSError as exc:
        raise InputDataError(f"cannot read frame {index} ({path}): {exc}") from None
    except InputDataError as exc:
        exc.args = (f"{exc} (frame {index}: {path})",)
        raise


def run_sequence(config: PipelineConfig, sources,
                 warn=lambda msg: print(msg, file=sys.stderr)):
    """Run the matching pipeline over ordered frame sources, one frame at a time.

    Each source is a FrameFeatures record or a file path read per
    ``config.input_mode``. At least two frames are required. Yields one
    ``(row, pair, track)`` per source once that frame is done: its RunStats
    row, the InlierColumns of the transition it ends or None, and
    ``(frame index, groups, displacement (G, 2), age (G,))`` or None if skipped.
    """
    sources = list(sources)
    if len(sources) < 2:
        raise InputDataError("at least 2 frames are required")

    state: tracking.TrackState | None = None
    margin = config.search_margin
    skip_margin = margin

    for idx, source in enumerate(sources):
        t0 = time.perf_counter()
        feats = source if isinstance(source, FrameFeatures) else load_frame(config, source, idx)
        t1 = time.perf_counter()
        if idx == 0:
            desc_bits = feats.desc_bits
        elif feats.desc_bits != desc_bits:
            raise InputDataError(f"frame {idx} has {feats.desc_bits}-bit descriptors, "
                                 f"frame 0 has {desc_bits}-bit ones")

        if feats.count == 0:
            warn(f"frame {idx}: no features, skipping (state preserved)")
            if state is not None:
                skip_margin *= 2.0
                state = tracking.predict(state.features, state.groups, state.displacement,
                                         state.age, skip_margin)
            yield ({**dict.fromkeys(COLUMNS, 0), "detect_ms": (t1 - t0) * 1000.0,
                    "total_ms": (time.perf_counter() - t0) * 1000.0}, None, None)
            continue

        groups = group_features(feats, config).groups
        t2 = time.perf_counter()

        if state is None:
            state = tracking.bootstrap(feats, groups, margin)
            candidates, accepted, pair = (), (), None
            t3 = t4 = time.perf_counter()
        else:
            candidates = tracking.intersect_candidates(groups, state)
            accepted = matching.score_candidate_pairs(
                state.groups, state.features, groups, feats, candidates,
                k=config.k)
            t3 = time.perf_counter()
            pair = matching.dedup_inlier_columns(accepted, state.features, feats)
            state = tracking.advance(state, feats, groups, accepted, margin)
            t4 = time.perf_counter()
        skip_margin = margin

        row = {"features": feats.count, "groups": len(groups), "candidates": len(candidates),
               "accepted": len(accepted), "inliers": 0 if pair is None else len(pair),
               "detect_ms": (t1 - t0) * 1000.0, "group_ms": (t2 - t1) * 1000.0,
               "match_ms": (t3 - t2) * 1000.0, "filter_ms": (t4 - t3) * 1000.0,
               "total_ms": (time.perf_counter() - t0) * 1000.0}
        yield row, pair, (feats.frame_index, state.groups, state.displacement, state.age)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def match_filename(a: int, b: int) -> str:
    return f"matches_{a:06d}_{b:06d}.txt"


def write_match_files(pairs, out_dir) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for pair in pairs:
        path = os.path.join(out_dir, match_filename(pair.frame_prev, pair.frame_curr))
        head = f"{pair.frame_prev} {pair.frame_curr}"
        # repr of a Python float is _fmt; the columns are float64 and int64
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(f"{head} {x1!r} {y1!r} {x2!r} {y2!r} {d!r} {gp} {gc}\n"
                          for (x1, y1), (x2, y2), d, gp, gc
                          in zip(pair.pos_prev.tolist(), pair.pos_curr.tolist(),
                                 pair.distance.tolist(), pair.group_prev.tolist(),
                                 pair.group_curr.tolist()))
        written.append(path)
    return written


def write_tracks(fh, track) -> None:
    frame, groups, displacement, age = track
    for slot, (g, (dx, dy), a) in enumerate(zip(groups, displacement.tolist(), age.tolist())):
        cx, cy = g.centroid.tolist()
        fh.write(f"{frame} {slot} {_fmt(cx)} {_fmt(cy)} {_fmt(dx)} {_fmt(dy)} {a} {g.n}\n")


def write_stats(stats: RunStats, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(stats.to_text())


# ---------------------------------------------------------------------------
# Evaluation against ground truth
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    pair_count: int
    match_count: int
    precision: float | None
    mean_inlier_ratio: float
    pose_errors: list[float]
    success_curve: list[tuple[float, float]]
    repeatability: float | None
    repeatability_per_1000: float | None
    static_scene: bool
    stats: RunStats

    def summary_text(self) -> str:
        lines = ["format=dynafeat-eval-v1",
                 f"pairs={self.pair_count}",
                 f"matches={self.match_count}"]
        if self.precision is not None:
            lines.append(f"precision={self.precision:.6f}")
        lines.append(f"mean_inlier_ratio={self.mean_inlier_ratio:.6f}")
        finite = [e for e in self.pose_errors if math.isfinite(e)]
        lines.append(f"pose_pairs_evaluated={len(self.pose_errors)}")
        lines.append(f"pose_errors_finite={len(finite)}")
        if self.static_scene and self.repeatability is not None:
            lines.append(f"repeatability_px={_fmt(self.repeatability)}")
            lines.append(f"repeatability_per_1000={_fmt(self.repeatability_per_1000)}")
        else:
            lines.append("repeatability_px=n/a")
        for th, ratio in self.success_curve:
            lines.append(f"success@{_fmt(th)}={ratio:.6f}")
        return "\n".join(lines) + "\n"

    def curve_text(self) -> str:
        lines = ["# threshold_deg success_ratio"]
        for th, ratio in self.success_curve:
            lines.append(f"{_fmt(th)} {ratio:.6f}")
        return "\n".join(lines) + "\n"


def run_eval(config: PipelineConfig, sources, gt_dir,
             thresholds=DEFAULT_POSE_THRESHOLDS) -> EvalReport:
    """Match the sequence and score it against generator ground truth.

    Pose estimation assumes the synthetic generator's default intrinsics
    (the same camera the ground-truth poses were rendered with).
    """
    sources = list(sources)
    rotations, translations = load_gt_poses(gt_dir)
    if rotations.shape[0] < len(sources):
        raise InputDataError(
            f"ground truth has {rotations.shape[0]} poses for {len(sources)} frames")

    intrinsics = default_intrinsics()
    pose_errors: list[float] = []
    inlier_ratios: list[float] = []
    correct = 0
    total = 0
    displacements_prev = []   # collected while the scene is static, for repeatability
    displacements_curr = []
    static = True
    stats = RunStats()

    for row, pair, _ in run_sequence(config, sources):
        stats.rows.append(row)
        if pair is None:
            continue
        a, b = pair.frame_prev, pair.frame_curr
        try:
            gt = load_gt_pairs(gt_dir, a, b)
        except FileNotFoundError:
            raise InputDataError(f"missing ground-truth pair file for frames {a}-{b}") from None
        gt_set = {(int(i), int(j)) for i, j in gt}
        total += len(pair)
        correct += sum(ids in gt_set for ids in zip(pair.feature_prev.tolist(),
                                                     pair.feature_curr.tolist()))
        R_rel, t_rel = relative_pose(rotations[a], translations[a],
                                     rotations[b], translations[b])
        if rotation_angle_deg(R_rel) > 1e-9 or np.linalg.norm(t_rel) > 1e-12:
            static = False
        if static and len(pair):
            displacements_prev.append(pair.pos_prev)
            displacements_curr.append(pair.pos_curr)
        if len(pair) >= 8:
            est = estimate_essential_ransac(pair.pos_prev, pair.pos_curr, intrinsics,
                                            rng_seed=config.seed, adaptive=True)
            pose_errors.append(pose_error(est, R_rel, t_rel))
            inlier_ratios.append(est.inlier_ratio)
        else:
            pose_errors.append(math.inf)

    repeat = repeat_norm = None
    if static and displacements_prev:
        feats_per_frame = float(np.mean([c for c in stats.column("features") if c > 0]))
        rep = reprojection_repeatability(np.vstack(displacements_prev),
                                         np.vstack(displacements_curr), feats_per_frame)
        repeat = rep.mean_l2
        repeat_norm = rep.per_1000_features

    try:
        curve = pose_success_ratio(pose_errors, thresholds)
    except UndefinedMetricError:
        curve = []
    return EvalReport(pair_count=len(pose_errors), match_count=total,
                      precision=(correct / total if total else None),
                      mean_inlier_ratio=(float(np.mean(inlier_ratios)) if inlier_ratios else 0.0),
                      pose_errors=pose_errors, success_curve=curve,
                      repeatability=repeat, repeatability_per_1000=repeat_norm,
                      static_scene=static, stats=stats)


# ---------------------------------------------------------------------------
# Benchmarking
# ---------------------------------------------------------------------------

@dataclass
class BenchReport:
    repetitions: int
    pooled_stats: RunStats   # every repetition's rows: the stage medians and shares
    last_stats: RunStats     # the last repetition: the fps

    def to_text(self) -> str:
        lines = ["format=dynafeat-bench-v1", f"repetitions={self.repetitions}"]
        lines += _stage_summary_lines(self.last_stats.fps, self.pooled_stats.median_stage_ms(),
                                      self.pooled_stats.stage_percentages())
        return "\n".join(lines) + "\n"


def bench(config: PipelineConfig, sources, repetitions: int = 3) -> BenchReport:
    """Median-of-repetitions stage timings plus the stage breakdown.

    One untimed warmup run precedes the measurements so first-call costs
    (lazy imports, cold caches, first allocations) are not charged to the
    first repetition.
    """
    if repetitions < 1:
        raise InputDataError("repetitions must be >= 1")
    sources = list(sources)   # every run reads them again
    for _ in run_sequence(config, sources):  # warmup
        pass
    pooled = RunStats()
    for _ in range(repetitions):
        last = RunStats([row for row, _, _ in run_sequence(config, sources)])
        pooled.rows += last.rows
    return BenchReport(repetitions, pooled, last)
