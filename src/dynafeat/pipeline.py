"""End-to-end frame loop: extract, group, restrict, match, advance.

Per frame the pipeline loads or detects features, clusters them into
groups, intersects current groups with the motion-predicted search
regions of the previous frame, cross-check matches every candidate pair,
keeps pairs whose support count clears the threshold, emits the surviving
feature matches and carries the group state forward. Stage wall times are
taken with a monotonic clock.

The run is a stream: ``run_sequence`` pulls each source as its frame comes
up, yields the frame's records as soon as it is done and keeps only the
tracking state the next frame needs, so memory does not grow with the
sequence length. The ``match``, ``eval`` and ``bench`` verbs each consume
that stream; ``eval``'s scorer lives in ``synthetic``, not here, so a
``match`` run loads neither the ground truth nor ``geometry``.

Frames that yield zero features are skipped with a warning on stderr; the
previous state, if there is one yet, is kept with its search margin
doubled so the next usable frame can still be matched. Every frame must
carry descriptors of the first frame's bit width; a frame that differs
stops the run with InputDataError at that frame.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import matching, tracking
from .config import PipelineConfig
from .errors import InputDataError
from .frontend import FrameFeatures, _fmt, extract_frame, load_features
from .grouping import group_features
from .image_io import load_image

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


def run_sequence(config: PipelineConfig, sources):
    """Run the matching pipeline over ordered frame sources, one frame at a time.

    Each source is a FrameFeatures record or a file path read per
    ``config.input_mode``. At least two frames are required. Sources are
    pulled one at a time, at most one past the frame in progress. Yields one
    ``(row, pair, state)`` per source once that frame is done: its RunStats
    row, the InlierColumns of the transition it ends or None, and the
    TrackState it leaves, or None if the frame was skipped.
    """
    sources = iter(sources)
    head = list(itertools.islice(sources, 2))
    if len(head) < 2:
        raise InputDataError("at least 2 frames are required")

    state: tracking.TrackState | None = None
    margin = config.search_margin
    skip_margin = margin

    for idx, source in enumerate(itertools.chain(head, sources)):
        t0 = time.perf_counter()
        feats = source if isinstance(source, FrameFeatures) else load_frame(config, source, idx)
        t1 = time.perf_counter()
        if idx == 0:
            desc_bits = feats.desc_bits
        elif feats.desc_bits != desc_bits:
            raise InputDataError(f"frame {idx} has {feats.desc_bits}-bit descriptors, "
                                 f"frame 0 has {desc_bits}-bit ones")

        if feats.count == 0:
            kept = "no state yet" if state is None else "state preserved"
            print(f"frame {idx}: no features, skipping ({kept})", file=sys.stderr)
            if state is not None:
                skip_margin *= 2.0
                state = replace(state, margin=skip_margin)
            yield ({**dict.fromkeys(COLUMNS, 0), "detect_ms": (t1 - t0) * 1000.0,
                    "total_ms": (time.perf_counter() - t0) * 1000.0}, None, None)
            continue

        groups = group_features(feats, config)
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
        # the kernel's support arrays are in the pair and the state now: let
        # them go before the consumer writes
        candidates = accepted = None
        yield row, pair, state
        # the consumer holds what it keeps of the pair; let the previous
        # frame go before the next frame runs
        pair = None


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _column_text(column: np.ndarray) -> list[str]:
    """repr of every entry, formatted once per distinct value. Values are
    told apart by their bits, so -0.0 keeps its own text."""
    column = np.ascontiguousarray(column)
    uniq, inverse = np.unique(column.view(f"i{column.itemsize}"), return_inverse=True)
    text = np.array([repr(v) for v in uniq.view(column.dtype).tolist()], dtype=object)
    return text[inverse].tolist()


def write_match_files(pairs, out_dir) -> list[str]:
    """One match file per pair. Each frame's ``"x y"`` text is made when the
    frame is first written, and read again when it is the next pair's prev."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for pair in pairs:
        path = os.path.join(out_dir, f"matches_{pair.frame_prev:06d}_{pair.frame_curr:06d}.txt")
        head = f"{pair.frame_prev} {pair.frame_curr}"
        prev, curr = pair.prev.position_text, pair.curr.position_text
        lines = [f"{head} {prev[i]} {curr[j]} {d} {gp} {gc}\n"
                 for i, j, d, gp, gc in zip(pair.feature_prev.tolist(), pair.feature_curr.tolist(),
                                            _column_text(pair.distance),
                                            _column_text(pair.group_prev),
                                            _column_text(pair.group_curr))]
        with open(path, "w", encoding="ascii") as fh:
            fh.write("".join(lines))
        written.append(path)
    return written


def write_tracks(fh, state: tracking.TrackState) -> None:
    frame = state.features.frame_index
    for slot, ((cx, cy), (dx, dy), a, n) in enumerate(zip(
            state.groups.centroids.tolist(), state.displacement.tolist(), state.age.tolist(),
            state.groups.counts.tolist())):
        fh.write(f"{frame} {slot} {_fmt(cx)} {_fmt(cy)} {_fmt(dx)} {_fmt(dy)} {a} {n}\n")


def write_stats(stats: RunStats, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(stats.to_text())


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
