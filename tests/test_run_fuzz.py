"""Whole-run differential fuzz: seeded random configs and scenes.

Each case draws a valid PipelineConfig from the space ``validate`` accepts,
a small cluster scene and a small kernel chunk, and checks every yielded
InlierColumns and TrackState against ``oracles.run_reference``, field for
field. A failing case names its draw, so it can be run again alone.
"""

import dataclasses

import numpy as np

from dynafeat import _kernels
from dynafeat.config import PipelineConfig
from dynafeat.errors import ConfigError
from dynafeat.frontend import FrameFeatures
from dynafeat.matching import InlierColumns
from dynafeat.pipeline import run_sequence
from dynafeat.synthetic import generate_sequence, make_cluster_scene

from oracles import run_reference

ARRAYS = [f.name for f in dataclasses.fields(InlierColumns)][2:]
CASES = 40


def _draw_config(rng):
    """A config that validates; draws that ``validate`` rejects are redrawn."""
    while True:
        window = float(rng.choice([6.0, 12.5, 30.0, 45.0])) if rng.random() < 0.5 \
            else float(rng.uniform(5.0, 60.0))
        min_group = int(rng.integers(1, 8))
        try:
            return PipelineConfig(
                window=window, min_group=min_group,
                max_group=int(rng.integers(min_group, 60)),
                max_bbox_side=window * float(rng.choice([1.0, 1.5, 3.0, 10.0])),
                k=float(rng.choice([0.25, 0.5, 1.0, 2.0, 3.0])),
                search_margin=float(rng.choice([0.5, 5.0, 20.0, 200.0])),
                seed=int(rng.integers(0, 1000)))
        except ConfigError:
            continue


def _draw_scene(rng):
    """Keyword arguments of make_cluster_scene, and the frame to empty or None."""
    frames = int(rng.integers(2, 5))
    translate = rng.random() < 0.5
    scene = dict(seed=int(rng.integers(0, 10**6)), frames=frames,
                 n_clusters=int(rng.integers(1, 30)),
                 points_per_cluster=int(rng.integers(1, 30)),
                 trajectory="translate_x" if translate else "static",
                 step=0.05 if translate else 0.0,
                 jitter_px=float(rng.choice([0.0, 0.1, 2.0])),
                 descriptor_bit_flips=int(rng.integers(0, 8)),
                 outlier_rate=float(rng.choice([0.0, 0.3, 0.9])),
                 desc_bits=int(rng.choice([8, 64, 136, 256, 512])))
    empty = int(rng.integers(0, frames)) if rng.random() < 0.3 else None
    return scene, empty


def _frames(scene, empty):
    frames = generate_sequence(make_cluster_scene(**scene), seed=scene["seed"]).frames
    if empty is not None:
        f = frames[empty]
        frames[empty] = FrameFeatures(f.frame_index, f.width, f.height, np.zeros((0, 2)),
                                      np.zeros(0), f.descriptors[:0], f.desc_bits)
    return frames


def _assert_run_equals_reference(config, frames):
    """Every yielded pair and state equals the reference's; returns the
    number of matches."""
    got = [(pair, state) for _, pair, state in run_sequence(config, frames)]
    want = list(run_reference(config, frames))
    assert len(got) == len(want) == len(frames)
    matches = 0
    for f, ((pair, state), (ref_pair, ref_state)) in enumerate(zip(got, want)):
        assert (pair is None) == (ref_pair is None), f
        if pair is not None:
            assert (pair.frame_prev, pair.frame_curr) == ref_pair["frames"], f
            for field in ARRAYS:
                assert getattr(pair, field).tolist() == ref_pair[field], (f, field)
            matches += len(pair)
        assert (state is None) == (ref_state is None), f
        if state is not None:
            assert state.groups.centroids.tolist() == ref_state["centroid"], f
            assert state.groups.counts.tolist() == ref_state["count"], f
            assert state.displacement.tolist() == ref_state["displacement"], f
            assert state.age.tolist() == ref_state["age"], f
            assert state.margin == ref_state["margin"], f
    return matches


def test_runs_equal_the_reference_over_random_configs(monkeypatch):
    rng = np.random.default_rng(18)
    matches = 0
    for case in range(CASES):
        config = _draw_config(rng)
        scene, empty = _draw_scene(rng)
        chunk = int(rng.integers(1, 4000))
        # chunks and row tiles of random shapes
        monkeypatch.setattr(_kernels, "_CHUNK_CELLS", chunk)
        try:
            matches += _assert_run_equals_reference(config, _frames(scene, empty))
        except AssertionError as exc:
            raise AssertionError(
                f"case {case}: {config!r}, scene {scene}, empty frame {empty}, "
                f"_CHUNK_CELLS {chunk}") from exc
    # the draws reach matches, not only empty runs
    assert matches > 1000
