"""Metamorphic invariants of the whole run.

Each transformed input must give the same InlierColumns as the plain run,
array for array (positions scaled with the input). The three transforms
hold by construction, on any input:

- every descriptor XORed with one byte mask, and one byte permutation
  applied in every frame, keep every Hamming distance;
- scaling positions, frame size, ``window``, ``max_bbox_side`` and
  ``search_margin`` by a power of two is exact in binary floating point.

A run whose kernels use one thread must also give the default run's
InlierColumns, since the kernels' split over threads is exact. Runs on a
few of these inputs must also equal ``oracles.run_reference``, the whole
run composed of the stage oracles.
"""

import dataclasses
import os
import threading

import numpy as np
import pytest

from dynafeat import _kernels
from dynafeat.config import PipelineConfig
from dynafeat.frontend import DEFAULT_DESC_BITS, FrameFeatures
from dynafeat.matching import InlierColumns
from dynafeat.pipeline import COLUMNS, load_frame, run_sequence
from dynafeat.synthetic import generate_sequence, make_cluster_scene

from oracles import run_reference

# the pipeline counters of a RunStats row (the rest are stage times)
COUNTERS = [c for c in COLUMNS if not c.endswith("_ms")]
ARRAYS = [f.name for f in dataclasses.fields(InlierColumns)][2:]


def _workload_frames(name, tmp_dir):
    """The seed-301 frames of a benchmark workload, as the run reads them."""
    import workloads
    wl = workloads.WORKLOADS[name]
    workloads.generate(wl, 301, tmp_dir)
    names = sorted(os.listdir(tmp_dir))
    return [load_frame(PipelineConfig(), os.path.join(tmp_dir, n), i)
            for i, n in enumerate(names)]


def _cluster_frames(seed, outlier_rate=0.1, desc_bits=DEFAULT_DESC_BITS):
    scene = make_cluster_scene(seed=seed, frames=6, n_clusters=40, points_per_cluster=12,
                               trajectory="translate_x", step=0.06, jitter_px=0.1,
                               descriptor_bit_flips=6, outlier_rate=outlier_rate,
                               desc_bits=desc_bits)
    return generate_sequence(scene, seed=seed).frames


def _max_group_frames(seed=23, n_clusters=26, points_per_cluster=100):
    """A dense scene of 100-point clusters: most groups close at max_group,
    and each transition scores hundreds of pairs of full groups."""
    scene = make_cluster_scene(seed=seed, frames=4, n_clusters=n_clusters,
                               points_per_cluster=points_per_cluster,
                               cluster_radius_px=10.0, trajectory="translate_x", step=0.06,
                               jitter_px=0.1, descriptor_bit_flips=6, outlier_rate=0.05)
    return generate_sequence(scene, seed=seed).frames


def _with_skips(frames, skipped):
    return [dataclasses.replace(f, positions=np.zeros((0, 2)), responses=np.zeros(0),
                                descriptors=f.descriptors[:0]) if i in skipped else f
            for i, f in enumerate(frames)]


def _grid_frames(seed=7, frames=4):
    """Features on the cell edges and centre lines of the grouping grid.

    Every coordinate is a multiple of half the default window, so it lies on
    a cell edge or a cell's centre line, and neighbours sit exactly one
    window radius apart. Each cluster is 4 x 4 such points, and the scene
    moves in half-window steps, so the features stay on those lines.
    """
    half = PipelineConfig().window / 2.0
    rng = np.random.default_rng(seed)
    pts = np.array([(cx + dx, cy + dy) for cx in range(4, 36, 8) for cy in range(4, 28, 8)
                    for dx in range(4) for dy in range(4)], float)
    desc = rng.integers(0, 256, (len(pts), 32), dtype=np.uint8)
    rows = np.arange(len(pts))
    out = []
    for f in range(frames):
        noisy = desc.copy()
        for _ in range(4):   # a few bit flips per descriptor and frame
            bit = rng.integers(0, 256, len(pts))
            noisy[rows, bit // 8] ^= (1 << (bit % 8)).astype(np.uint8)
        out.append(FrameFeatures(f, 640, 480, (pts + (f, f % 2)) * half,
                                 np.zeros(len(pts)), noisy))
    return out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(perfbench)
        frames = {name: _workload_frames(name, str(tmp_path_factory.mktemp(name)))
                  for name in ("sparse300", "dense7k")}
    frames["cluster5"] = _cluster_frames(5)
    frames["cluster17"] = _cluster_frames(17)
    # a skip right after the first frame, and two in a row later on
    frames["skipped"] = _with_skips(_cluster_frames(5), {1, 3, 4})
    frames["grid"] = _grid_frames()
    frames["maxgroup"] = _max_group_frames()
    return frames


def _run(config, frames):
    """Counters of every row, and the InlierColumns of every transition."""
    rows, pairs = [], []
    for row, pair, _ in run_sequence(config, frames):
        rows.append([row[c] for c in COUNTERS])
        if pair is not None:
            pairs.append(pair)
    return rows, pairs


@pytest.fixture(scope="module")
def plain_runs():
    return {}   # input name -> _run of the untransformed input, filled on first use


def _xor_mask(frames, config):
    mask = np.random.default_rng(1).integers(0, 256, frames[0].descriptors.shape[1],
                                             dtype=np.uint8)
    return [dataclasses.replace(f, descriptors=f.descriptors ^ mask) for f in frames], config, 1.0


def _byte_permutation(frames, config):
    perm = np.random.default_rng(2).permutation(frames[0].descriptors.shape[1])
    return [dataclasses.replace(f, descriptors=f.descriptors[:, perm]) for f in frames], config, 1.0


def _scaled(s):
    def transform(frames, config):
        scaled = [dataclasses.replace(f, width=round(f.width * s), height=round(f.height * s),
                                      positions=f.positions * s) for f in frames]
        return scaled, config.replace(window=config.window * s,
                                      max_bbox_side=config.max_bbox_side * s,
                                      search_margin=config.search_margin * s), s
    return transform


INPUTS = ["sparse300", "dense7k", "cluster5", "cluster17", "skipped", "grid", "maxgroup"]

TRANSFORMS = {"xor_mask": _xor_mask, "byte_permutation": _byte_permutation,
              "scale_2": _scaled(2.0), "scale_quarter": _scaled(0.25)}


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("name", INPUTS)
def test_transformed_run_gives_the_same_matches(inputs, plain_runs, name, transform):
    if name not in plain_runs:
        plain_runs[name] = _run(PipelineConfig(), inputs[name])
    plain_rows, plain_pairs = plain_runs[name]
    assert sum(len(p) for p in plain_pairs) > 0
    frames, config, scale = TRANSFORMS[transform](inputs[name], PipelineConfig())
    rows, pairs = _run(config, frames)
    assert rows == plain_rows
    assert len(pairs) == len(plain_pairs)
    for pair, plain in zip(pairs, plain_pairs):
        assert (pair.frame_prev, pair.frame_curr) == (plain.frame_prev, plain.frame_curr)
        for field in ARRAYS:
            expected = getattr(plain, field)
            if field.startswith("pos_"):
                expected = expected * scale
            np.testing.assert_array_equal(getattr(pair, field), expected, err_msg=field,
                                          strict=True)


@pytest.mark.parametrize("name", INPUTS)
def test_one_worker_gives_the_same_matches(inputs, plain_runs, monkeypatch, name):
    # the kernels run in the calling thread, their one worker: a run that
    # may start no thread gives the plain run's output, array for array,
    # and nothing one run leaves behind changes the next
    if name not in plain_runs:
        plain_runs[name] = _run(PipelineConfig(), inputs[name])
    plain_rows, plain_pairs = plain_runs[name]

    def no_thread(thread):
        raise AssertionError(f"a run on {name} started {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    rows, pairs = _run(PipelineConfig(), inputs[name])
    assert rows == plain_rows
    assert len(pairs) == len(plain_pairs)
    for pair, plain in zip(pairs, plain_pairs):
        assert (pair.frame_prev, pair.frame_curr) == (plain.frame_prev, plain.frame_curr)
        for field in ARRAYS:
            np.testing.assert_array_equal(getattr(pair, field), getattr(plain, field),
                                          err_msg=field, strict=True)


def test_max_group_scene_splits_full_blocks(inputs, monkeypatch):
    # every kernel call of the scene pads its blocks to max_group on both
    # sides, runs in 4 chunks or more, and pairs
    # two full groups in over a third of its pairs; the chunk is pinned
    # here, so that tuning the default does not empty the test
    chunk = 1 << 16
    monkeypatch.setattr(_kernels, "_CHUNK_CELLS", chunk)
    calls = []
    kernel = _kernels.batch_mutual_nn

    def record(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "batch_mutual_nn", record)
    _run(PipelineConfig(), inputs["maxgroup"])
    side = PipelineConfig().max_group
    assert len(calls) == 3
    for args in calls:
        cnt_a, cnt_b, pair_a, pair_b = args[4], args[7], args[8], args[9]
        assert cnt_a[pair_a].max() == cnt_b[pair_b].max() == side
        assert len(pair_a) >= 4 * (chunk // (side * side))
        assert ((cnt_a[pair_a] == side) & (cnt_b[pair_b] == side)).mean() > 1 / 3


def test_dense_scene_claims_in_a_few_rounds(inputs, monkeypatch):
    # the dense scene's dedup claims finish in their rounds: the ordered
    # scan that bounds chained inputs never runs on it
    rounds = []
    claim = _kernels._claim_rounds

    def record(*args):
        keep, count = claim(*args)
        rounds.append(count)
        return keep, count

    monkeypatch.setattr(_kernels, "_claim_rounds", record)
    _run(PipelineConfig(), inputs["dense7k"])
    assert len(rounds) == 4
    assert all(2 <= count <= 4 < _kernels._CLAIM_ROUNDS for count in rounds), rounds


# inputs of the whole-run reference: its brute-force oracles take up to a
# second per input where the run takes milliseconds, so the seed-301
# sparse scene is cut to 12 frames, the cluster scenes to 4 and the
# max-group scene to 3 frames of 6 clusters of 80 points (two of each
# cluster's three groups close at max_group)
REFERENCE_INPUTS = {
    "sparse300_12": lambda inputs: inputs["sparse300"][:12],
    "outliers_3": lambda inputs: _cluster_frames(3, outlier_rate=0.3)[:4],
    "outliers_11": lambda inputs: _cluster_frames(11, outlier_rate=0.3)[:4],
    "outliers_19": lambda inputs: _cluster_frames(19, outlier_rate=0.3)[:4],
    "maxgroup": lambda inputs: _max_group_frames(n_clusters=6, points_per_cluster=80)[:3],
    "skipped": lambda inputs: inputs["skipped"],
    "desc_bits_136": lambda inputs: _cluster_frames(7, desc_bits=136)[:4],
}


@pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
def test_run_equals_stage_oracle_reference(inputs, name):
    # every yielded InlierColumns and TrackState equals the reference's,
    # row for row; skipped frames yield neither on both sides
    frames = REFERENCE_INPUTS[name](inputs)
    config = PipelineConfig()
    got = [(pair, state) for _, pair, state in run_sequence(config, frames)]
    want = list(run_reference(config, frames))
    assert len(got) == len(want) == len(frames)
    matches = continued = 0
    for (pair, state), (ref_pair, ref_state) in zip(got, want):
        assert (pair is None) == (ref_pair is None)
        if pair is not None:
            assert (pair.frame_prev, pair.frame_curr) == ref_pair["frames"]
            for field in ARRAYS:
                assert getattr(pair, field).tolist() == ref_pair[field], field
            matches += len(pair)
        assert (state is None) == (ref_state is None)
        if state is not None:
            assert state.groups.centroids.tolist() == ref_state["centroid"]
            assert state.groups.counts.tolist() == ref_state["count"]
            assert state.displacement.tolist() == ref_state["displacement"]
            assert state.age.tolist() == ref_state["age"]
            assert state.margin == ref_state["margin"]
            continued += len(state.proxies)
    assert matches > 0 and continued > 0
