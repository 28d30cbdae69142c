"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Quantitative checks run against synthetic scenes with exact ground truth;
tolerances are fixed here, not tuned at runtime.
"""

import math
import os
import time

import numpy as np

from dynafeat import _kernels
from dynafeat.cli import main
from dynafeat.config import PipelineConfig
from dynafeat.frontend import FrameFeatures
from dynafeat.grouping import group_features
from dynafeat.matching import mutual_nn_match
from dynafeat.pipeline import bench, run_sequence
from dynafeat.geometry import (direction_angle_deg, estimate_essential_ransac,
                               rotation_angle_deg)
from dynafeat.stats import (p_false, p_false_crosscheck, p_true, p_true_crosscheck,
                            support_threshold)
from dynafeat.synthetic import (generate_sequence, make_cluster_scene,
                                make_two_view_points, save_sequence)
from dynafeat.tracking import advance, bootstrap, intersect_candidates

from oracles import mutual_nn_reference, region_grow_reference


def _report(criterion: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    print(f"[criterion {criterion:02d}] {status} {detail} ({elapsed:.1f}s)", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_probability_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10000):
        t = float(rng.uniform(0, 1))
        n_pool = int(rng.integers(1, 300))
        n = int(rng.integers(1, n_pool + 1))
        m_pool = int(rng.integers(1, 300))
        m = int(rng.integers(1, m_pool + 1))
        worst = max(worst,
                    abs(p_true_crosscheck(t, n, n_pool, m, m_pool)
                        - p_true(t, n, n_pool) * p_true(t, m, m_pool)),
                    abs(p_false_crosscheck(t, n, n_pool, m, m_pool)
                        - p_false(t, n, n_pool) * p_false(t, m, m_pool)))
    identities_ok = worst <= 1e-12

    trials = 100000
    mc_ok = True
    for _ in range(20):
        t = float(rng.uniform(0.05, 0.95))
        n_pool = int(rng.integers(5, 80))
        n = int(rng.integers(1, n_pool + 1))
        m_pool = int(rng.integers(5, 80))
        m = int(rng.integers(1, m_pool + 1))
        fwd_ok = rng.random(trials) < t
        fwd_in = rng.random(trials) < n / n_pool
        bwd_ok = rng.random(trials) < t
        bwd_in = rng.random(trials) < m / m_pool
        est_true = float(((fwd_ok | (~fwd_ok & fwd_in))
                          & (bwd_ok | (~bwd_ok & bwd_in))).mean())
        est_false = float(((~fwd_ok & fwd_in) & (~bwd_ok & bwd_in)).mean())
        for est, p in ((est_true, p_true_crosscheck(t, n, n_pool, m, m_pool)),
                       (est_false, p_false_crosscheck(t, n, n_pool, m, m_pool))):
            se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            if abs(est - p) > 3 * se + 1e-9:
                mc_ok = False
    elapsed_ok = time.perf_counter() - started < 30.0
    _report(1, identities_ok and mc_ok and elapsed_ok,
            f"cross-check identities (worst {worst:.1e}) and Monte-Carlo event model",
            started)


def test_criterion_02_threshold_values():
    started = time.perf_counter()
    exact_ok = support_threshold(25, 2.0) == 10.0
    taus = [support_threshold(n, 2.0) for n in range(5, 36)]
    monotone_ok = all(b > a for a, b in zip(taus, taus[1:]))
    reachable_ok = all(support_threshold(n, 2.0) < n for n in range(5, 36))
    _report(2, exact_ok and monotone_ok and reachable_ok,
            "tau(25, 2) = 10 exactly, monotone over [5, 35], tau(n) < n", started)


def test_criterion_03_clustering_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    cap_violations = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 501))
        pos = np.column_stack([rng.uniform(0, 639, n), rng.uniform(0, 479, n)])
        frame = FrameFeatures(0, 640, 480, pos, np.zeros(n),
                              np.zeros((n, 32), np.uint8))
        cfg = PipelineConfig(seed=seed)
        result = group_features(frame, cfg)
        ours = [g.members.tolist() for g in result.groups]
        ref = region_grow_reference(pos, cfg.window, cfg.min_group,
                                    cfg.max_group, cfg.max_bbox_side, seed)
        if ours != ref:
            mismatches += 1
        for g in result.groups:
            side = g.bbox_max - g.bbox_min
            if not (5 <= g.n <= 35) or side.max() > cfg.max_bbox_side:
                cap_violations += 1
    elapsed_ok = time.perf_counter() - started < 60.0
    _report(3, mismatches == 0 and cap_violations == 0 and elapsed_ok,
            f"1000 random frames equal the queue-replay oracle "
            f"({mismatches} mismatches, {cap_violations} cap violations)", started)


def test_criterion_04_mutual_nn_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        a = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(20)]
        b = [rng.integers(0, 256, 32, dtype=np.uint8) for _ in range(20)]
        if seed % 3 == 0:  # exercise tie disqualification
            a[1] = a[0].copy()
        ours = list(zip(*(c.tolist() for c in mutual_nn_match(np.stack(a), np.stack(b)))))
        if ours != mutual_nn_reference(a, b):
            mismatches += 1
    elapsed_ok = time.perf_counter() - started < 30.0
    _report(4, mismatches == 0 and elapsed_ok,
            f"1000 random 20x20 instances equal the bidirectional oracle "
            f"({mismatches} mismatches)", started)


def _pipeline_displacements(seq):
    prev = []
    curr = []
    for _, pair, _ in run_sequence(PipelineConfig(), seq.frames):
        if pair is not None:
            prev.extend(pair.pos_prev.tolist())
            curr.extend(pair.pos_curr.tolist())
    return np.array(prev), np.array(curr)


def test_criterion_05_static_repeatability():
    started = time.perf_counter()
    clean = generate_sequence(make_cluster_scene(seed=50, frames=10,
                                                 trajectory="static"), seed=50)
    prev, curr = _pipeline_displacements(clean)
    zero_ok = len(prev) > 0 and float(np.linalg.norm(curr - prev, axis=1).mean()) == 0.0

    jittered = generate_sequence(make_cluster_scene(seed=51, frames=10,
                                                    trajectory="static",
                                                    jitter_px=0.1), seed=51)
    prev_j, curr_j = _pipeline_displacements(jittered)
    mean_j = float(np.linalg.norm(curr_j - prev_j, axis=1).mean())
    band_ok = 0.1 <= mean_j <= 0.25  # Rayleigh mean = 0.1 * sqrt(pi) ~ 0.177
    elapsed_ok = time.perf_counter() - started < 60.0
    _report(5, zero_ok and band_ok and elapsed_ok,
            f"noiseless mean L2 exactly 0.0; 0.1 px jitter gives {mean_j:.3f} "
            f"in [0.1, 0.25]", started)


def test_criterion_06_pose_recovery():
    started = time.perf_counter()
    clean_fail = 0
    for seed in range(100):
        pa, pb, R, t_dir, K = make_two_view_points(seed, 50)
        est = estimate_essential_ransac(pa, pb, K, rng_seed=seed, adaptive=True)
        if rotation_angle_deg(est.rotation @ R.T) >= 1e-6 \
                or direction_angle_deg(est.translation_dir, t_dir) >= 1e-6:
            clean_fail += 1

    outlier_ok = 0
    for seed in range(100):
        pa, pb, R, t_dir, K = make_two_view_points(seed + 1000, 50)
        rng = np.random.default_rng(seed + 2000)
        n_out = 22  # 22 / 72 ~ 30% of the correspondence set
        oa = np.column_stack([rng.uniform(0, 640, n_out), rng.uniform(0, 480, n_out)])
        ob = np.column_stack([rng.uniform(0, 640, n_out), rng.uniform(0, 480, n_out)])
        est = estimate_essential_ransac(np.vstack([pa, oa]), np.vstack([pb, ob]), K,
                                        inlier_threshold=1.0, max_iterations=600,
                                        rng_seed=seed, adaptive=True)
        if rotation_angle_deg(est.rotation @ R.T) < 0.5:
            outlier_ok += 1
    elapsed_ok = time.perf_counter() - started < 120.0
    _report(6, clean_fail == 0 and outlier_ok >= 95 and elapsed_ok,
            f"noiseless {100 - clean_fail}/100 below 1e-6 deg; "
            f"30% outliers {outlier_ok}/100 below 0.5 deg", started)


def test_criterion_07_filtering_benefit():
    started = time.perf_counter()
    pipeline_precisions = []
    raw_precisions = []
    for seed in range(20):
        scene = make_cluster_scene(seed=seed + 300, frames=10, n_clusters=30,
                                   points_per_cluster=10, trajectory="translate_x",
                                   step=0.1, jitter_px=0.1,
                                   descriptor_bit_flips=8, outlier_rate=0.2)
        seq = generate_sequence(scene, seed=seed + 300)
        correct = 0
        total = 0
        raw_correct = 0
        raw_total = 0
        for _, pair, _ in run_sequence(PipelineConfig(), seq.frames):
            if pair is None:
                continue
            gt = {(int(i), int(j))
                  for i, j in seq.gt_pairs[(pair.frame_prev, pair.frame_curr)]}
            total += len(pair)
            correct += sum(ids in gt for ids in zip(pair.feature_prev.tolist(),
                                                    pair.feature_curr.tolist()))
            ia, ib, _ = mutual_nn_match(seq.frames[pair.frame_prev].descriptors,
                                        seq.frames[pair.frame_curr].descriptors)
            raw_total += len(ia)
            raw_correct += sum(ids in gt for ids in zip(ia.tolist(), ib.tolist()))
        pipeline_precisions.append(correct / total)
        raw_precisions.append(raw_correct / raw_total)
    mean_pipeline = float(np.mean(pipeline_precisions))
    mean_raw = float(np.mean(raw_precisions))
    elapsed_ok = time.perf_counter() - started < 120.0
    _report(7, mean_pipeline >= mean_raw and mean_pipeline >= 0.95 and elapsed_ok,
            f"pipeline precision {mean_pipeline:.4f} >= raw mutual-NN {mean_raw:.4f} "
            f"and >= 0.95 (20 seeds)", started)


def test_criterion_08_temporal_recall():
    started = time.perf_counter()
    margin = 30.0
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        step_px = float(rng.uniform(3.0, 28.0)) * float(rng.choice([-1.0, 1.0]))
        # flat-depth translation: pixel shift = fx * step / depth, exact
        step_world = step_px * 8.0 / 500.0
        # landmarks placed so no point leaves the frame over the sequence:
        # grouping then repeats identically and motion stays <= margin
        drift = 3 * abs(step_px)
        scene = make_cluster_scene(seed=seed + 600, frames=4, n_clusters=14,
                                   points_per_cluster=9, trajectory="translate_x",
                                   step=step_world, flat_depth=True,
                                   border_margin=20.0 + drift + 10.0)
        seq = generate_sequence(scene, seed=seed + 600)
        cfg = PipelineConfig()
        groupings = [group_features(f, cfg) for f in seq.frames]
        state = bootstrap(seq.frames[0], groupings[0].groups, margin)
        for f in range(1, len(seq.frames)):
            curr_groups = groupings[f].groups
            candidates = set(map(tuple, intersect_candidates(curr_groups, state).tolist()))
            gt = seq.gt_pairs[(f - 1, f)]
            true_pairs = set()
            for i_prev, i_curr in gt:
                gp = groupings[f - 1].group_id_of(int(i_prev))
                gc = groupings[f].group_id_of(int(i_curr))
                if gp is not None and gc is not None:
                    true_pairs.add((gp, gc))
            if not true_pairs <= candidates:
                failures += 1
            from dynafeat.matching import score_candidate_pairs
            accepted = score_candidate_pairs(state.groups, state.features,
                                             curr_groups, seq.frames[f],
                                             sorted(candidates), k=cfg.k)
            state = advance(state, seq.frames[f], curr_groups, accepted, margin)
    elapsed_ok = time.perf_counter() - started < 60.0
    _report(8, failures == 0 and elapsed_ok,
            f"candidate recall 1.0 for motion <= margin on 100 seeds "
            f"({failures} transitions missed pairs)", started)


def test_criterion_09_performance_smoke():
    started = time.perf_counter()
    scene = make_cluster_scene(seed=900, frames=4, n_clusters=200,
                               points_per_cluster=35, cluster_radius_px=7.0,
                               trajectory="translate_x", step=0.05,
                               jitter_px=0.1, descriptor_bit_flips=6)
    seq = generate_sequence(scene, seed=900)
    counts = [f.count for f in seq.frames]
    report = bench(PipelineConfig(), seq.frames, repetitions=3)
    med = report.pooled_stats.median_stage_ms()
    hot = med["matching"] + med["filtering"]
    pct = report.pooled_stats.stage_percentages()
    breakdown = " ".join(f"{name}={pct[name]:.0f}%"
                         for name in ("detection", "grouping", "matching", "filtering"))
    print(f"[criterion 09] stage breakdown: {breakdown}; "
          f"features/frame ~{int(np.mean(counts))}; backend={_kernels.active_backend()}",
          flush=True)
    target_met = hot < 25.0
    if not target_met:
        print(f"[criterion 09] note: {hot:.1f} ms misses the 25 ms target "
              "(recorded, hard limit is 100 ms)", flush=True)
    _report(9, hot < 100.0,
            f"matching+filtering median {hot:.2f} ms/frame on ~7000 features "
            f"(target < 25, hard < 100)", started)


def test_criterion_10_match_determinism(tmp_path):
    started = time.perf_counter()
    suites = {
        "static": make_cluster_scene(seed=70, frames=5, trajectory="static",
                                     jitter_px=0.1, descriptor_bit_flips=4),
        "translating": make_cluster_scene(seed=71, frames=5,
                                          trajectory="translate_x", step=0.08,
                                          jitter_px=0.1, descriptor_bit_flips=8,
                                          outlier_rate=0.2),
    }
    identical = True
    for name, scene in suites.items():
        seq = generate_sequence(scene, seed=72)
        src = tmp_path / f"src_{name}"
        save_sequence(seq, src)
        cfg_path = tmp_path / f"{name}.cfg"
        PipelineConfig(timing=False).save(cfg_path)
        digests = []
        for run in range(2):
            out = tmp_path / f"{name}_run{run}"
            rc = main(["match", str(cfg_path), str(src), "--output-dir", str(out)])
            assert rc == 0
            digests.append({f: (out / f).read_bytes()
                            for f in sorted(os.listdir(out))})
        if digests[0] != digests[1]:
            identical = False
    _report(10, identical,
            "two match runs per suite produce byte-identical match files", started)
