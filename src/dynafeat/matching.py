"""Cross-check matching between group pairs and support-count acceptance.

A candidate group pair is scored by its mutual nearest-neighbor matches
(each feature must be the other's unique nearest neighbor; distance ties
disqualify). The pair is accepted when the support count strictly exceeds
k * sqrt(n_eff) with n_eff the smaller group size, and only accepted pairs
emit feature matches, best pair first. A feature caught by several
overlapping accepted pairs keeps the match from the first, best-ranked one.

All candidate pairs of a frame transition are scored in one batched
kernel call, and whole feature sets go through the same kernel as a
batch of one; each GroupMatch holds views of its supports in the shared
flat arrays. Groups are named by their slot in the frame's group list.
The surviving matches of a transition are one InlierColumns record: the
two frame indices and column arrays, which the match-file writer and the
evaluator read directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .frontend import FrameFeatures
from .grouping import FeatureGroup
from .stats import support_threshold


@dataclass(eq=False)
class GroupMatch:
    """An accepted candidate pair and its supports (frame feature ids)."""

    group_prev: int     # slot in the previous frame's group list
    group_curr: int     # slot in the current frame's group list
    sup_a: np.ndarray = field(repr=False)
    sup_b: np.ndarray = field(repr=False)
    sup_dist: np.ndarray = field(repr=False)


def mutual_nn_match(desc_a: np.ndarray, desc_b: np.ndarray):
    """Mutual unique-nearest-neighbor pairs between two packed uint8
    descriptor matrices, as (ia, ib, dist) arrays of row indices and
    Hamming distances in ascending ``ia`` order. The kernel holds the whole
    n_a x n_b block at once (``_CHUNK_CELLS`` bounds only batches of small
    groups): ~21 B of peak RSS per cell at 256 bits, 80 MB at 2000 x 2000."""
    if desc_a.shape[0] == 0 or desc_b.shape[0] == 0:
        raise ValueError("descriptor sets must be non-empty")
    if desc_a.dtype != np.uint8 or desc_b.dtype != np.uint8:
        raise ValueError("Hamming matching needs packed uint8 descriptors")
    # one pair of groups, each holding its whole set
    one = np.zeros(1, np.int64)
    n_a, n_b = desc_a.shape[0], desc_b.shape[0]
    _, _, ia, ib, dist = _kernels.batch_mutual_nn(
        np.ascontiguousarray(desc_a), np.ascontiguousarray(desc_b),
        np.arange(n_a, dtype=np.int64), one, np.array([n_a], np.int64),
        np.arange(n_b, dtype=np.int64), one, np.array([n_b], np.int64), one, one)
    return ia, ib, dist


def _group_tables(groups: list[FeatureGroup]):
    """Flattened member ids with per-group offsets and counts, in list order."""
    cnt = np.array([g.n for g in groups], np.int64)
    off = np.zeros(len(groups), np.int64)
    np.cumsum(cnt[:-1], out=off[1:])
    mem = np.concatenate([g.members for g in groups]) if groups else np.zeros(0, np.int64)
    return mem, off, cnt


def score_candidate_pairs(groups_prev: list[FeatureGroup], features_prev: FrameFeatures,
                          groups_curr: list[FeatureGroup], features_curr: FrameFeatures,
                          candidate_pairs, k: float = 2.0) -> list[GroupMatch]:
    """Score (prev_slot, curr_slot) pairs in one batched kernel call and
    keep the accepted ones; the one place the acceptance rule score > tau
    is applied. Pairs are scored independently; rejected pairs are dropped
    here since they emit nothing downstream.

    The accepted pairs come back best first: highest score (support count)
    first, ties to the lower current slot, then to the smaller total
    support distance (chance pairs can tie a true pair's support count,
    but not its distances), then to the lower previous slot.
    """
    pairs = np.asarray(candidate_pairs, np.int64).reshape(-1, 2)
    pair_a, pair_b = pairs[:, 0], pairs[:, 1]
    if (pairs < 0).any() or (pair_a >= len(groups_prev)).any() \
            or (pair_b >= len(groups_curr)).any():
        raise ValueError("candidate pairs reference unknown group slots")
    mem_a, off_a, cnt_a = _group_tables(groups_prev)
    mem_b, off_b, cnt_b = _group_tables(groups_curr)

    scores, out_off, ia, ib, dist = _kernels.batch_mutual_nn(
        features_prev.descriptors, features_curr.descriptors,
        mem_a, off_a, cnt_a, mem_b, off_b, cnt_b, pair_a, pair_b)

    taus = support_threshold(np.minimum(cnt_a[pair_a], cnt_b[pair_b]), k)
    emit = np.flatnonzero(scores > taus)
    dist_cum = np.zeros(dist.shape[0] + 1, np.int64)
    np.cumsum(dist, out=dist_cum[1:])
    dist_sums = dist_cum[out_off[emit] + scores[emit]] - dist_cum[out_off[emit]]
    emit = emit[np.lexsort((pair_a[emit], dist_sums, pair_b[emit], -scores[emit]))]
    starts = out_off[emit]
    return [GroupMatch(gp, gc, ia[start:stop], ib[start:stop], dist[start:stop])
            for gp, gc, start, stop in zip(pair_a[emit].tolist(), pair_b[emit].tolist(),
                                           starts.tolist(), (starts + scores[emit]).tolist())]


@dataclass(eq=False)
class InlierColumns:
    """Deduplicated inlier matches of one frame transition as column arrays."""

    frame_prev: int
    frame_curr: int
    feature_prev: np.ndarray
    feature_curr: np.ndarray
    pos_prev: np.ndarray     # (n, 2)
    pos_curr: np.ndarray     # (n, 2)
    distance: np.ndarray
    group_prev: np.ndarray
    group_curr: np.ndarray

    def __len__(self) -> int:
        return self.feature_prev.shape[0]


def dedup_inlier_columns(accepted: list[GroupMatch], features_prev: FrameFeatures,
                         features_curr: FrameFeatures) -> InlierColumns:
    """One match per feature: the first listed pair that holds it wins,
    the best one in the list ``score_candidate_pairs`` returns."""
    frames = features_prev.frame_index, features_curr.frame_index
    if not accepted:
        z = np.zeros(0, np.int64)
        return InlierColumns(*frames, z, z, np.zeros((0, 2)), np.zeros((0, 2)),
                             np.zeros(0), z, z)
    ia = np.concatenate([gm.sup_a for gm in accepted])
    ib = np.concatenate([gm.sup_b for gm in accepted])
    dist = np.concatenate([gm.sup_dist for gm in accepted])
    sizes = [gm.sup_a.shape[0] for gm in accepted]
    gp_ids = np.repeat([gm.group_prev for gm in accepted], sizes)
    gc_ids = np.repeat([gm.group_curr for gm in accepted], sizes)
    keep = _kernels.claim_first(ia, ib, features_prev.count, features_curr.count)
    ia = ia[keep]
    ib = ib[keep]
    return InlierColumns(*frames, ia, ib, features_prev.positions[ia],
                         features_curr.positions[ib],
                         dist[keep].astype(np.float64), gp_ids[keep], gc_ids[keep])
