"""Cross-check matching between group pairs and support-count acceptance.

A candidate group pair is scored by its mutual nearest-neighbor matches
(each feature must be the other's unique nearest neighbor; distance ties
disqualify). The pair is accepted when the support count strictly exceeds
k * sqrt(n_eff) with n_eff the smaller group size, and only accepted pairs
emit feature matches. A feature caught by several overlapping accepted
pairs keeps the match from the highest-scoring one.

All candidate pairs of a frame transition are scored in one batched
kernel call, and single pairs or whole feature sets go through the same
kernel as a batch of one; support lists on GroupMatch are materialized
lazily from the shared flat arrays. The surviving matches of a transition
are one InlierColumns record of column arrays, which the match-file
writer and the evaluator read directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .frontend import FrameFeatures
from .grouping import FeatureGroup
from .stats import support_threshold


@dataclass(slots=True)
class MatchCandidate:
    feature_a: int      # feature id in the earlier frame
    feature_b: int      # feature id in the later frame
    distance: float


@dataclass(eq=False)
class GroupMatch:
    group_prev: int
    group_curr: int
    score: int
    tau: float
    accepted: bool
    sup_a: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0, np.int64))
    sup_b: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0, np.int64))
    sup_dist: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0, np.int64))
    dist_sum: int | None = None    # total support distance; summed when absent

    def __post_init__(self):
        if self.dist_sum is None:
            self.dist_sum = self.sup_dist.sum().item()

    @property
    def supports(self) -> list[MatchCandidate]:
        return [MatchCandidate(int(a), int(b), float(d))
                for a, b, d in zip(self.sup_a, self.sup_b, self.sup_dist)]


def _descriptor_matrix(features) -> np.ndarray:
    if isinstance(features, FrameFeatures):
        return features.descriptors
    return np.asarray(features)


def mutual_nn_match(features_prev, features_curr) -> list[MatchCandidate]:
    """Mutual unique-nearest-neighbor pairs between two feature sets.

    Accepts FrameFeatures or a packed uint8 descriptor matrix; returned ids
    are row indices.
    """
    desc_a = _descriptor_matrix(features_prev)
    desc_b = _descriptor_matrix(features_curr)
    if desc_a.shape[0] == 0 or desc_b.shape[0] == 0:
        raise ValueError("descriptor sets must be non-empty")
    if desc_a.dtype != np.uint8 or desc_b.dtype != np.uint8:
        raise ValueError("Hamming matching needs packed uint8 descriptors")
    # one pair of groups, each holding its whole set
    one = np.zeros(1, np.int64)
    n_a, n_b = desc_a.shape[0], desc_b.shape[0]
    scores, _, ia, ib, dist = _kernels.batch_mutual_nn(
        np.ascontiguousarray(desc_a), np.ascontiguousarray(desc_b),
        np.arange(n_a, dtype=np.int64), one, np.array([n_a], np.int64),
        np.arange(n_b, dtype=np.int64), one, np.array([n_b], np.int64), one, one)
    n = int(scores[0])
    return [MatchCandidate(a, b, float(d))
            for a, b, d in zip(ia[:n].tolist(), ib[:n].tolist(), dist[:n].tolist())]


def _group_tables(groups: list[FeatureGroup]):
    """Flattened member ids with per-group offsets and counts, in list order."""
    cnt = np.array([g.n for g in groups], np.int64)
    off = np.zeros(len(groups), np.int64)
    np.cumsum(cnt[:-1], out=off[1:])
    mem = np.concatenate([g.members for g in groups]) if groups else np.zeros(0, np.int64)
    return mem, off, cnt


def _score_pairs(groups_prev, features_prev, groups_curr, features_curr,
                 pairs, k: float, accepted_only: bool) -> list[GroupMatch]:
    """Score (prev_id, curr_id) pairs in one batched kernel call; the one
    place the acceptance rule score > tau is applied."""
    slot_prev = {g.group_id: s for s, g in enumerate(groups_prev)}
    slot_curr = {g.group_id: s for s, g in enumerate(groups_curr)}
    for gp_id, gc_id in pairs:
        if gp_id not in slot_prev or gc_id not in slot_curr:
            raise ValueError(f"candidate pair ({gp_id}, {gc_id}) references unknown groups")
    mem_a, off_a, cnt_a = _group_tables(groups_prev)
    mem_b, off_b, cnt_b = _group_tables(groups_curr)
    pair_a = np.array([slot_prev[p] for p, _ in pairs], np.int64)
    pair_b = np.array([slot_curr[c] for _, c in pairs], np.int64)

    scores, out_off, ia, ib, dist = _kernels.batch_mutual_nn(
        features_prev.descriptors, features_curr.descriptors,
        mem_a, off_a, cnt_a, mem_b, off_b, cnt_b, pair_a, pair_b)

    taus = support_threshold(np.minimum(cnt_a[pair_a], cnt_b[pair_b]), k)
    accepted = scores > taus
    emit = np.nonzero(accepted)[0] if accepted_only else np.arange(len(pairs))
    starts = out_off[emit]
    stops = starts + scores[emit]
    dist_cum = np.zeros(dist.shape[0] + 1, np.int64)
    np.cumsum(dist, out=dist_cum[1:])
    dist_sums = dist_cum[stops] - dist_cum[starts]
    return [GroupMatch(*pairs[p], stop - start, tau, ok,
                       sup_a=ia[start:stop], sup_b=ib[start:stop],
                       sup_dist=dist[start:stop], dist_sum=dist_sum)
            for p, start, stop, dist_sum, tau, ok
            in zip(emit.tolist(), starts.tolist(), stops.tolist(), dist_sums.tolist(),
                   taus[emit].tolist(), accepted[emit].tolist())]


def score_group_pair(group_prev: FeatureGroup, features_prev: FrameFeatures,
                     group_curr: FeatureGroup, features_curr: FrameFeatures,
                     k: float = 2.0) -> GroupMatch:
    """Score one candidate pair; ids in the supports are frame feature ids."""
    return _score_pairs([group_prev], features_prev, [group_curr], features_curr,
                        [(group_prev.group_id, group_curr.group_id)], k,
                        accepted_only=False)[0]


def score_candidate_pairs(groups_prev: list[FeatureGroup], features_prev: FrameFeatures,
                          groups_curr: list[FeatureGroup], features_curr: FrameFeatures,
                          candidate_pairs, k: float = 2.0) -> list[GroupMatch]:
    """Score every candidate (prev_id, curr_id) pair; keep accepted ones.

    Pairs are scored independently; rejected pairs are dropped here since
    they emit nothing downstream.
    """
    candidate_pairs = list(candidate_pairs)
    if not candidate_pairs:
        return []
    return _score_pairs(groups_prev, features_prev, groups_curr, features_curr,
                        candidate_pairs, k, accepted_only=True)


@dataclass(eq=False)
class InlierColumns:
    """Deduplicated inlier matches of one transition as column arrays."""

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
    """One match per feature: highest-scoring pair wins, ties to the lower
    current group id, then smaller total support distance, then the lower
    previous group id."""
    if not accepted:
        z = np.zeros(0, np.int64)
        return InlierColumns(z, z, np.zeros((0, 2)), np.zeros((0, 2)),
                             np.zeros(0), z, z)
    score = np.array([gm.score for gm in accepted], np.int64)
    group_prev = np.array([gm.group_prev for gm in accepted], np.int64)
    group_curr = np.array([gm.group_curr for gm in accepted], np.int64)
    dist_sum = np.array([gm.dist_sum for gm in accepted])
    order = np.lexsort((group_prev, dist_sum, group_curr, -score))   # stable
    ranked = [accepted[i] for i in order.tolist()]
    ia = np.concatenate([gm.sup_a for gm in ranked])
    ib = np.concatenate([gm.sup_b for gm in ranked])
    dist = np.concatenate([gm.sup_dist for gm in ranked])
    sizes = [gm.sup_a.shape[0] for gm in ranked]
    gp_ids = np.repeat(group_prev[order], sizes)
    gc_ids = np.repeat(group_curr[order], sizes)
    keep = _kernels.claim_first(ia, ib, features_prev.count, features_curr.count)
    ia = ia[keep]
    ib = ib[keep]
    return InlierColumns(ia, ib, features_prev.positions[ia],
                         features_curr.positions[ib],
                         dist[keep].astype(np.float64), gp_ids[keep], gc_ids[keep])


def match_frame_pair(groups_prev: list[FeatureGroup], features_prev: FrameFeatures,
                     groups_curr: list[FeatureGroup], features_curr: FrameFeatures,
                     candidate_pairs, k: float = 2.0) -> tuple[list[GroupMatch], InlierColumns]:
    """Score candidate pairs and emit deduplicated inlier matches."""
    accepted = score_candidate_pairs(groups_prev, features_prev,
                                     groups_curr, features_curr, candidate_pairs, k)
    return accepted, dedup_inlier_columns(accepted, features_prev, features_curr)
