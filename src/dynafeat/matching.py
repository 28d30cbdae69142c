"""Cross-check matching between group pairs and support-count acceptance.

A candidate group pair is scored by its mutual nearest-neighbor matches
(each feature must be the other's unique nearest neighbor; distance ties
disqualify). The pair is accepted when the support count strictly exceeds
k * sqrt(n_eff) with n_eff the smaller group size, and only accepted pairs
emit feature matches, best pair first. A feature caught by several
overlapping accepted pairs keeps the match from the first, best-ranked one.

All candidate pairs of a frame transition are scored in one batched
kernel call, and whole feature sets go through the same kernel as a
batch of one. The accepted pairs are one AcceptedPairs record of columns,
supports included, best first; iterating it builds GroupMatch row views.
The surviving matches of a transition are one InlierColumns record: its
two frames and column arrays of feature ids, distances and group ids,
which the match-file writer and the evaluator read directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .frontend import FrameFeatures
from .grouping import GroupingResult
from .stats import DEFAULT_K, support_threshold


@dataclass(eq=False)
class GroupMatch:
    """An accepted pair and its supports (frame feature ids): a row of AcceptedPairs."""

    group_prev: int     # slot in the previous frame's group table
    group_curr: int     # slot in the current frame's group table
    sup_a: np.ndarray = field(repr=False)
    sup_b: np.ndarray = field(repr=False)
    sup_dist: np.ndarray = field(repr=False)


@dataclass(eq=False)
class AcceptedPairs:
    """One transition's accepted pairs as columns, best first."""

    group_prev: np.ndarray   # (P,) slots in the previous frame's group table
    group_curr: np.ndarray   # (P,) slots in the current frame's group table
    scores: np.ndarray       # (P,) support counts
    ia: np.ndarray = field(repr=False)   # supports: pair k's scores[k] rows follow pair k-1's
    ib: np.ndarray = field(repr=False)
    dist: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.scores.shape[0]

    def __iter__(self):
        """GroupMatch row views, best first, built on each pass."""
        cuts = np.cumsum(self.scores)[:-1]
        yield from map(GroupMatch, self.group_prev.tolist(), self.group_curr.tolist(),
                       *(np.split(col, cuts) for col in (self.ia, self.ib, self.dist)))


def mutual_nn_match(desc_a: np.ndarray, desc_b: np.ndarray):
    """Mutual unique-nearest-neighbor pairs between two packed uint8
    descriptor matrices, as (ia, ib, dist) arrays of row indices and
    Hamming distances in ascending ``ia`` order. The kernel scores the
    n_a x n_b block in tiles of first-side rows of one chunk each
    (``_kernels._CHUNK_CELLS`` cells, or one n_b row if longer), so its
    memory does not grow with n_a: about 3 MB traced at 3000 x 3000 rows
    of 256 bits, where the whole block would take about 190 MB."""
    if desc_a.shape[0] == 0 or desc_b.shape[0] == 0:
        raise ValueError("descriptor sets must be non-empty")
    if desc_a.dtype != np.uint8 or desc_b.dtype != np.uint8:
        raise ValueError("Hamming matching needs packed uint8 descriptors")
    # one pair of groups, each holding its whole set
    one = np.zeros(1, np.int64)
    n_a, n_b = desc_a.shape[0], desc_b.shape[0]
    return _kernels.batch_mutual_nn(
        np.ascontiguousarray(desc_a), np.ascontiguousarray(desc_b),
        np.arange(n_a, dtype=np.int64), one, np.array([n_a], np.int64),
        np.arange(n_b, dtype=np.int64), one, np.array([n_b], np.int64), one, one)[1:]


def score_candidate_pairs(groups_prev: GroupingResult, features_prev: FrameFeatures,
                          groups_curr: GroupingResult, features_curr: FrameFeatures,
                          candidate_pairs, k: float = DEFAULT_K) -> AcceptedPairs:
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

    scores, ia, ib, dist = _kernels.batch_mutual_nn(
        features_prev.descriptors, features_curr.descriptors,
        groups_prev.members, groups_prev.offsets, groups_prev.counts,
        groups_curr.members, groups_curr.offsets, groups_curr.counts, pair_a, pair_b)

    taus = support_threshold(np.minimum(groups_prev.counts[pair_a], groups_curr.counts[pair_b]), k)
    emit = np.flatnonzero(scores > taus)
    ends = np.cumsum(scores)
    dist_cum = np.concatenate(([0], np.cumsum(dist)))
    dist_sums = dist_cum[ends[emit]] - dist_cum[ends[emit] - scores[emit]]
    emit = emit[np.lexsort((pair_a[emit], dist_sums, pair_b[emit], -scores[emit]))]
    # the emitted pairs' supports, gathered once, pair after pair in rank order
    n = scores[emit]
    rows = np.repeat(ends[emit] - np.cumsum(n), n) + np.arange(n.sum())
    return AcceptedPairs(pair_a[emit], pair_b[emit], n, ia[rows], ib[rows], dist[rows])


@dataclass(eq=False)
class InlierColumns:
    """Deduplicated inlier matches of one frame transition as column arrays.

    The feature ids index the rows of the two frames' ``positions``."""

    prev: FrameFeatures
    curr: FrameFeatures
    feature_prev: np.ndarray
    feature_curr: np.ndarray
    distance: np.ndarray
    group_prev: np.ndarray
    group_curr: np.ndarray

    @property
    def frame_prev(self) -> int:
        return self.prev.frame_index

    @property
    def frame_curr(self) -> int:
        return self.curr.frame_index

    def __len__(self) -> int:
        return self.feature_prev.shape[0]


def dedup_inlier_columns(accepted: AcceptedPairs, features_prev: FrameFeatures,
                         features_curr: FrameFeatures) -> InlierColumns:
    """One match per feature: the first pair that holds it wins, the best
    one in the order ``score_candidate_pairs`` returns."""
    ia, ib = accepted.ia, accepted.ib
    keep = _kernels.claim_first(ia, ib, features_prev.count, features_curr.count)
    gp, gc = np.repeat([accepted.group_prev, accepted.group_curr], accepted.scores, axis=1)[:, keep]
    return InlierColumns(features_prev, features_curr, ia[keep], ib[keep],
                         accepted.dist[keep].astype(np.float64), gp, gc)
