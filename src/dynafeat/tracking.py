"""Carrying group information across frames.

A group's id is its slot in its frame's group table, and the track state
holds that table and one row per slot: the displacement of the group's
centroid between the last two frames (its motion proxy) and the number of
frames it was tracked continuously, plus the one margin its search regions
use. A search region is derived where it is read: the bounding box shifted
by the displacement and dilated by the margin. Current-frame groups whose
bounding box overlaps a search region become matching candidates, which is
what keeps per-frame matching cheap. Groups without an accepted match are
dropped; newly appearing groups start with zero displacement and age 0 and
search around a standing centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_SEARCH_MARGIN
from .frontend import FrameFeatures
from .grouping import GroupingResult
from .matching import AcceptedPairs

BOOTSTRAP_MARGIN_SCALE = 2.0


@dataclass(eq=False)
class TrackState:
    features: FrameFeatures
    groups: GroupingResult
    displacement: np.ndarray   # (G, 2) px per frame, zero for a newborn group
    age: np.ndarray            # (G,) frames tracked continuously, 0 for a newborn group
    margin: float              # px added to each half side of a search region

    def __post_init__(self):
        if not self.margin > 0:   # false for nan; inf stays, as skips double the margin
            raise ValueError("margin must be positive")

    @property
    def proxies(self) -> np.ndarray:
        """Slots of the groups that carry a motion proxy (continued tracks)."""
        return np.flatnonzero(self.age)


def bootstrap(features: FrameFeatures, groups: GroupingResult,
              margin: float = DEFAULT_SEARCH_MARGIN) -> TrackState:
    """First-frame state: no proxies yet, so regions get a doubled margin
    to make up for the missing motion prior."""
    return TrackState(features, groups, np.zeros((len(groups), 2)),
                      np.zeros(len(groups), np.int64), margin * BOOTSTRAP_MARGIN_SCALE)


def intersect_candidates(groups_curr: GroupingResult, state: TrackState) -> np.ndarray:
    """(prev_slot, curr_slot) rows, in row-major order, whose search region
    and bounding box overlap (closed intervals on both axes). A search
    region assumes constant velocity: the previous centroid shifted by its
    displacement, the bounding-box half sizes dilated by the margin."""
    prev = state.groups
    center = prev.centroids + state.displacement
    half = (prev.bbox_max - prev.bbox_min) / 2.0 + state.margin
    lo, hi = center - half, center + half
    bmin, bmax = groups_curr.bbox_min, groups_curr.bbox_max
    overlap = ((bmin[None, :, 0] <= hi[:, None, 0]) & (bmax[None, :, 0] >= lo[:, None, 0])
               & (bmin[None, :, 1] <= hi[:, None, 1]) & (bmax[None, :, 1] >= lo[:, None, 1]))
    return np.argwhere(overlap)


def advance(state: TrackState, features_curr: FrameFeatures,
            groups_curr: GroupingResult, accepted: AcceptedPairs,
            margin: float = DEFAULT_SEARCH_MARGIN) -> TrackState:
    """Fold accepted matches into the next state.

    ``accepted`` is best first, as ``score_candidate_pairs`` returns it.
    Each current group inherits a proxy from its first listed partner:
    displacement is the centroid difference, age increments.
    Unmatched current groups start fresh; previous groups without an
    accepted match disappear with the returned state.
    """
    gp, gc = accepted.group_prev, accepted.group_curr
    if ((gp < 0) | (gp >= len(state.groups)) | (gc < 0) | (gc >= len(groups_curr))).any():
        raise ValueError("accepted matches reference unknown group slots")
    best = np.unique(gc, return_index=True)[1]
    cont_p, cont_c = gp[best], gc[best]
    displacement = np.zeros((len(groups_curr), 2))
    displacement[cont_c] = groups_curr.centroids[cont_c] - state.groups.centroids[cont_p]
    age = np.zeros(len(groups_curr), np.int64)
    age[cont_c] = state.age[cont_p] + 1
    return TrackState(features_curr, groups_curr, displacement, age, margin)
