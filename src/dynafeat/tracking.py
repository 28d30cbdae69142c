"""Carrying group information across frames.

A group's id is its position (slot) in its frame's group list, and the
track state keeps one row per slot: the displacement of the group's
centroid between the last two frames (its motion proxy), the number of
frames it was tracked continuously, and its search region, the bounding
box shifted by the displacement and dilated by a margin. Current-frame
groups whose bounding box overlaps a search region become matching
candidates, which is what keeps per-frame matching cheap. Groups without
an accepted match are dropped; newly appearing groups start with zero
displacement and age 0 and predict from a standing centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import FrameFeatures
from .grouping import FeatureGroup
from .matching import GroupMatch

DEFAULT_SEARCH_MARGIN = 30.0
BOOTSTRAP_MARGIN_SCALE = 2.0


@dataclass(eq=False)
class TrackState:
    features: FrameFeatures
    groups: list[FeatureGroup]
    displacement: np.ndarray   # (G, 2) px per frame, zero for a newborn group
    age: np.ndarray            # (G,) frames tracked continuously, 0 for a newborn group
    region_lo: np.ndarray      # (G, 2) search region corners
    region_hi: np.ndarray      # (G, 2)

    @property
    def proxies(self) -> np.ndarray:
        """Slots of the groups that carry a motion proxy (continued tracks)."""
        return np.flatnonzero(self.age)


def _rows(groups: list[FeatureGroup], name: str) -> np.ndarray:
    return np.array([getattr(g, name) for g in groups], np.float64).reshape(-1, 2)


def predict(features: FrameFeatures, groups: list[FeatureGroup], displacement: np.ndarray,
            age: np.ndarray, margin: float) -> TrackState:
    """State with constant-velocity search regions: each centroid shifted by
    its displacement, bounding-box half sizes dilated by the margin."""
    if margin <= 0:
        raise ValueError("margin must be positive")
    center = _rows(groups, "centroid") + displacement
    half = (_rows(groups, "bbox_max") - _rows(groups, "bbox_min")) / 2.0 + margin
    return TrackState(features=features, groups=list(groups), displacement=displacement,
                      age=age, region_lo=center - half, region_hi=center + half)


def bootstrap(features: FrameFeatures, groups: list[FeatureGroup],
              margin: float = DEFAULT_SEARCH_MARGIN) -> TrackState:
    """First-frame state: no proxies yet, so regions get a doubled margin
    to make up for the missing motion prior."""
    return predict(features, groups, np.zeros((len(groups), 2)),
                   np.zeros(len(groups), np.int64), margin * BOOTSTRAP_MARGIN_SCALE)


def intersect_candidates(groups_curr: list[FeatureGroup], state: TrackState) -> np.ndarray:
    """(prev_slot, curr_slot) rows, in row-major order, whose search region
    and bounding box overlap (closed intervals on both axes)."""
    bmin = _rows(groups_curr, "bbox_min")
    bmax = _rows(groups_curr, "bbox_max")
    lo, hi = state.region_lo, state.region_hi
    overlap = ((bmin[None, :, 0] <= hi[:, None, 0]) & (bmax[None, :, 0] >= lo[:, None, 0])
               & (bmin[None, :, 1] <= hi[:, None, 1]) & (bmax[None, :, 1] >= lo[:, None, 1]))
    return np.argwhere(overlap)


def advance(state: TrackState, features_curr: FrameFeatures,
            groups_curr: list[FeatureGroup], accepted: list[GroupMatch],
            margin: float = DEFAULT_SEARCH_MARGIN) -> TrackState:
    """Fold accepted matches into the next state.

    ``accepted`` is best first, as ``score_candidate_pairs`` returns it.
    Each current group inherits a proxy from its first listed partner:
    displacement is the centroid difference, age increments.
    Unmatched current groups start fresh; previous groups without an
    accepted match disappear with the returned state.
    """
    gp = np.array([gm.group_prev for gm in accepted], np.int64)
    gc = np.array([gm.group_curr for gm in accepted], np.int64)
    if ((gp < 0) | (gp >= len(state.groups)) | (gc < 0) | (gc >= len(groups_curr))).any():
        raise ValueError("accepted matches reference unknown group slots")
    best = np.unique(gc, return_index=True)[1]
    cont_p, cont_c = gp[best], gc[best]
    displacement = np.zeros((len(groups_curr), 2))
    displacement[cont_c] = (_rows(groups_curr, "centroid")[cont_c]
                            - _rows(state.groups, "centroid")[cont_p])
    age = np.zeros(len(groups_curr), np.int64)
    age[cont_c] = state.age[cont_p] + 1
    return predict(features_curr, groups_curr, displacement, age, margin)
