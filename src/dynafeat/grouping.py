"""Clustering features into local groups by seeded region growing.

Groups are grown region by region: a random unassigned feature seeds a
group, then a FIFO queue expands it by absorbing every still-unassigned
feature within the square window around each popped member. Growth is
capped by a member-count ceiling and a bounding-box side limit; undersized
groups are discarded after growth. Membership is recorded in a label array
(feature id -> group id, -1 when ungrouped). Every absorption joins a
fresh singleton to the group's seed, so a union-find forest would only
ever hold one-level trees rooted at the seed; the label array answers the
same questions with one lookup.

Absorption semantics (kept identical in the test oracle): candidates of a
popped member are taken in ascending feature-id order; a candidate that
would stretch the bounding box past the side limit is skipped and stays
unassigned, while reaching the member ceiling closes the group outright.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .frontend import FrameFeatures


@dataclass
class FeatureGroup:
    """One group; its id is its position in the frame's group list."""

    members: np.ndarray            # feature ids, absorption order; members[0] is the seed
    n: int
    centroid: np.ndarray           # (2,) mean member position
    bbox_min: np.ndarray           # (2,)
    bbox_max: np.ndarray           # (2,)


@dataclass
class GroupingResult:
    groups: list[FeatureGroup]
    labels: np.ndarray             # (n,) group id per feature, -1 when ungrouped

    def group_id_of(self, feature_id: int) -> int | None:
        """Group id of the feature, or None if it belongs to no group."""
        if not 0 <= feature_id < self.labels.shape[0]:
            raise ValueError(f"feature id {feature_id} out of range "
                             f"[0, {self.labels.shape[0]})")
        gid = int(self.labels[feature_id])
        return gid if gid >= 0 else None


def group_features(frame: FrameFeatures, config: PipelineConfig) -> GroupingResult:
    """Partition the frame's features into local groups (see module docs).

    Reads the config's window, min_group, max_group, max_bbox_side and
    seed. Deterministic for a fixed (frame, config): the seed order is one
    shuffle of all feature ids from the seeded generator, consumed in
    order and skipping ids that were absorbed meanwhile.
    """
    n = frame.count
    if n == 0:
        return GroupingResult([], np.full(0, -1, np.int64))
    pos = frame.positions
    radius = config.window / 2.0
    cell = config.window

    grid: dict[tuple[int, int], list[int]] = {}
    cell_x = np.floor(pos[:, 0] / cell).astype(np.int64)
    cell_y = np.floor(pos[:, 1] / cell).astype(np.int64)
    for i in range(n):
        grid.setdefault((int(cell_x[i]), int(cell_y[i])), []).append(i)

    order = np.random.default_rng(config.seed).permutation(n)
    assigned = np.zeros(n, bool)
    labels = np.full(n, -1, np.int64)
    groups: list[FeatureGroup] = []

    for seed in order:
        seed = int(seed)
        if assigned[seed]:
            continue
        assigned[seed] = True
        members = [seed]
        min_x = max_x = pos[seed, 0]
        min_y = max_y = pos[seed, 1]
        head = 0   # members doubles as the FIFO queue: absorption order is visit order
        while head < len(members) and len(members) < config.max_group:
            f = members[head]
            head += 1
            fx, fy = pos[f, 0], pos[f, 1]
            cand = []
            cfx, cfy = int(cell_x[f]), int(cell_y[f])
            for gx in (cfx - 1, cfx, cfx + 1):
                for gy in (cfy - 1, cfy, cfy + 1):
                    bucket = grid.get((gx, gy))
                    if not bucket:
                        continue
                    for j in bucket:
                        if not assigned[j] and abs(pos[j, 0] - fx) <= radius \
                                and abs(pos[j, 1] - fy) <= radius:
                            cand.append(j)
            cand.sort()
            for j in cand:
                if len(members) >= config.max_group:
                    break
                jx, jy = pos[j, 0], pos[j, 1]
                nmin_x = min(min_x, jx)
                nmax_x = max(max_x, jx)
                nmin_y = min(min_y, jy)
                nmax_y = max(max_y, jy)
                if nmax_x - nmin_x > config.max_bbox_side \
                        or nmax_y - nmin_y > config.max_bbox_side:
                    continue  # stays unassigned, may seed a later group
                assigned[j] = True
                members.append(j)
                min_x, max_x, min_y, max_y = nmin_x, nmax_x, nmin_y, nmax_y
        if len(members) < config.min_group:
            continue  # discarded: members stay consumed but belong to no group
        member_arr = np.array(members, np.int64)
        labels[member_arr] = len(groups)
        groups.append(FeatureGroup(
            members=member_arr, n=len(members),
            centroid=pos[member_arr].mean(axis=0),
            bbox_min=np.array([min_x, min_y]), bbox_max=np.array([max_x, max_y])))

    return GroupingResult(groups, labels)
