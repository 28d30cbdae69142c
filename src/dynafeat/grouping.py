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

Features are bucketed in a grid of window-sided cells. A window has the
side of a cell, so it reaches a feature's own cell plus at most one
neighbour column and one neighbour row: the ones on the side of the cell's
centre line the feature sits on. Each feature scans those at most four
buckets, not the nine around it; a feature within rounding of a centre
line scans both neighbours on that axis. A feature's side per axis comes
from its offset inside its cell, with array ops, and the list of its
non-empty buckets is built once per (cell, side) key and shared.

The growth loop runs on Python lists and a bytearray rather than numpy
arrays, because indexing a numpy scalar per candidate was most of its time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .frontend import FrameFeatures

# Neighbour cell steps along one axis, by the side of the cell's centre
# line a feature sits on: 0 below it, 1 within rounding of it, 2 above it.
_STEPS = ((-1, 0), (-1, 0, 1), (0, 1))


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
    max_group = config.max_group
    max_side = config.max_bbox_side

    xs = pos[:, 0].tolist()
    ys = pos[:, 1].tolist()
    # Cells are window-sided, so a feature's window reaches its own cell
    # and one neighbour per axis, on the side of the cell's centre line the
    # feature sits on. In cell units an accepted candidate lies within
    # 0.5 + e of the feature, where e ~ 2^-53 * (2|t| + 2) covers the
    # rounding of the division and of the distance test; features within
    # the (far larger) margin of the centre line reach both neighbours.
    t = pos / config.window
    c = np.floor(t)
    u = t - c   # offset inside the cell, in [0, 1]
    margin = 1e-12 * (1.0 + np.abs(t))
    sx, sy = ((u >= 0.5 - margin).astype(np.int8) + (u >= 0.5 + margin)).T.tolist()
    cx, cy = c.astype(np.int64).T.tolist()
    grid: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(cx, cy)):
        grid.setdefault(key, []).append(i)
    reaches: dict[tuple[int, int, int, int], list[list[int]]] = {}

    order = np.random.default_rng(config.seed).permutation(n).tolist()
    assigned = bytearray(n)
    labels = np.full(n, -1, np.int64)
    groups: list[FeatureGroup] = []

    for seed in order:
        if assigned[seed]:
            continue
        assigned[seed] = 1
        members = [seed]
        min_x = max_x = xs[seed]
        min_y = max_y = ys[seed]
        head = 0   # members doubles as the FIFO queue: absorption order is visit order
        while head < len(members) and len(members) < max_group:
            f = members[head]
            head += 1
            fx, fy = xs[f], ys[f]
            key = (cx[f], cy[f], sx[f], sy[f])
            reach = reaches.get(key)
            if reach is None:
                reach = reaches[key] = [
                    bucket for bucket in (grid.get((key[0] + dx, key[1] + dy))
                                          for dx in _STEPS[key[2]] for dy in _STEPS[key[3]])
                    if bucket]
            cand = []
            for bucket in reach:
                for j in bucket:
                    if not assigned[j] and abs(xs[j] - fx) <= radius \
                            and abs(ys[j] - fy) <= radius:
                        cand.append(j)
            cand.sort()
            for j in cand:
                if len(members) >= max_group:
                    break
                jx, jy = xs[j], ys[j]
                nmin_x = min(min_x, jx)
                nmax_x = max(max_x, jx)
                nmin_y = min(min_y, jy)
                nmax_y = max(max_y, jy)
                if nmax_x - nmin_x > max_side or nmax_y - nmin_y > max_side:
                    continue  # stays unassigned, may seed a later group
                assigned[j] = 1
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
