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
The groups come back as one GroupingResult table of columns; its
``.groups`` builds FeatureGroup row views, which the frame loop never reads.

Absorption semantics (kept identical in the test oracle): candidates of a
popped member are taken in ascending feature-id order; a candidate that
would stretch the bounding box past the side limit is skipped and stays
unassigned, while reaching the member ceiling closes the group outright.

Features are bucketed in a grid of cells a hair wider than half the
window, so a feature's window reaches no further than the 3x3 block of
cells around its own; the ids in that block are gathered into one list
the first time a member of the cell is popped, and shared by every later
member of the same cell. The block is one flat list, not its nine
buckets, because a loop over mostly small buckets cost more than the
scan of their entries.

The growth loop runs on Python lists and a bytearray rather than numpy
arrays, because indexing a numpy scalar per candidate was most of its time.
For the same reason its window test and bounding-box updates are chained
comparisons and conditional expressions, not calls to ``abs``, ``min`` and
``max``; they give the same result for every float, NaN included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .frontend import FrameFeatures


@dataclass
class FeatureGroup:
    """One group as a row view of a GroupingResult; its id is its slot."""

    members: np.ndarray            # feature ids, absorption order; members[0] is the seed
    n: int
    centroid: np.ndarray           # (2,) mean member position
    bbox_min: np.ndarray           # (2,)
    bbox_max: np.ndarray           # (2,)


@dataclass(eq=False)
class GroupingResult:
    """A frame's groups as one table; group g (its slot) has the members
    ``members[offsets[g]:offsets[g] + counts[g]]``."""

    members: np.ndarray            # (M,) feature ids, group by group, each in absorption order
    offsets: np.ndarray            # (G,) start of each group in members
    counts: np.ndarray             # (G,) members per group
    centroids: np.ndarray          # (G, 2) mean member positions
    bbox_min: np.ndarray           # (G, 2)
    bbox_max: np.ndarray           # (G, 2)
    labels: np.ndarray             # (n,) group id per feature, -1 when ungrouped

    def __len__(self) -> int:
        return self.counts.shape[0]

    @property
    def groups(self) -> list[FeatureGroup]:
        """One FeatureGroup row view per slot, built on each read."""
        return list(map(FeatureGroup, np.split(self.members, self.offsets[1:]),
                        self.counts.tolist(), self.centroids, self.bbox_min, self.bbox_max))


def group_features(frame: FrameFeatures, config: PipelineConfig) -> GroupingResult:
    """Partition the frame's features into local groups (see module docs).

    Reads the config's window, min_group, max_group, max_bbox_side and
    seed. Deterministic for a fixed (frame, config): the seed order is one
    shuffle of all feature ids from the seeded generator, consumed in
    order and skipping ids that were absorbed meanwhile.
    """
    n = frame.count
    pos = frame.positions
    radius = config.window / 2.0
    neg_radius = -radius
    max_group = config.max_group
    max_side = config.max_bbox_side

    xs = pos[:, 0].tolist()
    ys = pos[:, 1].tolist()
    # With r the radius and e = 2^-53, a pair that passes the window test
    # is at most r(1 + 2e) apart per axis, and rounding x / cell moves a
    # quotient by at most e|x| / cell. Cells of side r(1 + h) with
    # h >= 4e(2 + max|x| / r) keep such a pair's quotients less than 1
    # apart, so each candidate lies in the 3x3 block around the feature's
    # cell; the formula takes twice that h, which also keeps the cell
    # indices below 2^50.
    cell = radius * (1.0 + 2.0 ** -50 * (2.0 + float(np.abs(pos).max(initial=0.0)) / radius))
    cx, cy = np.floor(pos / cell).astype(np.int64).T.tolist()
    grid: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(cx, cy)):
        grid.setdefault(key, []).append(i)
    reaches: dict[tuple[int, int], list[int]] = {}

    order = np.random.default_rng(config.seed).permutation(n).tolist()
    assigned = bytearray(n)
    flat: list[int] = []       # the kept groups' members, group after group
    counts: list[int] = []
    boxes: list[float] = []    # min x, min y, max x, max y per kept group

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
            key = (cx[f], cy[f])
            reach = reaches.get(key)
            if reach is None:
                reach = reaches[key] = []
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        reach += grid.get((key[0] + dx, key[1] + dy), ())
            # Comparisons instead of abs/min/max calls, with the same results
            # for every float: negation is exact, and the builtins return
            # their first argument unless the second is strictly past it.
            cand = []
            for j in reach:
                if not assigned[j] and neg_radius <= xs[j] - fx <= radius \
                        and neg_radius <= ys[j] - fy <= radius:
                    cand.append(j)
            cand.sort()
            for j in cand:
                if len(members) >= max_group:
                    break
                jx, jy = xs[j], ys[j]
                nmin_x = jx if jx < min_x else min_x
                nmax_x = jx if jx > max_x else max_x
                nmin_y = jy if jy < min_y else min_y
                nmax_y = jy if jy > max_y else max_y
                if nmax_x - nmin_x > max_side or nmax_y - nmin_y > max_side:
                    continue  # stays unassigned, may seed a later group
                assigned[j] = 1
                members.append(j)
                min_x, max_x, min_y, max_y = nmin_x, nmax_x, nmin_y, nmax_y
        if len(members) < config.min_group:
            continue  # discarded: members stay consumed but belong to no group
        flat += members
        counts.append(len(members))
        boxes += (min_x, min_y, max_x, max_y)

    ids, cnt = np.array(flat, np.int64), np.array(counts, np.int64)
    slot = np.repeat(np.arange(cnt.shape[0]), cnt)
    labels = np.full(n, -1, np.int64)
    labels[ids] = slot
    # adds each group's rows in order from +0.0, as pos[m].sum(axis=0) does
    acc = np.zeros((cnt.shape[0], 2))
    np.add.at(acc, slot, pos[ids])
    box = np.array(boxes, np.float64).reshape(-1, 4)
    return GroupingResult(ids, np.cumsum(cnt) - cnt, cnt, acc / cnt[:, None],
                          box[:, :2], box[:, 2:], labels)
