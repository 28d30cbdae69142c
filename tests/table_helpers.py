"""Build the pipeline's column records from lists of row records.

Tests state small scenes as FeatureGroup and GroupMatch lists; these
helpers turn such a list into the GroupingResult table or AcceptedPairs
record that the pipeline functions take, slot for slot and row for row.
"""

import numpy as np

from dynafeat.grouping import FeatureGroup, GroupingResult
from dynafeat.matching import AcceptedPairs, GroupMatch


def _concat(arrays, dtype) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype) for a in arrays]) if arrays \
        else np.zeros(0, dtype)


def group_table(groups: list[FeatureGroup]) -> GroupingResult:
    """The group table whose slot g is ``groups[g]``. A feature id held by
    several groups is labelled with the last of them."""
    counts = np.array([g.n for g in groups], np.int64)
    members = _concat([g.members for g in groups], np.int64)
    labels = np.full(int(members.max(initial=-1)) + 1, -1, np.int64)
    labels[members] = np.repeat(np.arange(len(groups)), counts)

    def rows(name):
        return np.array([getattr(g, name) for g in groups], np.float64).reshape(-1, 2)

    return GroupingResult(members, np.cumsum(counts) - counts, counts, rows("centroid"),
                          rows("bbox_min"), rows("bbox_max"), labels)


def accepted_pairs(matches: list[GroupMatch]) -> AcceptedPairs:
    """The accepted-pair record whose row k is ``matches[k]``."""
    return AcceptedPairs(np.array([gm.group_prev for gm in matches], np.int64),
                         np.array([gm.group_curr for gm in matches], np.int64),
                         np.array([len(gm.sup_a) for gm in matches], np.int64),
                         _concat([gm.sup_a for gm in matches], np.int64),
                         _concat([gm.sup_b for gm in matches], np.int64),
                         _concat([gm.sup_dist for gm in matches], np.int64))
