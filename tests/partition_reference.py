"""Dense test-side reference for the groups of a partition.

The library addresses a partition's diagonal blocks through the
positions of their entries and keeps no d x d table; the tests compare
with the dense same-group mask built here from ``gid_of_position``.
"""

import numpy as np


def same_group_mask(part):
    """Boolean d x d mask, True where row and column share a group."""
    gid = part.gid_of_position
    return gid[:, None] == gid[None, :]


def group_positions(part, g):
    """Dense positions of group ``g``, ascending."""
    return np.flatnonzero(part.gid_of_position == g)
