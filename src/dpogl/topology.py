"""Group topologies: membership structures, adjacency, distances, generators.

A group structure maps M overlapping groups onto N workers.  Two groups are
adjacent when they share at least one worker; the group distance is the
minimum number of adjacency hops between them (0 on the diagonal, infinity
when disconnected).  Information about a worker can only travel between
groups along adjacency hops, which is what the privacy accountant exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

STRUCTURE_KINDS = ("GL", "LB", "CL", "RI")


@dataclass(frozen=True, eq=False)
class GroupStructure:
    """Immutable worker/group membership map.

    ``members_of_group[m]`` holds the sorted worker ids of group m.  Every
    group is nonempty and every worker belongs to at least one group.

    Structure facts (distances, masks, the string test) are computed on
    first use and cached on the instance as read-only arrays, so every
    consumer of one structure shares one computation.
    """

    num_workers: int
    members_of_group: tuple[tuple[int, ...], ...]
    groups_of_worker: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not self.members_of_group:
            raise ValueError("at least one group is required")
        norm = []
        for m, members in enumerate(self.members_of_group):
            mem = tuple(sorted({int(w) for w in members}))
            if not mem:
                raise ValueError(f"group {m} is empty")
            if mem[0] < 0 or mem[-1] >= self.num_workers:
                raise ValueError(f"group {m} contains out-of-range worker ids")
            norm.append(mem)
        object.__setattr__(self, "members_of_group", tuple(norm))
        gof: list[list[int]] = [[] for _ in range(self.num_workers)]
        for m, mem in enumerate(norm):
            for w in mem:
                gof[w].append(m)
        orphans = [w for w, groups in enumerate(gof) if not groups]
        if orphans:
            raise ValueError(f"workers belong to no group: {orphans}")
        object.__setattr__(self, "groups_of_worker", tuple(tuple(g) for g in gof))

    @property
    def num_groups(self) -> int:
        return len(self.members_of_group)

    @cached_property
    def distances(self) -> np.ndarray:
        """(M, M) group hop distances; see ``distance_matrix``."""
        return _read_only(distance_matrix(build_adjacency(self)))

    @cached_property
    def member_mask(self) -> np.ndarray:
        """(M, N) boolean: worker n is a member of group m."""
        mask = np.zeros((self.num_groups, self.num_workers), dtype=bool)
        for m, members in enumerate(self.members_of_group):
            mask[m, list(members)] = True
        return _read_only(mask)

    @cached_property
    def group_sets(self) -> tuple[tuple[int, ...], ...]:
        """The distinct ``groups_of_worker`` sets, in order of first use."""
        return tuple(dict.fromkeys(self.groups_of_worker))

    @cached_property
    def group_set_of_worker(self) -> np.ndarray:
        """(N,) index of each worker's groups in ``group_sets``."""
        index = {groups: k for k, groups in enumerate(self.group_sets)}
        return _read_only(np.array([index[g] for g in self.groups_of_worker]))

    @cached_property
    def set_distances(self) -> np.ndarray:
        """(M, P) distance from each group to the nearest group of each of
        ``group_sets``; its zeros are exactly each set's own groups."""
        dist = self.distances
        return _read_only(np.array([dist[:, list(groups)].min(axis=1)
                                    for groups in self.group_sets]).T)

    @cached_property
    def is_string(self) -> bool:
        """True when the group adjacency graph is a simple path (an open
        chain under some group ordering): when the largest group distance
        is M - 1.

        A connected graph of diameter M - 1 is a path: a shortest path of
        M - 1 hops visits every group, and any other edge would shorten it.
        A disconnected structure has an infinite distance, and one group is
        a vacuous chain.  A worker in three groups makes them a triangle,
        which no path holds, so every worker of a string is in at most two
        groups.
        """
        return bool(self.distances.max() == self.num_groups - 1)

    @cached_property
    def admissible_observer_sets(self) -> MappingProxyType:
        """Threat model -> (P, P) boolean mask over ``group_sets``: row a
        marks the sets that hold an admissible observer of a worker of set
        a, the same sets for every such worker, so a worker's envelope is
        its set's.  ``tm1``: every other set, and a itself when it holds two
        or more workers; ``tm2``: the sets that share no group with a."""
        shared = (self.set_distances == 0).astype(float)  # (M, P) membership
        tm1 = ~np.diag(np.bincount(self.group_set_of_worker) == 1)
        return MappingProxyType({"tm1": _read_only(tm1),
                                 "tm2": _read_only((shared.T @ shared) == 0)})


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_adjacency(structure: GroupStructure) -> np.ndarray:
    """Boolean (M, M) adjacency: groups share a worker; diagonal is True."""
    members = structure.member_mask.astype(float)  # shared-worker counts
    return (members @ members.T) > 0


def distance_matrix(adjacency: np.ndarray) -> np.ndarray:
    """(M, M) group hop distances: (m, m') holds the smallest h >= 0 with a
    positive (m, m') entry in the h-th power of ``adjacency``, or ``inf`` if
    none.  ``adjacency`` has a True diagonal, as ``build_adjacency`` gives,
    so h steps reach every pair within h hops."""
    M = adjacency.shape[0]
    step = adjacency.astype(float)
    dist = np.full((M, M), math.inf)
    reach = np.eye(M, dtype=bool)
    for h in range(M):
        dist[reach & np.isinf(dist)] = h
        reach = (reach @ step) > 0
    return dist


def _contiguous_segments(num_workers: int, num_groups: int) -> list[list[int]]:
    # Trailing segments absorb the remainder one worker each: sizes differ <= 1.
    base, extra = divmod(num_workers, num_groups)
    sizes = [base] * (num_groups - extra) + [base + 1] * extra
    segments, start = [], 0
    for size in sizes:
        segments.append(list(range(start, start + size)))
        start += size
    return segments


def generate_structure(kind: str, num_workers: int, num_groups: int,
                       labels_of_worker: dict[int, set[int]] | None = None) -> GroupStructure:
    """Build one of the named structures.

    GL: one group holding every worker (num_groups must be 1).
    LB: a worker with label y in its local data joins group y mod M.
    CL: M disjoint contiguous clusters of near-equal size.
    RI: closed ring of M contiguous groups; consecutive groups share exactly
        one worker (the highest-indexed worker of each group, i.e. the first
        worker of the next segment).
    """
    if kind not in STRUCTURE_KINDS:
        raise ValueError(f"unknown structure kind {kind!r}; expected one of {STRUCTURE_KINDS}")
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if num_groups < 1:
        raise ValueError("num_groups must be >= 1")

    if kind == "GL":
        if num_groups != 1:
            raise ValueError("GL uses a single group; pass num_groups=1")
        members = (tuple(range(num_workers)),)
    elif kind == "LB":
        if labels_of_worker is None:
            raise ValueError("LB requires labels_of_worker (worker -> labels present locally)")
        groups: list[set[int]] = [set() for _ in range(num_groups)]
        for w in range(num_workers):
            labels = set(labels_of_worker.get(w, ()))
            if not labels:
                raise ValueError(f"LB: worker {w} has no labels, so it would join no group")
            for y in labels:
                groups[int(y) % num_groups].add(w)
        empty = [m for m, g in enumerate(groups) if not g]
        if empty:
            raise ValueError(f"LB: groups {empty} would be empty; reduce num_groups "
                             "or check the label map")
        members = tuple(tuple(sorted(g)) for g in groups)
    elif kind == "CL":
        if num_workers < num_groups:
            raise ValueError("CL needs at least one worker per cluster")
        members = tuple(tuple(seg) for seg in _contiguous_segments(num_workers, num_groups))
    else:  # RI
        if num_workers < num_groups:
            raise ValueError("RI needs at least one worker per group")
        segments = _contiguous_segments(num_workers, num_groups)
        ring = []
        for m, seg in enumerate(segments):
            shared = segments[(m + 1) % num_groups][0]
            ring.append(tuple(sorted(set(seg) | {shared})))
        members = tuple(ring)

    return GroupStructure(num_workers=num_workers, members_of_group=members)
