"""Group structures, adjacency/distance computations, and generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dpogl.topology import (GroupStructure, build_adjacency, distance_matrix,
                            generate_structure)
from pair_cells import observer_mask, worker_mask


def chain(num_groups):
    """Open chain: group m = {m, m+1}, adjacent groups share one worker."""
    return GroupStructure(num_groups + 1, [[m, m + 1] for m in range(num_groups)])


def test_structure_normalizes_and_indexes():
    st = GroupStructure(4, [[2, 0, 2], [1, 2, 3]])
    assert st.members_of_group == ((0, 2), (1, 2, 3))
    assert st.num_groups == 2
    assert st.groups_of_worker == ((0,), (1,), (0, 1), (1,))
    neighbors = [sorted({w for m in st.groups_of_worker[n]
                         for w in st.members_of_group[m]}) for n in (0, 2)]
    assert neighbors == [[0, 2], [0, 1, 2, 3]]


def test_structure_validation_errors():
    with pytest.raises(ValueError):
        GroupStructure(3, [])
    with pytest.raises(ValueError):
        GroupStructure(3, [[0, 1], []])
    with pytest.raises(ValueError):
        GroupStructure(3, [[0, 3]])
    with pytest.raises(ValueError):
        GroupStructure(3, [[0, -1]])
    with pytest.raises(ValueError):  # worker 2 in no group
        GroupStructure(3, [[0, 1]])
    # The first ten orphans are named, found without a list of all workers.
    with pytest.raises(ValueError, match=r"no group: \[2, 4\]$"):
        GroupStructure(5, [[0, 1], [1, 3]])
    with pytest.raises(ValueError, match=r"no group: \[2, 3, 4, 5, 6, 7, 8, "
                                         r"9, 10, 11\], \.\.\.$"):
        GroupStructure(10**6, [[0, 1]])


def test_adjacency_and_distances_on_a_chain():
    st = chain(3)  # groups {0,1},{1,2},{2,3}
    adj = build_adjacency(st)
    assert adj.tolist() == [[True, True, False],
                            [True, True, True],
                            [False, True, True]]
    dist = distance_matrix(adj)
    assert dist.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert st.distances[0, 2] == 2
    owner = st.group_set_of_worker
    # worker 3 belongs only to group 2
    assert st.set_distances[0, owner[3]] == 2
    # worker 1 sits in groups 0 and 1: nearest group wins
    assert st.set_distances[2, owner[1]] == 1


def test_disconnected_groups_have_infinite_distance():
    st = GroupStructure(4, [[0, 1], [2, 3]])
    dist = distance_matrix(build_adjacency(st))
    assert math.isinf(dist[0, 1])
    assert math.isinf(st.set_distances[0, st.group_set_of_worker[3]])


def test_generate_gl():
    st = generate_structure("GL", 5, 1)
    assert st.members_of_group == ((0, 1, 2, 3, 4),)
    with pytest.raises(ValueError):
        generate_structure("GL", 5, 2)


def test_generate_cl_contiguous_near_equal():
    st = generate_structure("CL", 7, 3)
    assert st.members_of_group == ((0, 1), (2, 3), (4, 5, 6))
    dist = distance_matrix(build_adjacency(st))
    off = dist[~np.eye(3, dtype=bool)]
    assert np.isinf(off).all()  # clusters are disjoint
    with pytest.raises(ValueError):
        generate_structure("CL", 2, 3)


def test_generate_ri_ring():
    st = generate_structure("RI", 8, 4)
    assert st.members_of_group == ((0, 1, 2), (2, 3, 4), (4, 5, 6), (0, 6, 7))
    dist = distance_matrix(build_adjacency(st))
    assert dist[0, 2] == 2 and dist[0, 1] == 1 and dist[0, 3] == 1
    assert not st.is_string  # closed ring of 4 groups is a cycle
    single = generate_structure("RI", 5, 1)
    assert single.members_of_group == ((0, 1, 2, 3, 4),)


def test_generate_lb_by_label():
    labels = {0: {0}, 1: {1}, 2: {0, 1}, 3: {2}}
    st = generate_structure("LB", 4, 3, labels)
    assert st.members_of_group == ((0, 2), (1, 2), (3,))
    with pytest.raises(ValueError):  # worker without labels joins nothing
        generate_structure("LB", 4, 3, {0: {0}, 1: {1}, 3: {2}})
    with pytest.raises(ValueError):  # label 2 missing -> empty group
        generate_structure("LB", 3, 3, {0: {0}, 1: {1}, 2: {0}})


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate_structure("XX", 4, 2)


def test_generate_takes_one_spelling_of_a_kind():
    """A config refuses "ri", so the library does too."""
    with pytest.raises(ValueError, match="unknown structure kind 'ri'"):
        generate_structure("ri", 6, 3)


def test_is_string_accepts_chains_of_any_length():
    for m in range(1, 7):
        assert chain(m).is_string
    # two groups closing a 2-cycle still form a single-edge path
    assert GroupStructure(2, [[0, 1], [0, 1]]).is_string


def test_is_string_rejects_branching_rings_and_busy_workers():
    # worker 1 sits in three groups, which also makes them pairwise adjacent
    star = GroupStructure(4, [[0, 1], [1, 2], [1, 3]])
    assert not star.is_string
    assert not generate_structure("RI", 6, 3).is_string
    disconnected = GroupStructure(4, [[0, 1], [2, 3]])
    assert not disconnected.is_string
    # 4-cycle closed through worker 4 even though every worker is in <= 2 groups
    cycle = GroupStructure(5, [[0, 1], [1, 2, 4], [2, 3], [3, 4]])
    assert not cycle.is_string


def _string_by_degrees(st):
    """The string test by graph counts: every worker in at most two groups,
    M - 1 adjacency edges, maximum degree 2 and no infinite distance."""
    if any(len(groups) > 2 for groups in st.groups_of_worker):
        return False
    M = st.num_groups
    if M == 1:
        return True
    off = build_adjacency(st)
    np.fill_diagonal(off, False)
    if int(off.sum()) // 2 != M - 1 or off.sum(axis=1).max() > 2:
        return False
    return not np.isinf(st.distances).any()


@hs.composite
def joined_structures(draw):
    """A structure whose workers each join 1 to 4 of up to 6 groups; groups
    that no worker joins are dropped."""
    N, M = draw(hs.integers(1, 8)), draw(hs.integers(1, 6))
    joined = [draw(hs.sets(hs.integers(0, M - 1), min_size=1,
                           max_size=min(4, M))) for _ in range(N)]
    used = sorted(set().union(*joined))
    return GroupStructure(N, [[w for w in range(N) if g in joined[w]]
                              for g in used])


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(joined_structures())
def test_is_string_agrees_with_the_degree_count(st):
    """The diameter rule accepts exactly the structures that the counts of
    degrees and edges accept."""
    assert st.is_string is _string_by_degrees(st)


def test_structure_facts_match_the_functions_and_are_read_only():
    st = GroupStructure(10, [[0, 1, 2, 3], [3, 4, 5], [5, 6, 7, 8, 9]])
    dist = distance_matrix(build_adjacency(st))
    assert np.array_equal(st.distances, dist)
    assert st.distances is st.distances  # computed once, then cached
    assert st.set_distances is st.set_distances
    assert st.is_string and not generate_structure("RI", 6, 3).is_string
    owner = st.group_set_of_worker
    for m in range(st.num_groups):
        assert st.member_mask[m].tolist() == [w in st.members_of_group[m]
                                             for w in range(10)]
        for w in range(10):
            assert st.set_distances[m, owner[w]] == min(
                dist[m, g] for g in st.groups_of_worker[w])
    # the zeros of set_distances are exactly each set's own groups
    assert (st.set_distances == 0).T.tolist() == [
        [m in groups for m in range(st.num_groups)] for groups in st.group_sets]
    tm1, tm2 = worker_mask(st, "tm1"), worker_mask(st, "tm2")
    for n in range(10):
        assert tm1[n].tolist() == [i != n for i in range(10)]
        assert tm2[n].tolist() == [
            not set(st.groups_of_worker[i]) & set(st.groups_of_worker[n])
            for i in range(10)]
    # sets (0,), (0, 1), (1,), (1, 2), (2,); only (0,) and (2,) hold two or
    # more workers, so only they observe themselves under tm1
    sets = st.admissible_observer_sets
    assert st.group_sets == ((0,), (0, 1), (1,), (1, 2), (2,))
    assert sets["tm1"].tolist() == [[a != b or a in (0, 4) for b in range(5)]
                                    for a in range(5)]
    assert sets["tm2"].tolist() == [
        [not set(st.group_sets[a]) & set(st.group_sets[b]) for b in range(5)]
        for a in range(5)]
    for structure in (st, generate_structure("RI", 8, 4),
                      generate_structure("CL", 6, 2),
                      generate_structure("RI", 64, 16),
                      generate_structure("RI", 256, 32),
                      generate_structure("GL", 4, 1), GroupStructure(1, [[0]]),
                      GroupStructure(5, [[0, 1], [1, 2], [1, 3], [4]])):
        _check_observer_sets(structure)
    for fact in (st.distances, st.member_mask, st.set_distances,
                 sets["tm1"], sets["tm2"]):
        with pytest.raises(ValueError):
            fact[0, 0] = fact[0, 1]
    with pytest.raises(TypeError):
        st.admissible_observer_sets["tm1"] = sets["tm2"]
    assert st.admissible_observer_sets is sets


def _check_observer_sets(st):
    """Row a of the set-level mask marks exactly the sets that hold an
    admissible observer of each worker of set a, and every pair of distinct
    workers reads its sets' cell, as the heatmap writer does."""
    owner = st.group_set_of_worker
    P = len(st.group_sets)
    distinct = ~np.eye(st.num_workers, dtype=bool)
    for tm in ("tm1", "tm2"):
        workers, sets = observer_mask(st, tm), st.admissible_observer_sets[tm]
        assert sets.shape == (P, P) and sets.dtype == bool
        for n in range(st.num_workers):
            for b in range(P):
                assert workers[n, owner == b].any() == sets[owner[n], b]
        gathered = sets[np.ix_(owner, owner)]
        assert np.array_equal(workers[distinct], gathered[distinct])
