"""Worker-level views of the accountant's group-set arrays, for tests."""

import numpy as np


def observer_mask(structure, threat_model):
    """(N, N) boolean from the membership lists alone, not from a cached
    structure fact: row n marks the workers allowed to observe worker n,
    every other worker under tm1 and, under tm2, those that share no group
    with n."""
    groups = [set(g) for g in structure.groups_of_worker]
    return np.array([[i != n and (threat_model == "tm1"
                                  or not groups[n] & groups[i])
                      for i in range(len(groups))]
                     for n in range(len(groups))], dtype=bool)


def worker_mask(structure, threat_model):
    """(N, N) boolean: worker i may observe worker n, that is cell (n, i) of
    ``admissible_observer_sets[threat_model]`` gathered to worker pairs,
    with the diagonal cleared (a worker never observes itself)."""
    owner = structure.group_set_of_worker
    mask = structure.admissible_observer_sets[threat_model][np.ix_(owner, owner)]
    np.fill_diagonal(mask, False)
    return mask


def worker_cells(structure, threat_model, values):
    """(N, N[, G]) worker-pair cells of ``values``, an array over group-set
    pairs ((P, P) or (P, P, G)): cell (n, i) is
    ``values[group_set_of_worker[n], group_set_of_worker[i]]``, and NaN
    where ``worker_mask(structure, threat_model)`` is False."""
    owner = structure.group_set_of_worker
    cells = values[np.ix_(owner, owner)]
    cells[~worker_mask(structure, threat_model)] = np.nan
    return cells


def worker_rows(structure, threat_model, set_rows):
    """``(workers, table)`` of the (P, 3) rows that ``pwp_rows_from_curves``
    returns: ``workers`` ((k,) int64) lists, ascending, the workers with an
    admissible observer, and row r of ``table`` ((k, 3)) is the row of
    worker ``workers[r]``'s group set."""
    owner = structure.group_set_of_worker
    observed = structure.admissible_observer_sets[threat_model].any(axis=1)
    assert set_rows.shape == (observed.size, 3)
    assert np.isnan(set_rows[~observed]).all()  # sets nobody observes
    workers = np.flatnonzero(observed[owner])
    return workers, set_rows[owner[workers]]
