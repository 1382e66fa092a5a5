"""Worker-pair view of the accountant's group-set pair arrays, for tests."""

import numpy as np


def worker_cells(structure, threat_model, values):
    """(N, N[, G]) worker-pair cells of ``values``, an array over group-set
    pairs ((P, P) or (P, P, G)): cell (n, i) is
    ``values[group_set_of_worker[n], group_set_of_worker[i]]``, and NaN
    where ``admissible_observers[threat_model]`` is False."""
    owner = structure.group_set_of_worker
    cells = values[np.ix_(owner, owner)]
    cells[~structure.admissible_observers[threat_model]] = np.nan
    return cells
