"""Per-pair Renyi-DP accounting with propagation delay and degradation.

The central quantity is eps_{n,i}(t): an RDP bound on what honest-but-curious
worker i can learn about targeted worker n's data from the group models it
observes through epoch t.  Leakage from a source group reaches an observer
only after enough inter-group epochs have passed to cover the group distance,
so bounds grow with t in delivered S-epoch blocks.

Both algorithms share one path, parameterised by the mechanism window W
(``HyperParams.mechanism_window``: 1 for dpogl, S for dpogl_plus).  A
delivered S-epoch block carries S / W mechanisms, and the smoothing (LSI)
recursion fires one mechanism per W-epoch window.  The pipeline has one
path per bound: ``delay_curve_matrix`` gives (N, N) delay coefficients K,
whose curves alpha * K are linear in the order, and ``thm2_curve_sweep``
(N, N, G) curve tensors over an order grid; it reduces either form to DP
heatmaps and per-worker envelopes.  This module holds only that pipeline;
the references that check it live in ``oracles``.

Cost model.  Structure facts (distances, masks, the string test) are cached
on the ``GroupStructure`` and computed once per structure.  A delay epoch
costs one (N, M) @ (M, N) product, O(N * M * N), and no (N, N, G) tensor:
the reductions read K directly.  The degradation bound of a pair (n, i)
depends only on its class: n's groups and, for each, the nearest group of
i.  ``thm2_curve_sweep`` checks the preconditions once, builds one
per-run table of mu factors indexed by (firing epoch, group), and fills
each class's attenuated block budgets in place, once for all epochs up to
the horizon: B block slots per source, the count that a source at distance
1 delivers by the horizon, with padding slots never delivered.  An epoch's
(N, N, G) tensor is then a sum over the blocks delivered by that epoch,
vectorised across classes, and a gather: the cost grows with classes x
blocks plus epochs x blocks x classes, not with pairs x epochs x structure
rebuilds, and memory with classes x blocks.

Both delay-count variants follow one block rule: by epoch t a source rho >= 1
hops away has delivered max(0, floor((t-1)/S) - rho + offset) blocks, block w
arriving at epoch S*(w + rho - offset) + 1.  The offset is 1 under
``examples_consistent`` (default; the worked examples), 0 under ``as_printed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import GroupStructure
from .trainer import HyperParams, is_intergroup_epoch

# Spaced so consecutive (alpha - 1) ratios stay below ~1.46: the conversion
# optimum then lands within 2% of the continuous minimum for any linear curve.
DEFAULT_ALPHA_GRID = (
    1.25, 1.375, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0,
    10.0, 14.0, 20.0, 28.0, 40.0, 56.0, 80.0, 112.0, 160.0, 224.0, 256.0,
)

_BLOCK_OFFSETS = {"examples_consistent": 1, "as_printed": 0}
VARIANTS = tuple(_BLOCK_OFFSETS)


class AccountingPreconditionError(ValueError):
    """A precondition of a bound does not hold: a group budget that is not
    finite and > 0 (sigma = 0, say), partial participation, an infinite clip
    or an overflowing mechanism variance for the smoothing recursion, or a
    non-string structure for degradation."""


def _group_budgets(hp: HyperParams, name: str, budget) -> np.ndarray:
    """``budget(sigma, pi)`` of each group with scalar ``**`` (libm pow; array
    ``**`` rounds some squares differently), refused unless finite and > 0."""
    with np.errstate(all="ignore"):
        budgets = np.array([budget(s, p)
                            for s, p in zip(hp.sigma, hp.participation)])
    bad = np.argwhere(~((budgets > 0) & (budgets < math.inf)))
    if bad.size:
        raise AccountingPreconditionError(
            f"group {bad[0, 0]}: the {name} is not finite and > 0 (zero noise "
            "multiplier, or an over- or underflow)")
    return budgets


def _block_offset(variant: str) -> int:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    return _BLOCK_OFFSETS[variant]


def delivered_block_count(t: int, period: int, rho: float, variant: str) -> int:
    """How many S-epoch blocks from a source at group distance rho >= 1 have
    been delivered to the observer by epoch t."""
    offset = _block_offset(variant)
    if t < 1 or period < 1:
        raise ValueError("t and period must be >= 1")
    if math.isinf(rho):
        return 0
    if rho < 1:
        raise ValueError("delivered_block_count is for cross-group sources (rho >= 1)")
    return max(0, (t - 1) // period - int(rho) + offset)


# ---------------------------------------------------------------------------
# log-Sobolev recursion (full participation) and crossing epochs

def _lsi_preconditions(hp: HyperParams) -> None:
    if not np.all(hp.participation == 1.0):
        raise AccountingPreconditionError(
            "the LSI recursion is defined for full participation only")
    if not np.all(np.isfinite(hp.clip)):
        raise AccountingPreconditionError("the LSI recursion needs finite clip norms")
    if not np.all(hp.sigma > 0):
        raise AccountingPreconditionError(
            "the LSI recursion needs positive noise multipliers")
    # W (c sigma)^2 both ways the code computes it: an array square in
    # lsi_recursion, scalar ** in thm2_curve_sweep.
    with np.errstate(all="ignore"):
        var = hp.mechanism_window * (hp.clip * hp.sigma) ** 2
        var_pow = [hp.mechanism_window * (c * s) ** 2
                   for c, s in zip(hp.clip, hp.sigma)]
    bad = np.flatnonzero(~(np.isfinite(var) & np.isfinite(var_pow)))
    if bad.size:
        raise AccountingPreconditionError(
            f"group {bad[0]}: the mechanism variance W (c sigma)^2 is not "
            "finite (an overflow)")


def lsi_recursion(structure: GroupStructure, hp: HyperParams, beta: float,
                  horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Track per-epoch LSI reciprocals up to ``horizon`` epochs and return
    ``(inv_b, inv_hbar)``.

    All values are reciprocals (0 encodes a deterministic point mass), so
    every recursion step is a plain addition.  ``inv_b[t]`` ((horizon + 2,
    M)) refers to the model at epoch t.  ``inv_hbar`` ((horizon + 1, M),
    slot 0 unused) is filled at the epochs where a mechanism fires, the last
    epoch of each W-epoch window (every epoch for dpogl, multiples of S for
    dpogl_plus), and is 0 elsewhere.

    Inside a W-epoch window the model takes raw updates; at the window's
    last epoch the mechanism adds W c^2 sigma^2 of noise over the whole
    window, and the next window starts from its output.  The worker inits
    ``inv_a`` (at an inter-group epoch, the merge of the worker's groups)
    and their spread ``inv_h`` are carried as per-group member sums.
    """
    _lsi_preconditions(hp)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 <= beta < math.inf:
        raise ValueError("the smoothness constant beta must be finite and >= 0")
    M = structure.num_groups
    S, W = hp.inter_group_period, hp.mechanism_window
    sizes = np.array([len(g) for g in structure.members_of_group], dtype=float)
    mechanism_var = W * (hp.clip * hp.sigma) ** 2
    spread = (1.0 + (1.0 + hp.learning_rate * beta) ** hp.local_iterations) ** 2
    inv_b = np.zeros((horizon + 2, M))
    inv_hbar = np.zeros((horizon + 1, M))
    h_sum = np.zeros(M)  # member sum of the previous epoch's inv_h
    inv_e = np.zeros(M)  # the last fired mechanism's output
    for t in range(1, horizon + 2):
        window_start = (t - 1) % W == 0
        if not window_start:
            inv_b[t] = inv_b[t - 1] + sizes ** 2 * h_sum
        elif t > 1:  # the previous window's mechanism fired at epoch t - 1
            inv_b[t] = inv_b[t - W] + sizes ** 2 * inv_e
        if t > horizon:
            break
        if window_start:
            window_h_sum = np.zeros(M)  # running sum of h_sum over the window
        # The merge sums each worker's groups in order, and the member sum
        # runs over an (M, N) array with zeros for non-members: a matmul
        # merge or a members-only sum rounds differently.
        if is_intergroup_epoch(t, S):
            inv_a = np.array([sum(inv_b[t, m] for m in groups)
                              for groups in structure.groups_of_worker])
        else:
            inv_a = inv_b[t][:, None]
        h_sum = (spread * np.where(structure.member_mask, inv_a, 0.0)).sum(axis=1)
        window_h_sum = window_h_sum + h_sum
        if t % W == 0:  # the window's mechanism fires
            inv_e = mechanism_var + window_h_sum
            inv_hbar[t] = inv_b[t - W + 1] + sizes ** 2 * window_h_sum
    return inv_b, inv_hbar


def _fired_epochs(inv_hbar: np.ndarray, hp: HyperParams, crossing):
    """Epoch(s) whose mechanism a crossing at epoch ``crossing`` reads."""
    # The crossing-epoch convention differs by algorithm: dpogl reads the
    # mechanism that fires at crossing epoch e, dpogl_plus the window that
    # fired at e - 1.  Both are kept because unifying them changes the
    # degradation artifacts.
    fired = crossing - 1 if hp.algorithm == "dpogl_plus" else crossing
    bad = ((fired < 1) | (fired >= len(inv_hbar))
           | (fired % hp.mechanism_window != 0))
    if np.any(bad):
        raise ValueError("no mechanism of the computed LSI horizon fires at "
                         f"epoch {np.asarray(fired)[bad].min()}")
    return fired


# ---------------------------------------------------------------------------
# string-topology bound with degradation

@dataclass(frozen=True, eq=False)
class Thm2Sweep:
    """Degradation-aware curves of pair classes, evaluated at any epoch
    1..horizon from per-class block terms.

    Slot k of class c is the k-th source group of the class's targeted
    worker; K is the largest number of groups of any worker.  Block slot b
    is the (b + 1)-th block delivered from that source; B is the block
    count of a source at distance 1, the most any source delivers by the
    horizon.  Padding slots hold zero budgets and ``first = horizon + 1``,
    so they are never delivered.
    """

    horizon: int
    classes: np.ndarray  # (N, N) class of each pair; -1 marks undefined cells
    shared: np.ndarray   # (C, K, G) per-epoch budget of a shared source, else 0
    first: np.ndarray    # (C, K, B) epoch from which block b + 1 is delivered
    terms: np.ndarray    # (C, K, B, G) attenuated budget of that block

    def at(self, t: int) -> np.ndarray:
        """(N, N, G) curve tensor at epoch t; NaN marks trusted cells.

        Each cell takes the steps of a straight per-pair sum: sources in
        sorted order, blocks in delivery order.  Padding adds exact zeros,
        which leave every (nonnegative) partial sum unchanged.
        """
        if not 1 <= t <= self.horizon:
            raise ValueError(f"epoch {t} is outside the sweep's 1..{self.horizon}")
        C, K, B = self.first.shape
        total = np.zeros((C + 1, self.shared.shape[-1]))
        for k in range(K):
            total[:C] += self.shared[:, k] * (t - 1)
            for b in range(B):
                delivered = np.flatnonzero(self.first[:, k, b] <= t)
                if not delivered.size:
                    break  # later blocks arrive later still
                total[delivered] += self.terms[delivered, k, b]
        total[C] = np.nan  # class -1: undefined cells
        return total[self.classes]


# ---------------------------------------------------------------------------
# curve tensors (one path per bound) and their reductions

def _check_delta(delta: float) -> None:
    if not 0 < delta <= 1 or math.isinf(1.0 / delta):
        raise ValueError("delta must lie in (0, 1], with 1/delta finite")


def _check_grid(alpha_grid) -> list[float]:
    grid = [float(a) for a in alpha_grid]
    if not grid or any(a <= 1 for a in grid):
        raise ValueError("alpha grid entries must exceed 1")
    return grid


def _observer_mask(structure: GroupStructure, threat_model: str) -> np.ndarray:
    try:
        return structure.admissible_observers[threat_model]
    except KeyError:
        raise ValueError("threat_model must be 'tm1' or 'tm2'") from None


def delay_curve_matrix(structure: GroupStructure, hp: HyperParams, t: int,
                       variant: str = "examples_consistent") -> np.ndarray:
    """(N, N) delay coefficients K at epoch t: the curve of pair (n, i) is
    alpha * K[n, i].  NaN marks trusted cells.

    Row n is the targeted worker, column i the observer.  K[n, i] sums n's
    groups' delivered mechanism counts times their per-step budgets over
    alpha.  Cells are undefined on the diagonal and, under tm2 (which
    dpogl_plus requires), for in-group pairs.
    """
    offset = _block_offset(variant)
    if t < 1:
        raise ValueError("t must be >= 1")
    S = hp.inter_group_period
    weights = _group_budgets(hp, "delay weight 2 pi^2 / sigma^2",
                             lambda s, p: 2.0 * p ** 2 / s ** 2)
    rt = structure.worker_distances  # (M, N) source-group -> worker distance
    blocks = np.maximum(0.0, (t - 1) // S - rt + offset)  # 0 where rt is inf
    counts = (S // hp.mechanism_window) * blocks
    counts[rt == 0] = t - 1  # in-group cells; masked below under dpogl_plus
    K = (structure.member_mask.T * weights) @ counts
    K[~_observer_mask(structure, hp.threat_model)] = np.nan
    return K


def thm2_curve_sweep(structure: GroupStructure, hp: HyperParams, beta: float,
                     horizon: int, alpha_grid=DEFAULT_ALPHA_GRID,
                     variant: str = "examples_consistent") -> Thm2Sweep:
    """Degradation-aware curves of every pair at any epoch 1..horizon;
    strings only.

    Preconditions are checked once.  Pairs are grouped by class (n's groups
    and the nearest group of i to each); each class's block budgets are
    computed once for all epochs from one (horizon + 1, M, G) table of mu
    factors indexed by (firing epoch, group).  ``at(t)`` gives epoch t's
    (N, N, G) tensor.  Cells are NaN on the diagonal and, under tm2 (which
    dpogl_plus requires), for in-group pairs.

    A shared source group adds its full-participation budget per epoch.
    Block w from another source group carries S / W such budgets times one
    mu factor per path group past the source, read at its crossing epoch
    S*(w + j - 1) + 1; hop factors are multiplied in j order.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    alphas = np.array(_check_grid(alpha_grid))
    offset = _block_offset(variant)
    budgets = _group_budgets(hp, "degradation budget alpha / (2 sigma^2)",
                             lambda s, _: alphas / (2.0 * s ** 2))  # pi = 1
    _lsi_preconditions(hp)
    if not structure.is_string:
        raise AccountingPreconditionError(
            "the degradation bound requires a string structure")
    _, inv_hbar = lsi_recursion(structure, hp, beta, horizon)
    # Scalar ** as in _group_budgets, not an array square.
    var = np.array([hp.mechanism_window * (c * s) ** 2
                    for c, s in zip(hp.clip, hp.sigma)])
    mu = alphas / (alphas + inv_hbar[:, :, None] * var[:, None])
    groups, dist = structure.groups_of_worker, structure.distances
    defined = structure.admissible_observers[hp.threat_model]
    classes = np.full(defined.shape, -1)
    class_index: dict[tuple, int] = {}
    for n, i in zip(*np.nonzero(defined)):
        # for each group of n, the nearest group of i: the lowest index on
        # ties (groups_of_worker tuples ascend), the group itself if shared
        nearest = tuple(min(groups[i], key=dist[m].__getitem__)
                        for m in groups[n])
        classes[n, i] = class_index.setdefault((groups[n], nearest),
                                               len(class_index))
    S = hp.inter_group_period
    per_block = S // hp.mechanism_window
    num_blocks = delivered_block_count(horizon, S, 1, variant)
    shape = (len(class_index), max(map(len, groups)))  # (C, K)
    shared = np.zeros((*shape, alphas.size))
    first = np.full((*shape, num_blocks), horizon + 1)
    terms = np.zeros((*shape, num_blocks, alphas.size))
    for c, (groups_n, destinations) in enumerate(class_index):
        for k, (m_src, m_dst) in enumerate(zip(groups_n, destinations)):
            if m_src == m_dst:  # shared group: every mechanism is observed
                shared[c, k] = budgets[m_src]
                continue
            rho = int(dist[m_src, m_dst])
            # On a string the shortest path is unique: it holds the groups
            # whose distances from source and destination sum to rho, and
            # hop j is the one at distance j from the source.
            on_path = np.flatnonzero(dist[m_src] + dist[m_dst] == rho)
            path = on_path[np.argsort(dist[m_src, on_path])]
            w = np.arange(1, delivered_block_count(horizon, S, rho, variant) + 1)
            factor = np.ones((w.size, alphas.size))
            for j in range(1, rho + 1):
                if path[j] in groups_n:
                    continue  # the targeted worker's groups do not attenuate
                fired = _fired_epochs(inv_hbar, hp, S * (w + j - 1) + 1)
                factor = factor * mu[fired, path[j]]
            first[c, k, :w.size] = S * (w + rho - offset) + 1
            terms[c, k, :w.size] = per_block * budgets[m_src] * factor
    return Thm2Sweep(horizon, classes, shared, first, terms)


def _check_curve_values(curves: np.ndarray, grid: np.ndarray) -> None:
    """Refuse a negative or non-finite curve value (NaN is skipped) with two
    whole-array reductions; for K the largest value is max(K) * max(alpha)."""
    top = np.fmax.reduce(curves, axis=None, initial=0.0)
    if (np.isinf(top * grid.max() if curves.ndim == 2 else top)
            or np.fmin.reduce(curves, axis=None, initial=0.0) < 0):
        raise ValueError("RDP curve values must be finite and nonnegative")


def dp_matrix_from_curves(curves: np.ndarray, delta: float,
                          alpha_grid=DEFAULT_ALPHA_GRID) -> np.ndarray:
    """(N, N) DP conversion of per-pair curves: an (N, N, G) tensor or the
    delay coefficients K, one order at a time on (N, N) temporaries.

    Identically-zero curves convert to an exact 0; NaN cells stay NaN.
    """
    _check_delta(delta)
    grid = np.array(_check_grid(alpha_grid))
    if curves.ndim == 3 and curves.shape[-1] != grid.size:
        raise ValueError("curve tensor must align with the alpha grid")
    _check_curve_values(curves, grid)
    penalty = math.log(1.0 / delta) / (grid - 1.0)
    eps = np.full(curves.shape[:2], np.inf)
    zero = np.ones(curves.shape[:2], dtype=bool)
    for g, alpha in enumerate(grid):
        curve = curves * alpha if curves.ndim == 2 else curves[..., g]
        np.minimum(eps, curve + penalty[g], out=eps)  # NaN propagates
        zero &= curve == 0.0
    eps[zero] = 0.0
    return eps


def pwp_rows_from_curves(curves: np.ndarray, structure: GroupStructure,
                         threat_model: str, delta: float,
                         alpha_grid=DEFAULT_ALPHA_GRID
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-worker ``(workers, table)`` from per-pair curves: an (N, N, G)
    tensor or the delay coefficients K.

    Each worker's curve is the pointwise envelope over its admissible
    observers.  ``workers`` ((k,) int64) lists the workers that have one, in
    ascending order; the others are omitted.  Row r of ``table`` ((k, 3)
    float64) holds ``eps_rdp, alpha_star, eps_dp`` of worker ``workers[r]``:
    its envelope at the best order, that order, and the converted DP bound.
    Identically-zero envelopes convert to an exact 0.  Curves with a
    negative or non-finite value are refused, as by ``dp_matrix_from_curves``.
    """
    _check_delta(delta)
    grid = np.array(_check_grid(alpha_grid))
    mask = _observer_mask(structure, threat_model)
    # For K the envelope of the curves alpha * K is max(K) * alpha bit for
    # bit, because rounding alpha * x is monotone in x.
    envelopes = np.max(curves, axis=1, initial=-np.inf,
                       where=mask if curves.ndim == 2 else mask[:, :, None])
    if curves.ndim == 2:
        envelopes = envelopes[:, None] * grid
    observed = mask.any(axis=1)
    if np.isnan(envelopes[observed]).any():
        raise ValueError("undefined pair among admissible observers")
    _check_curve_values(curves, grid)
    candidates = envelopes + math.log(1.0 / delta) / (grid - 1.0)
    eps = np.min(candidates, axis=-1)
    best = np.argmin(candidates, axis=-1)
    eps[np.all(envelopes == 0.0, axis=-1)] = 0.0
    workers = np.flatnonzero(observed)
    j = best[workers]
    return workers, np.stack([envelopes[workers, j], grid[j], eps[workers]],
                             axis=1)


# Read here by perfbench/checks.py; last, as ``oracles`` imports this module.
from .oracles import per_step_rdp, propagation_oracle_counts, rdp_to_dp  # noqa: E402,F401
