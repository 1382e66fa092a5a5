"""Per-pair Renyi-DP accounting with propagation delay and degradation.

The central quantity is eps_{n,i}(t): an RDP bound on what honest-but-curious
worker i can learn about targeted worker n's data from the group models it
observes through epoch t.  Leakage from a source group reaches an observer
only after enough inter-group epochs have passed to cover the group distance,
so bounds grow with t in delivered S-epoch blocks.

Both algorithms share one path, parameterised by the mechanism window W
(``HyperParams.mechanism_window``: 1 for dpogl, S for dpogl_plus).  A
delivered S-epoch block carries S / W mechanisms, and the smoothing (LSI)
recursion fires one mechanism per W-epoch window.  Leakage travels only
along group adjacency, so a pair's bound depends only on the two workers'
group sets (``GroupStructure.group_sets``), and both bounds are computed on
group-set pairs: ``delay_sweep`` gives (P, P) delay coefficients K, whose
curves alpha * K are linear in the order, and ``thm2_curve_sweep`` (P, P,
G) curve tensors over an order grid.  The reductions turn either form into
DP heatmaps of set pairs and one envelope row per set, over the set-level
mask ``admissible_observer_sets``; a worker's envelope is its set's.  No
worker index enters this module's results.  It holds only that pipeline;
the references that check it live in ``oracles``.

Cost model.  Structure facts (distances, masks, group sets, the string
test) are cached on the ``GroupStructure`` and computed once per structure.
Each sweep checks its preconditions and builds its per-run terms once.  A
delay epoch costs one (P, M) @ (M, P) product, O(P * M * P), and no
(P, P, G) tensor: the reductions read K directly.  The degradation bound of
a set pair depends only on its class: the targeted set's groups and, for
each, the nearest group of the observer's set.  ``thm2_curve_sweep`` builds
one per-run table of mu factors indexed by (firing epoch, group), and fills
each class's attenuated block budgets in place, once for all epochs up to
the horizon: B block slots per source, the count that a source at distance
1 delivers by the horizon, with padding slots never delivered.  An epoch's
(P, P, G) tensor is then a sum over the blocks delivered by that epoch,
vectorised across classes, and a gather.  So the cost grows with set pairs
x epochs and classes x blocks, not with worker pairs x epochs, and memory
with classes x blocks.  ``pwp_rows_from_curves`` takes every epoch of a run
in one call: delta, the grid, the threat model and the conversion penalty
once, a masked max per epoch as the curves stream in, and one conversion
of all epochs' envelopes, order by order on (T, P) temporaries.  Workers
appear only when the text is written.

Both bounds follow one block rule, ``_delivered_blocks``: by epoch t a
source rho >= 1 hops away has delivered max(0, floor((t-1)/S) - rho + 1)
blocks, so block w arrives at epoch S*(w + rho - 1) + 1.  This is what the
simulator delivers: ``oracles.propagation_oracle_counts`` unrolls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import GroupStructure
from .trainer import (HyperParams, _check_group_count, _check_threat_model,
                      is_intergroup_epoch)

# Spaced so consecutive (alpha - 1) ratios stay below ~1.46: the conversion
# optimum then lands within 2% of the continuous minimum for any linear curve.
DEFAULT_ALPHA_GRID = (
    1.25, 1.375, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0,
    10.0, 14.0, 20.0, 28.0, 40.0, 56.0, 80.0, 112.0, 160.0, 224.0, 256.0,
)

class AccountingPreconditionError(ValueError):
    """A precondition of a bound does not hold: a per-group quantity (a
    budget, or the smoothing recursion's mechanism variance) that is not
    finite and > 0, partial participation or an overflowing spread for the
    smoothing recursion, or a non-string structure for degradation."""


def _group_budgets(hp: HyperParams, name: str, budget) -> np.ndarray:
    """``budget(clip, sigma, pi)`` of each group with scalar ``**`` (libm
    pow; array ``**`` rounds some squares differently).  The one per-group
    rule: a value that is not finite and > 0 (sigma = 0, an infinite clip,
    or an over- or underflow) is refused, with the group named."""
    # Silenced: division by sigma = 0 (inf), inf * 0 from an infinite clip
    # with sigma = 0 (NaN), a square or quotient that overflows to inf or
    # underflows to 0.  The refusal just below catches every one of them.
    with np.errstate(all="ignore"):
        budgets = np.array([budget(c, s, p) for c, s, p
                            in zip(hp.clip, hp.sigma, hp.participation)])
    bad = np.argwhere(~((budgets > 0) & (budgets < math.inf)))
    if bad.size:
        raise AccountingPreconditionError(
            f"group {bad[0, 0]}: the {name} is not finite and > 0 (zero noise "
            "multiplier, or an over- or underflow)")
    return budgets


def _delivered_blocks(t, period: int, rho):
    """S-epoch blocks that a source at group distance ``rho`` (>= 1, or inf:
    0 blocks) has delivered to the observer by epoch t; elementwise."""
    return np.maximum(0, (t - 1) // period - rho + 1)


# ---------------------------------------------------------------------------
# log-Sobolev recursion (full participation)

def _lsi_preconditions(hp: HyperParams) -> np.ndarray:
    """(M,) mechanism variance W (c sigma)^2 of each group, which the
    recursion's noise and the sweep's mu factors both read, under the
    per-group rule of ``_group_budgets``: sigma = 0 makes it 0 and an
    infinite clip (allowed only with sigma = 0) NaN."""
    if not np.all(hp.participation == 1.0):
        raise AccountingPreconditionError(
            "the LSI recursion is defined for full participation only")
    W = hp.mechanism_window
    return _group_budgets(hp, "mechanism variance W (c sigma)^2",
                          lambda c, s, _: W * (c * s) ** 2)


def lsi_recursion(structure: GroupStructure, hp: HyperParams, beta: float,
                  horizon: int) -> np.ndarray:
    """(horizon + 1, M) LSI reciprocals ``inv_hbar`` of each group's
    pre-noise aggregate, through epoch ``horizon``.

    All values are reciprocals (0 encodes a deterministic point mass), so
    every recursion step is a plain addition.  Row t is filled at the
    epochs where a mechanism fires, the last epoch of each W-epoch window
    (every epoch for dpogl, multiples of S for dpogl_plus), and is 0
    elsewhere; row 0 is unused.

    Inside a W-epoch window the model ``inv_b`` takes raw updates; at the
    window's last epoch the mechanism adds W c^2 sigma^2 of noise over the
    whole window, and the next window starts from its output.  The worker
    inits ``inv_a`` (at an inter-group epoch, the merge of the worker's
    groups) and their spread ``inv_h`` are carried as per-group member sums.
    """
    _check_group_count(structure, hp)
    mechanism_var = _lsi_preconditions(hp)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not 0.0 <= beta < math.inf:
        raise ValueError("the smoothness constant beta must be finite and >= 0")
    M = structure.num_groups
    S, W = hp.inter_group_period, hp.mechanism_window
    sizes = np.array([len(g) for g in structure.members_of_group], dtype=float)
    try:  # float ** raises OverflowError; an infinite eta * beta does not
        spread = (1.0 + (1.0 + hp.learning_rate * beta) ** hp.local_iterations) ** 2
    except OverflowError:
        spread = math.inf
    if math.isinf(spread):
        raise AccountingPreconditionError(
            "the LSI spread (1 + (1 + eta beta)^L)^2 is not finite (an overflow)")
    inv_hbar = np.zeros((horizon + 1, M))
    inv_b = window_b = np.zeros(M)  # the model at epoch t and at its window's start
    inv_e = np.zeros(M)  # the last fired mechanism's output; 0 before the first
    for t in range(1, horizon + 1):
        if (t - 1) % W:  # inside a window: raw updates
            inv_b = inv_b + sizes ** 2 * h_sum
        else:  # a window starts from the mechanism fired at t - 1
            inv_b = window_b = window_b + sizes ** 2 * inv_e
            window_h_sum = np.zeros(M)  # running sum of h_sum over the window
        # The merge sums each worker's groups in order, and the member sum
        # runs over an (M, N) array with zeros for non-members: a matmul
        # merge or a members-only sum rounds differently.
        if is_intergroup_epoch(t, S):
            inv_a = np.array([sum(inv_b[m] for m in groups)
                              for groups in structure.groups_of_worker])
        else:
            inv_a = inv_b[:, None]
        h_sum = (spread * np.where(structure.member_mask, inv_a, 0.0)).sum(axis=1)
        window_h_sum = window_h_sum + h_sum
        if t % W == 0:  # the window's mechanism fires
            inv_e = mechanism_var + window_h_sum
            inv_hbar[t] = window_b + sizes ** 2 * window_h_sum
    return inv_hbar


# ---------------------------------------------------------------------------
# string-topology bound with degradation

@dataclass(frozen=True, eq=False)
class Thm2Sweep:
    """Degradation-aware curves of group-set pair classes, evaluated at any
    epoch 1..horizon from per-class block terms.

    Slot k of class c is the k-th source group of the class's targeted
    set; K is the largest number of groups of any set.  Block slot b
    is the (b + 1)-th block delivered from that source; B is the block
    count of a source at distance 1, the most any source delivers by the
    horizon.  By epoch t a slot has delivered ``_delivered_blocks`` of its
    distance ``rho``: none for shared and padding slots (``rho = inf``), and
    never a block slot past its count by the horizon, which holds zeros.
    """

    horizon: int
    period: int          # S
    classes: np.ndarray  # (P, P) class of each set pair; -1 marks undefined cells
    shared: np.ndarray   # (C, K, G) per-epoch budget of a shared source, else 0
    rho: np.ndarray      # (C, K) distance of a block-delivering source, else inf
    terms: np.ndarray    # (C, K, B, G) attenuated budget of block b + 1

    def at(self, t: int) -> np.ndarray:
        """(P, P, G) curve tensor of group-set pairs at epoch t; NaN marks
        set pairs outside the threat model.

        Each cell takes the steps of a straight per-pair sum: sources in
        sorted order, blocks in delivery order.  Padding adds exact zeros,
        which leave every (nonnegative) partial sum unchanged.
        """
        if not 1 <= t <= self.horizon:
            raise ValueError(f"epoch {t} is outside the sweep's 1..{self.horizon}")
        C, K, B = self.terms.shape[:3]
        blocks = _delivered_blocks(t, self.period, self.rho)
        total = np.zeros((C + 1, self.shared.shape[-1]))
        for k in range(K):
            total[:C] += self.shared[:, k] * (t - 1)
            for b in range(B):
                delivered = np.flatnonzero(blocks[:, k] > b)
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
    if not grid:
        raise ValueError("alpha_grid must not be empty")
    for k, a in enumerate(grid):
        if not a > 1:
            raise ValueError(f"alpha_grid[{k}] must exceed 1")
        if math.isinf(a):
            raise ValueError(f"alpha_grid[{k}] must be finite")
    return grid


@dataclass(frozen=True, eq=False)
class DelaySweep:
    """Delay coefficients of group-set pairs, evaluated at any epoch >= 1
    from per-run terms read off ``GroupStructure.set_distances``."""

    period: int             # S
    per_block: int          # S / W mechanisms per delivered block
    rows: np.ndarray        # (P, M) weight of each set's groups, else 0
    distances: np.ndarray   # (M, P) ``set_distances``: 0 at the set's groups
    in_group: np.ndarray    # (M, P) ``distances == 0``
    undefined: np.ndarray   # (P, P) set pairs outside the threat model

    def at(self, t: int) -> np.ndarray:
        """(P, P) delay coefficients K at epoch t: the curve of set pair
        (a, b) is alpha * K[a, b].  NaN marks set pairs outside the threat
        model."""
        if t < 1:
            raise ValueError("t must be >= 1")
        counts = self.per_block * _delivered_blocks(t, self.period,
                                                    self.distances)
        np.putmask(counts, self.in_group, t - 1)  # in-group cells
        K = self.rows @ counts
        K[self.undefined] = np.nan
        return K


def delay_sweep(structure: GroupStructure, hp: HyperParams) -> DelaySweep:
    """Delay coefficients of every group-set pair at any epoch.

    The group count and the per-group weights 2 pi^2 / sigma^2 are checked
    once.  Row a is the targeted set, column b the observer's set.  K[a, b]
    sums a's groups' delivered mechanism counts times their per-step budgets
    over alpha.  Set pairs are undefined where no pair of their workers is
    admissible: a set with itself when it holds one worker and, under tm2
    (which dpogl_plus requires), sets that share a group.
    """
    _check_group_count(structure, hp)
    weights = _group_budgets(hp, "delay weight 2 pi^2 / sigma^2",
                             lambda _, s, p: 2.0 * p ** 2 / s ** 2)
    S, dist = hp.inter_group_period, structure.set_distances
    in_group = dist == 0
    return DelaySweep(S, S // hp.mechanism_window, in_group.T * weights, dist,
                      in_group,
                      ~structure.admissible_observer_sets[hp.threat_model])


def thm2_curve_sweep(structure: GroupStructure, hp: HyperParams, beta: float,
                     horizon: int, alpha_grid=DEFAULT_ALPHA_GRID) -> Thm2Sweep:
    """Degradation-aware curves of every group-set pair at any epoch
    1..horizon; strings only.

    Preconditions are checked once; the group-count, horizon and beta
    checks are those of ``lsi_recursion``, which runs before any per-group
    array is indexed by the structure.  Set pairs are grouped by class (the
    targeted set's groups and the nearest group of the observer's set to
    each); each class's block budgets are computed once for all epochs from
    one (horizon + 1, M, G) table of mu factors indexed by (firing epoch,
    group).  ``at(t)`` gives epoch t's (P, P, G) tensor.  Cells are NaN
    where ``delay_sweep``'s are.

    A shared source group adds its full-participation budget per epoch.
    Block w from another source group carries S / W such budgets times one
    mu factor per path group past the source; hop factors are multiplied in
    j order.  The block enters hop j at crossing epoch e = S*(w + j - 1) + 1
    and joins the W-epoch window that holds e, whose mechanism fires at
    W*ceil(e/W): an intermediate hop reads mu there.  The observer's own
    group (hop rho) is read at e itself, so it attenuates only if a
    mechanism fires at e, that is only when W = 1.
    """
    alphas = np.array(_check_grid(alpha_grid))
    budgets = _group_budgets(hp, "degradation budget alpha / (2 sigma^2)",
                             lambda _, s, __: alphas / (2.0 * s ** 2))  # pi = 1
    var = _lsi_preconditions(hp)
    if not structure.is_string:
        raise AccountingPreconditionError(
            "the degradation bound requires a string structure")
    inv_hbar = lsi_recursion(structure, hp, beta, horizon)
    mu = alphas / (alphas + inv_hbar[:, :, None] * var[:, None])
    groups, dist = structure.group_sets, structure.distances
    defined = structure.admissible_observer_sets[hp.threat_model]
    classes = np.full(defined.shape, -1)
    class_index: dict[tuple, int] = {}
    for a, b in zip(*np.nonzero(defined)):
        # for each group of a, the nearest group of b: the lowest index on
        # ties (group_sets tuples ascend), the group itself if shared
        nearest = tuple(min(groups[b], key=dist[m].__getitem__)
                        for m in groups[a])
        classes[a, b] = class_index.setdefault((groups[a], nearest),
                                               len(class_index))
    S, W = hp.inter_group_period, hp.mechanism_window
    per_block = S // W
    num_blocks = _delivered_blocks(horizon, S, 1)
    shape = (len(class_index), max(map(len, groups)))  # (C, K)
    shared = np.zeros((*shape, alphas.size))
    rho_of_slot = np.full(shape, math.inf)
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
            w = np.arange(1, _delivered_blocks(horizon, S, rho) + 1)
            factor = np.ones((w.size, alphas.size))
            for j in range(1, rho + 1):
                # The targeted worker's groups do not attenuate.  The
                # observer reads its own group (hop rho) at the crossing
                # epoch, where no mechanism fires when W > 1; any other hop
                # reads the close of the window that holds the crossing.
                if path[j] in groups_n or (j == rho and W > 1):
                    continue
                fired = -(-(S * (w + j - 1) + 1) // W) * W
                factor = factor * mu[fired, path[j]]
            rho_of_slot[c, k] = rho
            terms[c, k, :w.size] = per_block * budgets[m_src] * factor
    return Thm2Sweep(horizon, S, classes, shared, rho_of_slot, terms)


_BAD_VALUES = "RDP curve values must be finite and nonnegative"


def _check_form(curves: np.ndarray, grid: np.ndarray) -> None:
    """Refuse curves that are neither K (rank 2) nor a tensor (rank 3), and
    a (P, P, G) tensor whose G is not the grid size, before either
    reduction indexes them."""
    if curves.ndim not in (2, 3):
        raise ValueError("curves must be (P, P) delay coefficients or a "
                         "(P, P, G) tensor")
    if curves.ndim == 3 and curves.shape[-1] != grid.size:
        raise ValueError("curve tensor must align with the alpha grid")


def _has_bad_values(curves: np.ndarray, grid: np.ndarray) -> bool:
    """Whether a curve value is negative or not finite (NaN is skipped),
    from two whole-array reductions; for K the largest value is max(K) *
    max(alpha)."""
    top = np.fmax.reduce(curves, axis=None, initial=0.0)
    return bool(np.isinf(top * grid.max() if curves.ndim == 2 else top)
                or np.fmin.reduce(curves, axis=None, initial=0.0) < 0)


def dp_matrix_from_curves(curves: np.ndarray, delta: float,
                          alpha_grid=DEFAULT_ALPHA_GRID) -> np.ndarray:
    """(P, P) DP conversion of group-set pair curves: a (P, P, G) tensor or
    the delay coefficients K, one order at a time on (P, P) temporaries.

    Identically-zero curves convert to an exact 0; NaN cells stay NaN.
    """
    _check_delta(delta)
    grid = np.array(_check_grid(alpha_grid))
    _check_form(curves, grid)
    if _has_bad_values(curves, grid):
        raise ValueError(_BAD_VALUES)
    penalty = math.log(1.0 / delta) / (grid - 1.0)
    eps = np.full(curves.shape[:2], np.inf)
    zero = np.ones(curves.shape[:2], dtype=bool)
    for g, alpha in enumerate(grid):
        curve = curves * alpha if curves.ndim == 2 else curves[..., g]
        np.minimum(eps, curve + penalty[g], out=eps)  # NaN propagates
        zero &= curve == 0.0
    eps[zero] = 0.0
    return eps


def pwp_rows_from_curves(curves_by_epoch, structure: GroupStructure,
                         threat_model: str, delta: float,
                         alpha_grid=DEFAULT_ALPHA_GRID) -> np.ndarray:
    """(T, P, 3) per-set rows ``eps_rdp, alpha_star, eps_dp`` of T epochs,
    from an iterable of each epoch's group-set pair curves: all (P, P)
    delay coefficients K, or all (P, P, G) tensors.

    Row [t, a] is the pointwise envelope of set a's curves at epoch t + 1 of
    the iterable over the set-level mask ``admissible_observer_sets`` at the
    best order, that order, and the converted DP bound.  Every worker of set
    a has this envelope over its admissible observers: the max is exact, so
    the bits are those of a max over worker pairs; worker n reads column
    ``group_set_of_worker[n]``.  A set with no admissible observer gets NaN
    rows, as its heatmap cells are trusted.  Identically-zero envelopes
    convert to an exact 0.

    delta, the grid and the threat model are checked once per call.  Each
    epoch's curves are checked and reduced to their envelopes, (P,) for K
    and (P, G) for a tensor, so an iterator of epochs is never held as a
    (T, P, P) stack.  The conversion then runs once over all epochs, one
    order at a time on (T, P) temporaries, so K never takes a (T, P, G)
    array.  An empty iterable gives (0, P, 3).
    Refused: a bare array (iterating a (P, P, G) tensor yields (P, G)
    slices, which pass as K when G == P), K and tensors mixed across
    epochs, curves that do not hold one cell per set pair, an undefined
    cell among admissible observers and, as by ``dp_matrix_from_curves``,
    curves of another rank, a tensor that does not align with the grid and
    a negative or non-finite curve value.
    """
    _check_delta(delta)
    grid = np.array(_check_grid(alpha_grid))
    _check_threat_model(threat_model)
    if isinstance(curves_by_epoch, np.ndarray):
        raise ValueError("curves_by_epoch must be an iterable of epochs' "
                         "curves, not an array")
    mask = structure.admissible_observer_sets[threat_model]
    envelopes, rank, bad_values = [], None, False
    for curves in curves_by_epoch:
        _check_form(curves, grid)
        if curves.shape[:2] != mask.shape:
            raise ValueError("curves must hold one cell per pair of group sets")
        if rank is None:
            rank = curves.ndim
        elif curves.ndim != rank:
            raise ValueError("curves must be K at every epoch or a tensor at "
                             "every epoch")
        bad_values = bad_values or _has_bad_values(curves, grid)
        envelopes.append(np.max(curves, axis=1, initial=-np.inf,
                                where=mask if rank == 2 else mask[:, :, None]))
    # (T, P) for K, whose curves' envelope is max(K) * alpha bit for bit
    # because rounding alpha * x is monotone in x; (T, P, G) for tensors.
    envelopes = np.stack(envelopes) if envelopes else np.empty((0, len(mask)))
    observed = mask.any(axis=1)
    # An undefined cell among admissible observers outranks a bad value.
    if np.isnan(envelopes)[:, observed].any():
        raise ValueError("undefined pair among admissible observers")
    if bad_values:
        raise ValueError(_BAD_VALUES)
    # One order at a time on (T, P) temporaries, as in dp_matrix_from_curves.
    penalty = math.log(1.0 / delta) / (grid - 1.0)
    eps = np.full(envelopes.shape[:2], np.inf)
    best = np.zeros(envelopes.shape[:2], dtype=np.intp)
    zero = np.ones(envelopes.shape[:2], dtype=bool)
    for g, alpha in enumerate(grid):
        curve = envelopes * alpha if envelopes.ndim == 2 else envelopes[..., g]
        candidate = curve + penalty[g]
        better = candidate < eps  # strict: the first best order wins
        np.copyto(eps, candidate, where=better)
        np.copyto(best, g, where=better)
        zero &= curve == 0.0
    eps[zero] = 0.0
    eps_rdp = (envelopes * grid[best] if envelopes.ndim == 2 else
               np.take_along_axis(envelopes, best[..., None], -1)[..., 0])
    rows = np.stack([eps_rdp, grid[best], eps], axis=-1)
    rows[:, ~observed] = np.nan
    return rows


# Read here by perfbench/checks.py; last, as ``oracles`` imports this module.
from .oracles import per_step_rdp, propagation_oracle_counts, rdp_to_dp  # noqa: E402,F401
