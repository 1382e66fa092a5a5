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
heatmaps and per-worker envelopes.  Independent references check both
paths: ``thm1_pair_bound``/``thm1_pair_counts``, the epoch-unrolled
``propagation_oracle_counts``, ``degradation_mu`` and ``rdp_to_dp``.

Cost model.  Structure facts (distances, masks, the string test) are cached
on the ``GroupStructure`` and computed once per structure.  A delay epoch
costs one (N, M) @ (M, N) product, O(N * M * N), and no (N, N, G) tensor:
the reductions read K directly.  The degradation bound of a pair (n, i)
depends only on its class: n's groups and, for each, the nearest group of
i.  ``thm2_curve_sweep`` checks the preconditions once, builds one
per-run table of mu factors indexed by (firing epoch, group), and computes
each class's attenuated block budgets once for all epochs up to the
horizon.  An epoch's (N, N, G) tensor is then a sum over the blocks
delivered by that epoch, vectorised across classes, and a gather: the cost
grows with classes x blocks plus epochs x blocks x classes, not with
pairs x epochs x structure rebuilds, and memory with classes x blocks.

Two delay-count variants are provided.  ``examples_consistent`` (default)
counts ``floor((t-1)/S) - rho + 1`` delivered blocks gated by ``>=`` and
reproduces the worked golden examples; ``as_printed`` uses the strict gate
and one fewer block.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .topology import GroupStructure, build_adjacency
from .trainer import HyperParams, is_intergroup_epoch, mechanism_window

# Spaced so consecutive (alpha - 1) ratios stay below ~1.46: the conversion
# optimum then lands within 2% of the continuous minimum for any linear curve.
DEFAULT_ALPHA_GRID = (
    1.25, 1.375, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0,
    10.0, 14.0, 20.0, 28.0, 40.0, 56.0, 80.0, 112.0, 160.0, 224.0, 256.0,
)

VARIANTS = ("examples_consistent", "as_printed")


class AccountingPreconditionError(ValueError):
    """A documented precondition of a bound does not hold: sigma = 0, partial
    participation or an infinite clip for the smoothing recursion, or a
    structure that is not a string for the degradation bound."""


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")


def per_step_rdp(alpha: float, sigma: float, participation: float = 1.0,
                 mode: str = "sampled") -> float:
    """Per-epoch RDP budget of one group mechanism.

    ``sampled``: Poisson-sampled Gaussian closed form 2 * pi^2 * alpha / sigma^2.
    ``full``: plain Gaussian alpha / (2 * sigma^2); requires participation 1.
    """
    if not alpha > 1:
        raise ValueError("RDP order alpha must exceed 1")
    if not sigma > 0:
        raise AccountingPreconditionError(
            "accounting requires a positive noise multiplier")
    if mode == "sampled":
        if not 0 < participation <= 1:
            raise ValueError("participation must lie in (0, 1]")
        return 2.0 * participation ** 2 * alpha / sigma ** 2
    if mode == "full":
        if participation != 1.0:
            raise ValueError("full-participation budget requires participation == 1")
        return alpha / (2.0 * sigma ** 2)
    raise ValueError("mode must be 'sampled' or 'full'")


def delivered_block_count(t: int, period: int, rho: float, variant: str) -> int:
    """How many S-epoch blocks from a source at group distance rho >= 1 have
    been delivered to the observer by epoch t."""
    _check_variant(variant)
    if t < 1 or period < 1:
        raise ValueError("t and period must be >= 1")
    if math.isinf(rho):
        return 0
    if rho < 1:
        raise ValueError("delivered_block_count is for cross-group sources (rho >= 1)")
    k = (t - 1) // period
    if variant == "examples_consistent":
        return max(0, k - int(rho) + 1)
    return max(0, k - int(rho))


# ---------------------------------------------------------------------------
# closed-form pair bounds (Gaussian-mechanism composition with delay)

def thm1_pair_counts(structure: GroupStructure, period: int, n: int, i: int,
                     t: int, variant: str = "examples_consistent",
                     algorithm: str = "dpogl") -> dict[int, int]:
    """Delivered per-source-group mechanism counts for the pair (n, i).

    A cross source group contributes S / W mechanisms per delivered block
    (S for dpogl, one interval mechanism for dpogl_plus).  A shared source
    group contributes t-1 mechanisms under dpogl; dpogl_plus applies raw
    updates inside its windows, has no shared-group bound, and raises.
    """
    if n == i:
        raise ValueError("a worker is trusted with its own data; need n != i")
    per_block = period // mechanism_window(algorithm, period)
    counts: dict[int, int] = {}
    for m_src in structure.groups_of_worker[n]:
        rho = structure.worker_distances[m_src, i]
        if rho == 0:
            if algorithm == "dpogl_plus":
                raise ValueError("dpogl_plus defines no bound for in-group pairs")
            counts[m_src] = t - 1
        else:
            counts[m_src] = per_block * delivered_block_count(t, period, rho,
                                                             variant)
    return counts


def thm1_pair_bound(structure: GroupStructure, hp: HyperParams, alpha: float,
                    n: int, i: int, t: int,
                    variant: str = "examples_consistent") -> float | None:
    """Delay-only pairwise RDP bound at order alpha through epoch t.

    None marks a pair that shares a group under dpogl_plus (trusted).
    """
    if n == i:
        raise ValueError("a worker is trusted with its own data; need n != i")
    if (hp.algorithm == "dpogl_plus"
            and set(structure.groups_of_worker[n]) & set(structure.groups_of_worker[i])):
        return None
    counts = thm1_pair_counts(structure, hp.inter_group_period, n, i, t, variant,
                              hp.algorithm)
    total = 0.0
    for m_src, count in counts.items():
        eps = per_step_rdp(alpha, float(hp.sigma[m_src]),
                           float(hp.participation[m_src]), mode="sampled")
        total += eps * count
    return total


# ---------------------------------------------------------------------------
# independent propagation oracle (epoch-unrolled reachability)

def _influence_sets(structure: GroupStructure, period: int, t: int,
                    algorithm: str) -> list[int]:
    """Bitmask influence sets after sweeping epochs 1..t.

    Bit (tau - 1) * M + m marks the mechanism group m fired at epoch tau.
    The mechanism enters its group's model at epoch tau + 1; models carry
    influence forward; at an inter-group epoch each group's model picks up
    adjacent groups' influence with zero lag, one hop per inter-group epoch
    (snapshots prevent chained hops inside one epoch).
    """
    M = structure.num_groups
    adj = build_adjacency(structure)
    neighbors = [[v for v in np.nonzero(adj[m])[0] if v != m] for m in range(M)]
    influence = [0] * M
    for e in range(1, t + 1):
        tau = e - 1
        if tau >= 1:
            fires = (algorithm == "dpogl") or (tau % period == 0)
            if fires:
                for m in range(M):
                    influence[m] |= 1 << ((tau - 1) * M + m)
        if is_intergroup_epoch(e, period):
            snapshot = list(influence)
            for m in range(M):
                for m_adj in neighbors[m]:
                    influence[m] |= snapshot[m_adj]
    return influence


def propagation_oracle_counts(structure: GroupStructure, period: int, t: int,
                              n: int, i: int, algorithm: str = "dpogl"
                              ) -> dict[int, int]:
    """Per-source-group counts of mechanisms whose influence reaches any model
    observed by worker i through epoch t, restricted to groups of worker n."""
    if algorithm not in ("dpogl", "dpogl_plus"):
        raise ValueError("algorithm must be 'dpogl' or 'dpogl_plus'")
    if t < 1:
        raise ValueError("t must be >= 1")
    if n == i:
        raise ValueError("need n != i")
    M = structure.num_groups
    influence = _influence_sets(structure, period, t, algorithm)
    delivered = 0
    for m in structure.groups_of_worker[i]:
        delivered |= influence[m]
    counts = {}
    for m_src in structure.groups_of_worker[n]:
        group_mask = 0
        for tau in range(1, t):
            group_mask |= 1 << ((tau - 1) * M + m_src)
        counts[m_src] = (delivered & group_mask).bit_count()
    return counts


# ---------------------------------------------------------------------------
# log-Sobolev recursion (full participation) and degradation factors

def _lsi_preconditions(hp: HyperParams) -> None:
    if not np.all(hp.participation == 1.0):
        raise AccountingPreconditionError(
            "the LSI recursion is defined for full participation only")
    if not np.all(np.isfinite(hp.clip)):
        raise AccountingPreconditionError("the LSI recursion needs finite clip norms")
    if not np.all(hp.sigma > 0):
        raise AccountingPreconditionError(
            "the LSI recursion needs positive noise multipliers")


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


def _mu(alpha, hbar, var):
    return alpha / (alpha + hbar * var)


def degradation_mu(inv_hbar: np.ndarray, hp: HyperParams, alpha, group: int,
                   epoch: int, targeted_groups) -> float | np.ndarray:
    """Degradation factor mu = alpha / (alpha + hbar * W c^2 sigma^2) for
    leakage transiting ``group``'s mechanism at ``epoch``.

    ``hbar`` is the accumulated constant of the pre-noise aggregate (0 while
    the model is still deterministic, so early crossings are undegraded).
    Groups of the targeted worker pass information through unattenuated
    (factor 1).  Accepts a scalar or array alpha.
    """
    if group in set(targeted_groups):
        return np.ones_like(np.asarray(alpha, dtype=float)) if np.ndim(alpha) else 1.0
    fired = _fired_epochs(inv_hbar, hp, epoch)
    hbar = float(inv_hbar[fired, group])
    alpha_arr = np.asarray(alpha, dtype=float)
    if np.any(alpha_arr <= 1):
        raise ValueError("RDP order alpha must exceed 1")
    var = hp.mechanism_window * (hp.clip[group] * hp.sigma[group]) ** 2
    mu = _mu(alpha_arr, hbar, var)
    return mu if alpha_arr.ndim else float(mu)


# ---------------------------------------------------------------------------
# string-topology bound with degradation

def _nearest_groups(dist: np.ndarray, groups_n, groups_i) -> tuple:
    """For each group of n in sorted order, the nearest group of i (lowest
    index on ties; the group itself when shared)."""
    return tuple(min(sorted(groups_i), key=lambda m: dist[m_src, m])
                 for m_src in sorted(groups_n))


def _thm2_class_blocks(structure: GroupStructure, hp: HyperParams,
                       groups_n: tuple[int, ...], destinations: tuple,
                       horizon: int, alphas: np.ndarray, variant: str,
                       inv_hbar: np.ndarray, mu: np.ndarray) -> list:
    """The terms of the degradation bound of every pair (n, i) in one class:
    n's groups are ``groups_n`` and ``destinations`` are i's groups nearest
    to them (``_nearest_groups``).

    One entry per source group of n, in sorted order: (per-epoch budget of a
    shared source or None, (B,) first epoch at which each delivered block
    arrives by ``horizon``, (B, G) attenuated budget of each block).  Per
    delivered block w from source group m', the contribution is S / W
    full-participation budgets attenuated by one mu factor per path group
    past the source, each evaluated at its crossing epoch S*(w + j - 1) + 1;
    hop factors are multiplied in j order.
    """
    S = hp.inter_group_period
    per_block = S // hp.mechanism_window
    dist = structure.distances
    no_blocks = (np.zeros(0, dtype=int), np.zeros((0, alphas.size)))
    entries = []
    for m_src, m_dst in zip(sorted(groups_n), destinations):
        eps = alphas / (2.0 * float(hp.sigma[m_src]) ** 2)  # full-participation budget
        if m_src == m_dst:  # shared group: every mechanism is observed
            entries.append((eps, *no_blocks))
            continue
        rho = int(dist[m_src, m_dst])
        # On a string the shortest path is unique: it holds the groups whose
        # distances from source and destination sum to rho, and hop j is the
        # one at distance j from the source.
        from_src, to_dst = dist[m_src].tolist(), dist[m_dst].tolist()
        on_path = [g for g in range(len(from_src)) if from_src[g] + to_dst[g] == rho]
        path = sorted(on_path, key=from_src.__getitem__)
        # Counts change only where an S-epoch block starts, at epochs S*q + 1.
        starts = range(1, horizon + 1, S)
        blocks = [delivered_block_count(t, S, rho, variant) for t in starts]
        w = np.arange(1, blocks[-1] + 1)
        factor = np.ones((w.size, alphas.size))
        for j in range(1, rho + 1):
            if path[j] in groups_n:
                continue  # the targeted worker's groups do not attenuate
            fired = _fired_epochs(inv_hbar, hp, S * (w + j - 1) + 1)
            factor = factor * mu[fired, path[j]]
        # block w is delivered from the first epoch whose count reaches w
        arrivals = np.array([starts[bisect.bisect_left(blocks, b)] for b in w],
                            dtype=int)
        entries.append((None, arrivals, per_block * eps * factor))
    return entries


@dataclass(frozen=True, eq=False)
class Thm2Sweep:
    """Degradation-aware curves of pair classes, evaluated at any epoch
    1..horizon from per-class block terms.

    Slot k of class c is the k-th source group of the class's targeted
    worker.  Padding entries hold zero budgets and never-delivered blocks.
    """

    horizon: int
    classes: np.ndarray  # (N, N) class of each pair; -1 marks undefined cells
    shared: np.ndarray   # (C, K, G) per-epoch budget of a shared source, else 0
    first: np.ndarray    # (C, K, B) epoch from which block b + 1 is delivered
    terms: np.ndarray    # (C, K, B, G) attenuated budget of that block

    @classmethod
    def pack(cls, horizon: int, classes: np.ndarray, entries: list,
             num_orders: int) -> "Thm2Sweep":
        """Pack per-class lists of ``_thm2_class_blocks`` entries."""
        C = len(entries)
        K = max((len(e) for e in entries), default=0)
        B = max((arrivals.size for e in entries for _, arrivals, _ in e),
                default=0)
        shared = np.zeros((C, K, num_orders))
        first = np.full((C, K, B), horizon + 1)
        terms = np.zeros((C, K, B, num_orders))
        for c, entry in enumerate(entries):
            for k, (eps, arrivals, budgets) in enumerate(entry):
                if eps is not None:
                    shared[c, k] = eps
                first[c, k, :arrivals.size] = arrivals
                terms[c, k, :arrivals.size] = budgets
        return cls(horizon, classes, shared, first, terms)

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
# RDP -> (eps, delta)-DP conversion

def _check_delta(delta: float) -> None:
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")


def _check_grid(alpha_grid) -> list[float]:
    grid = [float(a) for a in alpha_grid]
    if not grid or any(a <= 1 for a in grid):
        raise ValueError("alpha grid entries must exceed 1")
    return grid


def rdp_to_dp(curve, delta: float, alpha_grid=DEFAULT_ALPHA_GRID
              ) -> tuple[float, float]:
    """Minimize eps_rdp(alpha) + log(1/delta)/(alpha - 1) over the grid.

    ``curve`` is a sequence aligned with the grid.  Ties break toward the
    smaller order.
    """
    _check_delta(delta)
    grid = _check_grid(alpha_grid)
    values = [float(v) for v in curve]
    if len(values) != len(grid):
        raise ValueError("curve values must align with the alpha grid")
    if any(v < 0 or not math.isfinite(v) for v in values):
        raise ValueError("RDP curve values must be finite and nonnegative")
    penalty = math.log(1.0 / delta)
    best_eps, best_alpha = math.inf, None
    for a, v in zip(grid, values):
        candidate = v + penalty / (a - 1.0)
        if candidate < best_eps:
            best_eps, best_alpha = candidate, a
    return best_eps, float(best_alpha)


# ---------------------------------------------------------------------------
# curve tensors (one path per bound) and their reductions

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
    _check_variant(variant)
    S = hp.inter_group_period
    weights = np.array([per_step_rdp(2.0, float(s), float(p), "sampled") / 2.0
                        for s, p in zip(hp.sigma, hp.participation)])
    rt = structure.worker_distances  # (M, N) source-group -> worker distance
    k = (t - 1) // S
    if variant == "examples_consistent":
        blocks = np.maximum(0.0, k - rt + 1.0)  # 0 where rt is inf
    else:
        blocks = np.maximum(0.0, k - rt)
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
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    alphas = np.array(_check_grid(alpha_grid))
    _check_variant(variant)
    _lsi_preconditions(hp)
    if not structure.is_string:
        raise AccountingPreconditionError(
            "the degradation bound requires a string structure")
    _, inv_hbar = lsi_recursion(structure, hp, beta, horizon)
    # Scalar ** as in degradation_mu (libm pow), not the recursion's array
    # square: the two differ in the last bit for some values of c * sigma.
    var = np.array([hp.mechanism_window * (c * s) ** 2
                    for c, s in zip(hp.clip, hp.sigma)])
    mu = _mu(alphas, inv_hbar[:, :, None], var[:, None])
    groups = structure.groups_of_worker
    defined = structure.admissible_observers[hp.threat_model]
    classes = np.full(defined.shape, -1)
    class_index: dict[tuple, int] = {}
    entries = []
    for n, i in zip(*np.nonzero(defined)):
        key = (groups[n], _nearest_groups(structure.distances, groups[n],
                                          groups[i]))
        if key not in class_index:
            class_index[key] = len(entries)
            entries.append(_thm2_class_blocks(structure, hp, *key, horizon,
                                              alphas, variant, inv_hbar, mu))
        classes[n, i] = class_index[key]
    return Thm2Sweep.pack(horizon, classes, entries, alphas.size)


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
                         ) -> list[tuple[int, float, float, float]]:
    """Per-worker (worker, eps_rdp, alpha_star, eps_dp) from per-pair curves:
    an (N, N, G) tensor or the delay coefficients K.

    Each worker's curve is the pointwise envelope over its admissible
    observers; workers with no admissible observer are omitted.
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
    rows = np.flatnonzero(observed)
    j = best[rows]
    return list(zip(rows.tolist(), envelopes[rows, j].tolist(),
                    grid[j].tolist(), eps[rows].tolist()))
