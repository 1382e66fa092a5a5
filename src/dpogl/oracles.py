"""Independent references for the accounting pipeline in ``accountant``.

Each function recomputes, one pair or query at a time, a number that the
pipeline computes in bulk.  Tests and the benchmark's correctness checks
compare against them; no artifact is computed from them, and ``dpogl`` does
not export them.  From ``accountant`` this module imports only the
precondition error and the default order grid, so a change to a pipeline
rule cannot change its check.
"""

from __future__ import annotations

import math

import numpy as np

from .accountant import DEFAULT_ALPHA_GRID, AccountingPreconditionError
from .topology import GroupStructure, build_adjacency
from .trainer import ALGORITHMS, HyperParams, is_intergroup_epoch

_VARIANT_OFFSETS = {"examples_consistent": 1, "as_printed": 0}


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
    if t < 1:
        raise ValueError("t must be >= 1")
    if period < 1 or variant not in _VARIANT_OFFSETS or algorithm not in ALGORITHMS:
        raise ValueError(f"need period >= 1, variant in {tuple(_VARIANT_OFFSETS)} "
                         f"and algorithm in {ALGORITHMS}")
    per_block = 1 if algorithm == "dpogl_plus" else period
    counts: dict[int, int] = {}
    for m_src in structure.groups_of_worker[n]:
        rho = structure.worker_distances[m_src, i]
        if rho == 0 and algorithm == "dpogl_plus":
            raise ValueError("dpogl_plus defines no bound for in-group pairs")
        # blocks delivered from rho >= 1 hops: 0 when rho is inf
        blocks = max(0, (t - 1) // period - rho + _VARIANT_OFFSETS[variant])
        counts[m_src] = t - 1 if rho == 0 else per_block * int(blocks)
    return counts


def thm1_pair_bound(structure: GroupStructure, hp: HyperParams, alpha: float,
                    n: int, i: int, t: int,
                    variant: str = "examples_consistent") -> float | None:
    """Delay-only pairwise RDP bound at order alpha through epoch t.

    None marks a pair that shares a group under dpogl_plus (trusted).
    """
    if n == i:
        raise ValueError("a worker is trusted with its own data; need n != i")
    if t < 1:
        raise ValueError("t must be >= 1")
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


def degradation_mu(inv_hbar: np.ndarray, hp: HyperParams, alpha, group: int,
                   epoch: int, targeted_groups) -> float | np.ndarray:
    """Degradation factor mu = alpha / (alpha + hbar * W c^2 sigma^2) for
    leakage transiting ``group``'s mechanism at crossing epoch ``epoch``.

    ``hbar`` is the accumulated constant of the pre-noise aggregate (0 while
    the model is still deterministic, so early crossings are undegraded).
    dpogl reads the mechanism that fires at the crossing epoch e, dpogl_plus
    the window that fired at e - 1.  Groups of the targeted worker pass
    information through unattenuated (factor 1).  Accepts a scalar or array
    alpha.
    """
    if group in set(targeted_groups):
        return np.ones_like(np.asarray(alpha, dtype=float)) if np.ndim(alpha) else 1.0
    W = hp.mechanism_window
    fired = epoch - 1 if hp.algorithm == "dpogl_plus" else epoch
    if not (1 <= fired < len(inv_hbar) and fired % W == 0):
        raise ValueError("no mechanism of the computed LSI horizon fires at "
                         f"epoch {fired}")
    hbar = float(inv_hbar[fired, group])
    alpha_arr = np.asarray(alpha, dtype=float)
    if np.any(alpha_arr <= 1):
        raise ValueError("RDP order alpha must exceed 1")
    var = W * (hp.clip[group] * hp.sigma[group]) ** 2
    mu = alpha_arr / (alpha_arr + hbar * var)
    return mu if alpha_arr.ndim else float(mu)


def rdp_to_dp(curve, delta: float, alpha_grid=DEFAULT_ALPHA_GRID
              ) -> tuple[float, float]:
    """Minimize eps_rdp(alpha) + log(1/delta)/(alpha - 1) over the grid.

    ``curve`` is a sequence aligned with the grid.  Ties break toward the
    smaller order.
    """
    if not 0 < delta <= 1 or math.isinf(1.0 / delta):
        raise ValueError("delta must lie in (0, 1], with 1/delta finite")
    grid = [float(a) for a in alpha_grid]
    if not grid or any(a <= 1 for a in grid):
        raise ValueError("alpha grid entries must exceed 1")
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
