"""Accountant unit tests: budgets, delays, LSI recursion, conversions."""

import ast
import collections
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hs

import dpogl
from dpogl import accountant as acc
from dpogl import oracles as orc
from dpogl.data import Dataset, make_synthetic
from dpogl.topology import (GroupStructure, build_adjacency, distance_matrix,
                            generate_structure)
from dpogl.trainer import HyperParams, is_intergroup_epoch, run_training
from pair_cells import observer_mask, worker_cells, worker_mask, worker_rows


def chain(num_groups):
    return GroupStructure(num_groups + 1, [[m, m + 1] for m in range(num_groups)])


def make_hp(num_groups, **overrides):
    base = dict(num_groups=num_groups, epochs=8, inter_group_period=2,
                local_iterations=2, learning_rate=0.1, batch_size=4,
                clip=0.5, sigma=2.0, participation=1.0)
    base.update(overrides)
    return HyperParams(**base)


# ---------------------------------------------------------------------------
# per-step budgets and block counts

def test_per_step_rdp_closed_forms():
    assert orc.per_step_rdp(3.0, 2.0, 0.5) == 2 * 0.25 * 3.0 / 4.0
    assert orc.per_step_rdp(3.0, 2.0, 1.0, "full") == 3.0 / 8.0
    # at full participation the sampled form is exactly 4x the exact Gaussian
    assert orc.per_step_rdp(5.0, 1.7, 1.0) == 4 * orc.per_step_rdp(5.0, 1.7, 1.0, "full")


def test_per_step_rdp_rejects_bad_inputs():
    with pytest.raises(ValueError):
        orc.per_step_rdp(1.0, 2.0)
    with pytest.raises(acc.AccountingPreconditionError):
        orc.per_step_rdp(2.0, 0.0)
    with pytest.raises(ValueError):
        orc.per_step_rdp(2.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        orc.per_step_rdp(2.0, 2.0, 0.5, "full")
    with pytest.raises(ValueError):
        orc.per_step_rdp(2.0, 2.0, 1.0, "exotic")


def test_delivered_block_count_hand_values():
    # S=2: k = floor((t-1)/2); a source rho hops away has delivered
    # max(0, k + 1 - rho) blocks
    for t, want in [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (9, 4)]:
        assert acc._delivered_blocks(t, 2, 1) == want
    assert acc._delivered_blocks(4, 2, 2) == 0
    assert acc._delivered_blocks(5, 2, 2) == 1
    assert acc._delivered_blocks(100, 3, math.inf) == 0


def test_block_count_and_pair_bound_are_monotone():
    st = chain(3)
    for rho in (1, 2, 3):
        prev = 0
        for t in range(1, 20):
            blocks = acc._delivered_blocks(t, 3, rho)
            assert blocks >= prev
            prev = blocks
    hp = make_hp(3)
    prev_bound = 0.0
    for t in range(1, 15):
        b = orc.thm1_pair_bound(st, hp, 2.0, 0, 3, t)
        assert b >= prev_bound
        prev_bound = b


# ---------------------------------------------------------------------------
# pair counts against the unrolled propagation oracle

def test_pair_counts_basic_contract():
    st = chain(2)
    with pytest.raises(ValueError):
        orc.thm1_pair_counts(st, 2, 1, 1, 4)
    with pytest.raises(ValueError):
        orc.thm1_pair_counts(st, 2, 0, 1, 4, algorithm="dpogl_plus")
    disconnected = GroupStructure(4, [[0, 1], [2, 3]])
    assert orc.thm1_pair_counts(disconnected, 2, 0, 3, 9) == {0: 0}
    # no epoch before the first: an in-group count of t - 1 would go negative
    string, hp = chain(2), make_hp(2, participation=1.0)
    plus = make_hp(2, algorithm="dpogl_plus", threat_model="tm2")
    for t in (0, -3):
        with pytest.raises(ValueError, match="t must be >= 1"):
            orc.thm1_pair_counts(string, 2, 0, 1, t)
        with pytest.raises(ValueError, match="t must be >= 1"):
            orc.thm1_pair_bound(string, hp, 2.0, 0, 1, t)
        with pytest.raises(ValueError, match="t must be >= 1"):
            orc.thm1_pair_bound(string, plus, 2.0, 0, 1, t)  # trusted pair
        with pytest.raises(ValueError, match="t must be >= 1"):
            acc.delay_sweep(string, hp).at(t)


def test_thm1_pair_bound_reads_the_algorithm():
    """dpogl_plus fires one interval mechanism per block and trusts in-group
    pairs; the pair bound must not count it as dpogl."""
    st = chain(2)
    hp = make_hp(2, algorithm="dpogl_plus", threat_model="tm2",
                 inter_group_period=2, sigma=2.0, participation=1.0)
    assert orc.thm1_pair_bound(st, hp, 3.0, 0, 1, 4) is None
    assert orc.thm1_pair_bound(st, hp, 3.0, 0, 2, 4) == 1.5
    assert orc.thm1_pair_bound(st, make_hp(2), 3.0, 0, 2, 4) == 3.0
    with pytest.raises(ValueError):
        orc.thm1_pair_bound(st, hp, 3.0, 1, 1, 4)


def test_oracle_matches_closed_form_on_a_chain():
    """The block rule is what the unrolled simulator delivers: on a 4-group
    string and an RI 12/4 ring, under both algorithms, S = 1..4 and
    t = 1..20, the closed-form counts equal the propagation oracle for every
    pair (dpogl_plus defines none for pairs that share a group)."""
    for st in (chain(4), generate_structure("RI", 12, 4)):
        groups = st.groups_of_worker
        pairs = list(itertools.permutations(range(st.num_workers), 2))
        for algorithm, S, t in itertools.product(("dpogl", "dpogl_plus"),
                                                 range(1, 5), range(1, 21)):
            for n, i in pairs:
                if algorithm == "dpogl_plus" and set(groups[n]) & set(groups[i]):
                    continue
                want = orc.propagation_oracle_counts(st, S, t, n, i, algorithm)
                got = orc.thm1_pair_counts(st, S, n, i, t, algorithm=algorithm)
                assert want == got, (st, algorithm, S, t, n, i)


def test_oracle_first_crossing_is_zero_lag():
    """Epoch S+1 is the first inter-group epoch with fired mechanisms behind
    it; it applies its own mechanism and shares the accumulated block one hop
    in the same epoch, so a distance-1 observer holds S mechanisms at t=S+1."""
    st = chain(2)
    S = 3
    # worker 2 observes group 1 only; group 0 fires at every epoch
    t_first = next(t for t in range(1, 12)
                   if orc.propagation_oracle_counts(st, S, t, 0, 2)[0] > 0)
    assert t_first == S + 1
    assert orc.thm1_pair_counts(st, S, 0, 2, S + 1)[0] == S


def test_oracle_rejects_bad_queries():
    st = chain(2)
    with pytest.raises(ValueError):
        orc.propagation_oracle_counts(st, 2, 0, 0, 1)
    with pytest.raises(ValueError):
        orc.propagation_oracle_counts(st, 2, 3, 1, 1)
    with pytest.raises(ValueError):
        orc.propagation_oracle_counts(st, 2, 3, 0, 1, algorithm="other")


# ---------------------------------------------------------------------------
# LSI recursion

LsiReference = collections.namedtuple("LsiReference",
                                      "inv_b inv_a inv_h inv_e inv_hbar")


def _lsi_reference(st, hp, beta, horizon):
    """Straight-line LSI recursion that keeps every per-worker array:
    inv_b (horizon + 2, M), the worker inits inv_a and their spread inv_h
    (horizon + 1, M, N, zero for non-members), and the mechanism output
    inv_e and pre-noise aggregate inv_hbar (horizon + 1, M, zero where no
    mechanism fires).  All are reciprocals; slot 0 is unused."""
    M, N = st.num_groups, st.num_workers
    S, W = hp.inter_group_period, hp.mechanism_window
    sizes = np.array([len(g) for g in st.members_of_group], dtype=float)
    var = np.array([W * (c * s) ** 2 for c, s in zip(hp.clip, hp.sigma)])
    spread = (1.0 + (1.0 + hp.learning_rate * beta) ** hp.local_iterations) ** 2
    inv_b = np.zeros((horizon + 2, M))
    inv_a = np.zeros((horizon + 1, M, N))
    inv_h = np.zeros((horizon + 1, M, N))
    inv_e = np.zeros((horizon + 1, M))
    inv_hbar = np.zeros((horizon + 1, M))
    for t in range(1, horizon + 2):
        if (t - 1) % W:  # inside a window: raw updates
            inv_b[t] = inv_b[t - 1] + sizes ** 2 * inv_h[t - 1].sum(axis=1)
        elif t > 1:  # a window starts from the mechanism fired at t - 1
            inv_b[t] = inv_b[t - W] + sizes ** 2 * inv_e[t - 1]
        if t > horizon:
            break
        for m, members in enumerate(st.members_of_group):
            for n in members:
                merged = (st.groups_of_worker[n] if is_intergroup_epoch(t, S)
                          else (m,))
                inv_a[t, m, n] = sum(inv_b[t, g] for g in merged)
        inv_h[t] = spread * inv_a[t]
        if t % W == 0:  # the window's mechanism fires
            window = sum(inv_h[k].sum(axis=1) for k in range(t - W + 1, t + 1))
            inv_e[t] = var + window
            inv_hbar[t] = inv_b[t - W + 1] + sizes ** 2 * window
    return LsiReference(inv_b, inv_a, inv_h, inv_e, inv_hbar)


def _lsi(st, hp, beta, horizon):
    """The reference arrays, once ``lsi_recursion`` is checked to return
    the same inv_hbar."""
    ref = _lsi_reference(st, hp, beta, horizon)
    assert np.array_equal(acc.lsi_recursion(st, hp, beta, horizon),
                          ref.inv_hbar)
    return ref


@hs.composite
def lsi_cases(draw):
    """A structure whose workers each join 1 to 3 groups, full
    participation with per-group clip and noise, an algorithm, S in 1..5,
    a smoothness constant and a horizon."""
    N, M = draw(hs.integers(2, 8)), draw(hs.integers(1, 5))
    joined = [draw(hs.sets(hs.integers(0, M - 1), min_size=1,
                           max_size=min(3, M))) for _ in range(N)]
    used = sorted(set().union(*joined))
    structure = GroupStructure(N, [[w for w in range(N) if g in joined[w]]
                                   for g in used])
    M = len(used)
    algorithm = draw(hs.sampled_from(["dpogl", "dpogl_plus"]))
    S, horizon = draw(hs.integers(1, 5)), draw(hs.integers(1, 16))
    per_group = hs.lists(hs.floats(0.05, 4.0), min_size=M, max_size=M)
    hp = make_hp(M, epochs=max(horizon, S), inter_group_period=S,
                 algorithm=algorithm,
                 threat_model="tm2" if algorithm == "dpogl_plus" else "tm1",
                 local_iterations=draw(hs.integers(1, 3)),
                 learning_rate=draw(hs.floats(0.01, 0.5)),
                 clip=draw(per_group), sigma=draw(per_group))
    return structure, hp, draw(hs.floats(0.1, 5.0)), horizon


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(lsi_cases())
def test_lsi_recursion_matches_reference_bitwise(case):
    """``lsi_recursion`` returns the reference's inv_hbar bit for bit:
    per-group member sums stand for the per-worker arrays."""
    structure, hp, beta, horizon = case
    inv_hbar = acc.lsi_recursion(structure, hp, beta, horizon)
    assert np.array_equal(inv_hbar,
                          _lsi_reference(structure, hp, beta, horizon).inv_hbar)


def test_lsi_matches_straight_line_reimplementation():
    """Scalar re-derivation for one group of two workers, three epochs."""
    st = GroupStructure(2, [[0, 1]])
    eta, betav, L = 1.0, 1.0, 1
    hp = make_hp(1, learning_rate=eta, local_iterations=L, clip=0.5,
                 sigma=2.0, inter_group_period=1)
    lsi = _lsi(st, hp, betav, 3)
    spread = (1.0 + (1.0 + eta * betav) ** L) ** 2
    assert spread == 9.0
    var = (0.5 * 2.0) ** 2
    inv_b, inv_e, inv_hbar = 0.0, 0.0, 0.0
    for t in range(1, 4):
        inv_b = inv_b + 4 * inv_e          # |N_m|^2 = 4, pi = 1
        inv_a = inv_b                      # single group: merge is identity
        inv_h = spread * inv_a
        inv_e = var + 2 * inv_h            # two member workers
        inv_hbar = inv_b + 4 * 2 * inv_h
        assert np.allclose(lsi.inv_b[t], inv_b)
        assert np.allclose(lsi.inv_a[t], [[inv_a, inv_a]])
        assert np.allclose(lsi.inv_h[t], [[inv_h, inv_h]])
        assert np.allclose(lsi.inv_e[t], inv_e)
        assert np.allclose(lsi.inv_hbar[t], inv_hbar)
    # first mechanism epoch: pre-noise aggregate of a deterministic model
    assert lsi.inv_hbar[1, 0] == 0.0
    assert lsi.inv_e[1, 0] == var


def test_lsi_merge_averages_across_groups():
    """At an inter-group epoch the worker init merges its groups' models, so
    the shared worker's constant adds the reciprocals of both groups."""
    st = chain(2)
    hp = make_hp(2, inter_group_period=2)
    lsi = _lsi(st, hp, 1.3, 4)
    # epoch 3 is an inter-group epoch ((3-1) % 2 == 0)
    shared = 1  # worker 1 sits in both groups
    assert np.allclose(lsi.inv_a[3, 0, shared],
                       lsi.inv_b[3, 0] + lsi.inv_b[3, 1])
    assert np.allclose(lsi.inv_a[3, 0, 0], lsi.inv_b[3, 0])
    # epoch 2 is not: inits come from the worker's own group only
    assert np.allclose(lsi.inv_a[2, 0, shared], lsi.inv_b[2, 0])
    # non-members carry no mass
    assert lsi.inv_a[3, 0, 2] == 0.0


def test_lsi_plus_with_period_one_matches_dpogl():
    st = chain(2)
    hp_a = make_hp(2, inter_group_period=1)
    hp_b = make_hp(2, inter_group_period=1, algorithm="dpogl_plus",
                   threat_model="tm2")
    a = _lsi(st, hp_a, 0.9, 6)
    b = _lsi(st, hp_b, 0.9, 6)
    # at S=1 both algorithms fire one mechanism per epoch: same window W=1
    for name in ("inv_b", "inv_a", "inv_h", "inv_e", "inv_hbar"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_lsi_plus_windows_accumulate_whole_window():
    st = chain(2)
    S = 3
    hp = make_hp(2, inter_group_period=S, algorithm="dpogl_plus",
                 threat_model="tm2")
    lsi = _lsi(st, hp, 1.1, 6)
    assert lsi.inv_e.shape == (7, 2)
    assert acc.lsi_recursion(st, hp, 1.1, 6).shape == (7, 2)
    # mechanisms fire only at the last epoch of each window
    for t in (0, 1, 2, 4, 5):
        assert not lsi.inv_e[t].any() and not lsi.inv_hbar[t].any()
    interval_var = S * (0.5 * 2.0) ** 2
    # window 0 covers epochs 1..3 and fires at epoch 3
    want = interval_var + sum(lsi.inv_h[t].sum(axis=1) for t in range(1, 4))
    assert np.allclose(lsi.inv_e[3], want)
    sizes = np.array([2.0, 2.0])
    want_hbar = lsi.inv_b[1] + sizes ** 2 * sum(
        lsi.inv_h[t].sum(axis=1) for t in range(1, 4))
    assert np.allclose(lsi.inv_hbar[3], want_hbar)


def test_lsi_preconditions():
    st = chain(2)
    for hp in (make_hp(2, participation=0.7),
               make_hp(2, clip=math.inf, sigma=0.0), make_hp(2, sigma=0.0)):
        with pytest.raises(acc.AccountingPreconditionError):
            acc.lsi_recursion(st, hp, 1.0, 4)
    with pytest.raises(ValueError):
        acc.lsi_recursion(st, make_hp(2), 1.0, 0)
    # sigma = 0 and an infinite clip fall under the per-group rule of every
    # budget and name their group
    for hp, group in ((make_hp(2, sigma=[2.0, 0.0]), 1),
                      (make_hp(2, clip=[math.inf, 0.5], sigma=[0.0, 2.0]), 0)):
        with pytest.raises(acc.AccountingPreconditionError,
                           match=f"^group {group}: the mechanism variance"):
            acc.lsi_recursion(st, hp, 1.0, 4)
    # a variance that underflows to 0 is refused like an underflowed budget;
    # it used to give group 1 mu = 1 silently
    tiny = make_hp(2, clip=[0.5, 1e-170], sigma=[2.0, 1.0])
    for sweep in (acc.lsi_recursion, acc.thm2_curve_sweep):
        with pytest.raises(acc.AccountingPreconditionError) as refused:
            sweep(st, tiny, 1.0, 4)
        assert str(refused.value) == (
            "group 1: the mechanism variance W (c sigma)^2 is not finite and "
            "> 0 (zero noise multiplier, or an over- or underflow)")
    # the smoothness constant must be finite and nonnegative; the sweep
    # refuses it before a NaN or a meaningless bound can reach a report
    for beta in (math.nan, math.inf, -math.inf, -50.0):
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            acc.lsi_recursion(chain(4), make_hp(4), beta, 8)
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            acc.thm2_curve_sweep(chain(4), make_hp(4), beta, 8)
    acc.lsi_recursion(chain(4), make_hp(4), 0.0, 8)  # beta = 0 is allowed


_OTHER_GROUP_COUNT = {
    "delay_sweep": lambda: acc.delay_sweep(
        GroupStructure(5, [[0, 1], [1, 2, 3], [3, 4]]), make_hp(1, sigma=1.0)),
    "lsi_recursion-1": lambda: acc.lsi_recursion(
        GroupStructure(5, [[0, 1, 2], [2, 3, 4]]), make_hp(1), 1.0, 4),
    "lsi_recursion-3": lambda: acc.lsi_recursion(
        GroupStructure(5, [[0, 1, 2], [2, 3, 4]]), make_hp(3), 1.0, 4),
    "thm2_curve_sweep": lambda: acc.thm2_curve_sweep(
        GroupStructure(5, [[0, 1], [1, 2, 3], [3, 4]]), make_hp(1), 1.0, 4),
    "run_training": lambda: run_training(
        GroupStructure(5, [[0, 1, 2], [2, 3, 4]]), make_hp(1),
        make_synthetic(3, 2, 10, 0), np.array_split(np.arange(30), 5)),
}


@pytest.mark.parametrize("call", _OTHER_GROUP_COUNT.values(),
                         ids=_OTHER_GROUP_COUNT.keys())
def test_parameters_for_another_group_count_are_refused(call):
    """Every entry point that reads per-group parameters refuses an hp built
    for another group count, with one text.  The accountant used to charge
    group 0's budget to all three groups, return a table of the hp's width,
    or die in a numpy broadcast or an IndexError."""
    with pytest.raises(ValueError, match="^hyper-parameters were built for "
                                         "a different group count$"):
        call()


# ---------------------------------------------------------------------------
# degradation factors

def test_degradation_mu_formula_and_limits():
    st = chain(2)
    hp = make_hp(2)
    inv_hbar = acc.lsi_recursion(st, hp, 1.5, 6)
    alpha = 3.0
    var = (0.5 * 2.0) ** 2
    for epoch in (1, 3, 5):
        for g in (0, 1):
            mu = orc.degradation_mu(inv_hbar, hp, alpha, g, epoch, targeted_groups=())
            assert mu == alpha / (alpha + inv_hbar[epoch, g] * var)
            assert 0 < mu <= 1
    # epoch 1 has a deterministic pre-noise aggregate: no attenuation yet
    assert orc.degradation_mu(inv_hbar, hp, alpha, 0, 1, ()) == 1.0
    # more accumulated randomness can only attenuate harder
    assert (orc.degradation_mu(inv_hbar, hp, alpha, 0, 5, ())
            <= orc.degradation_mu(inv_hbar, hp, alpha, 0, 3, ()))
    # the targeted worker's groups pass its information through unattenuated
    assert orc.degradation_mu(inv_hbar, hp, alpha, 0, 5, targeted_groups={0}) == 1.0
    arr = orc.degradation_mu(inv_hbar, hp, np.array([2.0, 4.0]), 1, 3, ())
    assert arr.shape == (2,)
    assert np.all((arr > 0) & (arr <= 1))
    with pytest.raises(ValueError):
        orc.degradation_mu(inv_hbar, hp, 1.0, 0, 3, ())
    with pytest.raises(ValueError):
        orc.degradation_mu(inv_hbar, hp, 2.0, 0, 7, ())


def test_degradation_mu_plus_window_indexing():
    """A crossing at epoch e joins the window that holds e and reads the
    mechanism that closes it, at W * ceil(e / W); an observer's group is
    read at e itself, so it attenuates only where a mechanism fires."""
    st = chain(2)
    S = 2
    hp = make_hp(2, algorithm="dpogl_plus", threat_model="tm2",
                 inter_group_period=S)
    inv_hbar = acc.lsi_recursion(st, hp, 1.5, 6)
    alpha = 2.5
    var = S * (0.5 * 2.0) ** 2
    for epoch, fired in ((1, 2), (2, 2), (3, 4), (4, 4)):
        mu = orc.degradation_mu(inv_hbar, hp, alpha, 1, epoch, ())
        assert mu == alpha / (alpha + inv_hbar[fired, 1] * var)
    assert orc.degradation_mu(inv_hbar, hp, alpha, 1, 3, ()) < 1.0
    for bad_epoch in (0, 7, 8):  # no window, or one that closes past 6
        with pytest.raises(ValueError, match="fires at epoch"):
            orc.degradation_mu(inv_hbar, hp, alpha, 1, bad_epoch, ())
    # the observer sees its group's raw models inside a window
    for epoch in (1, 3, 5, 7):
        assert orc.degradation_mu(inv_hbar, hp, alpha, 1, epoch, (), {1}) == 1.0
    assert (orc.degradation_mu(inv_hbar, hp, alpha, 1, 4, (), {1})
            == orc.degradation_mu(inv_hbar, hp, alpha, 1, 4, ()))


# ---------------------------------------------------------------------------
# degradation-aware pair bounds

def golden_string():
    """Each worker has a group set of its own, in worker order, so the
    sweeps' set-pair arrays index like worker pairs."""
    return GroupStructure(3, [[0, 1], [1, 2]])


def test_thm2_requires_strings_and_full_participation():
    hp = make_hp(4)
    with pytest.raises(acc.AccountingPreconditionError):
        acc.thm2_curve_sweep(generate_structure("RI", 8, 4), hp, 1.0, 5, (2.0,))
    with pytest.raises(acc.AccountingPreconditionError):
        acc.thm2_curve_sweep(golden_string(), make_hp(2, participation=0.5),
                             1.0, 5, (2.0,))


def test_thm2_shared_group_terms():
    st = golden_string()
    assert st.group_set_of_worker.tolist() == [0, 1, 2]
    hp = make_hp(2)
    alpha = 4.0
    eps_full = alpha / (2 * 2.0 ** 2)
    sweep = acc.thm2_curve_sweep(st, hp, 1.0, 9, (alpha,))
    # worker 0 only has group 0, shared with observer 1: pure composition
    for t in (1, 2, 5):
        assert sweep.at(t)[0, 1, 0] == pytest.approx((t - 1) * eps_full,
                                                     abs=1e-12)
    # worker 1 also leaks through group 1, which crosses into group 0
    b = sweep.at(9)[1, 0, 0]
    assert b > (9 - 1) * eps_full


def test_thm2_never_exceeds_thm1_at_full_participation():
    rng = np.random.default_rng(0)
    for _ in range(25):
        M = int(rng.integers(1, 5))
        st = chain(M)
        hp = make_hp(M, inter_group_period=int(rng.integers(1, 4)),
                     sigma=float(rng.uniform(0.8, 3.0)),
                     clip=float(rng.uniform(0.05, 1.0)))
        beta = float(rng.uniform(0.2, 3.0))
        alpha = float(rng.uniform(1.5, 16.0))
        t = int(rng.integers(1, 14))
        curves = worker_cells(st, hp.threat_model,
                              acc.thm2_curve_sweep(st, hp, beta, t, (alpha,)).at(t))
        for n in range(st.num_workers):
            for i in range(st.num_workers):
                if n == i:
                    continue
                t2 = curves[n, i, 0]
                t1 = orc.thm1_pair_bound(st, hp, alpha, n, i, t)
                assert t2 <= t1 + 1e-12, (M, t, n, i)


@hs.composite
def string_cases(draw):
    """A random open string: groups in a random order along a chain, 1 or 2
    workers shared by each adjacent pair, 0 to 2 private workers per group
    and random worker labels; full participation with per-group clip and
    noise, an algorithm and threat model, S in 1..4, a smoothness constant
    and a horizon."""
    M = draw(hs.integers(1, 5))
    order = draw(hs.permutations(range(M)))
    members = [[] for _ in range(M)]
    N = 0
    for k in range(M):
        for _ in range(draw(hs.integers(2 if M == 1 else 0, 2))):  # private
            members[order[k]].append(N)
            N += 1
        for _ in range(draw(hs.integers(1, 2)) if k + 1 < M else 0):
            members[order[k]].append(N)  # shared with the next group
            members[order[k + 1]].append(N)
            N += 1
    labels = draw(hs.permutations(range(N)))
    structure = GroupStructure(N, [sorted(labels[w] for w in group)
                                   for group in members])
    algorithm, threat_model = draw(hs.sampled_from(
        [("dpogl", "tm1"), ("dpogl", "tm2"), ("dpogl_plus", "tm2")]))
    S, horizon = draw(hs.integers(1, 4)), draw(hs.integers(1, 24))
    per_group = hs.lists(hs.floats(0.05, 4.0), min_size=M, max_size=M)
    hp = make_hp(M, epochs=max(horizon, S), inter_group_period=S,
                 algorithm=algorithm, threat_model=threat_model,
                 clip=draw(per_group), sigma=draw(per_group))
    return structure, hp, draw(hs.floats(0.1, 50.0)), horizon


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(string_cases())
@example((chain(4), make_hp(4, epochs=12, inter_group_period=1,
                            algorithm="dpogl_plus", threat_model="tm2"),
          1.0, 12))
def test_degradation_never_exceeds_delay_on_random_strings(case):
    """Every epoch's degradation curves are undefined exactly where the
    delay curves alpha * K are, and no defined cell exceeds its delay
    cell; the same holds for the two DP heatmaps.  At S = 1 a dpogl_plus
    sweep equals the dpogl sweep bitwise: the two train the same."""
    structure, hp, beta, horizon = case
    assert structure.is_string
    grid = np.array(acc.DEFAULT_ALPHA_GRID)
    sweep = acc.thm2_curve_sweep(structure, hp, beta, horizon)
    delay_sweep = acc.delay_sweep(structure, hp)
    for t in range(1, horizon + 1):
        K = delay_sweep.at(t)
        degradation, delay = sweep.at(t), K[..., None] * grid
        assert np.array_equal(np.isnan(degradation), np.isnan(delay))
        defined = ~np.isnan(delay)
        assert np.all(degradation[defined] <= delay[defined])
        heat_degradation = acc.dp_matrix_from_curves(degradation, 1e-5)
        heat_delay = acc.dp_matrix_from_curves(K, 1e-5)
        assert np.array_equal(np.isnan(heat_degradation), np.isnan(heat_delay))
        defined = ~np.isnan(heat_delay)
        assert np.all(heat_degradation[defined] <= heat_delay[defined])
    if hp.algorithm == "dpogl_plus" and hp.inter_group_period == 1:
        # W = 1: both algorithms train the same, so the sweeps are equal
        base = acc.thm2_curve_sweep(
            structure, dataclasses.replace(hp, algorithm="dpogl"), beta, horizon)
        for t in range(1, horizon + 1):
            assert np.array_equal(sweep.at(t), base.at(t), equal_nan=True)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the degradation bound falls as "
                          "the smoothness constant beta rises")
@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(string_cases(), hs.floats(0.0, 100.0))
@example((GroupStructure(9, [[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8]]),
          make_hp(4, epochs=24, inter_group_period=3, local_iterations=1,
                  learning_rate=0.01, clip=0.5, sigma=1.0), 0.0, 24), 100.0)
def test_degradation_is_nondecreasing_in_beta(case, extra):
    """beta only bounds the loss's smoothness from above, so a larger beta
    meets the same assumption and a sound bound cannot fall, cell by cell,
    at any epoch.  On the example string at alpha = 2 and t = 24, pair
    (0, 4) reads 4.91e-6 at beta = 0 and 4.39e-7 at beta = 100, and 48 of
    the 72 defined cells fall."""
    structure, hp, beta, horizon = case
    low = acc.thm2_curve_sweep(structure, hp, beta, horizon, (2.0,))
    high = acc.thm2_curve_sweep(structure, hp, beta + extra, horizon, (2.0,))
    for t in range(1, horizon + 1):
        before, after = low.at(t), high.at(t)
        defined = ~np.isnan(before)
        assert np.all(after[defined] >= before[defined])


TWO_GROUP_STRING = GroupStructure(5, [[0, 1, 2], [2, 3, 4]])


def _two_group_plus_hp(**overrides):
    return make_hp(2, **{"epochs": 10, "inter_group_period": 3,
                         "local_iterations": 1, "learning_rate": 0.01,
                         "clip": 0.5, "sigma": 1.0, "algorithm": "dpogl_plus",
                         "threat_model": "tm2", **overrides})


def test_thm2_plus_credits_no_mechanism_the_observer_never_passes():
    """Pair (0, 4) on a 2-group string, one hop: every block enters group
    1 at an inter-group epoch, inside a window, and the observer reads
    group 1's raw model there.  No mechanism attenuates it, so each cell
    is the oracle's count at the full budget alpha / (2 sigma^2) = 1."""
    hp = _two_group_plus_hp()
    sweep = acc.thm2_curve_sweep(TWO_GROUP_STRING, hp, 1.0, 10, (2.0,))
    for t, want in ((4, 1.0), (7, 2.0), (10, 3.0)):
        counts = orc.propagation_oracle_counts(TWO_GROUP_STRING, 3, t, 0, 4,
                                               "dpogl_plus")
        assert counts == {0: int(want)}
        cells = worker_cells(TWO_GROUP_STRING, hp.threat_model, sweep.at(t))
        assert cells[0, 4, 0] == counts[0] * 2.0 / (2 * 1.0 ** 2) == want


def test_observer_group_changes_inside_its_window():
    """The trainer side of the observer rule: flipping worker 0's labels
    first changes group 1's model at epoch 4, the crossing epoch of the
    first block, and group 1's next mechanism fires only at epoch 6.  So
    the observer's view of group 1 carries the block before any of group
    1's noise, and the sweep charges that block in full."""
    hp = _two_group_plus_hp(epochs=6, batch_size=2)
    train = make_synthetic(3, 4, 10, seed=0)
    partition = np.array_split(np.arange(len(train)), 5)
    labels = train.labels.copy()
    labels[partition[0]] = (labels[partition[0]] + 1) % train.num_classes
    flipped = Dataset(train.features, labels, train.num_classes)
    base = run_training(TWO_GROUP_STRING, hp, train, partition).trajectory
    other = run_training(TWO_GROUP_STRING, hp, flipped, partition).trajectory
    changed = [t for t in range(hp.epochs + 1)
               if not np.array_equal(base[t][1], other[t][1])]
    assert changed[0] == 4 and is_intergroup_epoch(4, 3)
    assert 4 % hp.mechanism_window and 6 % hp.mechanism_window == 0
    sweep = acc.thm2_curve_sweep(TWO_GROUP_STRING, hp, 1.0, 6, (2.0,))
    assert worker_cells(TWO_GROUP_STRING, hp.threat_model,
                        sweep.at(4))[0, 4, 0] == 1.0


def test_thm2_plus_trusted_pairs_and_budget_units():
    st = golden_string()
    hp = make_hp(2, algorithm="dpogl_plus", threat_model="tm2")
    sweep = acc.thm2_curve_sweep(st, hp, 1.0, 5, (3.0,))
    assert math.isnan(sweep.at(5)[0, 1, 0])
    v = sweep.at(4)[0, 2, 0]
    # one delivered window at t=4 (S=2), first crossing undegraded
    assert v == pytest.approx(3.0 / (2 * 4.0), abs=1e-15)


# ---------------------------------------------------------------------------
# RDP -> DP conversion

def test_rdp_to_dp_prefers_interior_order():
    delta = 1e-5
    K = 0.01
    grid = acc.DEFAULT_ALPHA_GRID
    eps, alpha_star = orc.rdp_to_dp([K * a for a in grid], delta)
    manual = min(K * a + math.log(1 / delta) / (a - 1) for a in grid)
    assert eps == pytest.approx(manual, rel=1e-15)
    assert alpha_star in grid
    assert 1.25 < alpha_star < 256.0


def test_rdp_to_dp_edge_cases():
    grid = (2.0, 4.0, 8.0)
    # delta = 1 removes the penalty entirely
    eps, alpha_star = orc.rdp_to_dp([0.2, 0.4, 0.8], 1.0, grid)
    assert (eps, alpha_star) == (0.2, 2.0)
    # all-zero curve: the penalty alone decides, largest order wins
    eps0, a0 = orc.rdp_to_dp([0.0, 0.0, 0.0], 1e-5, grid)
    assert a0 == 8.0
    assert eps0 == pytest.approx(math.log(1e5) / 7.0)
    # ties break toward the smaller order
    epst, at = orc.rdp_to_dp([1.0, 1.0, 1.0], 1.0, grid)
    assert at == 2.0
    with pytest.raises(ValueError):
        orc.rdp_to_dp([1.0, 2.0], 1e-5, grid)
    with pytest.raises(ValueError):
        orc.rdp_to_dp([1.0, -2.0, 3.0], 1e-5, grid)
    with pytest.raises(ValueError):
        orc.rdp_to_dp([1.0, 2.0, 3.0], 0.0, grid)
    with pytest.raises(ValueError):
        orc.rdp_to_dp([1.0, 2.0, 3.0], 1e-5, (0.5, 2.0))


# ---------------------------------------------------------------------------
# matrix and per-worker assembly

def admissible_adversaries(st, threat_model, n):
    return np.flatnonzero(observer_mask(st, threat_model)[n]).tolist()


def test_admissible_adversaries_by_threat_model():
    st = golden_string()
    assert admissible_adversaries(st, "tm1", 0) == [1, 2]
    assert admissible_adversaries(st, "tm2", 0) == [2]
    assert admissible_adversaries(st, "tm2", 1) == []
    for tm in ("tm1", "tm2"):  # the set mask gathered to worker pairs
        assert np.array_equal(worker_mask(st, tm), observer_mask(st, tm))
    with pytest.raises(ValueError,
                       match=r"^threat_model must be one of \('tm1', 'tm2'\)$"):
        acc.pwp_rows_from_curves(np.zeros((3, 3, 1)), st, "tm3", 1e-5, (2.0,))


def test_privacy_matrix_agrees_with_scalar_bounds():
    """The delay curves alpha * K equal the scalar pair bound at every
    order."""
    st = generate_structure("RI", 8, 4)
    hp = make_hp(4, participation=0.6, sigma=[1.0, 2.0, 1.5, 2.5])
    grid = (1.5, 3.0, 8.0)
    K = worker_cells(st, hp.threat_model, acc.delay_sweep(st, hp).at(9))
    curves = K[..., None] * grid
    for n in range(8):
        assert np.isnan(curves[n, n]).all()
        for i in range(8):
            if n == i:
                continue
            for k, alpha in enumerate(grid):
                assert curves[n, i, k] == pytest.approx(
                    orc.thm1_pair_bound(st, hp, alpha, n, i, 9), rel=1e-12)


@hs.composite
def overlapping_cases(draw):
    """A random structure whose workers each join 1 to 3 groups (so some
    sit in three groups and some parts may be disconnected), with per-group
    noise and participation, an algorithm, a threat model and an epoch."""
    N, M = draw(hs.integers(2, 8)), draw(hs.integers(1, 5))
    joined = [draw(hs.sets(hs.integers(0, M - 1), min_size=1,
                           max_size=min(3, M))) for _ in range(N)]
    used = sorted(set().union(*joined))  # groups nobody joined are dropped
    structure = GroupStructure(N, [[w for w in range(N) if g in joined[w]]
                                   for g in used])
    M = len(used)
    algorithm, threat_model = draw(hs.sampled_from(
        [("dpogl", "tm1"), ("dpogl", "tm2"), ("dpogl_plus", "tm2")]))
    S, t = draw(hs.integers(1, 3)), draw(hs.integers(1, 12))
    hp = make_hp(M, epochs=max(t, S), inter_group_period=S,
                 algorithm=algorithm, threat_model=threat_model,
                 sigma=draw(hs.lists(hs.floats(0.5, 4.0), min_size=M,
                                     max_size=M)),
                 participation=draw(hs.lists(hs.floats(0.05, 1.0),
                                             min_size=M, max_size=M)))
    return structure, hp, t


def _three_group_worker_case(algorithm, threat_model):
    """Worker 0 sits in three groups, so its row of the product is a sum of
    three nonzero terms, where the summation order could matter."""
    structure = GroupStructure(7, [[0, 1, 2], [0, 2, 3], [0, 4, 5], [3, 5, 6]])
    hp = make_hp(4, epochs=12, inter_group_period=2, algorithm=algorithm,
                 threat_model=threat_model,
                 sigma=[1.5952888379372823, 0.7, 3.3, 1.1],
                 participation=[0.8133073424482733, 0.3, 0.9, 0.61])
    return structure, hp, 12


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(overlapping_cases())
@example(_three_group_worker_case("dpogl", "tm1"))
@example(_three_group_worker_case("dpogl", "tm2"))
@example(_three_group_worker_case("dpogl_plus", "tm2"))
def test_delay_curves_match_oracle_on_random_overlapping_structures(case):
    """Every delay cell is the oracle's delivered counts times the per-step
    budget; NaN marks exactly the set pairs outside the threat model.  At
    every epoch up to t, the sweep's set pairs gathered to worker pairs are
    bit for bit the straight (N, N) product over worker pairs."""
    structure, hp, t = case
    grid = (1.5, 3.0, 8.0)
    sweep = acc.delay_sweep(structure, hp)
    undefined = ~structure.admissible_observer_sets[hp.threat_model]
    for epoch in range(1, t + 1):
        K = sweep.at(epoch)
        assert np.array_equal(np.isnan(K), undefined)
        want, _ = _delay_K_with_round_trip_weights(structure, hp, epoch)
        got = worker_cells(structure, hp.threat_model, K)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    curves = worker_cells(structure, hp.threat_model, K)[..., None] * np.array(grid)
    admissible = observer_mask(structure, hp.threat_model)
    assert np.array_equal(np.isnan(curves),
                          np.repeat(~admissible[:, :, None], len(grid), axis=2))
    for n, i in zip(*np.nonzero(admissible)):
        counts = orc.propagation_oracle_counts(
            structure, hp.inter_group_period, t, n, i, hp.algorithm)
        want = [sum(count * orc.per_step_rdp(a, hp.sigma[m], hp.participation[m])
                    for m, count in counts.items()) for a in grid]
        np.testing.assert_allclose(curves[n, i], want, rtol=1e-12, atol=0)


def _delay_K_with_round_trip_weights(structure, hp, t):
    """The straight (N, N) product over worker pairs that the delay
    coefficients were first built with, using the weight
    per_step_rdp(2.0, sigma, pi) / 2.0."""
    S = hp.inter_group_period
    weights = np.array([orc.per_step_rdp(2.0, float(s), float(p), "sampled") / 2.0
                        for s, p in zip(hp.sigma, hp.participation)])
    dist = structure.distances
    rt = np.array([[min(dist[m, g] for g in groups)
                    for groups in structure.groups_of_worker]
                   for m in range(structure.num_groups)])
    k = (t - 1) // S
    blocks = np.maximum(0.0, k - rt + 1.0)
    counts = (S // hp.mechanism_window) * blocks
    counts[rt == 0] = t - 1
    K = (structure.member_mask.T * weights) @ counts
    K[~observer_mask(structure, hp.threat_model)] = np.nan
    return K, weights


@hs.composite
def weight_cases(draw):
    structure, hp, t = draw(overlapping_cases())
    M = hp.num_groups
    hp = dataclasses.replace(
        hp, sigma=draw(hs.lists(hs.floats(0.05, 20.0), min_size=M, max_size=M)),
        participation=draw(hs.lists(hs.floats(0.0, 1.0, exclude_min=True),
                                    min_size=M, max_size=M)))
    return structure, hp, t


def _lists_ring_case():
    """A pair whose 2 pi^2 / sigma^2 differs in the last bit between
    scalar and array ``**`` sits in group 0."""
    hp = make_hp(4, epochs=15, inter_group_period=3,
                 sigma=[1.5952888379372823, 2.0, 0.7, 3.3],
                 participation=[0.8133073424482733, 0.7, 1.0, 0.25])
    return generate_structure("RI", 12, 4), hp, 15


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(weight_cases())
@example(_lists_ring_case())
def test_delay_weights_match_round_trip_bitwise(case):
    """delay_sweep's direct weight 2 pi^2 / sigma^2 and its block rule give
    K bit for bit as the per_step_rdp round trip did.  Below the normal
    range the round trip's halving rounds a second time, so only normal
    weights are compared; an exact 0 weight is refused."""
    structure, hp, t = case
    want, weights = _delay_K_with_round_trip_weights(structure, hp, t)
    if not np.all(weights > 0):
        with pytest.raises(acc.AccountingPreconditionError, match="group"):
            acc.delay_sweep(structure, hp)
        return
    assume(np.all(weights >= np.finfo(float).tiny))
    got = worker_cells(structure, hp.threat_model,
                       acc.delay_sweep(structure, hp).at(t))
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _relabel(structure, hp, workers, groups):
    """The structure and hyper-parameters with worker n renamed workers[n]
    and group m renamed groups[m]."""
    members = [None] * structure.num_groups
    for m, group in enumerate(structure.members_of_group):
        members[groups[m]] = [workers[w] for w in group]
    old = np.argsort(groups)  # renamed group g was group old[g]
    return (GroupStructure(structure.num_workers, members),
            dataclasses.replace(hp, clip=hp.clip[old], sigma=hp.sigma[old],
                                participation=hp.participation[old]))


def _assert_same_cells(got, want):
    """Exact 0 and NaN in the same cells, other cells within rel 1e-12."""
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(overlapping_cases(), hs.data())
def test_delay_reports_are_equivariant_under_relabeling(case, data):
    """Renaming workers and groups permutes the delay heatmap cells and the
    pwp rows of every epoch accordingly.  Values agree to rel 1e-12 only,
    because the sum over groups runs in another order."""
    structure, hp, t = case
    workers = data.draw(hs.permutations(range(structure.num_workers)))
    groups = data.draw(hs.permutations(range(structure.num_groups)))
    renamed, renamed_hp = _relabel(structure, hp, workers, groups)
    workers = np.array(workers)
    sweep = acc.delay_sweep(structure, hp)
    renamed_sweep = acc.delay_sweep(renamed, renamed_hp)
    for epoch in range(1, t + 1):
        K, renamed_K = sweep.at(epoch), renamed_sweep.at(epoch)
        _assert_same_cells(
            worker_cells(renamed, hp.threat_model, acc.dp_matrix_from_curves(
                renamed_K, 1e-5))[np.ix_(workers, workers)],
            worker_cells(structure, hp.threat_model,
                         acc.dp_matrix_from_curves(K, 1e-5)))
        observed, table = worker_rows(
            structure, hp.threat_model,
            acc.pwp_rows_from_curves(K, structure, hp.threat_model, 1e-5))
        renamed_observed, renamed_table = worker_rows(
            renamed, hp.threat_model, acc.pwp_rows_from_curves(
                renamed_K, renamed, hp.threat_model, 1e-5))
        assert renamed_observed.tolist() == sorted(workers[observed].tolist())
        # row r of got is renamed worker workers[observed[r]]
        got = renamed_table[np.searchsorted(renamed_observed,
                                            workers[observed])]
        assert np.array_equal(got[:, 1], table[:, 1])  # alpha_star
        _assert_same_cells(got[:, [0, 2]], table[:, [0, 2]])


def test_privacy_matrix_masks_trusted_cells():
    st = golden_string()
    hp2 = make_hp(2, threat_model="tm2")
    mat = 2.0 * worker_cells(st, "tm2", acc.delay_sweep(st, hp2).at(6))
    assert math.isnan(mat[0, 1]) and math.isnan(mat[1, 2])
    assert not math.isnan(mat[0, 2])
    hpp = make_hp(2, algorithm="dpogl_plus", threat_model="tm2")
    matp = 2.0 * worker_cells(st, "tm2", acc.delay_sweep(st, hpp).at(6))
    assert math.isnan(matp[0, 1])
    assert matp[0, 2] == pytest.approx(
        orc.thm1_pair_bound(st, hpp, 2.0, 0, 2, 6), rel=1e-12)


def test_privacy_matrix_dp_zeros_and_conversion():
    st = generate_structure("CL", 6, 2)
    hp = make_hp(2, participation=0.7)
    dp = worker_cells(st, hp.threat_model, acc.dp_matrix_from_curves(
        acc.delay_sweep(st, hp).at(8), 1e-5))
    # disjoint clusters never exchange anything
    assert dp[0, 5] == 0.0 and dp[3, 1] == 0.0
    eps, _ = orc.rdp_to_dp([orc.thm1_pair_bound(st, hp, a, 0, 1, 8)
                            for a in acc.DEFAULT_ALPHA_GRID], 1e-5)
    assert dp[0, 1] == pytest.approx(eps, rel=1e-12)
    assert math.isnan(dp[2, 2])


def test_an_infinite_order_is_refused():
    """An infinite order is refused by its index.  On an all-zero K it used
    to turn every cell NaN, so pairs with no path printed 'trusted', and the
    envelope raised a misleading error; on a positive K it read as an
    infinite curve value."""
    st = GroupStructure(5, [[0, 1], [1, 2], [3, 4]])
    hp = make_hp(3, sigma=1.0)
    for t in (1, 7):  # K all zero, then positive
        K = acc.delay_sweep(st, hp).at(t)
        with pytest.raises(ValueError, match=r"^alpha_grid\[1\] must be finite$"):
            acc.dp_matrix_from_curves(K, 1e-5, (2.0, math.inf))
        with pytest.raises(ValueError, match=r"^alpha_grid\[1\] must be finite$"):
            acc.pwp_rows_from_curves(K, st, "tm1", 1e-5, (2.0, math.inf))
    with pytest.raises(ValueError, match=r"^alpha_grid\[0\] must exceed 1$"):
        acc.dp_matrix_from_curves(K, 1e-5, (-math.inf, 2.0))


def _scalar_pwp_row(st, hp, n, t, delta, grid=acc.DEFAULT_ALPHA_GRID):
    """Per-worker envelope and conversion from the scalar references."""
    adversaries = admissible_adversaries(st, hp.threat_model, n)
    curve = [max(orc.thm1_pair_bound(st, hp, a, n, i, t) for i in adversaries)
             for a in grid]
    return curve, orc.rdp_to_dp(curve, delta, grid)


def test_pwp_bounds_and_curve_assembly_agree():
    """Curve-path rows and heatmap cells match the scalar pair bounds pushed
    through rdp_to_dp."""
    st = generate_structure("RI", 8, 4)
    hp = make_hp(4, participation=0.9, sigma=1.8)
    t, delta = 13, 1e-6
    grid = list(acc.DEFAULT_ALPHA_GRID)
    curves = acc.delay_sweep(st, hp).at(t)
    workers, table = worker_rows(st, hp.threat_model, acc.pwp_rows_from_curves(
        curves, st, hp.threat_model, delta))
    assert workers.tolist() == list(range(8))
    for n, (eps_rdp, alpha_star, eps_dp) in zip(workers.tolist(),
                                                 table.tolist()):
        curve, (want_dp, want_alpha) = _scalar_pwp_row(st, hp, n, t, delta)
        assert alpha_star == want_alpha
        assert eps_dp == pytest.approx(want_dp, rel=1e-12)
        assert eps_rdp == pytest.approx(curve[grid.index(alpha_star)], rel=1e-12)
    dp = worker_cells(st, hp.threat_model, acc.dp_matrix_from_curves(curves, delta))
    for n in range(8):
        for i in range(8):
            if n == i:
                continue
            want, _ = orc.rdp_to_dp(
                [orc.thm1_pair_bound(st, hp, a, n, i, t) for a in grid], delta)
            assert dp[n, i] == pytest.approx(want, rel=1e-12)


def test_pwp_bounds_contract():
    st = golden_string()
    hp = make_hp(2, participation=0.7)

    def rows_at(structure, params, t):
        curves = acc.delay_sweep(structure, params).at(t)
        return worker_rows(structure, params.threat_model,
                           acc.pwp_rows_from_curves(
                               curves, structure, params.threat_model, 1e-5))

    workers, table = rows_at(st, hp, 1)
    assert workers.dtype == np.int64 and table.dtype == np.float64
    assert workers.tolist() == [0, 1, 2] and table.shape == (3, 3)
    for eps_rdp, alpha_star, eps_dp in table.tolist():
        assert eps_rdp == 0.0 and eps_dp == 0.0
        assert alpha_star == acc.DEFAULT_ALPHA_GRID[-1]
    workers, later = rows_at(st, hp, 9)
    assert all(later[:, 2] > 0)
    for n, (eps_rdp, _, eps_dp) in zip(workers.tolist(), later.tolist()):
        _, (want_dp, _) = _scalar_pwp_row(st, hp, n, 9, 1e-5)
        assert eps_dp == pytest.approx(want_dp, rel=1e-12)
    # a worker whose whole world is trusted has no defined bound
    gl = generate_structure("GL", 4, 1)
    workers, table = rows_at(gl, make_hp(1, threat_model="tm2"), 9)
    assert workers.dtype == np.int64 and workers.shape == (0,)
    assert table.dtype == np.float64 and table.shape == (0, 3)
    set_rows = acc.pwp_rows_from_curves(np.full((1, 1), np.nan), gl, "tm2",
                                        1e-5)
    assert set_rows.shape == (1, 3) and np.isnan(set_rows).all()
    # curves over worker pairs are refused where the sets are fewer
    with pytest.raises(ValueError, match="one cell per pair of group sets"):
        acc.pwp_rows_from_curves(np.zeros((10, 10)), SHARED_SETS_STRING,
                                 "tm1", 1e-5)


def _thm2_reference(st, hp, inv_hbar, n, i, t, alphas):
    """Straight-line degradation bound of one pair at one epoch: the loop
    the pair-class sweep replaced, built on ``degradation_mu``, with its own
    block rule."""
    S = hp.inter_group_period
    per_block = S // hp.mechanism_window
    dist = distance_matrix(build_adjacency(st))
    groups_n = set(st.groups_of_worker[n])
    groups_i = list(st.groups_of_worker[i])
    shared = groups_n & set(groups_i)
    total = np.zeros_like(alphas)
    for m_src in sorted(groups_n):
        eps = alphas / (2.0 * float(hp.sigma[m_src]) ** 2)
        if m_src in shared:
            total += eps * (t - 1)
            continue
        rho = int(min(dist[m_src, m] for m in groups_i))
        m_dst = min(m for m in groups_i if dist[m_src, m] == rho)
        path = sorted((g for g in range(st.num_groups)
                       if dist[m_src, g] + dist[m_dst, g] == rho),
                      key=lambda g: dist[m_src, g])
        for w in range(1, max(0, (t - 1) // S - rho + 1) + 1):
            factor = np.ones_like(alphas)
            for j in range(1, rho + 1):
                factor = factor * orc.degradation_mu(
                    inv_hbar, hp, alphas, path[j], S * (w + j - 1) + 1,
                    groups_n, groups_i)
            total = total + per_block * eps * factor
    return total


SHARED_SETS_STRING = GroupStructure(10, [[0, 1, 2, 3], [3, 4, 5], [5, 6, 7, 8, 9]])


def test_thm2_curve_matrix_matches_pairwise_calls():
    """Every epoch of the pair-class sweep, including epochs past the
    training horizon, is bitwise equal to a sweep that ends at that epoch
    and to the straight-line reference; undefined cells are NaN."""
    cases = [
        (golden_string(), {}),
        (golden_string(), {"threat_model": "tm2"}),
        (SHARED_SETS_STRING, {}),  # several workers share one group set
        (SHARED_SETS_STRING, {"algorithm": "dpogl_plus", "threat_model": "tm2"}),
        (chain(4), {"algorithm": "dpogl_plus", "threat_model": "tm2",
                    "inter_group_period": 3, "sigma": [1.0, 2.0, 1.5, 2.5]}),
        # (c * sigma) ** 2 of a scalar and of an array differ in the last bit
        (chain(3), {"sigma": [1.0204, 1.2704, 0.6352]}),
        # one group: shared slots only, so every block slot is padding
        (GroupStructure(3, [[0, 1, 2]]), {}),
        (GroupStructure(3, [[0, 1, 2]]), {"threat_model": "tm2"}),
        # no block arrives by the horizon, so there are no block slots
        (chain(3), {"inter_group_period": 8, "epochs": 2}),
        (chain(3), {"inter_group_period": 8, "epochs": 2,
                    "threat_model": "tm2"}),
    ]
    for structure, overrides in cases:
        _check_sweep_against_pairs(structure, make_hp(structure.num_groups,
                                                      **overrides))


def _check_sweep_against_pairs(structure, hp):
    grid = (1.5, 2.0, 3.0, 6.0, 40.0)
    alphas = np.array(grid)
    beta = 1.4
    horizon = hp.epochs + 5  # a heatmap epoch may lie past the horizon T
    sweep = acc.thm2_curve_sweep(structure, hp, beta, horizon, grid)
    inv_hbar = acc.lsi_recursion(structure, hp, beta, horizon)
    N, P = structure.num_workers, len(structure.group_sets)
    admissible = observer_mask(structure, hp.threat_model)
    undefined = ~structure.admissible_observer_sets[hp.threat_model]
    for t in (1, 2, 5, hp.epochs, horizon):
        sets = acc.thm2_curve_sweep(structure, hp, beta, t, grid).at(t)
        assert sets.shape == (P, P, len(grid))
        assert np.array_equal(sets, sweep.at(t), equal_nan=True)
        assert np.array_equal(np.isnan(sets),
                              np.repeat(undefined[:, :, None], len(grid), axis=2))
        curves = worker_cells(structure, hp.threat_model, sets)
        assert curves.shape == (N, N, len(grid))
        for n in range(N):
            for i in range(N):
                if not admissible[n, i]:
                    assert np.isnan(curves[n, i]).all()
                    continue
                assert np.array_equal(
                    curves[n, i],
                    _thm2_reference(structure, hp, inv_hbar, n, i, t, alphas))
    with pytest.raises(ValueError):
        sweep.at(horizon + 1)


def test_one_rounding_of_the_mechanism_variance():
    """The recursion's noise and the sweep's mu factors read one variance,
    W (c sigma)^2 by scalar ``**``.  At c = 0.5, sigma = 1.0204 an array
    square rounds it differently (0.26030404 against 0.26030403999999996),
    which moves cells of inv_hbar in the last bits."""
    st = GroupStructure(5, [[0, 1, 2], [2, 3, 4]])
    for S in (1, 3):
        hp = make_hp(2, epochs=12, inter_group_period=S, clip=0.5,
                     sigma=1.0204)
        assert acc._lsi_preconditions(hp).tolist() == [
            hp.mechanism_window * (c * s) ** 2
            for c, s in zip(hp.clip.tolist(), hp.sigma.tolist())]
        for beta, horizon in ((1.4, 17), (0.9, 6)):
            assert np.array_equal(
                acc.lsi_recursion(st, hp, beta, horizon),
                _lsi_reference(st, hp, beta, horizon).inv_hbar)
        _check_sweep_against_pairs(st, hp)


def test_thm2_sweep_checks_preconditions_once():
    hp = make_hp(4)
    with pytest.raises(acc.AccountingPreconditionError, match="string"):
        acc.thm2_curve_sweep(generate_structure("RI", 8, 4), hp, 1.0, 5)
    with pytest.raises(acc.AccountingPreconditionError):
        acc.thm2_curve_sweep(chain(2), make_hp(2, participation=0.5), 1.0, 5)


def test_pwp_envelope_over_admissible_observers():
    st = golden_string()  # worker 1 shares a group with everyone
    grid = (2.0, 4.0, 8.0)
    curves = np.arange(27, dtype=float).reshape(3, 3, 3)
    np.einsum("nng->ng", curves)[:] = np.nan  # the diagonal is undefined
    set_rows = acc.pwp_rows_from_curves(curves, st, "tm1", 1e-5, grid)
    assert set_rows.shape == (3, 3)  # one row per group set
    workers, table = worker_rows(st, "tm1", set_rows)
    assert workers.tolist() == [0, 1, 2]
    penalty = math.log(1e5) / (np.array(grid) - 1.0)
    for n, (eps_rdp, alpha_star, eps_dp) in zip(workers.tolist(),
                                                 table.tolist()):
        envelope = np.max(curves[n, admissible_adversaries(st, "tm1", n)],
                          axis=0)
        j = int(np.argmin(envelope + penalty))
        assert (eps_rdp, alpha_star, eps_dp) == (
            envelope[j], grid[j], envelope[j] + penalty[j])
    # under tm2 the in-group cells may be undefined; worker 1 has no
    # admissible observer and is omitted
    curves[0, 1] = curves[1, 0] = curves[1, 2] = curves[2, 1] = np.nan
    workers, table = worker_rows(st, "tm2", acc.pwp_rows_from_curves(
        curves, st, "tm2", 1e-5, grid))
    assert workers.tolist() == [0, 2]
    eps_rdp, alpha_star, _ = table[0].tolist()
    assert eps_rdp == curves[0, 2, grid.index(alpha_star)]
    # an undefined cell among admissible observers is a fault
    curves[0, 2, 1] = np.nan
    with pytest.raises(ValueError, match="undefined pair among admissible observers"):
        acc.pwp_rows_from_curves(curves, st, "tm2", 1e-5, grid)
    with pytest.raises(ValueError):
        acc.pwp_rows_from_curves(curves, st, "tm3", 1e-5, grid)


@pytest.mark.parametrize("algorithm, threat_model", [
    ("dpogl", "tm1"), ("dpogl", "tm2"), ("dpogl_plus", "tm2")])
def test_pwp_rows_are_set_rows_with_the_same_workers_every_epoch(
        algorithm, threat_model):
    """What the pwp.csv writer relies on: at every epoch the rows name the
    same workers, and every worker of a group set has a bit-equal row.
    Delay runs include a worker in three groups next to a one-worker set;
    the degradation run is a string whose sets hold several workers."""
    def hp_of(structure):
        return make_hp(structure.num_groups, epochs=12, algorithm=algorithm,
                       threat_model=threat_model)

    delay = [GroupStructure(7, [[0, 1, 2], [0, 3, 4], [0, 5], [6]]),
             generate_structure("RI", 12, 4)]
    cases = [(st, acc.delay_sweep(st, hp_of(st))) for st in delay]
    cases.append((SHARED_SETS_STRING, acc.thm2_curve_sweep(
        SHARED_SETS_STRING, hp_of(SHARED_SETS_STRING), 1.4, 12)))
    for structure, sweep in cases:
        owner = structure.group_set_of_worker
        first = None
        for t in range(1, 13):
            workers, table = worker_rows(
                structure, threat_model, acc.pwp_rows_from_curves(
                    sweep.at(t), structure, threat_model, 1e-5))
            if first is None:
                first = workers
                assert workers.size
            assert np.array_equal(workers, first)
            bits = table.view(np.int64)
            for a in np.unique(owner[workers]):
                rows = bits[owner[workers] == a]
                assert (rows == rows[0]).all()
        shared = np.bincount(owner[first])
        assert shared.max() > 1, "no set holds two observed workers"


# ---------------------------------------------------------------------------
# reductions of the delay coefficients K against the tensor reductions

def _tensor_pwp_reference(curves, mask, delta, grid):
    """Per-worker (worker, eps_rdp, alpha_star, eps_dp) rows from an
    (N, N, G) tensor: the envelope and conversion that the coefficient path
    replaced."""
    grid = np.array(grid)
    envelopes = np.max(curves, axis=1, where=mask[:, :, None], initial=-np.inf)
    observed = mask.any(axis=1)
    if np.isnan(envelopes[observed]).any():
        raise ValueError("undefined pair among admissible observers")
    candidates = envelopes + math.log(1.0 / delta) / (grid - 1.0)
    eps = np.min(candidates, axis=-1)
    best = np.argmin(candidates, axis=-1)
    eps[np.all(envelopes == 0.0, axis=-1)] = 0.0
    rows = np.flatnonzero(observed)
    j = best[rows]
    return list(zip(rows.tolist(), envelopes[rows, j].tolist(),
                    grid[j].tolist(), eps[rows].tolist()))


def _tensor_heatmap_reference(curves, delta, grid):
    """(N, N) DP matrix from an (N, N, G) tensor, reduced over the whole
    order axis at once."""
    grid = np.array(grid)
    defined = ~np.isnan(curves)
    if np.any(defined & ~np.isfinite(curves)) or np.any(curves[defined] < 0):
        raise ValueError("RDP curve values must be finite and nonnegative")
    eps = np.min(curves + math.log(1.0 / delta) / (grid - 1.0), axis=-1)
    eps[np.all(curves == 0.0, axis=-1)] = 0.0
    return eps


def _bits(rows):
    return [tuple(float(v).hex() for v in row) for row in rows]


def _pwp_bits(workers, table):
    """``_bits`` of the rows that ``pwp_rows_from_curves`` returns as
    arrays, after checking their dtypes and shapes."""
    assert workers.dtype == np.int64 and table.dtype == np.float64
    assert table.shape == (workers.size, 3)
    return _bits((w, *row) for w, row in zip(workers.tolist(), table.tolist()))


COEFFICIENTS = hs.one_of(
    hs.just(0.0),
    hs.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]),  # subnormal
    hs.floats(0.0, 1e3),
    hs.floats(1e305, 1.7e308),  # alpha * K overflows at the larger orders
)


@hs.composite
def coefficient_cases(draw):
    """A structure, a threat model and a coefficient matrix K over group-set
    pairs that is NaN outside the admissible observer sets, with zero rows,
    subnormal entries and rows with no admissible observer."""
    N = draw(hs.integers(2, 7))
    M = draw(hs.integers(1, 4))
    joined = [draw(hs.sets(hs.integers(0, M - 1), min_size=1, max_size=M))
              for _ in range(N)]
    used = sorted(set().union(*joined))
    structure = GroupStructure(N, [[w for w in range(N) if g in joined[w]]
                                   for g in used])
    threat_model = draw(hs.sampled_from(["tm1", "tm2"]))
    P = len(structure.group_sets)
    K = np.array(draw(hs.lists(COEFFICIENTS, min_size=P * P, max_size=P * P)))
    K = K.reshape(P, P)
    for a in draw(hs.sets(hs.integers(0, P - 1))):
        K[a] = 0.0
    K[~structure.admissible_observer_sets[threat_model]] = np.nan
    grid = draw(hs.one_of(
        hs.just(acc.DEFAULT_ALPHA_GRID),
        hs.lists(hs.floats(1.01, 300.0), min_size=1, max_size=6,
                 unique=True).map(sorted)))
    delta = draw(hs.sampled_from([1e-10, 1e-5, 0.5, 1.0]))
    return structure, threat_model, K, tuple(grid), delta


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(coefficient_cases(), hs.integers(0, 48))
def test_coefficient_reductions_match_tensor_reductions_bitwise(case, cell):
    """pwp rows and heatmaps from K equal the tensor reductions of
    K[..., None] * grid bit for bit, and both refuse the same inputs; the
    pwp rows are those of the tensor gathered to worker pairs."""
    structure, threat_model, K, grid, delta = case
    tensor = K[..., None] * np.array(grid)
    mask = observer_mask(structure, threat_model)
    try:
        want = _tensor_heatmap_reference(tensor, delta, grid)
    except ValueError:  # alpha * K overflows: both reductions refuse it
        for curves in (K, tensor):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                acc.dp_matrix_from_curves(curves, delta, grid)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                acc.pwp_rows_from_curves(curves, structure, threat_model,
                                         delta, grid)
    else:
        assert acc.dp_matrix_from_curves(K, delta, grid).tobytes() == want.tobytes()
        assert (acc.dp_matrix_from_curves(tensor, delta, grid).tobytes()
                == want.tobytes())
        want = _tensor_pwp_reference(
            worker_cells(structure, threat_model, tensor), mask, delta, grid)
        assert _pwp_bits(*worker_rows(
            structure, threat_model, acc.pwp_rows_from_curves(
                K, structure, threat_model, delta, grid))) == _bits(want)
    a, b = divmod(cell % K.size, K.shape[1])
    if structure.admissible_observer_sets[threat_model][a, b]:
        # a negative cell among admissible observers is refused by both
        negative = K.copy()
        negative[a, b] = -1.0
        with pytest.raises(ValueError, match="finite and nonnegative"):
            acc.dp_matrix_from_curves(negative, delta, grid)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            acc.pwp_rows_from_curves(negative, structure, threat_model, delta,
                                     grid)
        # an undefined cell among admissible observers is refused by both paths
        K[a, b] = np.nan
        with pytest.raises(ValueError, match="undefined pair"):
            _tensor_pwp_reference(worker_cells(structure, threat_model,
                                               K[..., None] * np.array(grid)),
                                  mask, delta, grid)
        with pytest.raises(ValueError, match="undefined pair"):
            acc.pwp_rows_from_curves(K, structure, threat_model, delta, grid)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_coefficient_heatmap_edge_cells():
    """K == 0 converts to an exact 0, NaN stays NaN, a subnormal K is not
    zero, and a K whose curve overflows at the largest order is refused."""
    K = np.array([[np.nan, 0.0, 5e-324],
                  [1.0, np.nan, 0.0],
                  [np.nan, 2.0, np.nan]])
    dp = acc.dp_matrix_from_curves(K, 1e-5)
    assert dp[0, 1] == 0.0 and dp[1, 2] == 0.0
    assert np.array_equal(np.isnan(dp), np.isnan(K))
    assert dp[0, 2] > 0.0
    K[1, 0] = 1e307
    assert math.isinf(1e307 * max(acc.DEFAULT_ALPHA_GRID))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        acc.dp_matrix_from_curves(K, 1e-5)
    K[1, 0] = -1.0
    with pytest.raises(ValueError, match="finite and nonnegative"):
        acc.dp_matrix_from_curves(K, 1e-5)


def test_curve_tensor_must_align_with_the_grid():
    """An (N, N, G) tensor whose G is not the grid size, and curves of a
    rank other than 2 (K) or 3 (a tensor), are refused by both reductions,
    not broadcast or indexed out of range."""
    structure = generate_structure("RI", 6, 3)
    for size in (1, 5):
        curves = np.ones((6, 6, size))
        with pytest.raises(ValueError, match="align with the alpha grid"):
            acc.dp_matrix_from_curves(curves, 1e-5)
        with pytest.raises(ValueError, match="align with the alpha grid"):
            acc.pwp_rows_from_curves(curves, structure, "tm1", 1e-5)
    P = len(structure.group_sets)
    for curves in (np.ones(()), np.ones(4), np.ones(P),
                   np.ones((P, P, 2, len(acc.DEFAULT_ALPHA_GRID)))):
        with pytest.raises(ValueError, match=r"^curves must be \(P, P\)"):
            acc.dp_matrix_from_curves(curves, 1e-5)
        with pytest.raises(ValueError, match=r"^curves must be \(P, P\)"):
            acc.pwp_rows_from_curves(curves, structure, "tm1", 1e-5)


def test_heatmap_conversion_of_a_tensor_holds_per_order_temporaries():
    """Converting a (256, 256, 24) tensor allocates at most 3 MB beyond its
    input: (N, N) temporaries for one order at a time."""
    curves = np.random.default_rng(0).random((256, 256, 24))
    curves[0, 1] = np.nan
    tracemalloc.start()
    try:
        dp = acc.dp_matrix_from_curves(curves, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6
    assert dp.tobytes() == _tensor_heatmap_reference(
        curves, 1e-5, acc.DEFAULT_ALPHA_GRID).tobytes()


# ---------------------------------------------------------------------------
# the pipeline is independent of the references

REFERENCES = {"per_step_rdp", "thm1_pair_counts", "thm1_pair_bound",
              "propagation_oracle_counts", "_influence_sets", "degradation_mu",
              "rdp_to_dp"}


def _module_defs(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_pipeline_does_not_name_the_references():
    """The references are defined in ``oracles``, not in ``accountant``,
    and no module-level function or class that the pipeline entry points
    reach, directly or through each other, names one: the checks stay
    independent of the code they check."""
    assert REFERENCES <= _module_defs(orc).keys()
    defs = _module_defs(acc)
    assert not REFERENCES & defs.keys()
    todo = ["delay_sweep", "thm2_curve_sweep", "dp_matrix_from_curves",
            "pwp_rows_from_curves"]
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        named = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(defs[name])
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not named & REFERENCES, f"{name} names {sorted(named & REFERENCES)}"
        todo.extend(named & defs.keys())
    # the walk follows calls: the sweeps reach the recursion and the classes
    assert {"lsi_recursion", "Thm2Sweep", "DelaySweep", "_delivered_blocks",
            "_check_delta"} <= reached


ALLOWED_FROM_ACCOUNTANT = {"AccountingPreconditionError", "DEFAULT_ALPHA_GRID"}


def _accountant_imports(source):
    """What ``source`` takes from ``accountant`` beyond the allowed names:
    imported names, or the module itself."""
    taken = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".accountant", "dpogl.accountant"):
                taken |= {alias.name for alias in node.names}
            elif module in (".", "dpogl"):
                taken |= {alias.name for alias in node.names
                          if alias.name == "accountant"}
        elif isinstance(node, ast.Import):
            taken |= {alias.name for alias in node.names
                      if alias.name == "dpogl.accountant"}
    return taken - ALLOWED_FROM_ACCOUNTANT


def test_oracles_import_no_pipeline_rule():
    """``oracles`` takes only the precondition error and the default grid
    from ``accountant``, so the references cannot call a pipeline rule."""
    source = Path(orc.__file__).read_text(encoding="utf-8")
    assert _accountant_imports(source) == set()
    # the check sees each way of reaching a pipeline rule
    for extra, taken in [
            ("from .accountant import _delivered_blocks",
             {"_delivered_blocks"}),
            ("from dpogl.accountant import _lsi_preconditions, DEFAULT_ALPHA_GRID",
             {"_lsi_preconditions"}),
            ("from . import accountant", {"accountant"}),
            ("import dpogl.accountant", {"dpogl.accountant"})]:
        assert _accountant_imports(source + "\n" + extra + "\n") == taken


def test_oracles_import_in_a_fresh_interpreter():
    """``oracles`` imports from ``accountant``, whose last line imports
    three names back from ``oracles``: the cycle must resolve in a fresh
    interpreter."""
    src = str(Path(orc.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c",
         "import dpogl.oracles as o, dpogl.accountant as a; "
         "assert a.rdp_to_dp is o.rdp_to_dp"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr


def test_accountant_reexports_three_oracles():
    """``perfbench/checks.py`` reads these three names from ``accountant``."""
    for name in ("per_step_rdp", "propagation_oracle_counts", "rdp_to_dp"):
        assert getattr(acc, name) is getattr(orc, name)


def test_no_oracle_is_exported():
    assert len(dpogl.__all__) == 23
    assert not REFERENCES & set(dpogl.__all__)
    assert "oracles" not in dpogl.__all__
