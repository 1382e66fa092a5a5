"""Acceptance suite: thirteen checks, one per shipped guarantee.

Each check is a plain pytest test named after its criterion number and prints
one ``PASS criterion N`` line on success; running this file as a script
(``python3 tests/test_acceptance.py``) executes all of them and reports a
PASS/FAIL line per criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dpogl import accountant as acc
from dpogl import oracles as orc
from dpogl import models
from dpogl.data import dirichlet_partition, make_synthetic, stratified_split
from dpogl.harness import ExperimentConfig, run_experiment
from dpogl.rng import derive_stream
from dpogl.topology import (GroupStructure, build_adjacency, distance_matrix,
                            generate_structure)
from dpogl.trainer import HyperParams, clip_update, epoch_metrics, run_training
from pair_cells import worker_cells, worker_rows

CONFIG_PATH = Path(__file__).resolve().parents[1] / "configs" / "desk_default.json"


def _report(num: int, message: str) -> None:
    print(f"PASS criterion {num:2d}: {message}")


def _hp(num_groups: int, **overrides) -> HyperParams:
    params = dict(num_groups=num_groups, algorithm="dpogl", threat_model="tm1",
                  epochs=12, inter_group_period=2, local_iterations=2,
                  learning_rate=0.1, batch_size=4, clip=0.5, sigma=2.0,
                  participation=1.0, seed=0)
    params.update(overrides)
    return HyperParams(**params)


def _open_string(num_groups: int) -> GroupStructure:
    return GroupStructure(num_groups + 1,
                          [[k, k + 1] for k in range(num_groups)])


def _suite_structures() -> list[GroupStructure]:
    structures = [_open_string(m) for m in range(1, 6)]
    structures += [generate_structure("RI", 2 * m, m) for m in (3, 4, 5)]
    structures += [generate_structure("CL", 2 * m, m) for m in (2, 3, 4)]
    return structures


def _shares_group(structure: GroupStructure, n: int, i: int) -> bool:
    return bool(set(structure.groups_of_worker[n])
                & set(structure.groups_of_worker[i]))


def _pwp_rows(structure: GroupStructure, hp: HyperParams, t: int,
              delta: float) -> tuple[np.ndarray, np.ndarray]:
    curves = acc.delay_sweep(structure, hp).at(t)
    return worker_rows(structure, hp.threat_model, acc.pwp_rows_from_curves(
        [curves], structure, hp.threat_model, delta)[0])


def _dp_matrix(structure: GroupStructure, hp: HyperParams, t: int,
               delta: float) -> np.ndarray:
    """The (N, N) worker-pair heatmap of the delay bound at epoch t."""
    matrix = acc.dp_matrix_from_curves(acc.delay_sweep(structure, hp).at(t),
                                       delta)
    return worker_cells(structure, hp.threat_model, matrix)


def test_criterion_01_single_group_linear_budget():
    start = time.monotonic()
    structure = generate_structure("GL", 4, 1)
    hp = _hp(1, inter_group_period=1)
    t = 4
    for alpha in (2.0, 3.0, 4.0):
        eps_step = orc.per_step_rdp(alpha, 2.0, 1.0)
        assert eps_step == 2.0 * alpha / 4.0
        for n in range(4):
            for i in range(4):
                if n == i:
                    continue
                bound = orc.thm1_pair_bound(structure, hp, alpha, n, i, t)
                assert bound == 3.0 * eps_step
                assert bound / eps_step == 3.0  # exactly three budget units
    assert time.monotonic() - start < 1.0
    _report(1, "one shared group accumulates exactly (t-1) per-step budgets")


def test_criterion_02_string_delay_and_degradation():
    start = time.monotonic()
    structure = GroupStructure(3, [[0, 1], [1, 2]])
    hp = _hp(2, inter_group_period=2)
    alpha, t, beta = 3.0, 4, 1.0

    counts = {(n, i): sum(orc.thm1_pair_counts(structure, 2, n, i, t).values())
              for n in range(3) for i in range(3) if n != i}
    assert counts == {(0, 1): 3, (0, 2): 2, (1, 0): 5,
                      (1, 2): 5, (2, 0): 2, (2, 1): 3}

    # recompute the attenuation factor from the raw smoothing arrays
    eps_full = alpha / (2.0 * 2.0 ** 2)
    inv_hbar = acc.lsi_recursion(structure, hp, beta, t)
    assert float(inv_hbar[3, 0]) == float(inv_hbar[3, 1])  # mirror image
    mu = alpha / (alpha + float(inv_hbar[3, 1]) * (0.5 * 2.0) ** 2)
    assert 0.0 < mu <= 1.0
    assert mu < 1.0  # noise has entered the crossing group by epoch 3

    curves = acc.thm2_curve_sweep(structure, hp, beta, t, (alpha,)).at(t)
    bounds = {(n, i): curves[n, i, 0]
              for n in range(3) for i in range(3) if n != i}
    assert bounds[(0, 1)] == 3 * eps_full
    assert bounds[(2, 1)] == 3 * eps_full
    assert bounds[(1, 0)] == 5 * eps_full  # own groups pass unattenuated
    assert bounds[(1, 2)] == 5 * eps_full
    assert bounds[(0, 2)] == pytest.approx(2 * eps_full * mu, rel=1e-12)
    assert bounds[(2, 0)] == pytest.approx(2 * eps_full * mu, rel=1e-12)
    assert time.monotonic() - start < 1.0
    _report(2, "string bounds carry delay coefficients (3, 2, 5) and one "
               f"attenuation factor mu={mu:.6g}")


def test_criterion_03_interval_mechanism_single_budget():
    start = time.monotonic()
    structure = GroupStructure(3, [[0, 1], [1, 2]])
    hp = _hp(2, algorithm="dpogl_plus", threat_model="tm2",
             inter_group_period=2)
    alpha, t, beta = 3.0, 4, 1.0
    eps_step = orc.per_step_rdp(alpha, 2.0, 1.0)
    eps_full = alpha / (2.0 * 2.0 ** 2)

    assert orc.thm1_pair_bound(structure, hp, alpha, 0, 2, t) == eps_step
    assert orc.thm1_pair_bound(structure, hp, alpha, 2, 0, t) == eps_step
    # each worker of this string has a group set of its own, in worker
    # order, so the set-pair curves index like worker pairs
    assert structure.group_set_of_worker.tolist() == [0, 1, 2]
    degraded = acc.thm2_curve_sweep(structure, hp, beta, t, (alpha,)).at(t)
    assert degraded[0, 2, 0] == eps_full
    assert degraded[2, 0, 0] == eps_full
    for n, i in ((0, 1), (1, 0), (1, 2), (2, 1)):
        assert orc.thm1_pair_bound(structure, hp, alpha, n, i, t) is None
        assert math.isnan(degraded[n, i, 0])

    mat = alpha * acc.delay_sweep(structure, hp).at(t)
    expected_trusted = np.array([[True, True, False],
                                 [True, True, True],
                                 [False, True, True]])
    assert np.array_equal(np.isnan(mat), expected_trusted)
    assert mat[0, 2] == eps_step and mat[2, 0] == eps_step
    assert time.monotonic() - start < 1.0
    _report(3, "interval mechanism leaks exactly one budget across the string "
               "and reports in-group pairs trusted")


def test_criterion_04_delay_counts_match_propagation_oracle():
    start = time.monotonic()
    comparisons = 0
    for structure in _suite_structures():
        for period in (1, 2, 3):
            for algorithm in ("dpogl", "dpogl_plus"):
                for t in range(1, 13):
                    for n in range(structure.num_workers):
                        for i in range(structure.num_workers):
                            if n == i:
                                continue
                            if (algorithm == "dpogl_plus"
                                    and _shares_group(structure, n, i)):
                                continue  # trusted pair: no count defined
                            closed = orc.thm1_pair_counts(
                                structure, period, n, i, t,
                                algorithm=algorithm)
                            oracle = orc.propagation_oracle_counts(
                                structure, period, t, n, i, algorithm)
                            assert ({k: v for k, v in closed.items() if v}
                                    == {k: v for k, v in oracle.items() if v})
                            comparisons += 1
    elapsed = time.monotonic() - start
    assert comparisons >= 10_000
    assert elapsed < 30.0
    _report(4, f"closed-form delay counts equal the propagation oracle on "
               f"{comparisons} pair queries ({elapsed:.1f}s)")


def test_criterion_05_interval_variant_removes_period_factor():
    start = time.monotonic()
    checked = 0
    for structure in _suite_structures():
        m = structure.num_groups
        for period in (1, 2, 3):
            hp_base = _hp(m, inter_group_period=period)
            hp_plus = _hp(m, inter_group_period=period, algorithm="dpogl_plus",
                          threat_model="tm2")
            for t in (1, 3, 6, 12):
                for n in range(structure.num_workers):
                    for i in range(structure.num_workers):
                        if n == i or _shares_group(structure, n, i):
                            continue
                        for alpha in (2.0, 3.0):
                            base = orc.thm1_pair_bound(structure, hp_base,
                                                       alpha, n, i, t)
                            plus = orc.thm1_pair_bound(structure, hp_plus,
                                                       alpha, n, i, t)
                            assert plus * period == base
                            checked += 1
    assert time.monotonic() - start < 30.0
    _report(5, f"interval accounting is exactly the delay bound over the "
               f"period on {checked} disjoint-pair queries")


def test_criterion_06_degradation_never_exceeds_delay_bound():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    pairs_checked = 0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        structure = _open_string(m)
        period = int(rng.integers(1, 5))
        t = int(rng.integers(1, 13))
        hp = _hp(m, inter_group_period=period,
                 clip=float(rng.choice([0.25, 0.5, 1.0])),
                 sigma=float(rng.choice([1.0, 2.0, 4.0])),
                 local_iterations=int(rng.integers(1, 4)),
                 learning_rate=float(rng.choice([0.05, 0.1])))
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        alpha = float(rng.choice([2.0, 3.0, 8.0]))
        inv_hbar = acc.lsi_recursion(structure, hp, beta, t)
        for g in range(m):
            for epoch in range(1, t + 1):
                mu = orc.degradation_mu(inv_hbar, hp, alpha, g, epoch, ())
                assert 0.0 < mu <= 1.0
        curves = worker_cells(structure, hp.threat_model, acc.thm2_curve_sweep(
            structure, hp, beta, t, (alpha,)).at(t))
        for n in range(m + 1):
            for i in range(m + 1):
                if n == i:
                    continue
                base = orc.thm1_pair_bound(structure, hp, alpha, n, i, t)
                assert float(curves[n, i, 0]) <= base + 1e-12
                pairs_checked += 1
    assert time.monotonic() - start < 30.0
    _report(6, f"degradation bound stays below the delay bound on "
               f"{pairs_checked} pair queries over 100 random strings")


def test_criterion_07_mechanism_clip_and_noise_statistics():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        dim = int(rng.integers(1, 24))
        vec = rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0)
        limit = float(10.0 ** rng.uniform(-2.0, 2.0))
        out = clip_update(vec, limit)
        norm_in = float(np.linalg.norm(vec))
        norm_out = float(np.linalg.norm(out))
        assert norm_out <= limit * (1 + 1e-12)
        if norm_in >= limit:
            assert abs(norm_out - limit) <= limit * 1e-12
        else:
            assert np.array_equal(out, vec)

    # mechanism noise measured through training with empty shards: the model
    # update is then exactly the noise divided by the aggregation scale.
    data = make_synthetic(num_classes=5, dims=79, per_class=2, seed=1)
    structure = generate_structure("GL", 4, 1)
    empty = [np.array([], dtype=int) for _ in range(4)]
    hp = _hp(1, inter_group_period=1, local_iterations=1, epochs=250,
             clip=0.5, sigma=1.0, seed=11)
    trajectory = run_training(structure, hp, data, empty)
    draws = np.diff(trajectory[:, 0, :], axis=0).ravel() * 4.0
    assert draws.size == 100_000
    target = (0.5 * 1.0) ** 2
    assert abs(float(np.var(draws)) - target) <= 0.03 * target

    hp_plus = _hp(1, algorithm="dpogl_plus", threat_model="tm2",
                  inter_group_period=4, local_iterations=1, epochs=1000,
                  clip=0.5, sigma=1.0, seed=12)
    trajectory = run_training(structure, hp_plus, data, empty)
    jumps = (trajectory[4::4, 0, :] - trajectory[:-4:4, 0, :]).ravel() * 4.0
    assert jumps.size == 100_000
    target_plus = 4 * (0.5 * 1.0) ** 2
    assert abs(float(np.var(jumps)) - target_plus) <= 0.03 * target_plus
    assert time.monotonic() - start < 60.0
    _report(7, "clip invariants hold on 10^4 draws; mechanism noise variance "
               "within 3% of c^2 sigma^2 and S c^2 sigma^2")


def _fedavg_reference(structure: GroupStructure, hp: HyperParams, train,
                      partition: list[np.ndarray]) -> list[np.ndarray]:
    """Plain FedAvg: average of per-worker L-step SGD deltas, no privacy."""
    members = structure.members_of_group[0]
    dim = models.param_dim(train.features.shape[1], train.num_classes)
    theta = np.zeros(dim)
    history = [theta.copy()]
    for t in range(1, hp.epochs + 1):
        delta_sum = np.zeros(dim)
        for n in members:  # full participation
            idx = partition[n]
            feats, labels = models.augment(train.features[idx]), train.labels[idx]
            x = theta.copy()
            count = len(labels)
            if count:
                batch = min(hp.batch_size, count)
                stream = derive_stream(hp.seed, "batch", 0, t, n)
                perm = np.empty(0, dtype=int)
                pos = count
                for _ in range(hp.local_iterations):
                    if pos + batch > count:
                        perm = stream.permutation(count)
                        pos = 0
                    take = perm[pos:pos + batch]
                    pos += batch
                    x -= hp.learning_rate * models.gradient(
                        x, feats[take], *models.targets(labels[take], train.num_classes))
            delta_sum += x - theta
        theta = theta + delta_sum / float(len(members))
        history.append(theta.copy())
    return history


def test_criterion_08_noiseless_single_group_reduces_to_fedavg():
    start = time.monotonic()
    structure = generate_structure("GL", 6, 1)
    for seed in range(3):
        data = make_synthetic(num_classes=3, dims=5, per_class=40,
                              seed=100 + seed)
        partition = dirichlet_partition(data, 6, 0.5, seed)
        hp = _hp(1, epochs=20, inter_group_period=5, local_iterations=5,
                 batch_size=4, clip=float("inf"), sigma=0.0, seed=seed)
        trajectory = run_training(structure, hp, data, partition)
        reference = _fedavg_reference(structure, hp, data, partition)
        assert len(trajectory) == len(reference) == 21
        for ours, oracle in zip(trajectory, reference):
            assert np.array_equal(ours[0], oracle)
    assert time.monotonic() - start < 30.0
    _report(8, "with noise and clipping off, one group reproduces plain "
               "FedAvg bit-for-bit over 20 epochs and 3 seeds")


def test_criterion_09_grouped_training_fits_local_data_better():
    start = time.monotonic()
    wins = 0
    final_losses = []
    for seed in range(5):
        # two dims: classes overlap globally, so one global model cannot fit
        # every skewed shard while specialized group models can
        data = make_synthetic(num_classes=4, dims=2, per_class=150, seed=seed)
        train, _ = stratified_split(data, 0.2, seed)
        partition = dirichlet_partition(train, 20, 0.1, seed)
        losses = {}
        for kind, m in (("RI", 4), ("GL", 1)):
            structure = generate_structure(kind, 20, m)
            hp = _hp(m, epochs=100, inter_group_period=10,
                     local_iterations=10, learning_rate=0.1, batch_size=8,
                     clip=0.5, sigma=1.3, seed=seed)
            trajectory = run_training(structure, hp, train, partition)
            losses[kind] = epoch_metrics(structure, trajectory, train,
                                         partition)[-1, 0]
        final_losses.append((losses["RI"], losses["GL"]))
        wins += losses["RI"] <= losses["GL"]
    elapsed = time.monotonic() - start
    assert wins >= 4, f"ring beat global on only {wins}/5 seeds: {final_losses}"
    assert elapsed < 120.0
    _report(9, f"ring groups fit skewed local data better than one global "
               f"group on {wins}/5 seeds ({elapsed:.0f}s)")


def test_criterion_10_per_worker_privacy_curves():
    start = time.monotonic()
    delta = 1e-5
    for structure, m in ((generate_structure("GL", 4, 1), 1),
                         (generate_structure("CL", 6, 3), 3),
                         (generate_structure("RI", 6, 3), 3),
                         (generate_structure("RI", 8, 4), 4)):
        hp = _hp(m, inter_group_period=3, participation=0.7)
        last: dict[int, float] = {}
        for t in range(1, 13):
            workers, table = _pwp_rows(structure, hp, t, delta)
            for n, eps_dp in zip(workers.tolist(), table[:, 2].tolist()):
                assert eps_dp >= last.get(n, 0.0) - 1e-12
                last[n] = eps_dp

    # cluster and single-group curves coincide: only the count enters the
    # bound, never the group size
    single = generate_structure("GL", 4, 1)
    clusters = generate_structure("CL", 6, 3)
    hp1 = _hp(1, inter_group_period=3, participation=0.7)
    hp3 = _hp(3, inter_group_period=3, participation=0.7)
    for t in range(1, 11):
        reference = _pwp_rows(single, hp1, t, delta)[1][0].tolist()
        workers, table = _pwp_rows(clusters, hp3, t, delta)
        assert workers.tolist() == list(range(6))
        assert table.tolist() == [reference] * 6
    assert time.monotonic() - start < 10.0
    _report(10, "per-worker privacy is nondecreasing in t and cluster curves "
                "equal single-group curves exactly")


def test_criterion_11_heatmap_structure():
    start = time.monotonic()
    delta = 1e-5

    clusters = generate_structure("CL", 6, 2)
    mat = _dp_matrix(clusters, _hp(2, participation=0.7), 6, delta)
    for n in range(6):
        for i in range(6):
            if n == i:
                assert math.isnan(mat[n, i])
            elif n // 3 == i // 3:
                assert mat[n, i] > 0.0
            else:
                assert mat[n, i] == 0.0  # no path between clusters, ever

    ring = generate_structure("RI", 12, 6)
    hp10 = _hp(6, inter_group_period=10, participation=0.7)
    hp25 = _hp(6, inter_group_period=25, participation=0.7)
    dist = distance_matrix(build_adjacency(ring))

    def pair_distance(n: int, i: int) -> float:
        return min(dist[a, b] for a in ring.groups_of_worker[n]
                   for b in ring.groups_of_worker[i])

    mat10 = _dp_matrix(ring, hp10, 60, delta)
    mat25 = _dp_matrix(ring, hp25, 60, delta)
    for n in range(12):
        cells = [(pair_distance(n, i), mat10[n, i])
                 for i in range(12) if i != n]
        for d_near, eps_near in cells:
            for d_far, eps_far in cells:
                if d_near < d_far:
                    assert eps_near >= eps_far - 1e-12
    off_diagonal = ~np.eye(12, dtype=bool)
    assert np.all(mat25[off_diagonal] <= mat10[off_diagonal] + 1e-12)
    assert np.any(mat25[off_diagonal] < mat10[off_diagonal])
    assert time.monotonic() - start < 30.0
    _report(11, "heatmaps show exact zeros off-cluster, decay with ring "
                "distance, and weakly shrink when the period grows")


def test_criterion_12_dp_conversion_grid_refinement():
    start = time.monotonic()
    grid = list(acc.DEFAULT_ALPHA_GRID)
    fine = set(grid)
    for lo, hi in zip(grid[:-1], grid[1:]):
        fine.update(float(x) for x in np.geomspace(lo, hi, 11))
    fine = sorted(fine)
    rng = np.random.default_rng(12)
    delta = 1e-5
    for _ in range(20):
        sigma = float(rng.uniform(1.0, 3.0))
        participation = float(rng.uniform(0.3, 1.0))
        t = int(rng.integers(2, 201))
        weight = (t - 1) * 2.0 * participation ** 2 / sigma ** 2
        eps_coarse, _ = orc.rdp_to_dp(weight * np.asarray(grid), delta, grid)
        eps_fine, _ = orc.rdp_to_dp(weight * np.asarray(fine), delta, fine)
        assert eps_fine > 0.0
        assert eps_fine <= eps_coarse <= 1.02 * eps_fine
    assert time.monotonic() - start < 10.0
    _report(12, "default-grid DP conversion is within 2% of a 10x-finer scan "
                "on 20 random accounting curves")


def test_criterion_13_byte_identical_reruns(tmp_path):
    start = time.monotonic()
    raw = json.loads(CONFIG_PATH.read_text())
    runs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        config = ExperimentConfig.from_dict({**raw,
                                             "output_dir": str(out_dir)})
        manifest = run_experiment(config)
        assert manifest["accounting_error"] is None
        runs.append({p.name: p.read_bytes()
                     for p in sorted(out_dir.iterdir())})
    assert set(runs[0]) == {"heatmap_epoch_10.csv", "heatmap_epoch_20.csv",
                            "manifest.json", "metrics.csv", "pwp.csv"}
    assert all(content for content in runs[0].values())
    assert runs[0] == runs[1]
    assert time.monotonic() - start < 60.0
    _report(13, "two full runs of the shipped default config are "
                "byte-identical across every output file")


def _main() -> int:
    import argparse
    import tempfile
    import traceback

    criteria = [
        (1, test_criterion_01_single_group_linear_budget),
        (2, test_criterion_02_string_delay_and_degradation),
        (3, test_criterion_03_interval_mechanism_single_budget),
        (4, test_criterion_04_delay_counts_match_propagation_oracle),
        (5, test_criterion_05_interval_variant_removes_period_factor),
        (6, test_criterion_06_degradation_never_exceeds_delay_bound),
        (7, test_criterion_07_mechanism_clip_and_noise_statistics),
        (8, test_criterion_08_noiseless_single_group_reduces_to_fedavg),
        (9, test_criterion_09_grouped_training_fits_local_data_better),
        (10, test_criterion_10_per_worker_privacy_curves),
        (11, test_criterion_11_heatmap_structure),
        (12, test_criterion_12_dp_conversion_grid_refinement),
        (13, lambda: test_criterion_13_byte_identical_reruns(
            Path(tempfile.mkdtemp()))),
    ]
    parser = argparse.ArgumentParser(
        description="Run the acceptance suite; prints one PASS/FAIL line per "
                    "criterion.")
    parser.add_argument("--only", type=int, default=None,
                        help="run a single criterion by number")
    args = parser.parse_args()
    failed = []
    for number, check in criteria:
        if args.only is not None and number != args.only:
            continue
        try:
            check()
        except Exception:
            print(f"FAIL criterion {number:2d}:")
            traceback.print_exc()
            failed.append(number)
    if failed:
        print(f"failed criteria: {failed}")
        return 1
    print("all acceptance criteria passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
