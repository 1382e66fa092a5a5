"""Independent checks of one execution's artifacts, and known-defect counts.

The heatmaps are recomputed from the propagation oracle, which unrolls the
epochs explicitly and shares no code with the closed-form counts:

* delay bound: on a seeded sample of pairs, oracle counts times the sampled
  per-step budget, converted with ``rdp_to_dp``, must equal the cell;
* degradation bound: every cell is finite, >= 0 and at most the delay bound
  of the same pair, built from oracle counts and the full-participation
  budget that the degradation bound attenuates (criterion 06's invariant).

``pwp.csv`` must cover epochs 1..T for exactly the workers that have an
admissible observer, and at each heatmap epoch bound every admissible cell of
its row from above (an envelope converts to at least each of its curves).
``metrics.csv`` must hold T finite rows.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from dpogl import GroupStructure, generate_structure
from dpogl import accountant

REL_TOL = 1e-9
MAX_PROBLEMS = 20


class Problems:
    """Failed checks: the first few messages and the total count."""

    def __init__(self) -> None:
        self.messages: list[str] = []
        self.count = 0

    def add(self, message: str) -> None:
        self.count += 1
        if len(self.messages) < MAX_PROBLEMS:
            self.messages.append(message)


def build_structure(config) -> GroupStructure:
    s = config.structure
    if "members_of_group" in s:
        return GroupStructure(s["num_workers"], s["members_of_group"])
    return generate_structure(s["kind"], s["num_workers"], s["num_groups"])


def _per_group(value, num_groups: int) -> list[float]:
    if isinstance(value, (tuple, list)):
        return [float(v) for v in value]
    return [float(value)] * num_groups


def _read_csv(path: Path, header: str, problems: Problems) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        problems.add(f"{path.name}: header is not {header!r}")
        return []
    return [line.split(",") for line in lines[1:]]


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _read_heatmap(path: Path, num_workers: int, problems: Problems) -> dict:
    """(n, i) -> eps, or None for a 'trusted' cell."""
    cells = {}
    for row in _read_csv(path, "n,i,eps", problems):
        if len(row) != 3:
            problems.add(f"{path.name}: malformed row {row}")
            continue
        key = (int(row[0]), int(row[1]))
        cells[key] = None if row[2] == "trusted" else _number(row[2])
        if row[2] != "trusted" and cells[key] is None:
            problems.add(f"{path.name}: cell {key} is not a number")
    expected = num_workers * (num_workers - 1)
    if len(cells) != expected or any(n == i for n, i in cells):
        problems.add(f"{path.name}: {len(cells)} distinct off-diagonal cells, "
                     f"expected {expected}")
    return cells


class Reference:
    """Oracle-based delay bounds for one config."""

    def __init__(self, config, structure: GroupStructure) -> None:
        self.config = config
        self.structure = structure
        M = structure.num_groups
        self.sigma = _per_group(config.sigma, M)
        self.participation = _per_group(config.participation, M)
        self.groups = [set(g) for g in structure.groups_of_worker]

    def shares_group(self, n: int, i: int) -> bool:
        return bool(self.groups[n] & self.groups[i])

    def trusted(self, n: int, i: int) -> bool:
        c = self.config
        return self.shares_group(n, i) and (c.threat_model == "tm2"
                                            or c.algorithm == "dpogl_plus")

    def admissible(self, n: int) -> list[int]:
        N = self.structure.num_workers
        if self.config.threat_model == "tm1":
            return [i for i in range(N) if i != n]
        return [i for i in range(N) if not self.shares_group(n, i)]

    def delay_dp(self, t: int, n: int, i: int, mode: str) -> float:
        """Oracle counts times the per-step budget of ``mode``, as DP."""
        c = self.config
        counts = accountant.propagation_oracle_counts(
            self.structure, c.inter_group_period, t, n, i, c.algorithm)
        curve = []
        for a in c.alpha_grid:
            total = 0.0
            for m, count in counts.items():
                pi = self.participation[m] if mode == "sampled" else 1.0
                total += count * accountant.per_step_rdp(a, self.sigma[m], pi,
                                                         mode)
            curve.append(total)
        if all(v == 0.0 for v in curve):
            return 0.0
        return accountant.rdp_to_dp(curve, c.delta, c.alpha_grid)[0]


def sample_pairs(structure: GroupStructure, rng: random.Random,
                 size: int) -> list[tuple[int, int]]:
    """All ordered pairs if there are at most ``size``; otherwise two thirds
    uniform pairs and one third pairs inside a group, which uniform draws on
    a large ring would almost never reach."""
    N = structure.num_workers
    if N * (N - 1) <= size:
        return [(n, i) for n in range(N) for i in range(N) if n != i]
    picks: set[tuple[int, int]] = set()
    while len(picks) < 2 * size // 3:
        n, i = rng.randrange(N), rng.randrange(N)
        if n != i:
            picks.add((n, i))
    groups = [g for g in structure.members_of_group if len(g) > 1]
    for _ in range(10 * size):
        if len(picks) >= size or not groups:
            break
        n, i = rng.sample(rng.choice(groups), 2)
        picks.add((n, i))
    return sorted(picks)


def _check_delay(ref: Reference, heat: dict, seed: int, pairs_per_epoch: int,
                 problems: Problems, defects: dict) -> None:
    for t, cells in heat.items():
        rng = random.Random(f"perfbench-pairs-{seed}-{t}")
        for n, i in sample_pairs(ref.structure, rng, pairs_per_epoch):
            cell = cells.get((n, i))
            if ref.trusted(n, i):
                if cell is not None:
                    problems.add(f"heatmap t={t} ({n},{i}): expected trusted")
                continue
            if cell is None:
                problems.add(f"heatmap t={t} ({n},{i}): unexpectedly trusted")
                continue
            expected = ref.delay_dp(t, n, i, "sampled")
            if cell == 0.0 and expected > 0.0:
                defects["zero_cells_with_path"] += 1
            if not (cell == expected or _close(cell, expected)):
                problems.add(f"heatmap t={t} ({n},{i}): {cell!r} but the "
                             f"oracle gives {expected!r}")


def _check_degradation(ref: Reference, heat: dict, problems: Problems,
                       defects: dict) -> None:
    for t, cells in heat.items():
        for (n, i), cell in sorted(cells.items()):
            if ref.trusted(n, i):
                if cell is not None:
                    problems.add(f"heatmap t={t} ({n},{i}): expected trusted")
                continue
            if cell is None or not math.isfinite(cell) or cell < 0.0:
                problems.add(f"heatmap t={t} ({n},{i}): {cell!r} is not a "
                             f"finite nonnegative bound")
                continue
            bound = ref.delay_dp(t, n, i, "full")
            if cell == 0.0 and bound > 0.0:
                defects["zero_cells_with_path"] += 1
            if cell > bound and not _close(cell, bound):
                problems.add(f"heatmap t={t} ({n},{i}): degradation {cell!r} "
                             f"exceeds the delay bound {bound!r}")


def _check_pwp(ref: Reference, path: Path, heat: dict,
               problems: Problems) -> None:
    config = ref.config
    grid = {float(a) for a in config.alpha_grid}
    N = ref.structure.num_workers
    admissible = {n: ref.admissible(n) for n in range(N)}
    workers = sorted(n for n, obs in admissible.items() if obs)
    by_epoch: dict[int, dict[int, float]] = {}
    for row in _read_csv(path, "epoch,worker,eps_rdp,alpha_star,eps_dp",
                         problems):
        values = [_number(v) for v in row[2:]]
        if len(row) != 5 or any(v is None or not math.isfinite(v) or v < 0
                                for v in values):
            problems.add(f"pwp.csv: malformed row {row}")
            continue
        if values[1] not in grid:
            problems.add(f"pwp.csv: alpha_star {values[1]} is off the grid")
        by_epoch.setdefault(int(row[0]), {})[int(row[1])] = values[2]
    if sorted(by_epoch) != list(range(1, config.epochs + 1)):
        problems.add("pwp.csv: epochs are not exactly 1..T")
    for t, rows in by_epoch.items():
        if sorted(rows) != workers:
            problems.add(f"pwp.csv t={t}: rows for {len(rows)} workers, "
                         f"expected {len(workers)}")
            return
    for t, cells in heat.items():
        for n in workers:
            eps = by_epoch.get(t, {}).get(n)
            if eps is None:
                continue
            row_max = 0.0
            for i in admissible[n]:
                cell = cells.get((n, i))
                if cell is None:
                    problems.add(f"heatmap t={t} ({n},{i}): admissible "
                                 f"observer with no bound")
                    return
                row_max = max(row_max, cell)
            if row_max > eps and not _close(row_max, eps):
                problems.add(f"pwp.csv t={t} worker {n}: {eps!r} is below "
                             f"its heatmap row maximum {row_max!r}")


def _check_metrics(path: Path, epochs: int, problems: Problems) -> None:
    rows = _read_csv(path, "epoch,avg_train_loss,avg_test_acc", problems)
    if len(rows) != epochs:
        problems.add(f"metrics.csv: {len(rows)} rows, expected {epochs}")
    for k, row in enumerate(rows, start=1):
        values = [_number(v) for v in row]
        if (len(row) != 3 or values[0] != k
                or any(v is None or not math.isfinite(v) for v in values)):
            problems.add(f"metrics.csv: row {k} is not finite: {row}")


def expected_outputs(config, with_training: bool) -> list[str]:
    names = ["pwp.csv"] + [f"heatmap_epoch_{t}.csv"
                           for t in config.heatmap_epochs]
    return sorted((["metrics.csv"] if with_training else []) + names)


def check_artifacts(out: Path, config, with_training: bool, seed: int,
                    pairs_per_epoch: int) -> tuple[Problems, dict]:
    """Check the artifacts in ``out``; returns the problems and the
    known-defect counts."""
    problems = Problems()
    defects = {"zero_cells_with_path": 0}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("outputs") != expected_outputs(config, with_training):
        problems.add(f"manifest lists {manifest.get('outputs')}")
        return problems, defects
    if manifest.get("accounting_error") is not None:
        problems.add(f"accounting_error: {manifest['accounting_error']}")
    if with_training:
        _check_metrics(out / "metrics.csv", config.epochs, problems)
    ref = Reference(config, build_structure(config))
    N = ref.structure.num_workers
    heat = {t: _read_heatmap(out / f"heatmap_epoch_{t}.csv", N, problems)
            for t in config.heatmap_epochs}
    if config.bound == "delay":
        _check_delay(ref, heat, seed, pairs_per_epoch, problems, defects)
    else:
        _check_degradation(ref, heat, problems, defects)
    _check_pwp(ref, out / "pwp.csv", heat, problems)
    return problems, defects
