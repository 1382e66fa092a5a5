"""Experiment harness: JSON configs, the train/account pipeline, artifacts.

A run writes, inside the configured output directory:

  metrics.csv            epoch,avg_train_loss,avg_test_acc     (training runs)
  pwp.csv                epoch,worker,eps_rdp,alpha_star,eps_dp
  heatmap_epoch_{t}.csv  n,i,eps  with a 'trusted' sentinel for undefined pairs
  manifest.json          config hash, effective seed, emitted file list

Floats are serialized with 17 significant digits and the manifest carries no
timestamps, so rerunning the same config reproduces every file byte for byte.
Each distinct float (by bit pattern) of a heatmap, of pwp.csv or of
metrics.csv is formatted once and its text reused.  Accounting works on
pairs of group sets, so pwp.csv rows and heatmap lines are built once per
group set and gathered to its workers only as text.
Accountant precondition failures (``AccountingPreconditionError``: sigma = 0,
degradation bound on a topology that is not a string, ...) disable the
accounting outputs only; training outputs are still emitted and the manifest
records the reason under "accounting_error".  Any other error propagates.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import accountant
from .data import (Dataset, dirichlet_partition, load_csv, make_synthetic,
                   stratified_split, worker_labels)
from .models import smoothness_bound
from .topology import STRUCTURE_KINDS, GroupStructure, generate_structure
from .trainer import HyperParams, run_training


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad field."""


_REQUIRED = object()

BOUND_METHODS = ("delay", "degradation")


def _pluck(raw: dict, key: str, default=_REQUIRED):
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field '{key}'")
        return default
    return raw[key]


def _as_int(value, label: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{label}' must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field '{label}' must be >= {minimum}")
    return value


def _as_number(value, label: str, minimum: float | None = None,
               exclusive: bool = False, allow_inf: bool = False) -> float:
    if value == "inf" and allow_inf:
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{label}' must be a number")
    v = float(value)
    if math.isnan(v):
        raise ConfigError(f"field '{label}' must not be NaN")
    if math.isinf(v) and not allow_inf:
        raise ConfigError(f"field '{label}' must be finite")
    if minimum is not None:
        if exclusive and v <= minimum:
            raise ConfigError(f"field '{label}' must be > {minimum}")
        if not exclusive and v < minimum:
            raise ConfigError(f"field '{label}' must be >= {minimum}")
    return v


def _as_choice(value, label: str, choices) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"field '{label}' must be one of {sorted(choices)}")
    return value


def _per_group(value, label: str, element):
    """A scalar or a per-group list; lengths are checked later against M."""
    if isinstance(value, list):
        if not value:
            raise ConfigError(f"field '{label}' must not be an empty list")
        return tuple(element(v, f"{label}[{k}]") for k, v in enumerate(value))
    return element(value, label)


def _reject_unknown(raw: dict, allowed, where: str = "") -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field '{where}{unknown[0]}'")


def _parse_structure(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("field 'structure' must be an object")
    if "members_of_group" in raw:
        _reject_unknown(raw, {"members_of_group", "num_workers", "kind"},
                        "structure.")
        num_workers = _as_int(_pluck(raw, "num_workers"),
                              "structure.num_workers", minimum=1)
        members = raw["members_of_group"]
        if (not isinstance(members, list) or not members
                or not all(isinstance(g, list) for g in members)):
            raise ConfigError("field 'structure.members_of_group' must be a "
                              "non-empty list of worker-id lists")
        groups = [[_as_int(w, f"structure.members_of_group[{m}][{j}]", 0)
                   for j, w in enumerate(g)] for m, g in enumerate(members)]
        kind = raw.get("kind")
        if kind is not None and not isinstance(kind, str):
            raise ConfigError("field 'structure.kind' must be a string")
        try:
            built = GroupStructure(num_workers, groups)
        except ValueError as exc:
            raise ConfigError(f"structure: {exc}") from exc
        return {"kind": kind, "num_workers": num_workers,
                "members_of_group": [sorted(g) for g in built.members_of_group]}
    _reject_unknown(raw, {"kind", "num_workers", "num_groups"}, "structure.")
    kind = _as_choice(_pluck(raw, "kind"), "structure.kind", STRUCTURE_KINDS)
    num_workers = _as_int(_pluck(raw, "num_workers"), "structure.num_workers",
                          minimum=1)
    num_groups = _as_int(_pluck(raw, "num_groups"), "structure.num_groups",
                         minimum=1)
    if kind != "LB":  # LB membership depends on the realized data partition
        try:
            generate_structure(kind, num_workers, num_groups)
        except ValueError as exc:
            raise ConfigError(f"structure: {exc}") from exc
    return {"kind": kind, "num_workers": num_workers, "num_groups": num_groups}


def _parse_data(raw) -> dict:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("field 'data' must be an object")
    common = {
        "test_fraction": _as_number(_pluck(raw, "test_fraction", 0.2),
                                    "data.test_fraction", minimum=0.0),
        "dirichlet_beta": _as_number(_pluck(raw, "dirichlet_beta", 0.1),
                                     "data.dirichlet_beta", minimum=0.0,
                                     exclusive=True),
    }
    if common["test_fraction"] >= 1.0:
        raise ConfigError("field 'data.test_fraction' must be < 1")
    if raw.get("csv") is not None:
        _reject_unknown(raw, {"csv", "num_classes", "test_fraction",
                              "dirichlet_beta"}, "data.")
        csv = raw["csv"]
        if not isinstance(csv, str):
            raise ConfigError("field 'data.csv' must be a path string")
        num_classes = raw.get("num_classes")
        if num_classes is not None:
            num_classes = _as_int(num_classes, "data.num_classes", minimum=2)
        return {"csv": csv, "num_classes": num_classes, **common}
    _reject_unknown(raw, {"csv", "num_classes", "dims", "per_class",
                          "test_fraction", "dirichlet_beta"}, "data.")
    return {
        "csv": None,
        "num_classes": _as_int(_pluck(raw, "num_classes", 4),
                               "data.num_classes", minimum=2),
        "dims": _as_int(_pluck(raw, "dims", 8), "data.dims", minimum=1),
        "per_class": _as_int(_pluck(raw, "per_class", 150),
                             "data.per_class", minimum=1),
        **common,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated, default-resolved experiment description."""

    seed: int
    algorithm: str
    threat_model: str
    epochs: int
    inter_group_period: int
    local_iterations: int
    learning_rate: float
    batch_size: int
    clip: float | tuple
    sigma: float | tuple
    participation: float | tuple
    delta: float
    bound: str
    alpha_grid: tuple
    heatmap_epochs: tuple
    output_dir: str
    structure: dict
    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _reject_unknown(raw, _TOP_LEVEL_KEYS)
        structure = _parse_structure(_pluck(raw, "structure"))

        def clip_entry(v, label):
            return _as_number(v, label, allow_inf=True)

        grid_raw = _pluck(raw, "alpha_grid", None)
        if grid_raw is None:
            alpha_grid = tuple(accountant.DEFAULT_ALPHA_GRID)
        else:
            if not isinstance(grid_raw, list):
                raise ConfigError("field 'alpha_grid' must be a list")
            alpha_grid = tuple(_as_number(a, f"alpha_grid[{k}]")
                               for k, a in enumerate(grid_raw))
        heat_raw = _pluck(raw, "heatmap_epochs", [])
        if not isinstance(heat_raw, list):
            raise ConfigError("field 'heatmap_epochs' must be a list")
        heatmap_epochs = tuple(sorted({
            _as_int(t, f"heatmap_epochs[{k}]", minimum=1)
            for k, t in enumerate(heat_raw)}))
        output_dir = _pluck(raw, "output_dir", "results")
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError("field 'output_dir' must be a path string")

        config = cls(
            seed=_as_int(_pluck(raw, "seed", 0), "seed"),
            algorithm=_pluck(raw, "algorithm", "dpogl"),
            threat_model=_pluck(raw, "threat_model", "tm1"),
            epochs=_as_int(_pluck(raw, "epochs"), "epochs"),
            inter_group_period=_as_int(_pluck(raw, "inter_group_period", 10),
                                       "inter_group_period"),
            local_iterations=_as_int(_pluck(raw, "local_iterations", 10),
                                     "local_iterations"),
            learning_rate=_as_number(_pluck(raw, "learning_rate", 0.1),
                                     "learning_rate"),
            batch_size=_as_int(_pluck(raw, "batch_size", 8), "batch_size"),
            clip=_per_group(_pluck(raw, "clip", 0.05), "clip", clip_entry),
            sigma=_per_group(_pluck(raw, "sigma", 2.0), "sigma", _as_number),
            participation=_per_group(_pluck(raw, "participation", 0.7),
                                     "participation", _as_number),
            delta=_as_number(_pluck(raw, "delta", 1e-5), "delta"),
            bound=_as_choice(_pluck(raw, "bound", "delay"), "bound",
                             BOUND_METHODS),
            alpha_grid=alpha_grid,
            heatmap_epochs=heatmap_epochs,
            output_dir=output_dir,
            structure=structure,
            data=_parse_data(raw.get("data")),
        )
        try:  # value ranges are the trainer's and the accountant's rules
            _hyper_params(config)
            accountant._check_delta(config.delta)
            accountant._check_grid(config.alpha_grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return config

    def num_groups(self) -> int:
        if "members_of_group" in self.structure:
            return len(self.structure["members_of_group"])
        return self.structure["num_groups"]

    def normalized(self) -> dict:
        """Default-resolved content minus the output location."""
        d = asdict(self)
        d.pop("output_dir")
        return d

    def config_hash(self) -> str:
        text = json.dumps(self.normalized(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


_TOP_LEVEL_KEYS = frozenset(f.name for f in fields(ExperimentConfig))


def _hyper_params(config: ExperimentConfig) -> HyperParams:
    return HyperParams(num_groups=config.num_groups(), **{
        f.name: getattr(config, f.name) for f in fields(HyperParams)
        if f.name != "num_groups"})


# ---------------------------------------------------------------------------
# pipeline

def _build_dataset(config: ExperimentConfig) -> Dataset:
    d = config.data
    if d["csv"] is not None:
        try:  # a bad value inside a readable file stays a ValueError
            return load_csv(d["csv"], d["num_classes"])
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read data.csv file: {exc}") from exc
    return make_synthetic(d["num_classes"], d["dims"], d["per_class"],
                          config.seed)


def prepare(config: ExperimentConfig
            ) -> tuple[Dataset, Dataset, list[np.ndarray], GroupStructure]:
    """The ``(train_set, test_set, partition, structure)`` that ``config``
    describes; writes nothing.  An LB structure is built from the labels
    that the partition deals to each worker."""
    d, s = config.data, config.structure
    train_set, test_set = stratified_split(_build_dataset(config),
                                           d["test_fraction"], config.seed)
    partition = dirichlet_partition(train_set, s["num_workers"],
                                    d["dirichlet_beta"], config.seed)
    if "members_of_group" in s:
        structure = GroupStructure(s["num_workers"], s["members_of_group"])
    else:
        labels = (worker_labels(train_set, partition)
                  if s["kind"] == "LB" else None)
        structure = generate_structure(s["kind"], s["num_workers"],
                                       s["num_groups"], labels)
    return train_set, test_set, partition, structure


def _float_texts(values) -> np.ndarray:
    """Each float of ``values`` at 17 significant digits, as an object array
    of the same shape; NaN reads ``nan``.

    Every distinct bit pattern is formatted once.  Keying by bits rather
    than by value keeps -0.0 apart from 0.0, and it is exact: equal bits
    give equal text.
    """
    values = np.asarray(values, dtype=np.float64)
    keys, inverse = np.unique(values.reshape(-1).view(np.int64),
                              return_inverse=True)
    texts = np.array(["nan" if v != v else format(v, ".17g")
                      for v in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse].reshape(values.shape)


def _pwp_blocks(epochs, workers: np.ndarray, rows: np.ndarray,
                set_tables) -> list[str]:
    """pwp.csv text as one block of lines per epoch t of ``epochs``.

    ``set_tables[k]`` ((P, 3)) holds epoch ``epochs[k]``'s ``eps_rdp,
    alpha_star, eps_dp`` per group set, and worker ``workers[r]`` reads set
    ``rows[r]``: each set's text is built once per epoch and gathered to
    its workers.  All epochs' floats are formatted in one call.
    """
    if not workers.size:
        return []
    prefixes = [f"{w}," for w in workers.tolist()]
    rows = rows.tolist()
    blocks = []
    for t, texts in zip(epochs, _float_texts(set_tables).tolist()):
        suffixes = [",".join(row) for row in texts]
        blocks.append(f"{t}," + f"\n{t},".join(
            map(operator.add, prefixes, map(suffixes.__getitem__, rows))))
    return blocks


def _heatmap_blocks(matrix: np.ndarray, owner: np.ndarray,
                    undefined: np.ndarray) -> list[str]:
    """The 'n,i,eps' lines of a (P, P) group-set pair matrix at the worker
    pairs, as one block of N - 1 lines per row n (the diagonal is skipped):
    cell (n, i) reads ``matrix[owner[n], owner[i]]``, or 'trusted' where the
    (P, P) mask ``undefined`` is set.  Each set's lines are built once and
    gathered to its workers."""
    size = owner.size
    if size < 2:
        return []
    texts = _float_texts(matrix)
    texts[undefined] = "trusted"
    columns = [f"{i}," for i in range(size)]
    set_lines = [list(map(operator.add, columns, row))
                 for row in texts[:, owner].tolist()]
    blocks = []
    for n, a in enumerate(owner.tolist()):
        lines = set_lines[a]
        blocks.append(f"{n}," + f"\n{n},".join(lines[:n] + lines[n + 1:]))
    return blocks


def _write_lines(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _run_accounting(config: ExperimentConfig, structure: GroupStructure,
                    hp: HyperParams, train_set: Dataset, out: Path
                    ) -> list[str]:
    """Emit pwp.csv and the heatmaps, whose text is built per group set and
    gathered to workers; raises AccountingPreconditionError on precondition
    failures so the caller can record them without touching training
    output."""
    grid = config.alpha_grid
    epochs = sorted({*range(1, config.epochs + 1), *config.heatmap_epochs})
    if config.bound == "degradation" and epochs:
        beta = smoothness_bound(train_set.features)
        sweep = accountant.thm2_curve_sweep(structure, hp, beta, epochs[-1],
                                            grid)
    else:  # (P, P) coefficients K standing for the linear curves alpha * K
        sweep = accountant.delay_sweep(structure, hp)

    owner = structure.group_set_of_worker
    defined = structure.admissible_observer_sets[config.threat_model]
    workers = np.flatnonzero(defined.any(axis=1)[owner])  # observed workers
    written: list[str] = []
    set_tables: list[np.ndarray] = []
    for t in epochs:
        curves = sweep.at(t)  # group-set pairs; gathered only as text
        if t <= config.epochs:
            set_tables.append(accountant.pwp_rows_from_curves(
                curves, structure, config.threat_model, config.delta, grid))
        if t in config.heatmap_epochs:
            matrix = accountant.dp_matrix_from_curves(curves, config.delta,
                                                      grid)
            name = f"heatmap_epoch_{t}.csv"
            _write_lines(out / name, "n,i,eps",
                         _heatmap_blocks(matrix, owner, ~defined))
            written.append(name)
    _write_lines(out / "pwp.csv", "epoch,worker,eps_rdp,alpha_star,eps_dp",
                 _pwp_blocks(range(1, config.epochs + 1), workers,
                             owner[workers], set_tables))
    written.append("pwp.csv")
    return written


def run_experiment(config: ExperimentConfig, with_training: bool = True
                   ) -> dict:
    """Execute the pipeline and return the manifest that was written.

    ``with_training=False`` runs the accounting stage only (the privacy
    reports are structural, so no trained model is needed).
    """
    # First: bad data or an unbuildable structure leaves no directory.
    train_set, test_set, partition, structure = prepare(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    hp = _hyper_params(config)
    outputs: list[str] = []
    if with_training:
        result = run_training(structure, hp, train_set, partition,
                              test_set if len(test_set) else None)
        texts = _float_texts([(m.avg_train_loss, m.avg_test_acc)
                              for m in result.metrics]).tolist()
        _write_lines(out / "metrics.csv", "epoch,avg_train_loss,avg_test_acc",
                     [f"{m.epoch},{loss},{acc}"
                      for m, (loss, acc) in zip(result.metrics, texts)])
        outputs.append("metrics.csv")
    accounting_error = None
    try:
        outputs.extend(_run_accounting(config, structure, hp, train_set, out))
    except accountant.AccountingPreconditionError as exc:
        accounting_error = str(exc)
    manifest = {
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "algorithm": config.algorithm,
        "threat_model": config.threat_model,
        "bound": config.bound,
        "outputs": sorted(outputs),
        "accounting_error": accounting_error,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return manifest
