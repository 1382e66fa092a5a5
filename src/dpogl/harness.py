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

import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import accountant
from .data import (Dataset, dirichlet_partition, load_csv, make_synthetic,
                   stratified_split, worker_labels)
from .models import smoothness_bound
from .topology import (STRUCTURE_KINDS, GroupStructure, _check_kind_rules,
                       generate_structure)
from .trainer import HyperParams, epoch_metrics, run_training


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad field."""


_REQUIRED = object()

BOUND_METHODS = ("delay", "degradation")


def _read(raw, rules: dict, label: str) -> dict:
    """The JSON object ``raw`` (``label``, '' at the top) parsed by ``rules``,
    field -> (check, default) in order; an absent field takes its default,
    unless ``_REQUIRED``, through ``check(value, label)``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"field '{label}' must be an object" if label
                          else "config must be a JSON object")
    prefix = f"{label}." if label else ""
    unknown = sorted(set(raw) - set(rules))
    if unknown:
        raise ConfigError(f"unknown field '{prefix}{unknown[0]}'")
    parsed = {}
    for name, (check, default) in rules.items():
        if name not in raw and default is _REQUIRED:
            raise ConfigError(f"missing required field '{name}'")
        parsed[name] = check(raw.get(name, default), prefix + name)
    return parsed


def _integer(minimum: int | None = None):
    def check(value, label: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field '{label}' must be an integer")
        if minimum is not None and value < minimum:
            raise ConfigError(f"field '{label}' must be >= {minimum}")
        return value
    return check


def _number(minimum: float | None = None, above: float | None = None,
            below: float | None = None, allow_inf: bool = False):
    def check(value, label: str) -> float:
        if value == "inf" and allow_inf:
            return math.inf
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field '{label}' must be a number")
        try:
            v = float(value)
        except OverflowError:  # an integer beyond the float range
            v = math.inf if value > 0 else -math.inf
        if math.isnan(v):
            raise ConfigError(f"field '{label}' must not be NaN")
        if math.isinf(v) and not allow_inf:
            raise ConfigError(f"field '{label}' must be finite")
        if minimum is not None and v < minimum:
            raise ConfigError(f"field '{label}' must be >= {minimum}")
        if above is not None and v <= above:
            raise ConfigError(f"field '{label}' must be > {above}")
        if below is not None and v >= below:
            raise ConfigError(f"field '{label}' must be < {below}")
        return v
    return check


def _text(what: str, accept=None):
    """A string rule; ``accept``, a predicate, narrows it to ``what``."""
    def check(value, label: str) -> str:
        if not isinstance(value, str) or (accept and not accept(value)):
            raise ConfigError(f"field '{label}' must be {what}")
        return value
    return check


def _optional(check):
    return lambda value, label: None if value is None else check(value, label)


def _as_given(value, label: str):  # HyperParams checks the value
    return value


def _list(element):
    def check(value, label: str) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"field '{label}' must be a list")
        return [element(v, f"{label}[{k}]") for k, v in enumerate(value)]
    return check


def _per_group(element):
    """A scalar or a per-group list; lengths are checked later against M."""
    def check(value, label: str):
        if value == []:
            raise ConfigError(f"field '{label}' must not be an empty list")
        return (tuple(_list(element)(value, label))
                if isinstance(value, list) else element(value, label))
    return check


def _alpha_grid(value, label: str) -> tuple:
    return tuple(accountant.DEFAULT_ALPHA_GRID if value is None  # or absent
                 else _list(_number())(value, label))


def _epoch_set(value, label: str) -> tuple:
    return tuple(sorted(set(_list(_integer(1))(value, label))))


def _members(value, label: str) -> list:
    if not (isinstance(value, list) and value
            and all(isinstance(g, list) for g in value)):
        raise ConfigError(f"field '{label}' must be a non-empty list of "
                          "worker-id lists")
    return _list(_list(_integer(0)))(value, label)


_EXPLICIT = {"kind": (_optional(_text("a string")), None),
             "num_workers": (_integer(1), _REQUIRED),
             "members_of_group": (_members, _REQUIRED)}
_GENERATED = {"kind": (_text(f"one of {sorted(STRUCTURE_KINDS)}",
                             STRUCTURE_KINDS.__contains__), _REQUIRED),
              "num_workers": (_integer(1), _REQUIRED),
              "num_groups": (_integer(1), _REQUIRED)}
_SPLIT = {"test_fraction": (_number(0.0, below=1), 0.2),
          "dirichlet_beta": (_number(above=0.0), 0.1)}
_CSV = (_optional(_text("a path string")), None)
_CSV_DATA = {"csv": _CSV, "num_classes": (_optional(_integer(2)), None),
             **_SPLIT}
_SYNTHETIC = {"csv": _CSV, "num_classes": (_integer(2), 4),
              "dims": (_integer(1), 8), "per_class": (_integer(1), 150),
              **_SPLIT}


def _structure(value, label: str) -> dict:
    """Explicit if it holds ``members_of_group``, else generated."""
    explicit = isinstance(value, dict) and "members_of_group" in value
    s = _read(value, _EXPLICIT if explicit else _GENERATED, label)
    try:  # a generated structure is checked by its kind's rules, not built
        if explicit:
            built = GroupStructure(s["num_workers"], s["members_of_group"])
            s["members_of_group"] = [sorted(g) for g in built.members_of_group]
        else:
            _check_kind_rules(s["kind"], s["num_workers"], s["num_groups"])
    except ValueError as exc:
        raise ConfigError(f"structure: {exc}") from exc
    return s


def _data(value, label: str) -> dict:
    """A CSV file if ``csv`` is set, else synthetic; null is ``{}``."""
    value = {} if value is None else value
    csv = isinstance(value, dict) and value.get("csv") is not None
    return _read(value, _CSV_DATA if csv else _SYNTHETIC, label)


def _rule(check, default=_REQUIRED):
    return field(metadata={"rule": (check, default)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated, default-resolved experiment description.  Each field
    carries its JSON rule and default; value ranges of the run parameters
    are ``HyperParams``' and the accountant's."""

    seed: int = _rule(_integer(), 0)
    algorithm: str = _rule(_as_given, "dpogl")
    threat_model: str = _rule(_as_given, "tm1")
    epochs: int = _rule(_integer())
    inter_group_period: int = _rule(_integer(), 10)
    local_iterations: int = _rule(_integer(), 10)
    learning_rate: float = _rule(_number(), 0.1)
    batch_size: int = _rule(_integer(), 8)
    clip: float | tuple = _rule(_per_group(_number(allow_inf=True)), 0.05)
    sigma: float | tuple = _rule(_per_group(_number()), 2.0)
    participation: float | tuple = _rule(_per_group(_number()), 0.7)
    delta: float = _rule(_number(), 1e-5)
    bound: str = _rule(_text(f"one of {sorted(BOUND_METHODS)}",
                             BOUND_METHODS.__contains__), "delay")
    alpha_grid: tuple = _rule(_alpha_grid, None)
    heatmap_epochs: tuple = _rule(_epoch_set, [])
    output_dir: str = _rule(_text("a path string", bool), "results")
    structure: dict = _rule(_structure)
    data: dict = _rule(_data, None)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        config = cls(**_read(raw, {f.name: f.metadata["rule"]
                                   for f in fields(cls)}, ""))
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
        import hashlib  # here: OpenSSL's import is a quarter of dpogl's
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
                set_rows: np.ndarray) -> list[str]:
    """pwp.csv text as one block of lines per epoch t of ``epochs``.

    ``set_rows[k]`` ((P, 3)) holds epoch ``epochs[k]``'s ``eps_rdp,
    alpha_star, eps_dp`` per group set, and worker ``workers[r]`` reads set
    ``rows[r]``: each set's text is built once per epoch and gathered to
    its workers.  All epochs' floats are formatted in one call.
    """
    if not workers.size:
        return []
    prefixes = [f"{w}," for w in workers.tolist()]
    rows = rows.tolist()
    blocks = []
    for t, texts in zip(epochs, _float_texts(set_rows).tolist()):
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
    output.

    The sweep covers the horizon, the last epoch of training or of a
    heatmap; at horizon 0 no sweep is built.  Each heatmap epoch's curves
    are converted on their own; then one ``pwp_rows_from_curves`` call
    consumes the T epochs' curves one at a time.
    """
    grid, T = config.alpha_grid, config.epochs
    horizon = max((T, *config.heatmap_epochs))
    header = "epoch,worker,eps_rdp,alpha_star,eps_dp"
    if not horizon:
        _write_lines(out / "pwp.csv", header, [])
        return ["pwp.csv"]
    if config.bound == "degradation":
        beta = smoothness_bound(train_set.features)
        sweep = accountant.thm2_curve_sweep(structure, hp, beta, horizon, grid)
    else:  # (P, P) coefficients K standing for the linear curves alpha * K
        sweep = accountant.delay_sweep(structure, hp)

    owner = structure.group_set_of_worker
    defined = structure.admissible_observer_sets[config.threat_model]
    written: list[str] = []
    for t in config.heatmap_epochs:
        matrix = accountant.dp_matrix_from_curves(sweep.at(t), config.delta,
                                                  grid)
        name = f"heatmap_epoch_{t}.csv"
        _write_lines(out / name, "n,i,eps",
                     _heatmap_blocks(matrix, owner, ~defined))
        written.append(name)
    # After the heatmaps: their text sets the run's peak memory, which
    # the envelope pass would otherwise raise.
    set_rows = accountant.pwp_rows_from_curves(
        sweep.over(range(1, T + 1)), structure, config.threat_model,
        config.delta, grid)
    workers = np.flatnonzero(defined.any(axis=1)[owner])  # observed workers
    _write_lines(out / "pwp.csv", header,
                 _pwp_blocks(range(1, T + 1), workers, owner[workers],
                             set_rows))
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
        trajectory = run_training(structure, hp, train_set, partition)
        texts = _float_texts(epoch_metrics(structure, trajectory, train_set,
                                           partition, test_set)).tolist()
        _write_lines(out / "metrics.csv", "epoch,avg_train_loss,avg_test_acc",
                     [f"{t},{loss},{acc}" for t, (loss, acc) in enumerate(texts, 1)])
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
