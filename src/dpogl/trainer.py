"""Epoch simulator for DP-OGL and DP-OGL+.

Workers hold disjoint data shards and belong to one or more groups; each
group keeps a model.  Epochs with ``(t - 1) % S == 0`` are inter-group
epochs: a worker initializes local training from the mean of the models of
all groups it belongs to, otherwise from its group's model.

Both algorithms run one round function parameterised by the mechanism
window W (``HyperParams.mechanism_window``).  Workers are sampled once per
W-epoch window, apply raw (unclipped, noise-free) updates inside it, and a
single clipped-and-noised mechanism over the accumulated per-worker updates
fires at the window's last epoch, replayed on top of the window-start model.
``dpogl`` is W = 1 (one mechanism per epoch); ``dpogl_plus`` is W = S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .data import Dataset
from .rng import derive_stream
from .topology import GroupStructure

ALGORITHMS = ("dpogl", "dpogl_plus")
THREAT_MODELS = ("tm1", "tm2")


def _per_group(value, num_groups: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(num_groups, float(arr))
    if arr.shape != (num_groups,):
        raise ValueError(f"{name} must be a scalar or a length-{num_groups} sequence")
    return arr


@dataclass(frozen=True, eq=False)
class HyperParams:
    """Validated run parameters; per-group fields broadcast from scalars.

    ``clip=inf`` together with ``sigma=0`` is the documented noise-free
    diagnostic mode; the accountant refuses such configurations, the trainer
    runs them.
    """

    num_groups: int
    epochs: int                # T
    inter_group_period: int    # S
    local_iterations: int      # L
    learning_rate: float       # eta
    batch_size: int
    clip: np.ndarray           # (M,)
    sigma: np.ndarray          # (M,)
    participation: np.ndarray  # (M,)
    algorithm: str = "dpogl"
    threat_model: str = "tm1"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.inter_group_period < 1:
            raise ValueError("inter_group_period must be >= 1")
        if self.local_iterations < 1:
            raise ValueError("local_iterations must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("clip", "sigma", "participation"):
            object.__setattr__(self, name, _per_group(getattr(self, name), self.num_groups, name))
        if not np.all(self.clip > 0):
            raise ValueError("clip norms must be positive")
        if not np.all(self.sigma >= 0):
            raise ValueError("noise multipliers must be nonnegative")
        if np.any(np.isinf(self.clip) & (self.sigma > 0)):
            raise ValueError("clip=inf with sigma>0 leaves the noise scale undefined")
        if not np.all((self.participation > 0) & (self.participation <= 1)):
            raise ValueError("participation rates must lie in (0, 1]")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.threat_model not in THREAT_MODELS:
            raise ValueError(f"threat_model must be one of {THREAT_MODELS}")
        if self.algorithm == "dpogl_plus" and self.threat_model == "tm1":
            raise ValueError("dpogl_plus has no in-group privacy bound; use threat_model='tm2'")
        if 0 < self.epochs < self.mechanism_window:
            raise ValueError("dpogl_plus needs epochs >= inter_group_period so that "
                             "at least one mechanism epoch occurs")

    @property
    def mechanism_window(self) -> int:
        """W, the epochs covered by one mechanism: 1 for dpogl, S for dpogl_plus."""
        return mechanism_window(self.algorithm, self.inter_group_period)


def mechanism_window(algorithm: str, period: int) -> int:
    """Window length W of ``algorithm`` at inter-group period ``period``."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    return period if algorithm == "dpogl_plus" else 1


def is_intergroup_epoch(t: int, period: int) -> bool:
    return (t - 1) % period == 0


def worker_merge(model_stack: np.ndarray) -> np.ndarray:
    """Mean of a (k, v) stack of group models."""
    stack = np.asarray(model_stack, dtype=float)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise ValueError("expected a nonempty (k, v) stack of models")
    return stack.mean(axis=0)


def clip_update(delta: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``delta`` down to norm ``clip_norm`` when it exceeds it."""
    if not clip_norm > 0:
        raise ValueError("clip_norm must be positive")
    norm = float(np.linalg.norm(delta))
    return delta / max(1.0, norm / clip_norm)


def poisson_sample(members: tuple[int, ...], rate: float,
                   rng: np.random.Generator) -> list[int]:
    """Each member joins independently with probability ``rate``."""
    mask = rng.random(len(members)) < rate
    return [w for w, hit in zip(members, mask) if hit]


def mechanism_noise(seed: int, group: int, epoch: int, dim: int, std: float) -> np.ndarray:
    if std == 0.0:
        return np.zeros(dim)
    return std * derive_stream(seed, "noise", group, epoch).standard_normal(dim)


def local_train(start: np.ndarray, features: np.ndarray, labels: np.ndarray,
                num_classes: int, hp: HyperParams,
                rng: np.random.Generator) -> np.ndarray:
    """L mini-batch SGD steps from ``start``; empty shards return it unchanged.

    Batches are drawn uniformly without replacement, reshuffling whenever
    fewer than a full batch remains.
    """
    n = len(labels)
    x = start.copy()
    if n == 0:
        return x
    batch = min(hp.batch_size, n)
    perm = np.empty(0, dtype=int)
    pos = n  # force an initial shuffle
    for _ in range(hp.local_iterations):
        if pos + batch > n:
            perm = rng.permutation(n)
            pos = 0
        take = perm[pos:pos + batch]
        pos += batch
        x -= hp.learning_rate * models.gradient(x, features[take], labels[take], num_classes)
    return x


@dataclass
class EpochMetrics:
    epoch: int
    avg_train_loss: float
    avg_test_acc: float


@dataclass
class TrainingResult:
    final_models: np.ndarray          # (M, v), the models after the last epoch
    trajectory: list[np.ndarray]      # models before epoch 1, then after each epoch
    metrics: list[EpochMetrics]


def personalize(structure: GroupStructure, theta: np.ndarray, worker: int) -> np.ndarray:
    return worker_merge(theta[list(structure.groups_of_worker[worker])])


def _worker_init(structure: GroupStructure, snapshot: np.ndarray, worker: int,
                 group: int, intergroup: bool) -> np.ndarray:
    if intergroup:
        return personalize(structure, snapshot, worker)
    return snapshot[group].copy()


@dataclass
class WindowState:
    """Per-group bookkeeping across one mechanism window."""

    anchor: np.ndarray | None = None         # model at the window-start epoch
    sampled: list[int] = field(default_factory=list)
    accum: dict[int, np.ndarray] = field(default_factory=dict)


def group_round(structure: GroupStructure, hp: HyperParams, train: Dataset,
                partition: list[np.ndarray], snapshot: np.ndarray,
                state: WindowState, group: int, epoch: int) -> np.ndarray:
    """One epoch for one group; mutates ``state``, returns the next model.

    Workers are sampled only at window starts and stay fixed for the window;
    non-sampled workers are inactive for the whole window.  The mechanism
    (per-worker clip at sqrt(W) c, noise std sqrt(W) c sigma) fires when the
    window completes (epoch % W == 0) and is applied on top of the
    window-start anchor model.
    """
    members = structure.members_of_group[group]
    W = hp.mechanism_window
    v = snapshot.shape[1]
    if (epoch - 1) % W == 0:  # window start
        state.anchor = snapshot[group].copy()
        state.sampled = poisson_sample(members, float(hp.participation[group]),
                                       derive_stream(hp.seed, "sampling", group, epoch))
        state.accum = {n: np.zeros(v) for n in state.sampled}
    intergroup = is_intergroup_epoch(epoch, hp.inter_group_period)
    raw_sum = np.zeros(v)
    for n in state.sampled:
        x0 = _worker_init(structure, snapshot, n, group, intergroup)
        idx = partition[n]
        xL = local_train(x0, train.features[idx], train.labels[idx], train.num_classes,
                         hp, derive_stream(hp.seed, "batch", group, epoch, n))
        delta = xL - x0
        state.accum[n] += delta
        raw_sum += delta
    scale = float(hp.participation[group]) * len(members)
    if epoch % W == 0:  # window complete: clipped, noised mechanism
        window_clip = math.sqrt(W) * float(hp.clip[group])
        delta_sum = np.zeros(v)
        for n in state.sampled:
            delta_sum += clip_update(state.accum[n], window_clip)
        std = (math.sqrt(W) * float(hp.clip[group] * hp.sigma[group])
               if hp.sigma[group] > 0 else 0.0)
        delta_sum += mechanism_noise(hp.seed, group, epoch, v, std)
        return state.anchor + delta_sum / scale
    return snapshot[group] + raw_sum / scale


def _epoch_metrics(structure: GroupStructure, theta: np.ndarray, train: Dataset,
                   partition: list[np.ndarray], test: Dataset | None,
                   epoch: int) -> EpochMetrics:
    losses, accs = [], []
    for n in range(structure.num_workers):
        model = personalize(structure, theta, n)
        idx = partition[n]
        if len(idx):
            losses.append(models.loss(model, train.features[idx], train.labels[idx],
                                      train.num_classes))
        if test is not None and len(test):
            accs.append(models.accuracy(model, test.features, test.labels,
                                        test.num_classes))
    return EpochMetrics(
        epoch=epoch,
        avg_train_loss=float(np.mean(losses)) if losses else float("nan"),
        avg_test_acc=float(np.mean(accs)) if accs else float("nan"),
    )


def run_training(structure: GroupStructure, hp: HyperParams, train: Dataset,
                 partition: list[np.ndarray], test: Dataset | None = None
                 ) -> TrainingResult:
    """Simulate T epochs; deterministic given (structure, hp, data, seed)."""
    if hp.num_groups != structure.num_groups:
        raise ValueError("hyper-parameters were built for a different group count")
    if len(partition) != structure.num_workers:
        raise ValueError("partition must assign a shard to every worker")
    v = models.param_dim(train.features.shape[1], train.num_classes)
    theta = np.zeros((structure.num_groups, v))
    trajectory = [theta.copy()]
    metrics: list[EpochMetrics] = []
    states = [WindowState() for _ in range(structure.num_groups)]
    for t in range(1, hp.epochs + 1):
        snapshot = theta.copy()
        new_theta = np.empty_like(theta)
        for m in range(structure.num_groups):
            new_theta[m] = group_round(structure, hp, train, partition, snapshot,
                                       states[m], m, t)
        theta = new_theta
        trajectory.append(theta.copy())
        metrics.append(_epoch_metrics(structure, theta, train, partition, test, t))
    return TrainingResult(final_models=theta, trajectory=trajectory, metrics=metrics)
