"""Epoch simulator for DP-OGL and DP-OGL+.

Workers hold disjoint data shards and belong to one or more groups; each
group keeps a model.  Epochs with ``(t - 1) % S == 0`` are inter-group
epochs: a worker initializes local training from the mean of the models of
all groups it belongs to, otherwise from its group's model.

Both algorithms run one epoch step parameterised by the mechanism window W
(``HyperParams.mechanism_window``).  Workers are sampled once per W-epoch
window, apply raw (unclipped, noise-free) updates inside it, and a single
clipped-and-noised mechanism over the accumulated per-worker updates fires
at the window's last epoch, replayed on top of the window-start model.
``dpogl`` is W = 1 (one mechanism per epoch); ``dpogl_plus`` is W = S.
Each epoch trains every sampled (group, worker) in one batched SGD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        return self.inter_group_period if self.algorithm == "dpogl_plus" else 1


def is_intergroup_epoch(t: int, period: int) -> bool:
    return (t - 1) % period == 0


def _buckets(lengths) -> list[list[int]]:
    """Indices of the nonzero ``lengths``, grouped by length."""
    out: dict[int, list[int]] = {}
    for j, size in enumerate(lengths):
        if size:
            out.setdefault(size, []).append(j)
    return list(out.values())


def personalize(structure: GroupStructure, theta: np.ndarray) -> np.ndarray:
    """Personalised model of each of ``structure.group_sets``: (sets, v).

    A set's model is the mean of its groups' models, with one stacked mean
    per set size.  Worker n's model is row ``structure.group_set_of_worker[n]``.
    """
    sets = structure.group_sets
    out = np.empty((len(sets), theta.shape[1]))
    for ids in _buckets([len(groups) for groups in sets]):
        out[ids] = theta[[sets[k] for k in ids]].mean(axis=-2)
    return out


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


def _batch_plan(shard: np.ndarray, hp: HyperParams, group: int, epoch: int,
                worker: int) -> np.ndarray:
    """(L, b) sample ids of one worker's local batches, b = min(B, shard size).

    Batches are drawn uniformly without replacement from the worker's own
    (group, epoch, worker) stream, reshuffling whenever fewer than a full
    batch remains.  An empty shard gives an (L, 0) plan and draws nothing.
    """
    L, n = hp.local_iterations, len(shard)
    if n == 0:
        return np.empty((L, 0), dtype=np.int64)
    b = min(hp.batch_size, n)
    per_shuffle = n // b
    rng = derive_stream(hp.seed, "batch", group, epoch, worker)
    perms = [rng.permutation(n)[:per_shuffle * b] for _ in range(-(-L // per_shuffle))]
    return shard[np.concatenate(perms).reshape(-1, b)[:L]]


def local_train(starts: np.ndarray, plans: list[np.ndarray], design: np.ndarray,
                labels: np.ndarray, num_classes: int, learning_rate: float
                ) -> np.ndarray:
    """Mini-batch SGD from each row of ``starts``, all jobs at once.

    ``plans[j]`` holds job j's (L, b) sample ids into ``design`` (features
    with the bias column) and ``labels``; a job with an empty plan keeps its
    start.  Jobs are bucketed by batch length b and never padded, because
    padding would change the batch mean.  Each local iteration is one
    batched gradient per bucket, bit-identical to stepping each job alone.
    """
    out = starts.copy()
    for jobs in _buckets([plan.shape[1] for plan in plans]):
        x = out[jobs]
        for step in np.stack([plans[j] for j in jobs], axis=1):  # (k, b) ids
            x -= learning_rate * models.gradient(x, design[step], labels[step], num_classes)
        out[jobs] = x
    return out


def _mechanism(hp: HyperParams, accum: np.ndarray, group: int, epoch: int) -> np.ndarray:
    """Sum of the window's per-worker updates, each clipped at sqrt(W) c, in
    worker order, plus one noise draw of std sqrt(W) c sigma."""
    root_w = math.sqrt(hp.mechanism_window)
    clipped = sum((clip_update(row, root_w * float(hp.clip[group])) for row in accum),
                  np.zeros(accum.shape[1]))
    std = root_w * float(hp.clip[group] * hp.sigma[group]) if hp.sigma[group] > 0 else 0.0
    return clipped + mechanism_noise(hp.seed, group, epoch, accum.shape[1], std)


@dataclass
class EpochMetrics:
    epoch: int
    avg_train_loss: float
    avg_test_acc: float


@dataclass
class TrainingResult:
    trajectory: list[np.ndarray]      # models before epoch 1, then after each epoch
    metrics: list[EpochMetrics]


def _epoch_metrics(structure: GroupStructure, theta: np.ndarray,
                   train: tuple[np.ndarray, np.ndarray], shards: list,
                   test: tuple[np.ndarray, np.ndarray] | None, num_classes: int,
                   epoch: int) -> EpochMetrics:
    """Average train loss and test accuracy of the personalised models.

    ``train`` and ``test`` are (design, labels) pairs; ``shards`` lists
    (workers, (k, size) sample ids) per nonempty shard size.  Accuracy is
    scored once per distinct group set and loss once per shard size; both
    are averaged in worker order, as a per-worker loop would.
    """
    set_models = personalize(structure, theta)
    owner = structure.group_set_of_worker
    design, labels = train
    losses = {}
    for workers, ids in shards:
        losses.update(zip(workers, models.loss(set_models[owner[workers]], design[ids],
                                               labels[ids], num_classes)))
    accs = [] if test is None else models.accuracy(set_models, *test, num_classes)[owner]
    return EpochMetrics(
        epoch=epoch,
        avg_train_loss=(float(np.mean([losses[n] for n in sorted(losses)]))
                        if losses else float("nan")),
        avg_test_acc=float(np.mean(accs)) if len(accs) else float("nan"),
    )


def run_training(structure: GroupStructure, hp: HyperParams, train: Dataset,
                 partition: list[np.ndarray], test: Dataset | None = None
                 ) -> TrainingResult:
    """Simulate T epochs; deterministic given (structure, hp, data, seed).

    Workers are sampled per group at window starts and stay fixed for the
    window.  Each epoch initialises every sampled (group, worker) job and
    trains all of them in one ``local_train``; each group then applies its
    raw update, or at the window's last epoch its mechanism on top of the
    window-start model, summing deltas in sampled-worker order.
    """
    if hp.num_groups != structure.num_groups:
        raise ValueError("hyper-parameters were built for a different group count")
    if len(partition) != structure.num_workers:
        raise ValueError("partition must assign a shard to every worker")
    W = hp.mechanism_window
    v = models.param_dim(train.features.shape[1], train.num_classes)
    design = models.augment(train.features)
    shards = [(workers, np.array([partition[n] for n in workers]))
              for workers in _buckets([len(shard) for shard in partition])]
    test_xy = ((models.augment(test.features), test.labels)
               if test is not None and len(test) else None)
    theta = np.zeros((structure.num_groups, v))
    trajectory = [theta.copy()]
    metrics: list[EpochMetrics] = []
    for t in range(1, hp.epochs + 1):
        if (t - 1) % W == 0:  # window start
            anchor = theta
            sampled = [poisson_sample(members, float(hp.participation[m]),
                                      derive_stream(hp.seed, "sampling", m, t))
                       for m, members in enumerate(structure.members_of_group)]
            accum = [np.zeros((len(workers), v)) for workers in sampled]
        jobs = [(m, n) for m, workers in enumerate(sampled) for n in workers]
        if is_intergroup_epoch(t, hp.inter_group_period):
            owner = structure.group_set_of_worker[[n for _, n in jobs]]
            starts = personalize(structure, theta)[owner]
        else:
            starts = theta[[m for m, _ in jobs]]
        plans = [_batch_plan(partition[n], hp, m, t, n) for m, n in jobs]
        deltas = local_train(starts, plans, design, train.labels, train.num_classes,
                             hp.learning_rate) - starts
        new_theta = np.empty_like(theta)
        bounds = np.cumsum([len(workers) for workers in sampled])[:-1]
        for m, rows in enumerate(np.split(deltas, bounds)):
            accum[m] += rows
            scale = float(hp.participation[m]) * len(structure.members_of_group[m])
            if t % W == 0:  # window complete: clipped, noised mechanism
                new_theta[m] = anchor[m] + _mechanism(hp, accum[m], m, t) / scale
            else:
                new_theta[m] = theta[m] + sum(rows, np.zeros(v)) / scale
        theta = new_theta
        trajectory.append(theta.copy())
        metrics.append(_epoch_metrics(structure, theta, (design, train.labels), shards,
                                      test_xy, train.num_classes, t))
    return TrainingResult(trajectory=trajectory, metrics=metrics)
