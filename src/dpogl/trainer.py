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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import models
from .data import Dataset
from .rng import _streams
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

    ``learning_rate`` must be finite and > 0, each group's ``sigma`` finite
    and >= 0.  ``clip=inf`` together with ``sigma=0`` is the documented
    noise-free diagnostic mode; the accountant refuses such configurations,
    the trainer runs them.
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("clip", "sigma", "participation"):
            object.__setattr__(self, name, _per_group(getattr(self, name), self.num_groups, name))
        p = self.participation
        for name, ok, rule in (
                ("clip", self.clip > 0, "be > 0"),
                ("sigma", np.isfinite(self.sigma) & (self.sigma >= 0), "be finite and >= 0"),
                ("participation", (p > 0) & (p <= 1), "lie in (0, 1]")):
            bad = np.flatnonzero(~ok)
            if bad.size:
                raise ValueError(f"{name} of group {bad[0]} must {rule}")
        if np.any(np.isinf(self.clip) & (self.sigma > 0)):
            raise ValueError("clip=inf with sigma>0 leaves the noise scale undefined")
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


def _check_group_count(structure: GroupStructure, hp: HyperParams) -> None:
    if hp.num_groups != structure.num_groups:
        raise ValueError("hyper-parameters were built for a different group count")


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


def clip_update(delta: np.ndarray, clip_norm: float | np.ndarray) -> np.ndarray:
    """Scale each row of ``delta`` (its last axis) down to norm ``clip_norm``,
    a scalar or, for a (k, v) ``delta``, a (k, 1) column of one norm per row.

    Each row equals ``row / max(1.0, norm / c)`` with its own c bit for bit:
    the 1 x 1 ``row @ row`` is ``np.linalg.norm``'s ``ddot``; ``fmax`` ignores NaN.
    """
    if not np.all(np.asarray(clip_norm) > 0):
        raise ValueError("clip_norm must be positive")
    norm = np.sqrt(delta[..., None, :] @ delta[..., :, None])[..., 0]
    return delta / np.fmax(1.0, norm / clip_norm)


def poisson_sample(members: tuple[int, ...], rate: float,
                   rng: np.random.Generator) -> list[int]:
    """Each member joins independently with probability ``rate``."""
    mask = rng.random(len(members)) < rate
    return [w for w, hit in zip(members, mask) if hit]


def mechanism_noise(rng: np.random.Generator, dim: int, std: float) -> np.ndarray:
    """One mechanism's Gaussian noise of std ``std``, drawn from ``rng``."""
    if std == 0.0:
        return np.zeros(dim)
    return std * rng.standard_normal(dim)


def _batch_plan(shard: np.ndarray, hp: HyperParams, streams: Iterator) -> np.ndarray:
    """(L, b) sample ids of one worker's local batches, b = min(B, shard size).

    Batches are drawn uniformly without replacement from the next of
    ``streams``, the job's (group, epoch, worker) stream as ``_streams`` keys
    it in bulk, reshuffling whenever fewer than a full batch remains: one
    ``permuted`` call shuffles ceil(L / (n // b)) rows.  An empty shard gives
    an (L, 0) plan and takes no stream.
    """
    L, n = hp.local_iterations, len(shard)
    if n == 0:
        return np.empty((L, 0), dtype=np.int64)
    b = min(hp.batch_size, n)
    per_shuffle = n // b
    perms = next(streams).permuted(np.arange(n)[None].repeat(-(-L // per_shuffle), 0), axis=1)
    return shard[perms[:, :per_shuffle * b].reshape(-1, b)[:L]]


def local_train(starts: np.ndarray, plans: list[np.ndarray], design: np.ndarray,
                labels: np.ndarray, num_classes: int, learning_rate: float
                ) -> np.ndarray:
    """Mini-batch SGD from each row of ``starts``, all jobs at once.

    ``plans[j]`` holds job j's (L, b) sample ids into ``design`` (features
    with the bias column) and ``labels``; a job with an empty plan keeps its
    start.  Jobs with b = 1 (gemv) share one bucket; the rest share one padded
    by id -1, an appended zero row of label -1 (``models.gradient``).  Each
    local iteration is one gradient per bucket, bit-identical to each job alone.
    """
    out = starts.copy()
    design, labels = np.vstack([design, np.zeros(design.shape[1])]), np.append(labels, -1)
    widths = np.array([plan.shape[1] for plan in plans])
    for jobs in filter(len, (np.flatnonzero(widths == 1), np.flatnonzero(widths > 1))):
        steps = np.full((len(plans[0]), len(jobs), widths[jobs].max()), -1)
        for k, j in enumerate(jobs):
            steps[:, k, :widths[j]] = plans[j]
        x = out[jobs]
        for step in steps:  # (k, b) ids
            x -= learning_rate * models.gradient(x, design[step], labels[step], num_classes)
        out[jobs] = x
    return out


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
                   train: tuple[np.ndarray, np.ndarray], row_blocks: np.ndarray,
                   shards: list, test: tuple[np.ndarray, np.ndarray] | None,
                   num_classes: int, epoch: int) -> EpochMetrics:
    """Average train loss and test accuracy of the personalised models.

    ``train``, ``test``: (design, labels); ``shards``: (workers, (k, size)
    sample ids) per nonempty shard size; ``row_blocks[r]``: r * sets + the
    group set of row r's worker.  One product scores every set on every row,
    so shards of size >= 2 get ``models.loss`` bit for bit (see ``models``);
    size 1 keeps that call.  Accuracy: once per set; both in worker order.
    """
    set_models = personalize(structure, theta)
    owner = structure.group_set_of_worker
    design, labels = train
    blocks = (design @ set_models.reshape(-1, design.shape[1]).T).reshape(-1, num_classes)
    logp = models._log_softmax(blocks[row_blocks])[np.arange(len(design)), labels]
    losses = {}
    for workers, ids in shards:
        losses.update(zip(workers, -logp[ids].mean(axis=-1) if ids.shape[1] > 1 else
                          models.loss(set_models[owner[workers]], design[ids],
                                      labels[ids], num_classes)))
    accs = [] if test is None else models.accuracy(set_models, *test, num_classes)[owner]
    return EpochMetrics(
        epoch=epoch,
        avg_train_loss=(float(np.mean([losses[n] for n in sorted(losses)]))
                        if losses else float("nan")),
        avg_test_acc=float(np.mean(accs)) if len(accs) else float("nan"),
    )


def _group_keys(num_groups: int, epochs: range) -> np.ndarray:
    """(group, epoch) stream subkeys, epoch-major: every group at each epoch."""
    return np.stack(np.meshgrid(np.arange(num_groups), epochs), axis=-1).reshape(-1, 2)


def run_training(structure: GroupStructure, hp: HyperParams, train: Dataset,
                 partition: list[np.ndarray], test: Dataset | None = None
                 ) -> TrainingResult:
    """Simulate T epochs; deterministic given (structure, hp, data, seed).

    Workers are sampled per group at window starts and stay fixed for the
    window; no draw depends on the models, so each purpose's streams are
    keyed once per run and every window is sampled before epoch 1.  Each
    epoch initialises every sampled (group, worker) job and trains all of
    them in one ``local_train``; then one pass over the epoch's rows applies
    every group's raw update, or at the window's last epoch its mechanism on
    top of the window-start model: each row clipped at its group's sqrt(W) c,
    each group's rows summed in worker order from +0.0 (zero padding leaves
    such a sum unchanged), plus one noise draw of std sqrt(W) c sigma.
    """
    _check_group_count(structure, hp)
    if len(partition) != structure.num_workers:
        raise ValueError("partition must assign a shard to every worker")
    if sum(map(len, partition)) > len(set().union(*map(set, partition))):
        raise ValueError("partition shards must be disjoint")
    M, W = hp.num_groups, hp.mechanism_window
    v = models.param_dim(train.features.shape[1], train.num_classes)
    design = models.augment(train.features)
    shards = [(workers, np.array([partition[n] for n in workers]))
              for workers in _buckets([len(shard) for shard in partition])]
    row_blocks = np.arange(len(design)) * len(structure.group_sets)
    for workers, ids in shards:
        row_blocks[ids] += structure.group_set_of_worker[workers][:, None]
    test_xy = ((models.augment(test.features), test.labels)
               if test is not None and len(test) else None)
    sampling = _streams(hp.seed, "sampling", _group_keys(M, range(1, hp.epochs + 1, W)))
    windows = []  # each job's group and worker, group-major, and where the padded sums put it
    for _ in range(1, hp.epochs + 1, W):
        picks = [poisson_sample(members, float(hp.participation[m]), next(sampling))
                 for m, members in enumerate(structure.members_of_group)]
        counts = np.array([len(workers) for workers in picks])
        windows.append((np.repeat(np.arange(M), counts),
                        np.array([n for workers in picks for n in workers], np.int64),
                        np.arange(counts.max()) < counts[:, None]))
    jobs = [windows[(t - 1) // W] for t in range(1, hp.epochs + 1)]
    nonempty = np.array([len(shard) > 0 for shard in partition])
    batch = _streams(hp.seed, "batch", np.concatenate([np.empty((0, 3), np.int64)] + [
        np.column_stack([groups, np.full_like(groups, t), workers])[nonempty[workers]]
        for t, (groups, workers, _) in enumerate(jobs, 1)]))
    noise = _streams(hp.seed, "noise", _group_keys(M, range(W, hp.epochs + 1, W)))
    root_w = math.sqrt(W)
    stds = [root_w * float(c * s) if s > 0 else 0.0 for c, s in zip(hp.clip, hp.sigma)]
    scale = (hp.participation * [len(members) for members in structure.members_of_group])[:, None]
    theta = np.zeros((M, v))
    trajectory = [theta]
    metrics: list[EpochMetrics] = []
    for t, (groups, workers, mask) in enumerate(jobs, 1):
        if (t - 1) % W == 0:
            anchor, accum = theta, np.zeros((len(workers), v))
        if is_intergroup_epoch(t, hp.inter_group_period):
            starts = personalize(structure, theta)[structure.group_set_of_worker[workers]]
        else:
            starts = theta[groups]
        plans = [_batch_plan(partition[n], hp, batch) for n in workers]
        deltas = local_train(starts, plans, design, train.labels, train.num_classes,
                             hp.learning_rate) - starts
        accum += deltas
        padded = np.zeros((*mask.shape, v))
        if t % W:  # mid-window: raw update
            padded[mask] = deltas
            theta = theta + np.add.reduce(padded, axis=1, initial=0.0) / scale
        else:  # window complete: clipped, noised mechanism
            padded[mask] = clip_update(accum, root_w * hp.clip[groups, None])
            sums = np.add.reduce(padded, axis=1, initial=0.0) + np.array(
                [mechanism_noise(next(noise), v, std) for std in stds])
            theta = anchor + sums / scale
        trajectory.append(theta)
        metrics.append(_epoch_metrics(structure, theta, (design, train.labels), row_blocks,
                                      shards, test_xy, train.num_classes, t))
    return TrainingResult(trajectory=trajectory, metrics=metrics)
