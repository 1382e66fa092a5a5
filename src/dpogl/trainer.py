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
    and >= 0, and each group with ``sigma > 0`` must have a finite noise std
    sqrt(W) * clip * sigma (W is ``mechanism_window``).  ``clip=inf``
    together with ``sigma=0`` is the documented noise-free diagnostic mode;
    the accountant refuses such configurations, the trainer runs them.
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
        root_w = math.sqrt(self.mechanism_window)  # Python floats: no numpy warning
        for m, (c, s) in enumerate(zip(self.clip.tolist(), self.sigma.tolist())):
            if s > 0 and not math.isfinite(root_w * (c * s)):
                raise ValueError(f"noise std sqrt(W) * clip * sigma of group {m} must be finite")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        _check_threat_model(self.threat_model)
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


def _check_threat_model(threat_model: str) -> None:
    if threat_model not in THREAT_MODELS:
        raise ValueError(f"threat_model must be one of {THREAT_MODELS}")


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


def _batch_plan(shard: np.ndarray, hp: HyperParams, streams: Iterator,
                aranges: dict[int, np.ndarray]) -> np.ndarray:
    """(L, b) sample ids of one worker's local batches, b = min(B, shard size).

    Batches are drawn uniformly without replacement from the next of
    ``streams``, the job's (group, epoch, worker) stream as ``_streams`` keys
    it in bulk, reshuffling whenever fewer than a full batch remains: one
    ``permuted`` call shuffles a copy of ceil(L / (n // b)) rows of 0..n-1,
    which ``aranges``, the run's cache, keeps read-only by shard size n.  An
    empty shard gives an (L, 0) plan and takes no stream.
    """
    L, n = hp.local_iterations, len(shard)
    if n == 0:
        return np.empty((L, 0), dtype=np.int64)
    b = min(hp.batch_size, n)
    per_shuffle = n // b
    rows = aranges.get(n)
    if rows is None:
        rows = aranges[n] = np.arange(n)[None].repeat(-(-L // per_shuffle), 0)
        rows.flags.writeable = False
    perms = next(streams).permuted(rows, axis=1)
    return shard[perms[:, :per_shuffle * b].reshape(-1, b)[:L]]


def local_train(starts: np.ndarray, plans: list[np.ndarray], design: np.ndarray,
                labels: np.ndarray, num_classes: int, learning_rate: float
                ) -> np.ndarray:
    """Mini-batch SGD from each row of ``starts``, all jobs at once.

    ``plans[j]`` holds job j's (L, b) sample ids into ``design`` (features
    with the bias column) and ``labels``; a job with an empty plan keeps its
    start.  The other jobs are padded to the widest by id -1, an appended
    zero row of label -1, and each local iteration is one ``models.gradient``
    over all of them, bit-identical to each job alone; the labels' arrays
    (``models.targets``) are built once for all L steps.
    """
    out = starts.copy()
    design, labels = np.vstack([design, np.zeros(design.shape[1])]), np.append(labels, -1)
    widths = np.array([plan.shape[1] for plan in plans])
    jobs = np.flatnonzero(widths)
    if not len(jobs):
        return out
    steps = np.full((len(plans[0]), len(jobs), widths.max()), -1)
    for k, j in enumerate(jobs):
        steps[:, k, :widths[j]] = plans[j]
    x = out[jobs]
    for step, *batch in zip(steps, *models.targets(labels[steps], num_classes)):
        x -= learning_rate * models.gradient(x, design[step], *batch)
    out[jobs] = x
    return out


def epoch_metrics(structure: GroupStructure, trajectory: np.ndarray, train: Dataset,
                  partition: list[np.ndarray], test: Dataset | None = None
                  ) -> np.ndarray:
    """(T, 2) average train loss and test accuracy of the personalised models
    after each epoch, from the (T + 1, M, v) ``trajectory`` of ``run_training``.

    The accuracy column is NaN when ``test`` is None or has no rows, the loss
    column when no worker holds a row.  One pass per group set scores its
    models of all T epochs at once: one product over the rows of its shards
    of size >= 2, one stacked ``models.loss`` over its 1-row shards (1-row
    products, as each alone) and one ``models.accuracy``.  Each shard's mean
    and both worker averages are then taken for all epochs over C-contiguous
    last axes, in worker order: bit for bit the per-epoch, per-worker values.
    Memory grows with T times the train and test rows.
    """
    thetas, design = trajectory[1:], models.augment(train.features)
    T, C, labels = len(thetas), train.num_classes, train.labels
    if not T:
        return np.empty((0, 2))
    owner = structure.group_set_of_worker
    sizes = np.array([len(shard) for shard in partition])
    shards = [(workers, np.array([partition[n] for n in workers]))
              for workers in _buckets(sizes)]
    row_set = np.full(len(design), -1)  # the group set of each row of a shard of size >= 2
    lone = np.full(len(sizes), -1)  # the row of each worker whose shard is one row
    for workers, ids in shards:
        if ids.shape[1] > 1:
            row_set[ids] = owner[workers][:, None]
        else:
            lone[workers] = ids[:, 0]
    test_xy = ((models.augment(test.features), test.labels)
               if test is not None and len(test) else None)
    logp = np.empty((T, len(design)))  # each train row's log-likelihood
    losses = np.empty((T, len(sizes)))
    accs = np.empty((T, len(structure.group_sets)))
    for s, groups in enumerate(structure.group_sets):
        sm = thetas.take(groups, axis=1).mean(axis=-2)
        rows = np.flatnonzero(row_set == s)
        if len(rows):
            logits = design[rows] @ sm.reshape(T * C, -1).T
            lp = models._log_softmax(logits.reshape(len(rows), T, C))
            logp[:, rows] = lp[np.arange(len(rows)), :, labels[rows]].T
        workers = np.flatnonzero((lone >= 0) & (owner == s))
        if len(workers):
            ids = lone[workers, None]
            losses[:, workers] = models.loss(sm[:, None], design[ids], labels[ids], C)
        if test_xy is not None:
            accs[:, s] = models.accuracy(sm, *test_xy, C)
    for workers, ids in shards:
        if ids.shape[1] > 1:
            losses[:, workers] = -logp.take(ids, axis=1).mean(axis=-1)
    nonempty = np.flatnonzero(sizes)
    loss = losses.take(nonempty, axis=1).mean(axis=-1) if len(nonempty) else [math.nan] * T
    acc = accs.take(owner, axis=1).mean(axis=-1) if test_xy is not None else [math.nan] * T
    return np.column_stack([loss, acc])


def _group_keys(num_groups: int, epochs: range) -> np.ndarray:
    """(group, epoch) stream subkeys, epoch-major: every group at each epoch."""
    return np.stack(np.meshgrid(np.arange(num_groups), epochs), axis=-1).reshape(-1, 2)


def run_training(structure: GroupStructure, hp: HyperParams, train: Dataset,
                 partition: list[np.ndarray]) -> np.ndarray:
    """Simulate T epochs and return the (T + 1, M, v) trajectory: row 0 holds
    the zero init and row t the models after epoch t.  Deterministic given
    (structure, hp, data, seed); ``epoch_metrics`` scores it.

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
    aranges: dict[int, np.ndarray] = {}
    trajectory = np.zeros((hp.epochs + 1, M, v))
    theta = trajectory[0]
    for t, (groups, workers, mask) in enumerate(jobs, 1):
        if (t - 1) % W == 0:
            anchor, accum = theta, np.zeros((len(workers), v))
        if is_intergroup_epoch(t, hp.inter_group_period):
            starts = personalize(structure, theta)[structure.group_set_of_worker[workers]]
        else:
            starts = theta[groups]
        plans = [_batch_plan(partition[n], hp, batch, aranges) for n in workers]
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
        trajectory[t] = theta
    return trajectory
