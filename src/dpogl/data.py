"""Datasets: synthetic Gaussian blobs, CSV ingestion, split and partition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import derive_stream


@dataclass(frozen=True, eq=False)
class Dataset:
    features: np.ndarray  # (n_samples, dims) float64
    labels: np.ndarray    # (n_samples,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be 1-D and aligned with features")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)


def make_synthetic(num_classes: int, dims: int, per_class: int, seed: int) -> Dataset:
    """Isotropic unit-variance Gaussian blobs.

    Class means are drawn once from 3 * N(0, I) under the seeded stream, so
    the dataset is a pure function of (num_classes, dims, per_class, seed).
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    rng = derive_stream(seed, "data")
    means = 3.0 * rng.standard_normal((num_classes, dims))
    feats = np.vstack([means[c] + rng.standard_normal((per_class, dims))
                       for c in range(num_classes)])
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(feats, labels.astype(np.int64), num_classes)


def load_csv(path: str, num_classes: int | None = None) -> Dataset:
    """Read rows of ``f1,...,fu,label`` into a Dataset; features must be finite."""
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    if raw.shape[1] < 2:
        raise ValueError("CSV rows need at least one feature column plus a label")
    feats = raw[:, :-1].astype(np.float64)
    if not np.all(np.isfinite(feats)):
        raise ValueError("features must be finite (no nan or inf)")
    labels_f = raw[:, -1]
    labels = labels_f.astype(np.int64)
    if not np.array_equal(labels_f, labels):
        raise ValueError("label column must hold integers")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    return Dataset(feats, labels, num_classes)


def stratified_split(dataset: Dataset, test_fraction: float, seed: int
                     ) -> tuple[Dataset, Dataset]:
    """Deterministic per-class split; floor(n_c * test_fraction) held out."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must be in [0, 1)")
    rng = derive_stream(seed, "split")
    train_idx, test_idx = [], []
    for c in range(dataset.num_classes):
        idx = np.nonzero(dataset.labels == c)[0]
        idx = idx[rng.permutation(len(idx))]
        n_test = int(len(idx) * test_fraction)
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return dataset.subset(train), dataset.subset(test)


def dirichlet_partition(dataset: Dataset, num_workers: int, beta: float,
                        seed: int) -> list[np.ndarray]:
    """Split sample indices over workers, one Dirichlet draw per class.

    For each class c a proportion vector p ~ Dirichlet(beta * 1_N) is drawn
    and the class's samples are divided by largest-remainder rounding, so the
    result is an exact partition and per-class counts are conserved.  Smaller
    beta means more label skew across workers.
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    rng = derive_stream(seed, "partition")
    shards: list[list[np.ndarray]] = [[] for _ in range(num_workers)]
    for c in range(dataset.num_classes):
        idx = np.nonzero(dataset.labels == c)[0]
        if len(idx) == 0:
            continue
        idx = idx[rng.permutation(len(idx))]
        props = rng.dirichlet(np.full(num_workers, beta))
        target = props * len(idx)
        counts = np.floor(target).astype(int)
        remainder = len(idx) - counts.sum()
        if remainder:
            # hand leftover samples to the largest fractional parts
            order = np.argsort(-(target - counts), kind="stable")
            counts[order[:remainder]] += 1
        pos = 0
        for w in range(num_workers):
            shards[w].append(idx[pos:pos + counts[w]])
            pos += counts[w]
    return [np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=int)
            for parts in shards]


def worker_labels(dataset: Dataset, partition: list[np.ndarray]) -> dict[int, set[int]]:
    """Labels present in each worker's shard (used by the LB structure)."""
    return {w: set(np.unique(dataset.labels[idx]).tolist())
            for w, idx in enumerate(partition)}
