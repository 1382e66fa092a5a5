"""Multinomial logistic regression on flat parameter vectors, batched.

A model is a flat float64 vector of length (dims + 1) * num_classes, viewed
as a (num_classes, dims + 1) matrix whose last column is the bias.  The
functions take features that already carry the bias column (``augment``,
applied once per dataset) and broadcast over leading axes: a (k, v) stack
of models with (k, b, dims + 1) batches, or with one shared (b, dims + 1)
batch, gives k results, and the labels broadcast like the batches.  On
numpy's BLAS path a row of a product of two or more rows is bit-identical
whatever the other rows are; a 1-row product is a gemv, which can round
differently, so ``gradient`` keeps it for each model whose padded batch has
one real row.  A model whose logits hold a NaN, as a diverged model's do,
has no prediction: its ``accuracy`` is NaN.
"""

from __future__ import annotations

import numpy as np


def param_dim(dims: int, num_classes: int) -> int:
    return (dims + 1) * num_classes


def augment(features: np.ndarray) -> np.ndarray:
    """Append the bias column of ones: (..., dims) -> (..., dims + 1)."""
    return np.concatenate([features, np.ones(features.shape[:-1] + (1,))], axis=-1)


def _logits(params: np.ndarray, design: np.ndarray, num_classes: int) -> np.ndarray:
    W = params.reshape(params.shape[:-1] + (num_classes, -1))
    return design @ W.swapaxes(-1, -2)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last (class) axis.

    The shift is each row's ``argmax`` element, gathered from the flat
    array, not ``logits.max(axis=-1)``: numpy reduces a short last axis
    through its ufunc reduce machinery once per row, while ``argmax`` runs
    one arg loop over the whole array.  The result is bit for bit the
    max-shifted one.  ``argmax`` picks the first maximal element and counts
    NaN as maximal, so the shift has the max's value, NaN included.  It can
    differ only in the sign of a zero max that ties (``np.max`` of
    ``[+0, -0]`` is the last zero, ``argmax`` the first); then two entries
    give exp(±0) = 1, the log-sum is at least log 2 > 0, and ±0 - lse is
    the same -lse.
    """
    top = logits.argmax(axis=-1)
    top += np.arange(0, logits.size, logits.shape[-1]).reshape(top.shape)
    shifted = logits - logits.reshape(-1)[top][..., None]
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss(params: np.ndarray, design: np.ndarray, labels: np.ndarray,
         num_classes: int) -> np.ndarray:
    """Mean negative log-likelihood of each model on its batch."""
    logp = _log_softmax(_logits(params, design, num_classes))
    picks = np.broadcast_to(labels[..., None], logp.shape[:-1] + (1,))
    return -np.take_along_axis(logp, picks, axis=-1)[..., 0].mean(axis=-1)


def targets(labels: np.ndarray, num_classes: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays ``gradient`` reads of batches of ``labels`` (-1 marks a
    padding row): the padding mask, the one-hot targets and each batch's
    count of real rows.  None depends on the model, so a caller stepping one
    batch layout many times builds them once, with any leading axes."""
    return (labels < 0, labels[..., None] == np.arange(num_classes),
            (labels >= 0).sum(axis=-1)[..., None])


def gradient(params: np.ndarray, design: np.ndarray, pad: np.ndarray,
             onehot: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Gradient of ``loss`` at each model, shaped like ``params``.

    ``pad``, ``onehot``, ``count``: ``targets`` of the batch labels.  A
    padding row is all zero: its probabilities are set to -0.0, so its
    products in the sums over rows are -0.0, the exact additive identity, and
    each model divides by its count of real rows: bit for bit unpadded.  A
    model with its own batch of b >= 2 rows and one real row, row 0, takes
    that row's logits from the 1-row product (gemv) it would take unpadded,
    since a row of a gemm can round differently.
    """
    num_classes = onehot.shape[-1]
    logits = _logits(params, design, num_classes)
    ones = count[..., 0] == 1
    if design.shape[-2] > 1 and ones.shape == params.shape[:-1] and ones.any():
        logits[ones, :1] = _logits(params[ones], design[ones, :1], num_classes)
    probs = np.exp(_log_softmax(logits))
    probs[pad] = -0.0
    probs -= onehot
    return (probs.swapaxes(-1, -2) @ design).reshape(params.shape) / count


def accuracy(params: np.ndarray, design: np.ndarray, labels: np.ndarray,
             num_classes: int) -> np.ndarray:
    """Fraction of each model's predictions (the argmax of its logits) that
    match ``labels``; NaN for a model whose logits hold a NaN, as a diverged
    model's do, since ``argmax`` would pick the first NaN column."""
    logits = _logits(params, design, num_classes)
    acc = (logits.argmax(axis=-1) == labels).mean(axis=-1)
    if np.isnan(logits).any():
        return np.where(np.isnan(logits).any(axis=(-2, -1)), np.nan, acc)
    return acc


def smoothness_bound(features: np.ndarray) -> float:
    """β = max ||(x, 1)||^2 / 4 over the rows of ``features``.

    This is half the per-sample smoothness constant of the K-class softmax
    loss, max ||(x, 1)||^2 / 2, which bounds its Hessian through
    (I - 11^T / K) / 2 kron (x, 1)(x, 1)^T (Böhning 1992).
    """
    norms_sq = (features ** 2).sum(axis=1) + 1.0
    return float(norms_sq.max()) / 4.0
