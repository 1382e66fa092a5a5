"""Multinomial logistic regression on flat parameter vectors, batched.

A model is a flat float64 vector of length (dims + 1) * num_classes, viewed
as a (num_classes, dims + 1) matrix whose last column is the bias.  The
functions take features that already carry the bias column (``augment``,
applied once per dataset) and broadcast over leading axes: a (k, v) stack
of models with (k, b, dims + 1) batches, or with one shared (b, dims + 1)
batch, gives k results.  On numpy's BLAS path a row of a product of two or
more rows is bit-identical whatever the other rows are; 1-row ones use gemv.
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
    return design @ np.swapaxes(W, -1, -2)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss(params: np.ndarray, design: np.ndarray, labels: np.ndarray,
         num_classes: int) -> np.ndarray:
    """Mean negative log-likelihood of each model on its batch."""
    logp = _log_softmax(_logits(params, design, num_classes))
    return -np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0].mean(axis=-1)


def gradient(params: np.ndarray, design: np.ndarray, labels: np.ndarray,
             num_classes: int) -> np.ndarray:
    """Gradient of ``loss`` at each model, shaped like ``params``.

    Label -1 marks padding, an all-zero row: its probabilities are -0.0, so
    its products in the sums over rows are -0.0, the exact additive identity,
    and each model divides by its count of real rows: bit for bit unpadded.
    """
    probs = np.exp(_log_softmax(_logits(params, design, num_classes)))
    probs[labels < 0] = -0.0
    probs -= labels[..., None] == np.arange(num_classes)
    count = (labels >= 0).sum(axis=-1)[..., None]
    return (np.swapaxes(probs, -1, -2) @ design).reshape(params.shape) / count


def predict(params: np.ndarray, design: np.ndarray, num_classes: int) -> np.ndarray:
    return np.argmax(_logits(params, design, num_classes), axis=-1)


def accuracy(params: np.ndarray, design: np.ndarray, labels: np.ndarray,
             num_classes: int) -> np.ndarray:
    """Fraction of each model's predictions that match ``labels``."""
    return (predict(params, design, num_classes) == labels).mean(axis=-1)


def smoothness_bound(features: np.ndarray) -> float:
    """β = max ||(x, 1)||^2 / 4 over the rows of ``features``.

    This is half the per-sample smoothness constant of the K-class softmax
    loss, max ||(x, 1)||^2 / 2, which bounds its Hessian through
    (I - 11^T / K) / 2 kron (x, 1)(x, 1)^T (Böhning 1992).
    """
    norms_sq = (features ** 2).sum(axis=1) + 1.0
    return float(norms_sq.max()) / 4.0
