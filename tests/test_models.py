"""Multinomial logistic model: gradient correctness, padding and smoothness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from dpogl import models
from dpogl.trainer import local_train


def rng(seed=0):
    return np.random.default_rng(seed)


def test_param_dim_counts_weights_and_bias():
    assert models.param_dim(dims=4, num_classes=3) == 15


def test_loss_at_zero_is_log_classes():
    x = models.augment(rng().standard_normal((12, 4)))
    y = rng().integers(0, 3, size=12)
    theta = np.zeros(models.param_dim(4, 3))
    assert np.allclose(models.loss(theta, x, y, 3), np.log(3))


def test_loss_broadcasts_labels_over_a_model_stack():
    """Labels broadcast to the models' leading axes, as in ``accuracy``: a
    (k, v) stack with one shared batch, and a (T, 1, v) stack with (k, 1, d)
    batches, equal one call per model bit for bit."""
    got = models.loss(np.zeros((5, 8)), np.ones((8, 1)), np.arange(8), 8)
    want = [models.loss(np.zeros(8), np.ones((8, 1)), np.arange(8), 8)] * 5
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    r = rng(5)
    x = models.augment(r.standard_normal((6, 3)))
    y = r.integers(0, 4, size=6)
    theta = r.standard_normal((5, models.param_dim(3, 4)))
    got = models.loss(theta, x, y, 4)
    want = [models.loss(model, x, y, 4) for model in theta]
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    got = models.loss(theta[:, None], x[:, None], y[:, None], 4)
    assert got.shape == (5, 6)
    want = [[models.loss(model, x[j:j + 1], y[j:j + 1], 4) for j in range(6)]
            for model in theta]
    assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))


def _max_shifted_log_softmax(logits):
    """The reference: the shift is numpy's max over the class axis."""
    shifted = logits - logits.max(-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _same_bits(a, b):
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


EXTREMES = np.array([0.0, -0.0, 1.0, -1.0, 40.0, -40.0, 800.0, -800.0, np.inf,
                     -np.inf, np.nan, 1e308, -1e308, 5e-324])


@pytest.mark.parametrize("num_classes", [2, 3, 4, 5, 8, 9, 17, 100])
def test_argmax_shift_equals_max_shift_bitwise(num_classes):
    """``_log_softmax`` shifts by the argmax element; it equals the max
    shift bit for bit, NaN positions included, on rows drawn from signed
    zeros, infinities, NaN, huge, tiny and ordinary values (so ties, ±0 max
    ties among them, are common), and on Gaussian rows at several scales."""
    r = rng(num_classes)
    batches = [r.choice(EXTREMES, size=(6, 5, num_classes)) for _ in range(40)]
    batches += [scale * r.standard_normal((6, 5, num_classes))
                for scale in (0.0, 1e-300, 1.0, 30.0, 1e3, 1e300)]
    batches += [r.choice(EXTREMES, size=num_classes),
                r.choice(EXTREMES, size=(1, num_classes))]
    # Both sides overflow on purpose: x - max overflows to -inf when the max
    # is 1e308 and x is -1e308 ("overflow encountered in subtract"), and
    # inf - inf or NaN rows give NaN ("invalid value encountered").
    with np.errstate(over="ignore", invalid="ignore"):
        for logits in batches:
            assert _same_bits(models._log_softmax(logits), _max_shifted_log_softmax(logits))


def test_gradient_is_bitwise_on_a_zero_max_tie(monkeypatch):
    """Rows whose max is a tie of +0 and -0: ``np.max`` shifts by the last
    zero and ``argmax`` by the first, yet ``gradient`` keeps every bit.
    BLAS products do not give -0 logits, so the logits are set directly."""
    r = rng(7)
    x = models.augment(r.standard_normal((4, 5, 2)))
    y = r.integers(0, 3, size=(4, 5))
    theta = r.standard_normal((4, models.param_dim(2, 3)))
    logits = -np.abs(r.standard_normal((4, 5, 3)))
    logits[..., 0], logits[..., 1] = 0.0, -0.0
    logits[1, :, :2] = -0.0, 0.0
    logits[2, :, 1:] = 0.0, -0.0
    monkeypatch.setattr(models, "_logits", lambda *args: logits.copy())
    got = models.gradient(theta, x, *models.targets(y, 3))
    monkeypatch.setattr(models, "_log_softmax", _max_shifted_log_softmax)
    want = models.gradient(theta, x, *models.targets(y, 3))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_gradient_matches_finite_differences():
    r = rng(1)
    x = models.augment(r.standard_normal((9, 3)))
    y = r.integers(0, 4, size=9)
    theta = 0.3 * r.standard_normal(models.param_dim(3, 4))
    grad = models.gradient(theta, x, *models.targets(y, 4))
    eps = 1e-6
    for k in range(0, theta.size, 5):
        bump = np.zeros_like(theta)
        bump[k] = eps
        numeric = (models.loss(theta + bump, x, y, 4)
                   - models.loss(theta - bump, x, y, 4)) / (2 * eps)
        assert abs(numeric - grad[k]) < 1e-5


def test_gradient_of_mean_is_mean_of_gradients():
    r = rng(2)
    x = models.augment(r.standard_normal((8, 3)))
    y = r.integers(0, 3, size=8)
    theta = r.standard_normal(models.param_dim(3, 3))
    whole = models.gradient(theta, x, *models.targets(y, 3))
    parts = np.mean([models.gradient(theta, x[k:k + 1], *models.targets(y[k:k + 1], 3))
                     for k in range(8)], axis=0)
    assert np.allclose(whole, parts)


def test_predict_and_accuracy_agree():
    r = rng(3)
    x = models.augment(r.standard_normal((30, 2)))
    y = r.integers(0, 2, size=30)
    theta = r.standard_normal(models.param_dim(2, 2))
    preds = np.argmax(x @ theta.reshape(2, -1).T, axis=-1)
    assert models.accuracy(theta, x, y, 2) == (preds == y).mean()


def test_a_model_with_a_nan_logit_scores_nan_accuracy():
    """A diverged model has no prediction: ``argmax`` would pick its first
    NaN column on every row and score that class's share.  Only the model
    with the NaN weight reads NaN; the others keep their bits."""
    r = rng(6)
    x = models.augment(r.standard_normal((30, 3)))
    y = r.integers(0, 4, size=30)
    theta = r.standard_normal((3, models.param_dim(3, 4)))
    clean = models.accuracy(theta, x, y, 4)
    theta[1, 5] = np.nan
    got = models.accuracy(theta, x, y, 4)
    assert np.isnan(got[1]) and not np.isnan(clean).any()
    assert np.array_equal(got[[0, 2]].view(np.uint64), clean[[0, 2]].view(np.uint64))
    assert np.isnan(models.accuracy(theta[1], x, y, 4))


def test_smoothness_bound_dominates_observed_curvature():
    """beta must upper-bound the largest per-sample Hessian eigenvalue, which
    empirically bounds gradient Lipschitz ratios along random directions."""
    r = rng(4)
    x = r.standard_normal((20, 3))
    y = r.integers(0, 3, size=20)
    beta = models.smoothness_bound(x)
    x = models.augment(x)
    theta = r.standard_normal(models.param_dim(3, 3))
    for _ in range(20):
        direction = r.standard_normal(theta.size)
        step = 1e-4 * direction / np.linalg.norm(direction)
        for k in range(20):  # per-sample smoothness, sample by sample
            g1 = models.gradient(theta + step, x[k:k + 1], *models.targets(y[k:k + 1], 3))
            g0 = models.gradient(theta, x[k:k + 1], *models.targets(y[k:k + 1], 3))
            ratio = np.linalg.norm(g1 - g0) / np.linalg.norm(step)
            assert ratio <= beta * (1 + 1e-6)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(seed=hs.integers(0, 2 ** 32 - 1), dims=hs.integers(1, 6),
       num_classes=hs.sampled_from([2, 3, 4, 5, 32, 100]),
       scale=hs.sampled_from([0.0, 0.3, 4.0]),
       zero_column=hs.booleans(), one_label=hs.booleans())
def test_padded_gradient_is_bitwise(seed, dims, num_classes, scale, zero_column,
                                    one_label):
    """Padding is exact, bit for bit, on stacked models.

    For batch lengths b in 1..8 padded to 8 with all-zero rows of label -1,
    the same b for every model or a different b per model, ``gradient``
    equals each model's unpadded gradient: the padded products are -0.0 and
    each model divides by its real rows; a model with b = 1 takes the
    unpadded 1-row product (gemv), whose sums may differ from a gemm row's.
    ``local_train`` pads by the id of such a row, so its jobs each equal
    stepping that job alone: b = 1..8, only 1-row jobs, none, and one
    between others.
    """
    r = rng(seed)
    k, v = 3, models.param_dim(dims, num_classes)
    features = r.standard_normal((40, dims))
    if zero_column:
        features[:, 0] = 0.0
    labels = r.integers(0, num_classes, size=40)
    if one_label:
        labels[:] = labels[0]
    design = models.augment(features)
    theta = scale * r.standard_normal((k, v))
    ids = r.integers(0, 40, size=(k, 8))
    for bs in [[b] * k for b in range(1, 9)] + [[3, 1, 8], [1, 8, 1]]:
        x, y = design[ids].copy(), labels[ids].copy()
        for m, b in enumerate(bs):
            x[m, b:], y[m, b:] = 0.0, -1
        got = models.gradient(theta, x, *models.targets(y, num_classes))
        for m, b in enumerate(bs):
            want = models.gradient(theta[m], design[ids[m, :b]],
                                   *models.targets(labels[ids[m, :b]], num_classes))
            assert np.array_equal(got[m].view(np.uint64), want.view(np.uint64))

    for widths in (range(1, 9), [1, 1, 1], range(2, 9), [4, 1, 7, 2]):
        starts = scale * r.standard_normal((len(widths), v))
        plans = [r.integers(0, 40, size=(3, b)) for b in widths]
        got = local_train(starts, plans, design, labels, num_classes, 0.5)
        for start, plan, row in zip(starts, plans, got):
            x = start.copy()
            for step in plan:
                x -= 0.5 * models.gradient(x, design[step],
                                           *models.targets(labels[step], num_classes))
            assert np.array_equal(row.view(np.uint64), x.view(np.uint64))
