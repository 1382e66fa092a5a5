"""Multinomial logistic model: gradient correctness and smoothness."""

import numpy as np

from dpogl import models


def rng(seed=0):
    return np.random.default_rng(seed)


def test_param_dim_counts_weights_and_bias():
    assert models.param_dim(dims=4, num_classes=3) == 15


def test_loss_at_zero_is_log_classes():
    x = models.augment(rng().standard_normal((12, 4)))
    y = rng().integers(0, 3, size=12)
    theta = np.zeros(models.param_dim(4, 3))
    assert np.allclose(models.loss(theta, x, y, 3), np.log(3))


def test_gradient_matches_finite_differences():
    r = rng(1)
    x = models.augment(r.standard_normal((9, 3)))
    y = r.integers(0, 4, size=9)
    theta = 0.3 * r.standard_normal(models.param_dim(3, 4))
    grad = models.gradient(theta, x, y, 4)
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
    whole = models.gradient(theta, x, y, 3)
    parts = np.mean([models.gradient(theta, x[k:k + 1], y[k:k + 1], 3)
                     for k in range(8)], axis=0)
    assert np.allclose(whole, parts)


def test_predict_and_accuracy_agree():
    r = rng(3)
    x = models.augment(r.standard_normal((30, 2)))
    y = r.integers(0, 2, size=30)
    theta = r.standard_normal(models.param_dim(2, 2))
    preds = models.predict(theta, x, 2)
    assert models.accuracy(theta, x, y, 2) == (preds == y).mean()


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
            g1 = models.gradient(theta + step, x[k:k + 1], y[k:k + 1], 3)
            g0 = models.gradient(theta, x[k:k + 1], y[k:k + 1], 3)
            ratio = np.linalg.norm(g1 - g0) / np.linalg.norm(step)
            assert ratio <= beta * (1 + 1e-6)
