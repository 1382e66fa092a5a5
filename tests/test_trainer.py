"""Training loop semantics: merges, clipping, sampling, epoch mechanics."""

import dataclasses
import math

import numpy as np
import pytest

from dpogl import models
from dpogl.data import Dataset, make_synthetic
from dpogl.rng import derive_stream
from dpogl.topology import GroupStructure, generate_structure
from dpogl.trainer import (HyperParams, WindowState, clip_update, group_round,
                           is_intergroup_epoch, local_train, mechanism_noise,
                           personalize, poisson_sample, run_training,
                           worker_merge)


def simple_hp(**overrides):
    base = dict(num_groups=2, epochs=4, inter_group_period=2,
                local_iterations=3, learning_rate=0.1, batch_size=4,
                clip=0.5, sigma=1.0, participation=1.0)
    base.update(overrides)
    return HyperParams(**base)


def test_hyperparams_broadcast_and_validate():
    hp = simple_hp(clip=[0.1, 0.2], sigma=2.0)
    assert hp.clip.tolist() == [0.1, 0.2]
    assert hp.sigma.tolist() == [2.0, 2.0]
    with pytest.raises(ValueError):
        simple_hp(clip=[0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        simple_hp(participation=0.0)
    with pytest.raises(ValueError):
        simple_hp(clip=math.inf, sigma=1.0)  # undefined noise scale
    simple_hp(clip=math.inf, sigma=0.0)      # noise-free diagnostic mode
    with pytest.raises(ValueError):
        simple_hp(algorithm="dpogl_plus", threat_model="tm1")
    with pytest.raises(ValueError):
        simple_hp(algorithm="dpogl_plus", threat_model="tm2", epochs=1,
                  inter_group_period=2)


def test_mechanism_window_is_derived_not_configured():
    assert simple_hp(inter_group_period=3).mechanism_window == 1
    plus = simple_hp(algorithm="dpogl_plus", threat_model="tm2",
                     inter_group_period=3, epochs=6)
    assert plus.mechanism_window == 3
    assert "mechanism_window" not in {f.name for f in dataclasses.fields(HyperParams)}
    with pytest.raises(AttributeError):
        plus.mechanism_window = 1


def test_is_intergroup_epoch_pattern():
    assert [t for t in range(1, 10) if is_intergroup_epoch(t, 3)] == [1, 4, 7]
    assert all(is_intergroup_epoch(t, 1) for t in range(1, 5))


def test_worker_merge_and_personalize():
    stack = np.array([[0.0, 2.0], [4.0, 6.0]])
    assert worker_merge(stack).tolist() == [2.0, 4.0]
    with pytest.raises(ValueError):
        worker_merge(np.zeros((0, 3)))
    st = GroupStructure(3, [[0, 1], [1, 2]])
    theta = np.array([[1.0, 1.0], [3.0, 5.0]])
    assert personalize(st, theta, 0).tolist() == [1.0, 1.0]
    assert personalize(st, theta, 1).tolist() == [2.0, 3.0]


def test_clip_update_invariants():
    rng = np.random.default_rng(0)
    for _ in range(500):
        delta = rng.standard_normal(6) * rng.uniform(0.01, 10)
        c = rng.uniform(0.05, 2.0)
        clipped = clip_update(delta, c)
        assert np.linalg.norm(clipped) <= c * (1 + 1e-12)
        if np.linalg.norm(delta) <= c:
            assert np.array_equal(clipped, delta)
        else:
            # direction is preserved, only the magnitude shrinks
            cos = clipped @ delta / (np.linalg.norm(clipped) * np.linalg.norm(delta))
            assert cos > 1 - 1e-12
    with pytest.raises(ValueError):
        clip_update(np.ones(3), 0.0)


def test_poisson_sample_is_per_member_independent():
    members = tuple(range(10))
    picked = poisson_sample(members, 1.0, derive_stream(0, "sampling", 0, 1))
    assert picked == list(members)
    none = poisson_sample(members, 1e-12, derive_stream(0, "sampling", 0, 1))
    assert none == []
    a = poisson_sample(members, 0.5, derive_stream(3, "sampling", 1, 2))
    b = poisson_sample(members, 0.5, derive_stream(3, "sampling", 1, 2))
    assert a == b


def test_mechanism_noise_statistics_and_keying():
    assert np.array_equal(mechanism_noise(0, 1, 2, 8, 0.0), np.zeros(8))
    z1 = mechanism_noise(0, 1, 2, 2000, 1.5)
    z2 = mechanism_noise(0, 1, 2, 2000, 1.5)
    assert np.array_equal(z1, z2)
    z3 = mechanism_noise(0, 1, 3, 2000, 1.5)
    assert not np.array_equal(z1, z3)
    assert abs(z1.std() - 1.5) < 0.1


def test_local_train_full_batch_equals_gradient_descent():
    ds = make_synthetic(num_classes=3, dims=4, per_class=10, seed=1)
    hp = simple_hp(batch_size=len(ds), local_iterations=5, learning_rate=0.2)
    start = np.linspace(-0.1, 0.1, models.param_dim(4, 3))
    out = local_train(start, ds.features, ds.labels, 3,
                      hp, derive_stream(0, "batch", 0, 1, 0))
    x = start.copy()
    for _ in range(5):  # full-batch gradients are sample-order invariant
        x -= 0.2 * models.gradient(x, ds.features, ds.labels, 3)
    assert np.allclose(out, x, atol=1e-12)


def test_local_train_empty_shard_and_loss_decrease():
    hp = simple_hp()
    start = np.ones(6)
    out = local_train(start, np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2,
                      hp, derive_stream(0, "batch", 0, 1, 0))
    assert np.array_equal(out, start)
    assert out is not start
    ds = make_synthetic(num_classes=2, dims=3, per_class=30, seed=2)
    hp_big = simple_hp(local_iterations=40, learning_rate=0.1, batch_size=8)
    zero = models.init_params(3, 2)
    trained = local_train(zero, ds.features, ds.labels, 2,
                          hp_big, derive_stream(7, "batch", 0, 1, 0))
    assert models.loss(trained, ds.features, ds.labels, 2) < np.log(2) * 0.8


def test_group_round_dpogl_matches_manual_composition():
    """Re-derive one epoch's group update from the published pieces."""
    ds = make_synthetic(num_classes=2, dims=2, per_class=12, seed=4)
    st = GroupStructure(3, [[0, 1], [1, 2]])
    hp = simple_hp(num_groups=2, participation=0.8, sigma=1.3, clip=0.3,
                   seed=21)
    v = models.param_dim(2, 2)
    rng_state = np.random.default_rng(9)
    snapshot = rng_state.standard_normal((2, v))
    partition = [np.arange(0, 8), np.arange(8, 16), np.arange(16, 24)]
    epoch, group = 3, 1  # (3-1) % 2 == 0: inter-group epoch
    got = group_round(st, hp, ds, partition, snapshot, WindowState(), group, epoch)

    sampled = poisson_sample(st.members_of_group[group], 0.8,
                             derive_stream(21, "sampling", group, epoch))
    delta_sum = np.zeros(v)
    for n in sampled:
        x0 = personalize(st, snapshot, n)  # inter-group epoch merge
        idx = partition[n]
        xL = local_train(x0, ds.features[idx], ds.labels[idx], 2, hp,
                         derive_stream(21, "batch", group, epoch, n))
        delta_sum += clip_update(xL - x0, 0.3)
    delta_sum += mechanism_noise(21, group, epoch, v, 0.3 * 1.3)
    want = snapshot[group] + delta_sum / (0.8 * 2)
    assert np.array_equal(got, want)


def test_group_round_dpoglplus_window_mechanism():
    """The window-end update replays clipped accumulated deltas on the anchor."""
    ds = make_synthetic(num_classes=2, dims=2, per_class=12, seed=4)
    st = GroupStructure(3, [[0, 1], [1, 2]])
    hp = simple_hp(num_groups=2, algorithm="dpogl_plus", threat_model="tm2",
                   inter_group_period=2, epochs=4, sigma=0.9, clip=0.4, seed=5)
    v = models.param_dim(2, 2)
    partition = [np.arange(0, 8), np.arange(8, 16), np.arange(16, 24)]
    theta = np.zeros((2, v))
    state = WindowState()
    # epoch 1 opens the window: raw (unclipped, noise-free) update
    out1 = group_round(st, hp, ds, partition, theta, state, 0, 1)
    anchor = theta[0].copy()
    assert np.array_equal(state.anchor, anchor)
    raw = np.zeros(v)
    for n in state.sampled:
        x0 = personalize(st, theta, n)
        idx = partition[n]
        xL = local_train(x0, ds.features[idx], ds.labels[idx], 2, hp,
                         derive_stream(5, "batch", 0, 1, n))
        raw += xL - x0
    scale = 1.0 * len(st.members_of_group[0])
    assert np.allclose(out1, theta[0] + raw / scale, atol=1e-15)
    # epoch 2 closes the window: clip per worker at sqrt(S)*c, noise once
    snapshot2 = theta.copy()
    snapshot2[0] = out1
    accum_before = {n: a.copy() for n, a in state.accum.items()}
    out2 = group_round(st, hp, ds, partition, snapshot2, state, 0, 2)
    delta_sum = np.zeros(v)
    for n in state.sampled:
        x0 = snapshot2[0].copy()  # epoch 2 is not an inter-group epoch
        idx = partition[n]
        xL = local_train(x0, ds.features[idx], ds.labels[idx], 2, hp,
                         derive_stream(5, "batch", 0, 2, n))
        delta_sum += clip_update(accum_before[n] + (xL - x0),
                                 math.sqrt(2) * 0.4)
    delta_sum += mechanism_noise(5, 0, 2, v, math.sqrt(2) * 0.4 * 0.9)
    assert np.allclose(out2, anchor + delta_sum / scale, atol=1e-12)


def test_dpoglplus_with_period_one_equals_dpogl():
    """S=1 windows are single epochs, so the interval mechanism degenerates
    to the per-epoch mechanism, stream for stream."""
    ds = make_synthetic(num_classes=3, dims=3, per_class=15, seed=6)
    st = generate_structure("RI", 6, 3)
    idx = np.arange(len(ds))
    partition = [idx[k::6] for k in range(6)]
    a = run_training(st, simple_hp(num_groups=3, algorithm="dpogl",
                                   threat_model="tm2", inter_group_period=1,
                                   epochs=5, participation=0.7, seed=3),
                     ds, partition)
    b = run_training(st, simple_hp(num_groups=3, algorithm="dpogl_plus",
                                   threat_model="tm2", inter_group_period=1,
                                   epochs=5, participation=0.7, seed=3),
                     ds, partition)
    for ta, tb in zip(a.trajectory, b.trajectory):
        assert np.array_equal(ta, tb)


def test_run_training_contract_and_determinism():
    ds = make_synthetic(num_classes=2, dims=2, per_class=20, seed=8)
    st = GroupStructure(4, [[0, 1, 2], [2, 3]])
    idx = np.arange(len(ds))
    partition = [idx[k::4] for k in range(4)]
    hp = simple_hp(num_groups=2, epochs=3, seed=12)
    out = run_training(st, hp, ds, partition, test=ds)
    assert out.final_models.shape == (2, models.param_dim(2, 2))
    assert len(out.trajectory) == 4
    assert np.array_equal(out.trajectory[0], np.zeros_like(out.final_models))
    assert [m.epoch for m in out.metrics] == [1, 2, 3]
    assert all(np.isfinite(m.avg_train_loss) for m in out.metrics)
    again = run_training(st, hp, ds, partition, test=ds)
    assert np.array_equal(out.final_models, again.final_models)
    with pytest.raises(ValueError):
        run_training(st, simple_hp(num_groups=3), ds, partition)
    with pytest.raises(ValueError):
        run_training(st, hp, ds, partition[:-1])


def test_training_without_test_set_reports_nan_accuracy():
    ds = make_synthetic(num_classes=2, dims=2, per_class=10, seed=9)
    st = GroupStructure(2, [[0, 1]])
    partition = [np.arange(0, 10), np.arange(10, 20)]
    hp = simple_hp(num_groups=1, epochs=2)
    out = run_training(st, hp, ds, partition, test=None)
    assert all(math.isnan(m.avg_test_acc) for m in out.metrics)
