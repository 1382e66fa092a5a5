"""Training loop semantics: merges, clipping, sampling, epoch mechanics.

``run_training`` steps every sampled (group, worker) of an epoch in one
batched ``local_train``.  ``_reference_training`` below is the straight-line
per-group, per-worker loop it replaces; the tests hold the two bit-equal.
"""

import dataclasses
import math

import numpy as np
import pytest

from dpogl import models
from dpogl.data import Dataset, make_synthetic
from dpogl.rng import _philox_keys, derive_stream
from dpogl.topology import GroupStructure, generate_structure
from dpogl.trainer import (HyperParams, _batch_plan, clip_update, is_intergroup_epoch,
                           epoch_metrics, local_train, mechanism_noise, personalize,
                           poisson_sample, run_training)


def _reference_batches(n, hp, rng):
    """A worker's L mini-batches: uniform without replacement, reshuffling
    whenever fewer than a full batch remains."""
    batch = min(hp.batch_size, n)
    perm = np.empty(0, dtype=int)
    pos = n  # force an initial shuffle
    batches = []
    for _ in range(hp.local_iterations):
        if pos + batch > n:
            perm = rng.permutation(n)
            pos = 0
        batches.append(perm[pos:pos + batch])
        pos += batch
    return batches


def _reference_local_sgd(start, features, labels, num_classes, hp, rng):
    """One worker's L SGD steps, one single-model gradient call per step."""
    x = start.copy()
    if len(labels) == 0:
        return x
    for take in _reference_batches(len(labels), hp, rng):
        x -= hp.learning_rate * models.gradient(
            x, models.augment(features[take]), *models.targets(labels[take], num_classes))
    return x


def _reference_personalize(structure, theta, worker):
    """The mean of the worker's group models."""
    return theta[list(structure.groups_of_worker[worker])].mean(axis=0)


def _reference_metrics(structure, theta, train, partition, test):
    """(average train loss, average test accuracy), one worker at a time."""
    losses, accs = [], []
    for n in range(structure.num_workers):
        model = _reference_personalize(structure, theta, n)
        idx = partition[n]
        if len(idx):
            losses.append(float(models.loss(model, models.augment(train.features[idx]),
                                            train.labels[idx], train.num_classes)))
        if test is not None and len(test):
            accs.append(float(models.accuracy(model, models.augment(test.features),
                                              test.labels, test.num_classes)))
    return (float(np.mean(losses)) if losses else math.nan,
            float(np.mean(accs)) if accs else math.nan)


def _reference_training(structure, hp, train, partition, test=None):
    """Per-group, per-worker simulation: (trajectory, [(loss, acc)] per epoch).

    Groups sample their workers at window starts; each sampled worker trains
    from its merged model (inter-group epochs) or its group's model; a group
    applies its raw update mid-window and, at the window's last epoch, the
    clipped, noised mechanism on top of the window-start model.
    """
    M, W = structure.num_groups, hp.mechanism_window
    v = models.param_dim(train.features.shape[1], train.num_classes)
    theta = np.zeros((M, v))
    trajectory, metrics = [theta.copy()], []
    anchor, sampled, accum = [None] * M, [[]] * M, [{}] * M
    for t in range(1, hp.epochs + 1):
        snapshot = theta.copy()
        for m, members in enumerate(structure.members_of_group):
            if (t - 1) % W == 0:
                anchor[m] = snapshot[m].copy()
                sampled[m] = poisson_sample(members, float(hp.participation[m]),
                                            derive_stream(hp.seed, "sampling", m, t))
                accum[m] = {n: np.zeros(v) for n in sampled[m]}
            raw_sum = np.zeros(v)
            for n in sampled[m]:
                if is_intergroup_epoch(t, hp.inter_group_period):
                    x0 = _reference_personalize(structure, snapshot, n)
                else:
                    x0 = snapshot[m].copy()
                idx = partition[n]
                xL = _reference_local_sgd(x0, train.features[idx], train.labels[idx],
                                          train.num_classes, hp,
                                          derive_stream(hp.seed, "batch", m, t, n))
                delta = xL - x0
                accum[m][n] += delta
                raw_sum += delta
            scale = float(hp.participation[m]) * len(members)
            if t % W == 0:
                window_clip = math.sqrt(W) * float(hp.clip[m])
                delta_sum = np.zeros(v)
                for n in sampled[m]:
                    delta_sum += clip_update(accum[m][n], window_clip)
                std = (math.sqrt(W) * float(hp.clip[m] * hp.sigma[m])
                       if hp.sigma[m] > 0 else 0.0)
                delta_sum += mechanism_noise(derive_stream(hp.seed, "noise", m, t), v, std)
                theta[m] = anchor[m] + delta_sum / scale
            else:
                theta[m] = snapshot[m] + raw_sum / scale
        trajectory.append(theta.copy())
        metrics.append(_reference_metrics(structure, theta, train, partition, test))
    return trajectory, metrics


def _consecutive_shards(sizes):
    ends = np.cumsum(sizes)
    return [np.arange(end - size, end) for size, end in zip(sizes, ends)]


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


def test_hyperparams_refuse_non_finite_rate_and_noise():
    """An infinite or NaN step size, or an infinite sigma, trains to a NaN
    model; the refusal names the field (and the group)."""
    for rate in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^learning_rate must be finite"):
            simple_hp(learning_rate=rate)
    with pytest.raises(ValueError, match="^sigma of group 1 must be finite and >= 0$"):
        simple_hp(sigma=[2.0, math.inf])


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


def test_personalize_averages_each_group_set():
    st = GroupStructure(3, [[0, 1], [1, 2]])
    theta = np.array([[1.0, 1.0], [3.0, 5.0]])
    merged = personalize(st, theta)[st.group_set_of_worker]
    assert merged[0].tolist() == [1.0, 1.0]
    assert merged[1].tolist() == [2.0, 3.0]
    assert merged[2].tolist() == [3.0, 5.0]
    # one model per distinct group set, stacked merges per set size
    st = GroupStructure(6, [[0, 1, 2, 3], [3, 4, 5], [1, 3, 5]])
    assert st.group_sets == ((0,), (0, 2), (0, 1, 2), (1,), (1, 2))
    assert st.group_set_of_worker.tolist() == [0, 1, 0, 2, 3, 4]
    theta = np.random.default_rng(3).standard_normal((3, 7))
    got = personalize(st, theta)[st.group_set_of_worker]
    for n in range(6):
        assert np.array_equal(got[n], _reference_personalize(st, theta, n))


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
    for bad in (0.0, -1.0, np.nan):  # one bad entry of a per-row column
        with pytest.raises(ValueError, match="^clip_norm must be positive$"):
            clip_update(np.ones((3, 4)), np.array([[1.0], [bad], [2.0]]))


def test_clip_update_is_row_wise_and_bitwise():
    """Each row of a stacked call is the 1-D rule ``row / max(1.0, norm / c)``
    bit for bit: zero rows, a row exactly at the bound, c = inf, and a row
    holding NaN, whose ``max(1.0, nan)`` is 1.0 (``np.maximum`` would give
    NaN and blank the row's other entries).  A (k, 1) column of norms clips
    each row as the scalar call with its own norm does."""
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((64, 36)) * rng.uniform(0.01, 10, size=(64, 1))
    rows[1] = 0.0
    rows[2] = -0.0
    rows[3] = 0.0
    rows[3, [0, 7]] = 3.0, 4.0  # norm exactly 5, the bound below
    rows[4, 2] = np.nan
    rows[5, 0] = np.inf
    def bits(a):
        return np.asarray(a).view(np.uint64)

    with np.errstate(invalid="ignore"):  # the inf row gives inf / inf
        for c in (5.0, 0.3, 1e-300, np.inf):
            want = [row / max(1.0, float(np.linalg.norm(row)) / c) for row in rows]
            assert np.array_equal(bits(clip_update(rows, c)), bits(want))
            assert np.array_equal(bits(clip_update(rows.reshape(4, 16, 36), c)),
                                  bits(np.reshape(want, (4, 16, 36))))
            for row, one in zip(rows, want):
                assert np.array_equal(bits(clip_update(row, c)), bits(one))
        assert np.array_equal(clip_update(rows, 5.0)[3], rows[3])
        assert np.isfinite(np.delete(clip_update(rows, 5.0)[4], 2)).all()
        norms = np.resize([5.0, 0.3, 1e-300, np.inf, 2.5], (len(rows), 1))
        want = [clip_update(row, c) for row, c in zip(rows, norms[:, 0])]
        assert np.array_equal(bits(clip_update(rows, norms)), bits(want))


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
    """The noise is std times the stream's standard normals; std 0 draws nothing."""
    rng = derive_stream(0, "noise", 1, 2)
    assert np.array_equal(mechanism_noise(rng, 8, 0.0), np.zeros(8))
    z1 = mechanism_noise(rng, 2000, 1.5)
    z2 = mechanism_noise(derive_stream(0, "noise", 1, 2), 2000, 1.5)
    assert np.array_equal(z1, z2)
    assert np.array_equal(z1, 1.5 * derive_stream(0, "noise", 1, 2).standard_normal(2000))
    z3 = mechanism_noise(derive_stream(0, "noise", 1, 3), 2000, 1.5)
    assert not np.array_equal(z1, z3)
    assert abs(z1.std() - 1.5) < 0.1


@pytest.mark.parametrize("n", [0, 1, 3, 4, 6, 20, 23])
def test_batch_plan_matches_reference_batches(n):
    """One ``permuted`` call per plan draws what the reference's sequential
    reshuffles draw (B = 4, L = 5: n = 1, n < B, n = B, B < n < 2B and
    n >= L B), and leaves the stream where they leave it; an empty shard
    takes no stream.  The run's cache of 0..n-1 rows, filled by the first
    plan and read by the other 19, stays read-only and changes no draw."""
    hp = simple_hp(batch_size=4, local_iterations=5)
    shard = 7 + 3 * np.arange(n)
    aranges = {}
    for seed in range(20):
        rng, ref = derive_stream(seed, "batch", 1, 2, 3), derive_stream(seed, "batch", 1, 2, 3)
        streams = iter([rng])
        plan = _batch_plan(shard, hp, streams, aranges)
        assert (next(streams, None) is None) == (n > 0)
        want = (shard[np.stack(_reference_batches(n, hp, ref))] if n
                else np.empty((5, 0), dtype=np.int64))
        assert plan.dtype == want.dtype and np.array_equal(plan, want)
        assert rng.random() == ref.random()
    assert all(not rows.flags.writeable for rows in aranges.values())
    assert list(aranges) == ([n] if n else [])


def test_local_train_full_batch_equals_gradient_descent():
    ds = make_synthetic(num_classes=3, dims=4, per_class=10, seed=1)
    hp = simple_hp(batch_size=len(ds), local_iterations=5, learning_rate=0.2)
    design = models.augment(ds.features)
    start = np.linspace(-0.1, 0.1, models.param_dim(4, 3))
    plan = np.stack(_reference_batches(len(ds), hp, derive_stream(0, "batch", 0, 1, 0)))
    out = local_train(start[None], [plan], design, ds.labels, 3, 0.2)
    x = start.copy()
    for _ in range(5):  # full-batch gradients are sample-order invariant
        x -= 0.2 * models.gradient(x, design, *models.targets(ds.labels, 3))
    assert np.allclose(out[0], x, atol=1e-12)


def test_local_train_empty_shard_and_loss_decrease():
    start = np.ones((1, 6))
    out = local_train(start, [np.empty((3, 0), dtype=np.int64)],
                      np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 2, 0.1)
    assert np.array_equal(out, start)
    assert out is not start
    ds = make_synthetic(num_classes=2, dims=3, per_class=30, seed=2)
    hp_big = simple_hp(local_iterations=40, learning_rate=0.1, batch_size=8)
    zero = np.zeros(models.param_dim(3, 2))
    plan = np.stack(_reference_batches(len(ds), hp_big, derive_stream(7, "batch", 0, 1, 0)))
    trained = local_train(zero[None], [plan],
                          models.augment(ds.features), ds.labels, 2, 0.1)[0]
    assert models.loss(trained, models.augment(ds.features), ds.labels, 2) < np.log(2) * 0.8


def test_local_train_matches_one_job_at_a_time():
    """Jobs of several batch lengths, and an empty one, step together
    bit-identically to stepping each alone."""
    ds = make_synthetic(num_classes=3, dims=4, per_class=20, seed=3)
    hp = simple_hp(batch_size=6, local_iterations=7, learning_rate=0.3)
    v = models.param_dim(4, 3)
    shards = _consecutive_shards([9, 6, 0, 4, 13, 1, 6, 2])
    starts = np.random.default_rng(5).standard_normal((len(shards), v))
    plans, want = [], []
    for j, shard in enumerate(shards):
        if len(shard):
            batches = _reference_batches(len(shard), hp, derive_stream(1, "batch", 0, 1, j))
            plans.append(shard[np.stack(batches)])
        else:
            plans.append(np.empty((7, 0), dtype=np.int64))
        want.append(_reference_local_sgd(starts[j], ds.features[shard], ds.labels[shard], 3,
                                         hp, derive_stream(1, "batch", 0, 1, j)))
    got = local_train(starts, plans, models.augment(ds.features), ds.labels, 3, 0.3)
    assert np.array_equal(got, np.array(want))


def test_local_train_takes_one_gradient_per_step(monkeypatch):
    """Jobs of widths 0, 1 and >= 2 step together: one ``models.gradient``
    call per local step, over every job with rows."""
    ds = make_synthetic(num_classes=3, dims=4, per_class=20, seed=3)
    v = models.param_dim(4, 3)
    calls, gradient = [], models.gradient

    def counted(params, *arrays):
        calls.append(params.shape)
        return gradient(params, *arrays)
    monkeypatch.setattr("dpogl.models.gradient", counted)
    r = np.random.default_rng(6)
    plans = [r.integers(0, len(ds), size=(7, b)) for b in (3, 0, 1, 5, 1, 0, 2)]
    local_train(r.standard_normal((len(plans), v)), plans,
                models.augment(ds.features), ds.labels, 3, 0.3)
    assert calls == [(5, v)] * 7


def test_epoch_dpogl_matches_manual_composition():
    """Re-derive one epoch's group update from the published pieces."""
    ds = make_synthetic(num_classes=2, dims=2, per_class=12, seed=4)
    st = GroupStructure(3, [[0, 1], [1, 2]])
    hp = simple_hp(num_groups=2, participation=0.8, sigma=1.3, clip=0.3,
                   seed=21, epochs=3)
    v = models.param_dim(2, 2)
    partition = [np.arange(0, 8), np.arange(8, 16), np.arange(16, 24)]
    trajectory = run_training(st, hp, ds, partition)
    snapshot = trajectory[2]  # the models entering epoch 3
    epoch, group = 3, 1  # (3-1) % 2 == 0: inter-group epoch
    got = trajectory[3][group]

    sampled = poisson_sample(st.members_of_group[group], 0.8,
                             derive_stream(21, "sampling", group, epoch))
    assert sampled
    delta_sum = np.zeros(v)
    for n in sampled:
        x0 = _reference_personalize(st, snapshot, n)  # inter-group epoch merge
        idx = partition[n]
        xL = _reference_local_sgd(x0, ds.features[idx], ds.labels[idx], 2, hp,
                                  derive_stream(21, "batch", group, epoch, n))
        delta_sum += clip_update(xL - x0, 0.3)
    delta_sum += mechanism_noise(derive_stream(21, "noise", group, epoch), v, 0.3 * 1.3)
    want = snapshot[group] + delta_sum / (0.8 * 2)
    assert np.array_equal(got, want)


def test_epoch_dpoglplus_window_mechanism():
    """The window-end update replays clipped accumulated deltas on the anchor."""
    ds = make_synthetic(num_classes=2, dims=2, per_class=12, seed=4)
    st = GroupStructure(3, [[0, 1], [1, 2]])
    hp = simple_hp(num_groups=2, algorithm="dpogl_plus", threat_model="tm2",
                   inter_group_period=2, epochs=4, sigma=0.9, clip=0.4, seed=5)
    v = models.param_dim(2, 2)
    partition = [np.arange(0, 8), np.arange(8, 16), np.arange(16, 24)]
    trajectory = run_training(st, hp, ds, partition)
    theta = trajectory[0]
    # epoch 1 opens the window: raw (unclipped, noise-free) update; the
    # window-start model theta[0] is the anchor of the window's mechanism
    out1 = trajectory[1][0]
    anchor = theta[0].copy()
    sampled = poisson_sample(st.members_of_group[0], 1.0,
                             derive_stream(5, "sampling", 0, 1))
    raw = np.zeros(v)
    accum = {}
    for n in sampled:
        x0 = _reference_personalize(st, theta, n)
        idx = partition[n]
        xL = _reference_local_sgd(x0, ds.features[idx], ds.labels[idx], 2, hp,
                                  derive_stream(5, "batch", 0, 1, n))
        accum[n] = xL - x0
        raw += xL - x0
    scale = 1.0 * len(st.members_of_group[0])
    assert np.array_equal(out1, theta[0] + raw / scale)
    # epoch 2 closes the window: clip per worker at sqrt(S)*c, noise once
    snapshot2 = trajectory[1]
    out2 = trajectory[2][0]
    delta_sum = np.zeros(v)
    for n in sampled:  # the window keeps epoch 1's sample
        x0 = snapshot2[0].copy()  # epoch 2 is not an inter-group epoch
        idx = partition[n]
        xL = _reference_local_sgd(x0, ds.features[idx], ds.labels[idx], 2, hp,
                                  derive_stream(5, "batch", 0, 2, n))
        delta_sum += clip_update(accum[n] + (xL - x0), math.sqrt(2) * 0.4)
    delta_sum += mechanism_noise(derive_stream(5, "noise", 0, 2), v, math.sqrt(2) * 0.4 * 0.9)
    assert np.array_equal(out2, anchor + delta_sum / scale)


def _reference_case(name):
    """(structure, hp, train, partition, test) of one named edge case."""
    ds = make_synthetic(num_classes=3, dims=4, per_class=14, seed=11)
    test = make_synthetic(num_classes=3, dims=4, per_class=5, seed=12)
    ring = generate_structure("RI", 6, 3)
    if name == "shards_below_batch":  # b = min(B, size) gives five buckets
        return (ring, simple_hp(num_groups=3, batch_size=6, local_iterations=4,
                                epochs=5, participation=0.8, seed=2),
                ds, _consecutive_shards([3, 5, 2, 7, 9, 1]), test)
    if name == "empty_shard":
        return (ring, simple_hp(num_groups=3, epochs=5, participation=0.9, seed=4),
                ds, _consecutive_shards([0, 8, 4, 0, 10, 6]), test)
    if name == "worker_sampled_in_two_groups":
        st = GroupStructure(5, [[0, 1, 2], [2, 3, 4], [1, 2, 3]])
        return (st, simple_hp(num_groups=3, epochs=4, clip=0.2, seed=6),
                ds, _consecutive_shards([9, 7, 8, 6, 10]), test)
    if name == "dpogl_plus_period_3":  # groups of 4-5 workers
        return (generate_structure("RI", 12, 3),
                simple_hp(num_groups=3, algorithm="dpogl_plus", threat_model="tm2",
                          inter_group_period=3, epochs=9, clip=0.1,
                          participation=0.7, seed=8),
                ds, _consecutive_shards([3, 4, 2, 5, 3, 4, 3, 2, 4, 5, 3, 4]), test)
    if name == "group_samples_no_worker":  # group 1 samples none at epochs 3-5
        return (ring, simple_hp(num_groups=3, epochs=6, participation=[0.9, 0.2, 0.6],
                                seed=0),
                ds, _consecutive_shards([5, 3, 6, 4, 7, 2]), test)
    if name == "dpogl_plus_last_window_open":  # epochs 7-8 never reach a mechanism
        return (generate_structure("RI", 12, 3),
                simple_hp(num_groups=3, algorithm="dpogl_plus", threat_model="tm2",
                          inter_group_period=3, epochs=8, clip=0.2,
                          participation=0.7, seed=10),
                ds, _consecutive_shards([3, 4, 2, 5, 3, 4, 3, 2, 4, 5, 3, 4]), test)
    if name == "epoch_samples_nobody":  # only worker 4, then only the empty shard's worker 2
        return (GroupStructure(5, [[0, 1, 2], [2, 3, 4]]),
                simple_hp(epochs=8, participation=0.01, seed=7),
                ds, _consecutive_shards([6, 5, 0, 7, 4]), test)
    if name == "two_word_seed_and_noise_free_group":  # seed words [3, 256]
        return (ring, simple_hp(num_groups=3, epochs=5, sigma=[1.0, 0.0, 2.0],
                                participation=0.8, seed=2 ** 40 + 3),
                ds, _consecutive_shards([4, 6, 0, 5, 3, 8]), test)
    assert name == "no_test_set"
    return (ring, simple_hp(num_groups=3, epochs=4, seed=9), ds,
            _consecutive_shards([7, 7, 7, 7, 7, 7]), None)


@pytest.mark.parametrize("name", ["shards_below_batch", "empty_shard",
                                  "worker_sampled_in_two_groups",
                                  "dpogl_plus_period_3", "group_samples_no_worker",
                                  "dpogl_plus_last_window_open", "epoch_samples_nobody",
                                  "two_word_seed_and_noise_free_group", "no_test_set"])
def test_run_training_matches_per_worker_reference(name):
    structure, hp, train, partition, test = _reference_case(name)
    if name == "worker_sampled_in_two_groups":  # participation 1: all sampled
        assert sum(2 in members for members in structure.members_of_group) > 1
    if name == "group_samples_no_worker":  # a zero-count group beside sampled ones
        counts = [[len(poisson_sample(members, float(hp.participation[m]),
                                      derive_stream(hp.seed, "sampling", m, t)))
                   for m, members in enumerate(structure.members_of_group)]
                  for t in range(1, hp.epochs + 1)]
        assert any(0 in row and max(row) > 0 for row in counts)
    if name == "epoch_samples_nobody":  # epochs with no job, or only an empty-shard job
        sampled = [set().union(*(poisson_sample(members, float(hp.participation[m]),
                                                derive_stream(hp.seed, "sampling", m, t))
                                 for m, members in enumerate(structure.members_of_group)))
                   for t in range(1, hp.epochs + 1)]
        assert set() in sampled and {2} in sampled and {4} in sampled
    if name == "dpogl_plus_last_window_open":
        assert hp.epochs % hp.mechanism_window != 0
    ours = run_training(structure, hp, train, partition)
    trajectory, metrics = _reference_training(structure, hp, train, partition, test)
    assert len(ours) == len(trajectory) == hp.epochs + 1
    for theta, oracle in zip(ours, trajectory):
        assert np.array_equal(theta, oracle)
    assert np.array_equal(epoch_metrics(structure, ours, train, partition, test),
                          metrics, equal_nan=True)
    assert all(math.isnan(acc) for _, acc in metrics) == (test is None)


def test_each_purpose_is_keyed_once_per_run(monkeypatch):
    """No draw depends on the models, so a run keys its sampling, batch and
    noise streams in at most three bulk passes, whatever its epoch count."""
    calls = []

    def counted(entropy):
        calls.append(len(entropy))
        return _philox_keys(entropy)
    monkeypatch.setattr("dpogl.rng._philox_keys", counted)
    for name in ("shards_below_batch", "dpogl_plus_period_3"):
        calls.clear()
        assert len(run_training(*_reference_case(name)[:4])) > 4
        assert len(calls) <= 3, calls


def test_epoch_metrics_match_per_worker_loop():
    """Scoring once per group set and per shard size gives the per-worker
    loop's averages bit for bit, including when every shard is empty, and
    when one group set owns only a 1-row shard and a 12-row one, whose mean
    is a pairwise sum."""
    ds = make_synthetic(num_classes=4, dims=3, per_class=30, seed=13)
    test = make_synthetic(num_classes=4, dims=3, per_class=6, seed=14)
    st = generate_structure("RI", 24, 4)
    assert len(st.group_sets) < st.num_workers  # private workers share sets
    hp = simple_hp(num_groups=4, epochs=6, participation=0.8, seed=15)
    owner = st.group_set_of_worker
    one, wide = np.flatnonzero(owner == np.bincount(owner).argmax())[:2]
    mixed = [0] * 24
    mixed[one], mixed[wide] = 1, 12
    for sizes in (np.random.default_rng(16).integers(0, 9, size=24).tolist(), mixed,
                  [0] * 24):
        partition = _consecutive_shards(sizes)
        trajectory = run_training(st, hp, ds, partition)
        metrics = epoch_metrics(st, trajectory, ds, partition, test)
        for theta, got in zip(trajectory[1:], metrics):
            want = _reference_metrics(st, theta, ds, partition, test)
            assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
        assert all(math.isnan(loss) for loss in metrics[:, 0]) == (sum(sizes) == 0)
        assert all(0 <= acc <= 1 for acc in metrics[:, 1])


def test_metrics_pass_does_not_grow_with_epochs(monkeypatch):
    """The metrics are scored once per group set after the epoch loop, so
    their ``_log_softmax``, ``models.loss`` and ``models.accuracy`` calls do
    not grow with T; each gradient's own ``_log_softmax`` is counted apart."""
    calls = {"gradient": 0, "_log_softmax": 0, "loss": 0, "accuracy": 0}

    def counted(name):
        inner = getattr(models, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(f"dpogl.models.{name}", call)
    for name in calls:
        counted(name)
    structure, hp, train, partition, test = _reference_case("shards_below_batch")
    assert 1 in map(len, partition)
    scored = []
    for epochs in (4, 8):
        calls.update(dict.fromkeys(calls, 0))
        trajectory = run_training(structure, dataclasses.replace(hp, epochs=epochs), train,
                                  partition)
        epoch_metrics(structure, trajectory, train, partition, test)
        assert calls["gradient"] > 0
        scored.append((calls["_log_softmax"] - calls["gradient"], calls["loss"],
                       calls["accuracy"]))
    assert scored[0] == scored[1] and min(scored[0]) > 0, scored


def _shard_size_metrics(structure, theta, train, partition, test):
    """(average train loss, average test accuracy) with one stacked
    ``models.loss`` call per shard size, averaged in worker order."""
    set_models = personalize(structure, theta)
    owner = structure.group_set_of_worker
    design = models.augment(train.features)
    losses = {}
    for size in sorted({len(shard) for shard in partition} - {0}):
        workers = [n for n, shard in enumerate(partition) if len(shard) == size]
        ids = np.array([partition[n] for n in workers])
        losses.update(zip(workers, models.loss(set_models[owner[workers]], design[ids],
                                               train.labels[ids], train.num_classes)))
    accs = ([] if test is None else
            models.accuracy(set_models, models.augment(test.features), test.labels,
                            test.num_classes)[owner])
    return (float(np.mean([losses[n] for n in sorted(losses)])) if losses else math.nan,
            float(np.mean(accs)) if len(accs) else math.nan)


@pytest.mark.parametrize("name", ["shards_below_batch", "empty_shard",
                                  "worker_sampled_in_two_groups",
                                  "dpogl_plus_period_3",
                                  "two_word_seed_and_noise_free_group", "no_test_set",
                                  "sizes_one_and_zero"])
def test_whole_array_metrics_match_shard_size_losses(name):
    """``epoch_metrics`` of a ``run_training`` trajectory equals one stacked
    ``models.loss`` per shard size and epoch bit for bit: one product per
    group set over its rows for every epoch, then each size's (T, k, size)
    mean.  The last case has shards of sizes 1 and 0 and no test set."""
    if name == "sizes_one_and_zero":
        structure, hp, train, _, _ = _reference_case("no_test_set")
        partition, test = _consecutive_shards([1, 0, 4, 1, 0, 2]), None
    else:
        structure, hp, train, partition, test = _reference_case(name)
    trajectory = run_training(structure, hp, train, partition)
    metrics = epoch_metrics(structure, trajectory, train, partition, test)
    for theta, got in zip(trajectory[1:], metrics):
        want = _shard_size_metrics(structure, theta, train, partition, test)
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
    assert all(math.isnan(acc) for acc in metrics[:, 1]) == (test is None)


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
    for ta, tb in zip(a, b):
        assert np.array_equal(ta, tb)


def test_run_training_contract_and_determinism():
    ds = make_synthetic(num_classes=2, dims=2, per_class=20, seed=8)
    st = GroupStructure(4, [[0, 1, 2], [2, 3]])
    idx = np.arange(len(ds))
    partition = [idx[k::4] for k in range(4)]
    hp = simple_hp(num_groups=2, epochs=3, seed=12)
    out = run_training(st, hp, ds, partition)
    assert len(out) == 4
    assert all(theta.shape == (2, models.param_dim(2, 2)) for theta in out)
    assert np.array_equal(out[0], np.zeros((2, models.param_dim(2, 2))))
    metrics = epoch_metrics(st, out, ds, partition, test=ds)
    assert metrics.shape == (3, 2)
    assert all(np.isfinite(loss) for loss in metrics[:, 0])
    again = run_training(st, hp, ds, partition)
    assert all(np.array_equal(a, b) for a, b in zip(out, again, strict=True))
    none = run_training(st, dataclasses.replace(hp, epochs=0), ds, partition)
    assert len(none) == 1 and epoch_metrics(st, none, ds, partition, test=ds).shape == (0, 2)
    with pytest.raises(ValueError):
        run_training(st, simple_hp(num_groups=3), ds, partition)
    with pytest.raises(ValueError):
        run_training(st, hp, ds, partition[:-1])
    with pytest.raises(ValueError, match="disjoint"):  # one train row, two workers
        run_training(st, hp, ds, [partition[0], partition[1], partition[2], partition[0][:1]])


def test_training_without_test_set_reports_nan_accuracy():
    ds = make_synthetic(num_classes=2, dims=2, per_class=10, seed=9)
    st = GroupStructure(2, [[0, 1]])
    partition = [np.arange(0, 10), np.arange(10, 20)]
    hp = simple_hp(num_groups=1, epochs=2)
    out = run_training(st, hp, ds, partition)
    acc = epoch_metrics(st, out, ds, partition, test=None)[:, 1]
    assert len(acc) == 2 and all(math.isnan(a) for a in acc)
    no_rows = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2)
    assert np.array_equal(epoch_metrics(st, out, ds, partition, test=no_rows),
                          epoch_metrics(st, out, ds, partition), equal_nan=True)
