"""Dataset construction, splitting, and the Dirichlet partition."""

import numpy as np
import pytest

from dpogl.data import (Dataset, dirichlet_partition, load_csv, make_synthetic,
                        stratified_split, worker_labels)


def test_make_synthetic_shapes_and_determinism():
    ds = make_synthetic(num_classes=3, dims=5, per_class=20, seed=11)
    assert ds.features.shape == (60, 5)
    assert np.bincount(ds.labels, minlength=3).tolist() == [20, 20, 20]
    again = make_synthetic(3, 5, 20, seed=11)
    assert np.array_equal(ds.features, again.features)
    other = make_synthetic(3, 5, 20, seed=12)
    assert not np.array_equal(ds.features, other.features)


def test_synthetic_blobs_are_separable_on_average():
    ds = make_synthetic(num_classes=2, dims=6, per_class=200, seed=0)
    mu0 = ds.features[ds.labels == 0].mean(axis=0)
    mu1 = ds.features[ds.labels == 1].mean(axis=0)
    # class means are 3*N(0,I) apart; unit noise cannot erase that at n=200
    assert np.linalg.norm(mu0 - mu1) > 1.0


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.zeros(3, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 1]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros(4), np.zeros(4, dtype=np.int64), 2)


def test_load_csv_round_trip(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
    ds = load_csv(str(path))
    assert ds.num_classes == 2
    assert ds.features.shape == (3, 2)
    assert ds.labels.tolist() == [0, 1, 1]
    wide = load_csv(str(path), num_classes=5)
    assert wide.num_classes == 5
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,0.5\n")  # fractional label
    with pytest.raises(ValueError):
        load_csv(str(bad))
    for token in ("nan", "inf", "-inf"):
        bad.write_text(f"0.5,1.5,0\n{token},2.0,1\n")
        with pytest.raises(ValueError, match="finite"):
            load_csv(str(bad))


def test_load_csv_refuses_a_negative_label(tmp_path):
    path = tmp_path / "negative.csv"
    path.write_text("0.5,1.5,0\n-1.0,2.0,-1\n0.0,0.0,1\n")
    with pytest.raises(ValueError, match="labels out of range"):
        load_csv(str(path))
    with pytest.raises(ValueError, match="labels out of range"):
        load_csv(str(path), num_classes=2)


def test_stratified_split_is_per_class_and_exact():
    ds = make_synthetic(num_classes=4, dims=3, per_class=25, seed=5)
    train, test = stratified_split(ds, 0.2, seed=5)
    assert len(train) + len(test) == len(ds)
    assert np.bincount(test.labels, minlength=4).tolist() == [5, 5, 5, 5]
    assert np.bincount(train.labels, minlength=4).tolist() == [20, 20, 20, 20]
    t2a, t2b = stratified_split(ds, 0.2, seed=5)
    assert np.array_equal(train.features, t2a.features)
    assert np.array_equal(test.features, t2b.features)
    empty_train, empty_test = stratified_split(ds, 0.0, seed=5)
    assert len(empty_test) == 0 and len(empty_train) == len(ds)
    with pytest.raises(ValueError):
        stratified_split(ds, 1.0, seed=5)


def test_dirichlet_partition_is_exact_partition():
    ds = make_synthetic(num_classes=3, dims=2, per_class=40, seed=2)
    parts = dirichlet_partition(ds, num_workers=5, beta=0.5, seed=2)
    assert len(parts) == 5
    merged = np.sort(np.concatenate(parts))
    assert np.array_equal(merged, np.arange(len(ds)))  # no loss, no overlap
    again = dirichlet_partition(ds, 5, 0.5, seed=2)
    for a, b in zip(parts, again):
        assert np.array_equal(a, b)


def test_dirichlet_beta_controls_skew():
    ds = make_synthetic(num_classes=4, dims=2, per_class=100, seed=3)

    def max_class_share(parts):
        shares = []
        for idx in parts:
            if len(idx) == 0:
                continue
            counts = np.bincount(ds.labels[idx], minlength=4)
            shares.append(counts.max() / counts.sum())
        return float(np.mean(shares))

    skewed = max_class_share(dirichlet_partition(ds, 8, 0.05, seed=3))
    uniform = max_class_share(dirichlet_partition(ds, 8, 100.0, seed=3))
    assert skewed > uniform + 0.15


def test_worker_labels_reports_present_labels():
    ds = Dataset(np.zeros((6, 1)), np.array([0, 0, 1, 1, 2, 2]), 3)
    parts = [np.array([0, 2]), np.array([4, 5]), np.array([1, 3])]
    assert worker_labels(ds, parts) == {0: {0, 1}, 1: {2}, 2: {0, 1}}
