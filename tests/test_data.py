"""CSV ingestion, min-max scaling, partitioning schemes, synthetic data."""

import numpy as np
import pytest

from fedrosvm.core import DatasetView
from fedrosvm.data import (
    CsvFormatError,
    NonNumericFeatureError,
    PartitionPlan,
    PartitionScheme,
    SyntheticSpec,
    UnknownLabelError,
    apply_minmax,
    fit_minmax,
    generate_synthetic,
    largest_remainder,
    load_csv,
    partition,
    split_train_test,
)


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def balanced_data(seed, n, p=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, p))
    y = np.concatenate([np.ones(n // 2), -np.ones(n - n // 2)])
    return DatasetView(X=X, y=y[rng.permutation(n)])


def as_multiset(X):
    return sorted(map(tuple, np.round(X, 12)))


# -------------------------------------------------------------- csv loading


def test_csv_three_row_round_trip(tmp_path):
    # the label sits between the features, which keep the file's order
    path = write(tmp_path, "a,label,b\n1.0,yes,2.0\n3.5,no,-1.0\n0.25,yes,4.0\n")
    view = load_csv(path, label_column="label", positive_label="yes")
    assert np.array_equal(view.X, [[1.0, 2.0], [3.5, -1.0], [0.25, 4.0]])
    assert np.array_equal(view.y, [1, -1, 1])
    assert view.n == 3 and view.p == 2


def test_csv_missing_label_column_named(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(CsvFormatError, match="'target'"):
        load_csv(path, label_column="target", positive_label="1")


def test_csv_header_only_is_empty_table(tmp_path):
    path = write(tmp_path, "a,label\n")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_csv(path, label_column="label", positive_label="1")


def test_csv_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(CsvFormatError, match="empty"):
        load_csv(path, label_column="label", positive_label="1")


def test_csv_ragged_row(tmp_path):
    path = write(tmp_path, "a,b,label\n1,2,yes\n1,no\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        load_csv(path, label_column="label", positive_label="yes")


def test_csv_non_numeric_feature_names_column(tmp_path):
    path = write(tmp_path, "a,b,label\n1,x,yes\n")
    with pytest.raises(NonNumericFeatureError, match="'b'"):
        load_csv(path, label_column="label", positive_label="yes")


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_csv_non_finite_feature_names_row_and_column(tmp_path, cell):
    # float() parses these; min-max scaling would then zero column b for every row
    path = write(tmp_path, f"a,b,label\n1,2,yes\n2,{cell},no\n3,4,yes\n4,5,no\n")
    with pytest.raises(NonNumericFeatureError, match=r"row 3, column 'b'.*not a finite number"):
        load_csv(path, label_column="label", positive_label="yes")


def test_csv_more_than_two_label_values(tmp_path):
    path = write(tmp_path, "a,label\n1,cat\n2,dog\n3,bird\n")
    with pytest.raises(UnknownLabelError):
        load_csv(path, label_column="label", positive_label="cat")


# ------------------------------------------------------------ normalization


def test_minmax_maps_training_extremes_to_unit_interval():
    X = np.array([[0.0, 10.0], [5.0, 20.0], [2.5, 15.0]])
    view = DatasetView(X=X, y=np.array([1, -1, 1]))
    stats = fit_minmax(view)
    out = apply_minmax(view, stats)
    assert np.allclose(out.X[:, 0], [0.0, 1.0, 0.5])
    assert np.allclose(out.X[:, 1], [0.0, 1.0, 0.5])
    assert np.array_equal(out.y, view.y)


def test_minmax_clips_out_of_range_test_rows():
    train = DatasetView(X=np.array([[1.0], [3.0]]), y=np.array([1, -1]))
    test = DatasetView(X=np.array([[0.0], [4.0], [2.0]]), y=np.array([1, 1, -1]))
    out = apply_minmax(test, fit_minmax(train))
    assert np.allclose(out.X[:, 0], [0.0, 1.0, 0.5])


def test_minmax_constant_feature_goes_to_zero():
    train = DatasetView(X=np.array([[7.0, 1.0], [7.0, 2.0]]), y=np.array([1, -1]))
    out = apply_minmax(train, fit_minmax(train))
    assert np.array_equal(out.X[:, 0], [0.0, 0.0])


# ------------------------------------------------------------- apportioning


def test_largest_remainder_exact_fractions():
    counts = largest_remainder([0.7, 0.15, 0.1, 0.05], 400)
    assert np.array_equal(counts, [280, 60, 40, 20])


def test_largest_remainder_distributes_leftovers():
    counts = largest_remainder([1 / 3, 1 / 3, 1 / 3], 10)
    assert counts.sum() == 10
    assert sorted(counts) == [3, 3, 4]


# -------------------------------------------------------------- partitioning


def test_even_partition_balanced_sizes_and_classes():
    data = balanced_data(0, 400)
    plan = PartitionPlan(scheme=PartitionScheme.EVEN, G=4, seed=1)
    shards = partition(data, plan)
    assert [s.n for s in shards] == [100, 100, 100, 100]
    for s in shards:
        assert int((s.y == 1).sum()) == 50
    union = np.vstack([s.X for s in shards])
    assert as_multiset(union) == as_multiset(data.X)


def test_partition_outputs_are_disjoint():
    data = balanced_data(1, 60)
    shards = partition(data, PartitionPlan(scheme=PartitionScheme.EVEN, G=3, seed=2))
    rows = as_multiset(np.vstack([s.X for s in shards]))
    assert len(set(rows)) == len(rows) == 60


def test_client_imbalance_frozen_sizes():
    data = balanced_data(2, 400)
    plan = PartitionPlan(scheme=PartitionScheme.CLIENT_IMBALANCE, G=4, seed=3,
                         client_fractions=(0.7, 0.15, 0.1, 0.05))
    shards = partition(data, plan)
    assert [s.n for s in shards] == [280, 60, 40, 20]
    # stratified: each client keeps the global 50/50 mix
    for s in shards:
        assert int((s.y == 1).sum()) == s.n // 2
    union = np.vstack([s.X for s in shards])
    assert as_multiset(union) == as_multiset(data.X)


def test_class_imbalance_down_samples_to_feasible_mix():
    data = balanced_data(3, 400)
    plan = PartitionPlan(scheme=PartitionScheme.CLASS_IMBALANCE, G=4, seed=4,
                         class_fractions=(0.9, 0.1))
    shards = partition(data, plan)
    assert [s.n for s in shards] == [56, 56, 56, 56]
    for s in shards:
        assert int((s.y == 1).sum()) == 50
        assert int((s.y == -1).sum()) == 6
    # down-sampling: the union is a subset of the input
    union = as_multiset(np.vstack([s.X for s in shards]))
    pool = set(as_multiset(data.X))
    assert set(union) <= pool and len(union) == len(set(union))


def test_client_plus_class_combines_both_skews():
    data = balanced_data(4, 400)
    plan = PartitionPlan(scheme=PartitionScheme.CLIENT_PLUS_CLASS, G=4, seed=5,
                         client_fractions=(0.7, 0.15, 0.1, 0.05),
                         class_fractions=(0.9, 0.1))
    shards = partition(data, plan)
    sizes = np.array([s.n for s in shards])
    assert (sizes >= 1).all()
    # sizes follow the client shares of the achieved total
    assert np.array_equal(sizes, largest_remainder((0.7, 0.15, 0.1, 0.05), sizes.sum()))
    for s in shards:
        pos = int((s.y == 1).sum())
        assert abs(pos - 0.9 * s.n) <= 1.0
    union = as_multiset(np.vstack([s.X for s in shards]))
    assert set(union) <= set(as_multiset(data.X))


def test_label_noise_flips_exact_count_without_touching_input():
    data = balanced_data(5, 400)
    original = {tuple(np.round(x, 12)): y for x, y in zip(data.X, data.y)}
    y_before = data.y.copy()
    plan = PartitionPlan(scheme=PartitionScheme.LABEL_NOISE, G=4, seed=6,
                         noise_rate=0.15)
    shards = partition(data, plan)
    assert [s.n for s in shards] == [100, 100, 100, 100]
    flipped = sum(
        int(original[tuple(np.round(x, 12))] != y)
        for s in shards for x, y in zip(s.X, s.y)
    )
    assert flipped == 60
    assert np.array_equal(data.y, y_before)


def test_label_noise_rate_limits():
    data = balanced_data(6, 40)
    clean = partition(data, PartitionPlan(scheme=PartitionScheme.LABEL_NOISE,
                                          G=2, seed=7, noise_rate=0.0))
    noisy = partition(data, PartitionPlan(scheme=PartitionScheme.LABEL_NOISE,
                                          G=2, seed=7, noise_rate=1.0))
    original = {tuple(np.round(x, 12)): y for x, y in zip(data.X, data.y)}
    for s in clean:
        assert all(original[tuple(np.round(x, 12))] == y for x, y in zip(s.X, s.y))
    for s in noisy:
        assert all(original[tuple(np.round(x, 12))] == -y for x, y in zip(s.X, s.y))


def test_partition_is_seed_deterministic():
    data = balanced_data(7, 80)
    plan = PartitionPlan(scheme=PartitionScheme.EVEN, G=4, seed=8)
    a = partition(data, plan)
    b = partition(data, plan)
    for s, t in zip(a, b):
        assert np.array_equal(s.X, t.X) and np.array_equal(s.y, t.y)


def test_plan_validation():
    with pytest.raises(ValueError):
        PartitionPlan(scheme=PartitionScheme.EVEN, G=0, seed=0)
    with pytest.raises(ValueError, match="one share per client"):
        PartitionPlan(scheme=PartitionScheme.CLIENT_IMBALANCE, G=3, seed=0,
                      client_fractions=(0.5, 0.5))
    with pytest.raises(ValueError, match="sum to 1"):
        PartitionPlan(scheme=PartitionScheme.CLIENT_IMBALANCE, G=2, seed=0,
                      client_fractions=(0.5, 0.6))
    with pytest.raises(ValueError, match="noise_rate"):
        PartitionPlan(scheme=PartitionScheme.LABEL_NOISE, G=2, seed=0)
    with pytest.raises(ValueError, match="class_fractions"):
        PartitionPlan(scheme=PartitionScheme.CLASS_IMBALANCE, G=2, seed=0,
                      class_fractions=(0.5, 0.3, 0.2))


@pytest.mark.parametrize("scheme, knob, shares", [
    (PartitionScheme.CLIENT_IMBALANCE, "client_fractions", (float("nan"), 1.0)),
    (PartitionScheme.CLASS_IMBALANCE, "class_fractions", (0.5, float("nan"))),
])
def test_plan_rejects_nan_fractions(scheme, knob, shares):
    with pytest.raises(ValueError, match=f"{knob} must be positive"):
        PartitionPlan(scheme=scheme, G=2, seed=0, **{knob: shares})


def test_partition_infeasible_inputs():
    data = balanced_data(8, 4, p=2)
    with pytest.raises(ValueError):
        partition(data, PartitionPlan(scheme=PartitionScheme.EVEN, G=5, seed=0))
    plan = PartitionPlan(scheme=PartitionScheme.CLIENT_IMBALANCE, G=2, seed=0,
                         client_fractions=(0.999, 0.001))
    with pytest.raises(ValueError, match="empty"):
        partition(data, plan)


def test_normalize_then_partition_keeps_unit_box():
    raw = DatasetView(X=np.random.default_rng(9).normal(size=(200, 4)) * 7.0,
                      y=np.concatenate([np.ones(100), -np.ones(100)]))
    scaled = apply_minmax(raw, fit_minmax(raw))
    shards = partition(scaled, PartitionPlan(scheme=PartitionScheme.EVEN, G=4, seed=10))
    for s in shards:
        assert s.X.min() >= 0.0 and s.X.max() <= 1.0


# ---------------------------------------------------------------- synthetic


def test_synthetic_class_means_sit_at_opposite_cube_vertices():
    data = generate_synthetic(SyntheticSpec(N=800, P=3, G=4, seed=11))
    mean_pos = data.X[data.y == 1].mean(axis=0)
    mean_neg = data.X[data.y == -1].mean(axis=0)
    vertex = 1.2 * np.array([1.0, -1.0, 1.0])
    tol = 3.0 / np.sqrt(400)
    assert np.all(np.abs(mean_pos - vertex) <= tol)
    assert np.all(np.abs(mean_neg + vertex) <= tol)
    # per-coordinate gap is the cube side regardless of vertex signs
    assert np.all(np.abs(np.abs(mean_pos - mean_neg) - 2.4) <= 2 * tol)


def test_synthetic_is_balanced_and_deterministic():
    spec = SyntheticSpec(N=401, P=2, G=4, seed=12)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert int((a.y == 1).sum()) == 201 and int((a.y == -1).sum()) == 200


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(N=7, P=2, G=4)
    with pytest.raises(ValueError):
        SyntheticSpec(N=20, P=0, G=4)


@pytest.mark.parametrize("class_sep", [float("nan"), float("inf")])
def test_synthetic_spec_rejects_a_non_finite_class_sep(class_sep):
    with pytest.raises(ValueError, match="class_sep must be positive and finite"):
        SyntheticSpec(N=20, P=2, G=4, class_sep=class_sep)


# -------------------------------------------------------------- train/test


def test_split_train_test_sizes_and_stratification():
    data = balanced_data(13, 400)
    train, test = split_train_test(data, test_fraction=0.3, seed=14)
    assert train.n == 280 and test.n == 120
    assert int((test.y == 1).sum()) == 60
    union = as_multiset(np.vstack([train.X, test.X]))
    assert union == as_multiset(data.X)


def test_split_train_test_deterministic_and_validated():
    data = balanced_data(15, 50)
    a = split_train_test(data, seed=16)
    b = split_train_test(data, seed=16)
    assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)
    with pytest.raises(ValueError):
        split_train_test(data, test_fraction=0.0)
