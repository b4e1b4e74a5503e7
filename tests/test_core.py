"""Core primitives: losses, costs, norms, metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedrosvm.core import (
    DatasetView,
    GlobalModel,
    NormKind,
    dual_norm,
    evaluate,
    hinge_losses,
)
from fedrosvm.robust import ClientConfig, WorstCaseDistribution


def hinge_at(w, x, y):
    """hinge_losses at a single row."""
    return hinge_losses(np.asarray(w, dtype=float), np.atleast_2d(x), np.array([y]))[0]


class TestHingeLoss:
    def test_zero_weights_give_unit_loss(self):
        # loss at w = 0 is exactly 1 for any sample
        assert hinge_at(np.zeros(2), [0.3, 0.9], +1) == 1.0

    def test_large_margin_gives_zero(self):
        assert hinge_at([1.0], [3.0], +1) == 0.0

    def test_hand_computed_value(self):
        # 1 - <(1,1), (0.25,0.25)> = 0.5
        assert hinge_at([1.0, 1.0], [0.25, 0.25], +1) == pytest.approx(0.5)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            hinge_at(np.zeros(3), [1.0, 2.0], -1)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, size=(40, 3))
        y = rng.choice([-1, 1], size=40)
        w = rng.normal(size=3)
        batch = hinge_losses(w, X, y)
        for i in range(40):
            assert batch[i] == pytest.approx(max(0.0, 1.0 - y[i] * float(w @ X[i])))

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = rng.integers(1, 6)
            X = rng.normal(size=(4, p))
            y = rng.choice([-1, 1], size=4)
            assert (hinge_losses(rng.normal(size=p) * 10, X, y) >= 0.0).all()


def one_move(x, y, z, flipped, norm=NormKind.L1, kappa=1.0):
    """Transport spent moving the single sample (x, y) to an atom at z,
    with its label kept or flipped: the ground cost between the two."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    mass = np.array([0.0, 1.0]) if flipped else np.array([1.0, 0.0])
    atoms = np.vstack([x, x])
    atoms[int(flipped)] = z
    dist = WorstCaseDistribution(z=atoms, label=np.array([y, -y]), mass=mass)
    cfg = ClientConfig(epsilon=1.0, kappa=kappa, norm=norm)
    return dist.transport_spent(DatasetView([x], [y]), cfg)


class TestTransportCost:
    """The ground cost ||x - z|| plus kappa per label flip, read through
    `WorstCaseDistribution.transport_spent` on one sample."""

    def test_identical_points_cost_zero(self):
        assert one_move([0.1, 0.2], +1, [0.1, 0.2], flipped=False) == 0.0

    def test_label_flip_costs_kappa(self):
        assert one_move([0.5, 0.5], +1, [0.5, 0.5], flipped=True, kappa=0.5) == 0.5

    def test_l1_hand_value(self):
        assert one_move([0.0, 0.0], +1, [0.3, 0.4], flipped=False) == pytest.approx(0.7)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
            y, flipped = int(rng.choice([-1, 1])), bool(rng.integers(2))
            ab = one_move(a, y, b, flipped, NormKind.LINF, 0.7)
            assert ab == pytest.approx(one_move(b, -y if flipped else y, a, flipped,
                                                NormKind.LINF, 0.7))
            assert ab >= 0.0
            if ab == 0.0:
                assert not flipped and np.allclose(a, b)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            ClientConfig(epsilon=1.0, kappa=-0.1)


class TestDualNorm:
    def test_zero_vector(self):
        assert dual_norm(np.zeros(4), NormKind.L1) == 0.0
        assert dual_norm(np.zeros(4), NormKind.LINF) == 0.0

    def test_l1_pairs_with_linf(self):
        assert dual_norm(np.array([1.0, -2.0, 3.0]), NormKind.L1) == 3.0

    def test_linf_pairs_with_l1(self):
        assert dual_norm(np.array([1.0, -2.0, 3.0]), NormKind.LINF) == 6.0

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
           st.lists(st.floats(-100, 100), min_size=1, max_size=8),
           st.sampled_from([NormKind.L1, NormKind.LINF]))
    def test_holder_pairing(self, u, v, norm):
        n = min(len(u), len(v))
        u = np.array(u[:n])
        v = np.array(v[:n])
        u_norm = np.abs(u).sum() if norm is NormKind.L1 else np.abs(u).max()
        assert abs(u @ v) <= u_norm * dual_norm(v, norm) + 1e-9


class TestEvaluate:
    def test_perfect_separation(self):
        data = DatasetView([[1.0], [2.0], [-1.0], [-2.0]], [1, 1, -1, -1])
        m = evaluate(GlobalModel([1.0]), data)
        assert m.f1 == 1.0 and m.mccr == 1.0

    def test_all_positive_predictions_on_balanced_data(self):
        data = DatasetView([[1.0]] * 10, [1] * 5 + [-1] * 5)
        m = evaluate(GlobalModel([1.0]), data)
        assert m.mccr == pytest.approx(0.5)

    def test_hand_computed_confusion(self):
        # 3 TP, 1 FN, 1 FP, 5 TN -> f1 = 2*3/(2*3+1+1) = 0.75
        X = [[1.0]] * 3 + [[-1.0]] + [[1.0]] + [[-1.0]] * 5
        y = [1, 1, 1, 1, -1, -1, -1, -1, -1, -1]
        m = evaluate(GlobalModel([1.0]), DatasetView(X, y))
        assert m.f1 == pytest.approx(0.75)
        assert m.confusion.tolist() == [[3, 1], [1, 5]]
        assert m.mccr == pytest.approx((3 / 4 + 5 / 6) / 2)

    def test_zero_score_predicts_positive(self):
        data = DatasetView([[0.0]], [1])
        m = evaluate(GlobalModel([1.0]), data)
        assert m.confusion[0, 0] == 1  # counted as TP, not FN

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(37, 2))
        y = rng.choice([-1, 1], size=37)
        m = evaluate(GlobalModel(rng.normal(size=2)), DatasetView(X, y))
        assert m.confusion.sum() == 37 == m.n


class TestViews:
    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            DatasetView([[0.0], [1.0]], [0, 1])

    def test_subset_copies(self):
        d = DatasetView([[1.0], [2.0], [3.0]], [1, -1, 1])
        s = d.subset([0, 2])
        s.X[0, 0] = 99.0
        assert d.X[0, 0] == 1.0
        assert s.y.tolist() == [1, 1]
