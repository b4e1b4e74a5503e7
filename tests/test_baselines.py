"""Pooled robust solve and the federated l2-SVM family."""

import numpy as np
import pytest

from fedrosvm.baselines import (
    CentralDrConfig,
    FedBaselineConfig,
    FedVariant,
    l2_hinge_subgradient,
    train_central_dr_svm,
    train_fed_l2_svm,
)
from fedrosvm.core import DatasetView, NormKind, evaluate
from fedrosvm.robust import ClientConfig, build_risk_epigraph_qp, worst_case_risk_dual
from fedrosvm.solver import solve


def make_data(seed, n, p):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 0.95, size=(n, p))
    y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    if abs(y.sum()) == n:
        y[0] = -y[0]
    return DatasetView(X=X, y=y)


def separable_data(seed, n, p):
    """Two tight clusters separable by a hyperplane through the origin
    (the classifier has no bias term): the positive class sits high in the
    leading coordinates and low in the rest, the negative class mirrored.
    Needs p >= 2."""
    rng = np.random.default_rng(seed)
    half = n // 2
    lead = np.arange(p) < (p + 1) // 2
    mean_pos = np.where(lead, 0.85, 0.15)
    Xp = np.clip(mean_pos + 0.05 * rng.normal(size=(half, p)), 0.0, 1.0)
    Xm = np.clip((1.0 - mean_pos) + 0.05 * rng.normal(size=(n - half, p)), 0.0, 1.0)
    X = np.vstack([Xp, Xm])
    y = np.concatenate([np.ones(half), -np.ones(n - half)])
    perm = rng.permutation(n)
    return DatasetView(X=X[perm], y=y[perm])


# ------------------------------------------------------------ central model


def test_central_config_validation():
    with pytest.raises(ValueError):
        CentralDrConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        CentralDrConfig(epsilon=0.1, kappa=-1.0)


def test_central_objective_matches_exact_dual():
    data = make_data(3, 14, 3)
    for norm in (NormKind.L1, NormKind.LINF):
        cfg = CentralDrConfig(epsilon=5e-3, kappa=0.5, norm=norm)
        ccfg = ClientConfig(epsilon=cfg.epsilon, kappa=cfg.kappa, norm=cfg.norm)
        sol = solve(build_risk_epigraph_qp(data, ccfg))
        model = train_central_dr_svm(data, cfg)
        assert np.array_equal(model.w, sol.x_star[: data.p])
        dual = worst_case_risk_dual(model.w, data, ccfg)[0]
        assert abs(sol.objective - dual) <= 1e-6 * (1.0 + abs(dual))


def test_central_huge_radius_zeroes_the_model():
    data = make_data(4, 10, 2)
    model = train_central_dr_svm(data, CentralDrConfig(epsilon=1e3, kappa=1.0))
    assert np.linalg.norm(model.w) <= 1e-4


def test_central_separable_data_perfect_training_f1():
    data = separable_data(5, 24, 2)
    model = train_central_dr_svm(data, CentralDrConfig(epsilon=1e-4, kappa=1.0))
    metrics = evaluate(model, data)
    assert metrics.f1 == pytest.approx(1.0)


def test_central_optimum_lower_bounds_feasible_points():
    data = make_data(6, 12, 3)
    cfg = CentralDrConfig(epsilon=2e-2, kappa=0.5)
    ccfg = ClientConfig(epsilon=cfg.epsilon, kappa=cfg.kappa, norm=cfg.norm)
    model = train_central_dr_svm(data, cfg)
    optimum = worst_case_risk_dual(model.w, data, ccfg)[0]
    rng = np.random.default_rng(60)
    for _ in range(20):
        w_alt = model.w + rng.normal(scale=0.3, size=data.p)
        assert worst_case_risk_dual(w_alt, data, ccfg)[0] >= optimum - 1e-9


# --------------------------------------------------------- subgradient rule


def test_hinge_subgradient_hand_values():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, -1.0, 1.0])
    w = np.array([0.5, 0.5])
    # margins: 0.5 (active), -0.5 (active), 1.0 (kink, inactive)
    expected = 2.0 * 0.1 * w + (-(X[0]) + X[1]) / 3.0
    got = l2_hinge_subgradient(w, y[:, None] * X, c=0.1)
    assert np.allclose(got, expected)


def test_hinge_subgradient_all_inactive_is_pure_ridge():
    X = np.array([[1.0, 0.0]])
    y = np.array([1.0])
    w = np.array([3.0, 0.0])
    assert np.allclose(l2_hinge_subgradient(w, y[:, None] * X, c=0.25), 0.5 * w)


def test_hinge_subgradient_on_folded_labels_is_exact():
    # y = +-1, so y[:, None] * X gives bit for bit the unfolded rule
    rng = np.random.default_rng(12)
    X = rng.random((40, 3))
    y = np.where(rng.random(40) < 0.5, 1, -1)
    w = rng.standard_normal(3)
    active = y * (X @ w) < 1.0
    unfolded = 2.0 * 0.1 * w - (y[active, None] * X[active]).sum(axis=0) / y.size
    assert 0 < active.sum() < 40
    assert np.array_equal(l2_hinge_subgradient(w, y[:, None] * X, c=0.1), unfolded)


# -------------------------------------------------------- federated family


def test_fed_config_validation():
    with pytest.raises(ValueError):
        FedBaselineConfig(variant=FedVariant.FEDAVG, batch_fraction=0.0)
    with pytest.raises(ValueError):
        FedBaselineConfig(variant=FedVariant.FEDAVG, batch_fraction=1.2)
    with pytest.raises(ValueError):
        FedBaselineConfig(variant=FedVariant.FEDAVG, T=0)
    with pytest.raises(ValueError):
        FedBaselineConfig(variant=FedVariant.FEDAVG, gamma0=0.0)


def test_single_client_fedsgd_equals_plain_subgradient_descent():
    data = make_data(7, 16, 3)
    cfg = FedBaselineConfig(variant=FedVariant.FEDSGD, gamma0=0.5, T=8)
    trace = []
    train_fed_l2_svm([data], cfg, seed=0, trace=trace)

    c = 1.0 / (10.0 * data.n)
    w = np.zeros(data.p)
    for t in range(1, cfg.T + 1):
        w = w - (cfg.gamma0 / t) * l2_hinge_subgradient(w, data.y[:, None] * data.X, c)
        assert np.array_equal(trace[t - 1], w)


def test_fedprox_with_zero_mu_equals_fedavg():
    shards = [make_data(8, 12, 3), make_data(9, 20, 3)]
    base = dict(gamma0=0.5, T=5, local_epochs=3, batch_fraction=0.5)
    tr_avg, tr_prox = [], []
    train_fed_l2_svm(shards, FedBaselineConfig(variant=FedVariant.FEDAVG, **base),
                     seed=1, trace=tr_avg)
    train_fed_l2_svm(shards, FedBaselineConfig(variant=FedVariant.FEDPROX,
                                               prox_mu=0.0, **base),
                     seed=1, trace=tr_prox)
    for a, b in zip(tr_avg, tr_prox):
        assert np.array_equal(a, b)


def test_fedavg_single_full_batch_epoch_equals_fedsgd():
    shards = [make_data(10, 10, 2), make_data(11, 14, 2)]
    tr_sgd, tr_avg = [], []
    train_fed_l2_svm(shards, FedBaselineConfig(variant=FedVariant.FEDSGD,
                                               gamma0=1.0, T=6),
                     seed=2, trace=tr_sgd)
    train_fed_l2_svm(shards, FedBaselineConfig(variant=FedVariant.FEDAVG, gamma0=1.0,
                                               T=6, local_epochs=1, batch_fraction=1.0),
                     seed=2, trace=tr_avg)
    for a, b in zip(tr_sgd, tr_avg):
        assert np.array_equal(a, b)


def test_fedavg_learns_separable_data():
    shards = [separable_data(12, 30, 2), separable_data(13, 30, 2)]
    cfg = FedBaselineConfig(variant=FedVariant.FEDAVG, gamma0=1.0, T=30)
    model = train_fed_l2_svm(shards, cfg, seed=3)
    pooled = DatasetView(
        X=np.vstack([s.X for s in shards]),
        y=np.concatenate([s.y for s in shards]),
    )
    assert evaluate(model, pooled).f1 >= 0.95


def test_fed_training_is_seed_deterministic():
    shards = [make_data(14, 15, 3), make_data(15, 9, 3)]
    cfg = FedBaselineConfig(variant=FedVariant.FEDAVG, gamma0=0.5, T=4,
                            batch_fraction=0.4)
    a = train_fed_l2_svm(shards, cfg, seed=4)
    b = train_fed_l2_svm(shards, cfg, seed=4)
    c = train_fed_l2_svm(shards, cfg, seed=5)
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(a.w, c.w)


def test_fedprox_pull_keeps_iterates_near_server_model():
    shards = [separable_data(16, 20, 2), make_data(17, 20, 2)]
    # keep step * prox_mu below the stability threshold of the quadratic pull
    base = dict(gamma0=0.25, T=6, local_epochs=5, batch_fraction=0.5)
    avg = train_fed_l2_svm(
        shards, FedBaselineConfig(variant=FedVariant.FEDAVG, **base), seed=6)
    prox = train_fed_l2_svm(
        shards, FedBaselineConfig(variant=FedVariant.FEDPROX, prox_mu=4.0, **base),
        seed=6)
    # with a heavy proximal pull the model barely leaves the origin
    assert np.linalg.norm(prox.w) < np.linalg.norm(avg.w)


def test_fed_rejects_mismatched_dimensions():
    shards = [make_data(18, 8, 2), make_data(19, 8, 3)]
    cfg = FedBaselineConfig(variant=FedVariant.FEDAVG)
    with pytest.raises(ValueError, match="feature dimension"):
        train_fed_l2_svm(shards, cfg, seed=0)
