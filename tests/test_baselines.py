"""Pooled robust solve and the federated l2-SVM family."""

from dataclasses import replace

import numpy as np
import pytest

from fedrosvm import baselines
from fedrosvm.baselines import (
    CentralDrConfig,
    FedBaselineConfig,
    FedVariant,
    l2_hinge_subgradient,
    train_central_dr_svm,
    train_fed_l2_stack,
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


@pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
def test_central_config_rejects_a_non_finite_kappa(kappa):
    with pytest.raises(ValueError, match="kappa must be nonnegative and finite"):
        CentralDrConfig(epsilon=0.1, kappa=kappa)


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


@pytest.mark.parametrize("knob", ["gamma0", "prox_mu"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_fed_config_rejects_a_non_finite_knob(knob, value):
    with pytest.raises(ValueError, match=f"{knob} must be .* finite"):
        FedBaselineConfig(variant=FedVariant.FEDPROX, **{knob: value})


def one_run(client_data, cfg, seed):
    """The global iterate after every round of one run: the one-run slice
    of the stacked trainer, which train_fed_l2_svm also returns the last
    row of."""
    return train_fed_l2_stack([client_data], cfg, seed, [cfg.gamma0])[0, 0]


def test_single_client_fedsgd_equals_plain_subgradient_descent():
    data = make_data(7, 16, 3)
    cfg = FedBaselineConfig(variant=FedVariant.FEDSGD, gamma0=0.5, T=8)
    trace = one_run([data], cfg, seed=0)

    c = 1.0 / (10.0 * data.n)
    w = np.zeros(data.p)
    for t in range(1, cfg.T + 1):
        w = w - (cfg.gamma0 / t) * l2_hinge_subgradient(w, data.y[:, None] * data.X, c)
        assert np.array_equal(trace[t - 1], w)


def test_fedprox_with_zero_mu_equals_fedavg():
    shards = [make_data(8, 12, 3), make_data(9, 20, 3)]
    base = dict(gamma0=0.5, T=5, local_epochs=3, batch_fraction=0.5)
    tr_avg = one_run(shards, FedBaselineConfig(variant=FedVariant.FEDAVG, **base), seed=1)
    tr_prox = one_run(shards, FedBaselineConfig(variant=FedVariant.FEDPROX, prox_mu=0.0,
                                                **base), seed=1)
    assert np.array_equal(tr_avg, tr_prox)


def test_fedavg_single_full_batch_epoch_equals_fedsgd():
    shards = [make_data(10, 10, 2), make_data(11, 14, 2)]
    tr_sgd = one_run(shards, FedBaselineConfig(variant=FedVariant.FEDSGD, gamma0=1.0, T=6),
                     seed=2)
    tr_avg = one_run(shards, FedBaselineConfig(variant=FedVariant.FEDAVG, gamma0=1.0, T=6,
                                               local_epochs=1, batch_fraction=1.0), seed=2)
    assert np.array_equal(tr_sgd, tr_avg)


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


# ------------------------------------------------------- stacked training


def reference_run(client_data, cfg, seed):
    """The per-run loop the stacked trainer must reproduce: every client
    takes its minibatch steps with l2_hinge_subgradient, one batch at a
    time. Returns the global iterate after every round."""
    if cfg.variant is FedVariant.FEDSGD:
        epochs, fraction = 1, 1.0
    else:
        epochs, fraction = cfg.local_epochs, cfg.batch_fraction
    prox_mu = cfg.prox_mu if cfg.variant is FedVariant.FEDPROX else 0.0
    n_total = sum(d.n for d in client_data)
    w = np.zeros(client_data[0].p)
    iterates = []
    for t in range(1, cfg.T + 1):
        step = cfg.gamma0 / t
        aggregated = np.zeros_like(w)
        for g, data in enumerate(client_data):
            batch = max(1, int(round(fraction * data.n)))
            rng = np.random.default_rng([seed, g, t])
            signed = data.y[:, None] * data.X
            w_g = w.copy()
            for _ in range(epochs):
                order = np.arange(data.n) if batch >= data.n else rng.permutation(data.n)
                for start in range(0, data.n, batch):
                    rows = signed[order[start:start + batch]]
                    grad = l2_hinge_subgradient(w_g, rows, 1.0 / (10.0 * data.n))
                    if prox_mu > 0.0:
                        grad = grad + prox_mu * (w_g - w)
                    w_g = w_g - step * grad
            aggregated += (data.n / n_total) * w_g
        w = aggregated
        iterates.append(w.copy())
    return np.array(iterates)


# client counts differ between folds; at batch_fraction 0.2 the sizes 13,
# 9, 6 and 41 end on a one-row batch, 37 on a two-row one, and 12, 30 and
# 14 split evenly; full batches of 30 or more rows sum pairwise at P = 1
STACK_FOLDS = ((13, 9, 37), (12, 30), (14, 6, 9), (41,))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("variant", list(FedVariant))
def test_stacked_runs_equal_separate_runs_bit_for_bit(variant, p):
    folds = [[make_data(100 * f + g, n, p) for g, n in enumerate(sizes)]
             for f, sizes in enumerate(STACK_FOLDS)]
    for gamma0s, fraction in (([0.7], 0.2), ([1e-2, 0.3, 1.0, 4.0], 0.2),
                              ([0.05, 2.0], 0.6)):
        cfg = FedBaselineConfig(variant=variant, T=6, local_epochs=3,
                                batch_fraction=fraction, prox_mu=0.8)
        iterates = train_fed_l2_stack(folds, cfg, 11, gamma0s)
        assert iterates.shape == (len(folds), len(gamma0s), cfg.T, p)
        for f, clients in enumerate(folds):
            for k, gamma0 in enumerate(gamma0s):
                ref = reference_run(clients, replace(cfg, gamma0=gamma0), 11)
                if p == 1:
                    # numpy sums one active column pairwise, the stack row
                    # by row: a few ulps apart (3e-15 relative measured);
                    # the lone run is the stack's one-run view all the same
                    np.testing.assert_allclose(iterates[f, k], ref, rtol=1e-13, atol=0)
                    lone = one_run(clients, replace(cfg, gamma0=gamma0), 11)
                    assert np.array_equal(iterates[f, k], lone), (f, gamma0)
                else:
                    assert np.array_equal(iterates[f, k], ref), (f, gamma0)


def test_one_run_view_equals_the_reference_loop():
    shards = [make_data(20, 13, 3), make_data(21, 9, 3)]
    cfg = FedBaselineConfig(variant=FedVariant.FEDPROX, gamma0=0.6, T=5,
                            batch_fraction=0.2, prox_mu=0.5)
    model = train_fed_l2_svm(shards, cfg, seed=3)
    ref = reference_run(shards, cfg, 3)
    assert np.array_equal(one_run(shards, cfg, 3), ref)
    assert np.array_equal(model.w, ref[-1])


def broadcast_minibatch_step(W, W_round, Yb, length, two_c, step, prox_mu):
    """`baselines._minibatch_step` as it was first written: the masked rows
    as one (pairs, step sizes, rows, P) product, summed over its rows."""
    shared = Yb[:, None]
    active = shared @ W[..., None] < 1.0
    sums = np.add.reduce(active * shared, axis=2)
    grad = two_c * W - sums / length
    if prox_mu > 0.0:
        grad = grad + prox_mu * (W - W_round)
    return W - step * grad


def test_minibatch_step_keeps_the_bytes_of_the_broadcast_form():
    # random groups at P >= 2, with signed zeros among the features and the
    # iterates, where only the order and the start of the row sum show
    rng = np.random.default_rng(76)
    for trial in range(400):
        pairs, K, length, P = (rng.integers(1, 25), rng.integers(1, 5), rng.integers(1, 14),
                               rng.integers(2, 6))
        W = rng.standard_normal((pairs, K, P)) * rng.choice([0.0, 0.1, 3.0])
        if trial % 3 == 0:
            W = -W
        Yb = rng.standard_normal((pairs, length, P))
        if trial % 2 == 0:
            Yb[rng.random(Yb.shape) < 0.5] = rng.choice([0.0, -0.0])
        args = (W, W + 0.1, Yb, length, rng.random((pairs, 1, 1)), rng.random((K, 1)),
                rng.choice([0.0, 0.5]))
        want = broadcast_minibatch_step(*args)
        assert baselines._minibatch_step(*args).tobytes() == want.tobytes(), trial


def test_minibatch_calls_per_round_do_not_grow_with_clients(monkeypatch):
    # shards of 20 rows at batch_fraction 0.2 take five batches of 4 rows
    # per epoch, so every (fold, client) pair steps in one group
    real = baselines._minibatch_step
    calls = []

    def counting(*args):
        calls.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(baselines, "_minibatch_step", counting)
    cfg = FedBaselineConfig(variant=FedVariant.FEDAVG, T=3, local_epochs=2,
                            batch_fraction=0.2)
    per_round = {}
    for G in (2, 4):
        folds = [[make_data(10 * f + g, 20, 2) for g in range(G)] for f in range(3)]
        calls.clear()
        train_fed_l2_stack(folds, cfg, 0, [0.1, 1.0])
        per_round[G] = len(calls) / cfg.T
        assert set(calls) == {3 * G}
    assert per_round[2] == per_round[4] == 2 * 5


@pytest.mark.parametrize("gamma0", [0.0, -0.1, np.inf, np.nan])
def test_stack_rejects_a_step_size_that_is_not_positive_and_finite(gamma0):
    cfg = FedBaselineConfig(variant=FedVariant.FEDAVG)
    with pytest.raises(ValueError, match="gamma0 must be positive"):
        train_fed_l2_stack([[make_data(25, 8, 2)]], cfg, 0, [0.1, gamma0])


def test_stack_rejects_empty_folds_and_mixed_dimensions():
    cfg = FedBaselineConfig(variant=FedVariant.FEDAVG)
    with pytest.raises(ValueError, match="at least one client"):
        train_fed_l2_stack([[make_data(22, 8, 2)], []], cfg, 0, [1.0])
    with pytest.raises(ValueError, match="feature dimension"):
        train_fed_l2_stack([[make_data(23, 8, 2)], [make_data(24, 8, 3)]], cfg, 0, [1.0])
