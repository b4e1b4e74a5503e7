"""Tests for the client-side robust operations.

The hand-worked instances here were derived independently of the code: the
single-sample worst-case instance and both dual instances were solved by
hand, and the tiny LPs are cross-checked against the brute-force vertex
enumerator.

Duality checks sample from the regime where the extremal configuration is
hinge-active everywhere (w rescaled so empirical margins stay within 0.9,
radii small enough that the budget is absorbable inside the unit box); the
LP value, the re-evaluated risk of the extracted atoms, and the dual then
provably coincide.
"""

import logging
import math
import re

import numpy as np
import pytest

from fedrosvm import robust, solver
from fedrosvm.core import DatasetView, NormKind, dual_norm, hinge_losses
from fedrosvm.robust import (
    ClientConfig,
    ProximalSteps,
    admm_client_step,
    admm_multiplier_update,
    build_risk_epigraph_qp,
    build_sm_lp,
    extract_worst_case,
    radius_heuristic,
    sm_subgradient,
    worst_case_risk_dual,
    WorstCaseDistribution,
    WorstCaseDual,
)
from fedrosvm.solver import (
    SolverConfig,
    SolverSolution,
    SolverStatus,
    solve,
    solve_lp_by_enumeration,
)


def make_data(X, y):
    return DatasetView(X=np.asarray(X, dtype=float), y=np.asarray(y, dtype=int))


def random_instance(rng, n, p, margin_cap=None):
    """Random unit-box dataset and weight vector; margin_cap rescales w so
    the largest absolute empirical margin equals it."""
    X = rng.random((n, p))
    y = np.where(rng.random(n) < 0.5, 1, -1)
    w = rng.standard_normal(p)
    if margin_cap is not None:
        peak = float(np.max(np.abs(X @ w)))
        if peak > 0:
            w *= margin_cap / peak
    return make_data(X, y), w


# ---------------------------------------------------------------- config


def test_client_config_validation():
    ClientConfig(epsilon=0.1)  # fine
    with pytest.raises(ValueError):
        ClientConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ClientConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        ClientConfig(epsilon=0.1, kappa=-0.5)
    with pytest.raises(ValueError):
        ClientConfig(epsilon=0.1, alpha=0.0)
    with pytest.raises(ValueError):
        ClientConfig(epsilon=0.1, alpha=1.5)
    with pytest.raises(ValueError):
        ClientConfig(epsilon=0.1, tau=-1.0)
    with pytest.raises(ValueError):
        ClientConfig(epsilon=0.1, rho=0.0)


@pytest.mark.parametrize("knob", ["rho", "tau"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_client_config_rejects_a_non_finite_knob(knob, value):
    with pytest.raises(ValueError, match=f"{knob} must be .* finite"):
        ClientConfig(epsilon=0.1, **{knob: value})


# ------------------------------------------------------- worst-case LP


def test_lp_layout_counts_single_sample():
    data = make_data([[0.5]], [1])
    for norm in (NormKind.LINF, NormKind.L1):
        cfg = ClientConfig(epsilon=0.1, kappa=10.0, norm=norm)
        p = build_sm_lp(np.array([1.0]), data, cfg)
        assert p.n == 6
        assert p.m == 11
        assert p.k == 1


def test_lp_layout_counts_multi_sample():
    data = make_data([[0.1, 0.2, 0.3], [0.9, 0.8, 0.7]], [1, -1])
    w = np.array([1.0, -1.0, 0.5])
    p_inf = build_sm_lp(w, data, ClientConfig(epsilon=0.1, norm=NormKind.LINF))
    assert (p_inf.n, p_inf.m, p_inf.k) == (20, 53, 2)
    p_l1 = build_sm_lp(w, data, ClientConfig(epsilon=0.1, norm=NormKind.L1))
    assert (p_l1.n, p_l1.m, p_l1.k) == (28, 53, 2)


def edge_shard(seed, n=5, p=3):
    """Unit-box shard with features sitting exactly at 0 and 1, where the
    box coefficients -x and x - 1 vanish."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, p))
    X[0, 0] = X[1, 2] = X[3, 1] = 0.0
    X[0, 1] = X[2, 2] = X[4, 0] = 1.0
    return make_data(X, np.where(rng.random(n) < 0.5, 1, -1)), rng


@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("norm", [NormKind.L1, NormKind.LINF])
def test_lp_rows_are_the_written_out_constraints(norm, kappa):
    data, rng = edge_shard(31)
    X, N, P = data.X, data.n, data.p
    cfg = ClientConfig(epsilon=0.07, kappa=kappa, norm=norm)
    prog = build_sm_lp(rng.standard_normal(P), data, cfg)
    v = rng.standard_normal(prog.n)

    n_aux = 2 * N if norm is NormKind.LINF else 2 * N * P
    bp, bm = v[:N], v[N:2 * N]
    aux_p, aux_m = np.split(v[2 * N:2 * N + n_aux], 2)
    qp, qm = (q.reshape(N, P) for q in np.split(v[2 * N + n_aux:], 2))
    if norm is NormKind.LINF:  # one t per atom bounds every coordinate
        aux_p, aux_m = aux_p[:, None], aux_m[:, None]
    else:
        aux_p, aux_m = aux_p.reshape(N, P), aux_m.reshape(N, P)
    budget = aux_p.sum() + aux_m.sum() + kappa * bm.sum() - N * cfg.epsilon
    expected = [[budget]]
    for q, aux in ((qp, aux_p), (qm, aux_m)):  # norm epigraphs
        expected += [(q - aux).ravel(), (-q - aux).ravel()]
    for beta, q in ((bp, qp), (bm, qm)):  # support box
        expected += [(q - beta[:, None] * X).ravel(),
                     (beta[:, None] * (X - 1.0) - q).ravel()]
    expected += [-bp, -bm]  # beta >= 0
    np.testing.assert_allclose(prog.A_ineq @ v - prog.b_ineq, np.concatenate(expected),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(prog.A_eq @ v - prog.b_eq, bp + bm - 1.0,
                               rtol=1e-12, atol=1e-12)

    # box coefficients are stored even where they are 0; kappa only if set
    NP = N * P
    assert prog.A_ineq.nnz == n_aux + (kappa != 0.0) * N + 16 * NP + 2 * N
    assert prog.A_eq.nnz == 2 * N


def test_lp_requires_unit_box():
    data = make_data([[1.5]], [1])
    with pytest.raises(ValueError, match="normalize"):
        build_sm_lp(np.array([1.0]), data, ClientConfig(epsilon=0.1))


def test_lp_rejects_wrong_w_shape():
    data = make_data([[0.5, 0.5]], [1])
    with pytest.raises(ValueError):
        build_sm_lp(np.array([1.0]), data, ClientConfig(epsilon=0.1))


def test_hand_instance_worst_case():
    # One sample at x=0.5 with label +1, w=1, eps=0.1, kappa=10. Flips cost
    # 10 per unit mass so the whole budget goes into moving the kept atom
    # against the margin: z = 0.5 - 0.1 = 0.4, risk = 1 - 0.4 = 0.6.
    data = make_data([[0.5]], [1])
    cfg = ClientConfig(epsilon=0.1, kappa=10.0, norm=NormKind.L1)
    w = np.array([1.0])
    prog = build_sm_lp(w, data, cfg)
    sol = solve(prog)
    assert sol.status is SolverStatus.OPTIMAL
    surrogate_risk = 1.0 - sol.objective
    assert surrogate_risk == pytest.approx(0.6, abs=1e-7)

    dist = extract_worst_case(sol, data, cfg)
    assert dist.validate(data, cfg) == []
    # stacked atoms: row 0 keeps the label, row 1 flips it
    assert dist.mass[1] == pytest.approx(0.0, abs=1e-6)
    assert dist.mass[0] == pytest.approx(1.0, abs=1e-6)
    assert dist.z[0, 0] == pytest.approx(0.4, abs=1e-6)
    assert dist.risk(w) == pytest.approx(0.6, abs=1e-6)
    assert dist.transport_spent(data, cfg) == pytest.approx(0.1, abs=1e-6)


def test_hand_instance_matches_enumeration():
    data = make_data([[0.5]], [1])
    w = np.array([1.0])
    for norm in (NormKind.L1, NormKind.LINF):
        cfg = ClientConfig(epsilon=0.1, kappa=10.0, norm=norm)
        prog = build_sm_lp(w, data, cfg)
        ref = solve_lp_by_enumeration(prog)
        sol = solve(prog)
        assert sol.objective == pytest.approx(ref.objective, abs=1e-8)


def test_tiny_radius_collapses_to_empirical():
    # With no budget the optimizer is pinned at beta+ = 1, q = 0: the LP
    # value is the bare surrogate -mean(margins) and the extracted
    # distribution is the empirical one.
    rng = np.random.default_rng(1003)
    data, w = random_instance(rng, 6, 3)
    cfg = ClientConfig(epsilon=1e-9, kappa=0.5, norm=NormKind.L1)
    sol = solve(build_sm_lp(w, data, cfg))
    assert sol.status is SolverStatus.OPTIMAL
    margins = data.y * (data.X @ w)
    # program minimizes the negated gain, so its optimum is +mean(margins)
    assert sol.objective == pytest.approx(float(margins.mean()), abs=1e-6)

    dist = extract_worst_case(sol, data, cfg)
    N = data.n
    assert np.max(dist.mass[N:]) <= 1e-6
    kept = dist.mass[:N] > 0.0
    np.testing.assert_allclose(dist.z[:N][kept], data.X[kept], atol=1e-6)
    empirical = float(hinge_losses(w, data.X, data.y).mean())
    assert dist.risk(w) == pytest.approx(empirical, abs=1e-6)


def test_large_kappa_forbids_flips():
    rng = np.random.default_rng(1007)
    data, w = random_instance(rng, 5, 2, margin_cap=0.9)
    eps = 1e-2
    cfg = ClientConfig(epsilon=eps, kappa=1e3 * data.n * eps, norm=NormKind.L1)
    sol = solve(build_sm_lp(w, data, cfg))
    assert sol.status is SolverStatus.OPTIMAL
    dist = extract_worst_case(sol, data, cfg)
    assert np.max(dist.mass[data.n:]) <= 1e-6


def test_extract_rejects_non_optimal():
    data = make_data([[0.5]], [1])
    cfg = ClientConfig(epsilon=0.1)
    sol = solve(build_sm_lp(np.array([1.0]), data, cfg))
    bad = type(sol)(
        x_star=sol.x_star,
        objective=sol.objective,
        status=SolverStatus.NUMERICAL_FAILURE,
        kkt_residual=np.inf,
        iterations=0,
        message="synthetic failure",
        z_star=sol.z_star,
        y_star=sol.y_star,
    )
    with pytest.raises(ValueError, match="non-optimal"):
        extract_worst_case(bad, data, cfg)


# ------------------------------------------- stacked atoms, built by hand


TWO_SAMPLES = make_data([[0.2, 0.5], [0.6, 0.3]], [1, -1])


def stacked(z, mass):
    """Two-sample distribution; rows 0, 1 keep the labels, rows 2, 3 flip
    them."""
    return WorstCaseDistribution(z=np.asarray(z, dtype=float),
                                 label=np.array([1, -1, -1, 1]),
                                 mass=np.asarray(mass, dtype=float))


def test_transport_spent_matches_per_sample_sum():
    # sample 0 keeps its label and moves by (-0.1, +0.2); its flipped atom
    # is dropped. Sample 1 keeps 0.7 of its mass, moved by (+0.1, -0.2),
    # and flips 0.3, moved by (0, +0.1).
    d = stacked([[0.1, 0.7], [0.7, 0.1], [0.2, 0.5], [0.6, 0.4]],
                [1.0, 0.7, 0.0, 0.3])
    kappa = 0.5
    l1 = ClientConfig(epsilon=1.0, kappa=kappa, norm=NormKind.L1)
    # per sample: 1.0*0.3, then 0.7*0.3 + 0.3*(0.1 + kappa); averaged over 2
    assert d.transport_spent(TWO_SAMPLES, l1) == pytest.approx(
        (1.0 * 0.3 + 0.7 * 0.3 + 0.3 * (0.1 + kappa)) / 2, abs=1e-15)
    linf = ClientConfig(epsilon=1.0, kappa=kappa, norm=NormKind.LINF)
    assert d.transport_spent(TWO_SAMPLES, linf) == pytest.approx(
        (1.0 * 0.2 + 0.7 * 0.2 + 0.3 * (0.1 + kappa)) / 2, abs=1e-15)


def test_validate_reports_each_violation_alone():
    cfg = ClientConfig(epsilon=0.5, kappa=1.0, norm=NormKind.L1)
    X = TWO_SAMPLES.X
    # valid: atoms at their samples, sample 1 flips 0.25 (spends 0.125); the
    # dropped atom outside the box carries no mass and is not checked
    base_z = np.vstack([X, [[5.0, 5.0]], X[1:]])
    base_mass = np.array([1.0, 0.75, 0.0, 0.25])
    assert stacked(base_z, base_mass).validate(TWO_SAMPLES, cfg) == []

    kept_out, flipped_out = base_z.copy(), base_z.copy()
    kept_out[0] = [-0.125, 0.5]
    flipped_out[3] = [0.6, 1.125]
    cases = [
        (base_z, [1.0, 0.75, 0.0, 0.5], "per-sample mass deviates from 1 by 2.500e-01"),
        (base_z, [1.25, 0.75, -0.25, 0.25], "negative atom mass"),
        (kept_out, base_mass, "kept-label atom escapes the unit box"),
        (flipped_out, base_mass, "flipped-label atom escapes the unit box"),
    ]
    for z, mass, message in cases:
        assert stacked(z, mass).validate(TWO_SAMPLES, cfg) == [message]

    tight = ClientConfig(epsilon=0.1, kappa=1.0, norm=NormKind.L1)
    assert stacked(base_z, base_mass).validate(TWO_SAMPLES, tight) == [
        "transport budget exceeded: 0.125 > 0.1"
    ]


def per_sample_reference(sol, data, cfg, w):
    """The extraction and the four distribution functionals written out
    one sample at a time, reading the LP columns as build_sm_lp lays them
    out: (z, mass, risk, transport, subgradient)."""
    X, y, N, P = data.X, data.y, data.n, data.p
    x = sol.x_star
    off_q = 2 * N + (2 * N if cfg.norm is NormKind.LINF else 2 * N * P)
    z, mass = np.empty((2 * N, P)), np.empty(2 * N)
    risk = spent = 0.0
    v = np.zeros(P)
    for i in range(N):
        for k, sibling, label, flip in ((i, N + i, y[i], 0.0), (N + i, i, -y[i], cfg.kappa)):
            beta = x[k]
            q = x[off_q + k * P:off_q + (k + 1) * P]
            if beta > robust.MASS_DROP_TOL:
                mass[k] = 1.0 if x[sibling] <= robust.MASS_DROP_TOL else beta
                z[k] = np.clip(X[i] - q / beta, 0.0, 1.0)
            else:
                mass[k], z[k] = 0.0, X[i]
            r = 1.0 - label * (z[k] @ w)
            risk += mass[k] * max(0.0, r)
            move = np.abs(z[k] - X[i])
            spent += mass[k] * ((move.sum() if cfg.norm is NormKind.L1 else move.max()) + flip)
            if r >= -robust.KINK_TOL:
                v -= mass[k] * label * z[k]
    return z, mass, risk / N, spent / N, v / N


def test_stacked_atoms_match_per_sample_reference():
    # atoms and masses are the same floating-point operations as the
    # per-sample reference, so they must agree bit for bit; the sums only
    # change order, which moves them by a few ulps
    checked = 0
    for seed in range(12):
        data, rng = edge_shard(200 + seed, n=6, p=3)
        w = rng.standard_normal(data.p) * rng.uniform(0.5, 3.0)
        cfg = ClientConfig(epsilon=float(rng.choice([1e-2, 1e-1, 0.5])),
                           kappa=(0.0, 0.5, 1.0)[seed % 3],
                           norm=(NormKind.L1, NormKind.LINF)[seed % 2])
        sol = solve(build_sm_lp(w, data, cfg))
        assert sol.status is SolverStatus.OPTIMAL
        dist = extract_worst_case(sol, data, cfg)
        z, mass, risk, spent, v = per_sample_reference(sol, data, cfg, w)
        assert dist.z.tobytes() == z.tobytes() and dist.mass.tobytes() == mass.tobytes()
        assert np.array_equal(dist.label, np.concatenate([data.y, -data.y]))
        assert dist.risk(w) == pytest.approx(risk, rel=1e-14, abs=1e-15)
        assert dist.transport_spent(data, cfg) == pytest.approx(spent, rel=1e-14, abs=1e-15)
        np.testing.assert_allclose(sm_subgradient(w, dist), v, rtol=1e-14, atol=1e-15)
        checked += int((mass == 0.0).sum() > 0)
    assert checked >= 6  # most instances drop at least one atom


# -------------------------------------------------------------- dual form


def test_dual_hand_instance_floor():
    # Same instance as the primal hand case; the crossing point 0.1 sits
    # below the dual-norm floor 1, so lam* = 1 and the value is
    # 0.1*1 + max(0.5, 1.5 - 10) = 0.6.
    data = make_data([[0.5]], [1])
    cfg = ClientConfig(epsilon=0.1, kappa=10.0, norm=NormKind.L1)
    value, lam = worst_case_risk_dual(np.array([1.0]), data, cfg)
    assert value == pytest.approx(0.6, abs=1e-12)
    assert lam == pytest.approx(1.0, abs=1e-12)


def test_dual_hand_instance_breakpoint():
    # w=1.5 at x=1 (label +1): kept hinge 0, flipped hinge 2.5. Floor gives
    # 0.1*1.5 + 1.0 = 1.15; the crossing at lam = 2.5 gives 0.25.
    data = make_data([[1.0]], [1])
    cfg = ClientConfig(epsilon=0.1, kappa=1.0, norm=NormKind.L1)
    value, lam = worst_case_risk_dual(np.array([1.5]), data, cfg)
    assert value == pytest.approx(0.25, abs=1e-12)
    assert lam == pytest.approx(2.5, abs=1e-12)


def test_dual_at_zero_weights_is_one():
    rng = np.random.default_rng(1009)
    data, _ = random_instance(rng, 7, 3)
    cfg = ClientConfig(epsilon=0.3, kappa=0.7, norm=NormKind.LINF)
    value, lam = worst_case_risk_dual(np.zeros(3), data, cfg)
    assert value == 1.0
    assert lam == 0.0


def test_dual_kappa_zero_sits_at_floor():
    rng = np.random.default_rng(1004)
    data, w = random_instance(rng, 8, 2)
    cfg = ClientConfig(epsilon=0.05, kappa=0.0, norm=NormKind.LINF)
    value, lam = worst_case_risk_dual(w, data, cfg)
    assert lam == dual_norm(w, cfg.norm)
    lp = hinge_losses(w, data.X, data.y)
    lm = hinge_losses(w, data.X, -data.y)
    expected = cfg.epsilon * lam + float(np.maximum(lp, lm).mean())
    assert value == pytest.approx(expected, abs=1e-12)


def test_dual_monotone_in_radius():
    rng = np.random.default_rng(1005)
    data, w = random_instance(rng, 10, 3)
    prev = -np.inf
    for eps in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        cfg = ClientConfig(epsilon=eps, kappa=0.5, norm=NormKind.L1)
        value, _ = worst_case_risk_dual(w, data, cfg)
        assert value >= prev - 1e-12
        prev = value


def test_dro_never_below_nominal():
    rng = np.random.default_rng(1006)
    for _ in range(20):
        data, w = random_instance(rng, int(rng.integers(3, 12)), 3)
        cfg = ClientConfig(
            epsilon=float(rng.choice([1e-3, 1e-1, 1.0])),
            kappa=float(rng.choice([0.0, 0.5, 2.0])),
            norm=NormKind.L1,
        )
        value, _ = worst_case_risk_dual(w, data, cfg)
        empirical = float(hinge_losses(w, data.X, data.y).mean())
        assert value >= empirical - 1e-12


def test_lp_dominates_no_transport_point():
    # q = 0, beta+ = 1 is feasible with gain -mean(margins), so the LP
    # optimum (a max) can never fall below it.
    rng = np.random.default_rng(1008)
    for _ in range(10):
        data, w = random_instance(rng, int(rng.integers(3, 10)), 2)
        cfg = ClientConfig(epsilon=0.05, kappa=0.5, norm=NormKind.LINF)
        sol = solve(build_sm_lp(w, data, cfg))
        assert sol.status is SolverStatus.OPTIMAL
        margins = data.y * (data.X @ w)
        gain = -sol.objective
        assert gain >= -float(margins.mean()) - 1e-8


def test_strong_duality_seeded():
    # In the all-active regime the LP value, the re-evaluated risk of the
    # extracted atoms, and the dual coincide; every solved instance must
    # also produce a certified member of the ambiguity ball.
    rng = np.random.default_rng(2026)
    checked = 0
    for trial in range(24):
        n = int(rng.integers(5, 16))
        p = int(rng.integers(2, 5))
        data, w = random_instance(rng, n, p, margin_cap=0.9)
        eps = float(rng.choice([1e-3, 3e-3, 1e-2]))
        kappa = float(rng.choice([0.1, 0.5, 1.0]))
        norm = NormKind.L1 if trial % 2 else NormKind.LINF
        cfg = ClientConfig(epsilon=eps, kappa=kappa, norm=norm)

        sol = solve(build_sm_lp(w, data, cfg))
        assert sol.status is SolverStatus.OPTIMAL
        surrogate = 1.0 - sol.objective
        dual_value, _ = worst_case_risk_dual(w, data, cfg)
        scale = 1.0 + abs(dual_value)
        assert abs(surrogate - dual_value) <= 1e-6 * scale, (
            f"LP/dual gap on trial {trial}: {surrogate} vs {dual_value}"
        )

        dist = extract_worst_case(sol, data, cfg)
        assert dist.validate(data, cfg) == []
        assert abs(dist.risk(w) - dual_value) <= 1e-5 * scale
        checked += 1
    assert checked == 24


# ------------------------------------------------------------ subgradient


def one_atom_dist(z, y, flipped=False):
    """One sample whose whole mass sits on one atom at z; the dropped
    sibling has mass 0 and sits at the origin."""
    z = np.asarray([z], dtype=float)
    rows = [np.zeros_like(z), z] if flipped else [z, np.zeros_like(z)]
    return WorstCaseDistribution(
        z=np.vstack(rows),
        label=np.array([y, -y]),
        mass=np.array([0.0, 1.0]) if flipped else np.array([1.0, 0.0]),
    )


def test_subgradient_hand_cases():
    d = one_atom_dist([0.4], 1)
    # active kept hinge: r = 1 - 0.4 > 0 at w=1 -> v = -y*z
    np.testing.assert_allclose(sm_subgradient(np.array([1.0]), d), [-0.4])
    # inactive: w=5 gives r = 1 - 2 < 0
    np.testing.assert_allclose(sm_subgradient(np.array([5.0]), d), [0.0])
    # exact kink at w = 2.5: active endpoint is taken
    np.testing.assert_allclose(sm_subgradient(np.array([2.5]), d), [-0.4])
    # flipped atom contributes +beta*y*z when its hinge is active
    df = one_atom_dist([0.5], 1, flipped=True)
    np.testing.assert_allclose(sm_subgradient(np.array([1.0]), df), [0.5])


def test_subgradient_mixed_masses():
    d = WorstCaseDistribution(
        z=np.array([[0.4], [0.2], [0.9], [0.0]]),
        label=np.array([1, -1, -1, 1]),
        mass=np.array([0.75, 1.0, 0.25, 0.0]),
    )
    # at w=0 every hinge is active (r = 1): kept atoms give -beta*y*z,
    # flipped give +beta*y*z, averaged over the two samples.
    v = sm_subgradient(np.array([0.0]), d)
    expected = (-0.75 * 0.4 + 0.25 * 0.9 + 1.0 * 0.2) / 2.0
    np.testing.assert_allclose(v, [expected])


def test_subgradient_inequality_seeded():
    # v extracted at w must satisfy f(w') >= f(w) + <v, w' - w> - 1e-8
    # whenever strong duality holds at w (f is the dual worst-case risk).
    # The slack absorbs solver error in the extraction, so the LP is solved
    # tighter than the default here.
    tight = SolverConfig(eps2=1e-12, max_iterations=300)
    rng = np.random.default_rng(2027)
    pairs = 0
    for _ in range(6):
        n = int(rng.integers(5, 12))
        p = int(rng.integers(2, 4))
        data, w = random_instance(rng, n, p, margin_cap=0.9)
        cfg = ClientConfig(
            epsilon=float(rng.choice([1e-3, 1e-2])),
            kappa=float(rng.choice([0.1, 0.5])),
            norm=NormKind.L1,
        )
        sol = solve(build_sm_lp(w, data, cfg), tight)
        assert sol.status is SolverStatus.OPTIMAL
        f_w, _ = worst_case_risk_dual(w, data, cfg)
        dist = extract_worst_case(sol, data, cfg)
        assert abs(dist.risk(w) - f_w) <= 1e-6 * (1.0 + abs(f_w))
        v = sm_subgradient(w, dist)
        for _ in range(50):
            w2 = w + rng.standard_normal(p)
            f_w2, _ = worst_case_risk_dual(w2, data, cfg)
            assert f_w2 >= f_w + v @ (w2 - w) - 1e-8
            pairs += 1
    assert pairs == 300


def test_subgradient_finite_difference():
    # At points where no hinge residual is within 1e-4 of its kink, the
    # dual risk is differentiable and central differences (h = 1e-6) must
    # match the extracted subgradient coordinatewise within 1e-3.
    rng = np.random.default_rng(2028)
    smooth_checks = 0
    for _ in range(40):
        data, w = random_instance(rng, 7, 3, margin_cap=0.9)
        cfg = ClientConfig(epsilon=1e-2, kappa=0.5, norm=NormKind.L1)
        sol = solve(build_sm_lp(w, data, cfg))
        if sol.status is not SolverStatus.OPTIMAL:
            continue
        f_w, _ = worst_case_risk_dual(w, data, cfg)
        dist = extract_worst_case(sol, data, cfg)
        if abs(dist.risk(w) - f_w) > 1e-7 * (1.0 + abs(f_w)):
            continue
        resid = (1.0 - dist.label * (dist.z @ w))[dist.mass > 0.0]
        if np.min(np.abs(resid)) < 1e-4:
            continue  # too close to a kink for clean differences
        v = sm_subgradient(w, dist)
        h = 1e-6
        fd = np.zeros(3)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            f_p, _ = worst_case_risk_dual(w + e, data, cfg)
            f_m, _ = worst_case_risk_dual(w - e, data, cfg)
            fd[j] = (f_p - f_m) / (2 * h)
        np.testing.assert_allclose(fd, v, atol=1e-3)
        smooth_checks += 1
    assert smooth_checks >= 15


# ---------------------------------------------- closed form of the dual


def candidate_dual(w, data, cfg):
    """The candidate evaluation the closed form replaced, kept as the
    reference: the dual at the floor and at every crossing above it, the
    smallest value and its multiplier. Returns (value, lam, phi) with phi
    the dual as a function of lam."""
    w = np.asarray(w, dtype=float)
    lam_floor = dual_norm(w, cfg.norm)
    lp = hinge_losses(w, data.X, data.y)
    lm = hinge_losses(w, data.X, -data.y)
    if cfg.kappa == 0.0:
        cands = np.array([lam_floor])
    else:
        cross = (lm - lp) / cfg.kappa
        cands = np.unique(np.concatenate([[lam_floor], cross[cross > lam_floor]]))
    inner = np.maximum(lp[None, :], lm[None, :] - cfg.kappa * cands[:, None])
    vals = cfg.epsilon * cands + inner.mean(axis=1)
    best = int(np.argmin(vals))

    def phi(lam):
        return cfg.epsilon * lam + float(np.maximum(lp, lm - cfg.kappa * lam).mean())

    return float(vals[best]), float(cands[best]), phi


KAPPAS = (0.0, 0.1, 1.0, 3.0)


def out_of_regime_instance(rng, i):
    """Instance i of the closed-form sweep: any margins (hinges inactive,
    at their kinks or active), kappa cycling through KAPPAS, both norms,
    every tenth instance a single sample, every seventeenth w = 0, every
    third on a coarse grid (tied margins and crossings), and every fifth
    with kappa >= 1 a budget eps*n/kappa that is exactly an integer."""
    kappa = KAPPAS[i % 4]
    norm = (NormKind.L1, NormKind.LINF)[(i // 4) % 2]
    n = 1 if i % 10 == 0 else int(rng.integers(2, 25))
    p = int(rng.integers(1, 5))
    X = rng.random((n, p))
    w = rng.standard_normal(p) * float(rng.choice([0.3, 1.0, 4.0]))
    if i % 3 == 0:
        X = np.round(4.0 * X) / 4.0
        w = np.round(2.0 * w) / 2.0
    if i % 17 == 0:
        w = np.zeros(p)
    eps = float(rng.choice([1e-3, 1e-2, 0.1, 0.5]))
    if i % 5 == 0 and kappa >= 1.0:  # exact in binary with n a power of two
        n = int(rng.choice([1, 2, 4, 8, 16]))
        X = X[:1].repeat(n, axis=0) if X.shape[0] < n else X[:n]
        eps = int(rng.integers(0, n + 1)) * kappa / n or kappa / n
        assert (eps * n / kappa).is_integer()
    y = np.where(rng.random(n) < 0.5, 1, -1)
    return make_data(X, y), w, ClientConfig(epsilon=eps, kappa=kappa, norm=norm)


def budget_is_integer(data, cfg):
    if cfg.kappa == 0.0:
        return False
    budget = cfg.epsilon * data.n / cfg.kappa
    return abs(budget - round(budget)) <= 1e-9 * max(1.0, budget)


@pytest.fixture(scope="module")
def closed_form_sweep():
    rng = np.random.default_rng(4242)
    out = []
    with np.errstate(all="raise"):
        for i in range(240):
            data, w, cfg = out_of_regime_instance(rng, i)
            out.append((data, w, cfg, WorstCaseDual([(data, cfg)]).at(w)))
    return out


def test_closed_form_sweep_covers_the_edges(closed_form_sweep):
    cases = [(data, w, cfg) for data, w, cfg, _ in closed_form_sweep]
    assert len(cases) >= 200
    assert {cfg.kappa for _, _, cfg in cases} == set(KAPPAS)
    assert {cfg.norm for _, _, cfg in cases} == {NormKind.L1, NormKind.LINF}
    assert any(data.n == 1 for data, _, _ in cases)
    assert any(not w.any() for _, w, _ in cases)
    assert sum(budget_is_integer(data, cfg) for data, _, cfg in cases) >= 20
    tied = 0
    for data, w, cfg in cases:
        if cfg.kappa > 0.0:
            lp = hinge_losses(w, data.X, data.y)
            lm = hinge_losses(w, data.X, -data.y)
            tied += np.unique((lm - lp) / cfg.kappa).size < data.n
    assert tied >= 20
    # both sides of the floor, and hinges off their active piece
    floors = [pt.lam[0] == dual_norm(w, cfg.norm) for _, w, cfg, pt in closed_form_sweep]
    assert 20 <= sum(floors) <= len(floors) - 20
    assert any((data.y * (data.X @ w) > 1.0).any() for data, w, _ in cases)


def test_closed_form_risk_and_multiplier_match_the_candidates(closed_form_sweep):
    for k, (data, w, cfg, point) in enumerate(closed_form_sweep):
        value, lam, phi = candidate_dual(w, data, cfg)
        risk = point.risk[0]
        assert abs(risk - value) <= 1e-12 * (1.0 + abs(value)), (k, risk, value)
        if budget_is_integer(data, cfg):
            # the dual is flat between two crossings, and both ends minimize
            # it; the closed form takes the left end
            assert point.lam[0] <= lam * (1.0 + 1e-12) + 1e-12, k
            assert abs(phi(point.lam[0]) - value) <= 1e-12 * (1.0 + abs(value)), k
        else:
            assert abs(point.lam[0] - lam) <= 1e-12 * (1.0 + abs(lam)), (k, point.lam[0], lam)
        assert worst_case_risk_dual(w, data, cfg) == (float(risk), float(point.lam[0]))


def test_closed_form_subgradient_inequality_against_the_candidates(closed_form_sweep):
    rng = np.random.default_rng(4243)
    probes = 0
    for k, (data, w, cfg, point) in enumerate(closed_form_sweep):
        value, _, _ = candidate_dual(w, data, cfg)
        v = point.v[0]
        for _ in range(25):
            w2 = w + rng.standard_normal(w.size) * float(rng.choice([1e-4, 1e-2, 0.3, 3.0]))
            slack = candidate_dual(w2, data, cfg)[0] - value - v @ (w2 - w)
            assert slack >= -1e-10 * (1.0 + abs(value)), (k, slack)
            probes += 1
    assert probes >= 5000


def smooth_closed_form_point(data, w, cfg, lam):
    """True when the dual risk is differentiable at w, decided from its
    structure: every hinge clear of its kink, and either one sample pinning
    lam* strictly inside a slope sign change with the rest clear of lam*,
    or lam* on the floor with every sample clear of it, a strictly positive
    right slope and a dual norm that is smooth at w."""
    m = data.y * (data.X @ w)
    if np.min(np.abs(np.abs(m) - 1.0)) < 1e-4:
        return False
    lp = hinge_losses(w, data.X, data.y)
    lm = hinge_losses(w, data.X, -data.y)
    d = (lm - lp) - cfg.kappa * lam
    n = data.n
    if lam > dual_norm(w, cfg.norm) + 1e-8:
        pins = np.abs(d) <= 1e-9
        if pins.sum() != 1 or (~pins).any() and np.abs(d[~pins]).min() < 1e-4:
            return False
        above = int(np.sum(d > 1e-9))
        budget = cfg.epsilon * n / cfg.kappa
        return above + 1e-6 < budget < above + 1 - 1e-6
    if np.min(np.abs(d)) < 1e-4 or cfg.epsilon - cfg.kappa * np.sum(d > 0) / n <= 1e-8:
        return False
    aw = np.abs(w)
    if cfg.norm is NormKind.L1:
        top = np.sort(aw)[::-1]
        return top[0] >= 1e-4 and (top.size == 1 or top[0] - top[1] >= 1e-4)
    return aw.min() >= 1e-4


def test_closed_form_subgradient_matches_central_differences():
    rng = np.random.default_rng(4244)
    h = 1e-6
    checked = {True: 0, False: 0}  # off the floor / on it
    for i in range(3000):
        data, w, cfg = out_of_regime_instance(rng, i)
        point = WorstCaseDual([(data, cfg)]).at(w)
        if not smooth_closed_form_point(data, w, cfg, point.lam[0]):
            continue
        fd = np.empty(w.size)
        for j in range(w.size):
            e = np.zeros(w.size)
            e[j] = h
            fd[j] = (candidate_dual(w + e, data, cfg)[0]
                     - candidate_dual(w - e, data, cfg)[0]) / (2 * h)
        np.testing.assert_allclose(point.v[0], fd, atol=1e-6 * (1.0 + np.abs(fd).max()))
        checked[bool(point.lam[0] > dual_norm(w, cfg.norm))] += 1
        if min(checked.values()) >= 40:
            break
    assert min(checked.values()) >= 40, checked


def test_closed_form_stack_rows_equal_their_stacks_of_one():
    rng = np.random.default_rng(4245)
    rows = 0
    with np.errstate(all="raise"):
        for i in range(120):
            G = int(rng.integers(2, 7))
            p = int(rng.integers(1, 4))
            clients = []
            while len(clients) < G:
                data, _, cfg = out_of_regime_instance(rng, int(rng.integers(0, 10 ** 6)))
                if data.p == p:
                    clients.append((data, cfg))
            w = rng.standard_normal(p) * float(rng.choice([0.3, 1.0, 4.0]))
            if i % 10 == 0:
                w = np.round(2.0 * w) / 2.0
            stacked = WorstCaseDual(clients).at(w)
            for g, client in enumerate(clients):
                alone = WorstCaseDual([client]).at(w)
                assert stacked.v[g].tobytes() == alone.v[0].tobytes(), (i, g)
                assert stacked.risk[g].tobytes() == alone.risk[0].tobytes(), (i, g)
                assert stacked.lam[g].tobytes() == alone.lam[0].tobytes(), (i, g)
                rows += 1
    assert rows >= 400


def test_closed_form_hand_instances():
    # x = 1, y = +1, w = 1.5, eps = 0.1, kappa = 1: the flipped hinge 2.5
    # crosses above the floor 1.5 and pins lam* = 2.5 with flipped weight
    # eps*n/kappa = 0.1; the kept hinge is inactive, so v = 0.1 * (+y x)
    point = WorstCaseDual([(make_data([[1.0]], [1]), ClientConfig(epsilon=0.1))]).at([1.5])
    assert point.lam[0] == 2.5
    assert point.v[0] == pytest.approx([0.1], abs=1e-15)
    # x = 0.5, w = 1, eps = 0.1, kappa = 10: the crossing 0.1 lies below the
    # floor 1, the kept hinge gives -y x = -0.5 and the floor multiplier
    # eps = 0.1 times sign(w) at the peak coordinate adds 0.1
    data = make_data([[0.5]], [1])
    point = WorstCaseDual([(data, ClientConfig(epsilon=0.1, kappa=10.0))]).at([1.0])
    assert (point.risk[0], point.lam[0]) == (pytest.approx(0.6, abs=1e-15), 1.0)
    assert point.v[0] == pytest.approx([-0.4], abs=1e-15)
    # the same sample at w = 2 sits at its kept hinge's kink (margin 1),
    # which takes its active endpoint -y x, as sm_subgradient does
    point = WorstCaseDual([(data, ClientConfig(epsilon=0.1, kappa=10.0))]).at([2.0])
    assert point.lam[0] == 2.0
    assert point.v[0] == pytest.approx([-0.4], abs=1e-15)
    # w = 0 with free flips: l- = l+ = 1, so no sample flips and both kept
    # hinges give -y x, (-(0.2, 0.4) + (0.6, 0.8)) / 2; the floor term
    # vanishes with the dual-norm subgradient 0 at w = 0
    data = make_data([[0.2, 0.4], [0.6, 0.8]], [1, -1])
    for norm in (NormKind.L1, NormKind.LINF):
        cfg = ClientConfig(epsilon=0.3, kappa=0.0, norm=norm)
        point = WorstCaseDual([(data, cfg)]).at(np.zeros(2))
        assert (point.risk[0], point.lam[0]) == (1.0, 0.0)
        np.testing.assert_allclose(point.v[0], [0.2, 0.2], atol=1e-15)


def test_closed_form_keeps_its_point_while_w_is_unchanged():
    data, w = random_instance(np.random.default_rng(4246), 6, 2)
    dual = WorstCaseDual([(data, ClientConfig(epsilon=0.05))])
    first = dual.at(w)
    assert dual.at(w.copy()) is first
    assert dual.at(w + 1e-3) is not first
    with pytest.raises(ValueError, match=re.escape("w has shape (3,), expected (2,)")):
        dual.at(np.zeros(3))
    with pytest.raises(ValueError, match="w must be finite"):
        dual.at(np.array([np.nan, 0.0]))


# ------------------------------------------------------------- client QP


def test_client_qp_layout():
    data = make_data([[0.1, 0.9], [0.4, 0.2], [0.8, 0.5]], [1, -1, 1])
    p_l1 = build_risk_epigraph_qp(data, ClientConfig(epsilon=0.1, norm=NormKind.L1))
    # columns: w(2) lam(1) s(3); rows: 3 hinge + 3 flip + 3 nonneg + 4 norm
    assert (p_l1.n, p_l1.m, p_l1.k) == (6, 13, 0)
    p_inf = build_risk_epigraph_qp(
        data, ClientConfig(epsilon=0.1, norm=NormKind.LINF)
    )
    assert (p_inf.n, p_inf.m, p_inf.k) == (8, 14, 0)


@pytest.mark.parametrize("kappa", [0.0, 1.0])
@pytest.mark.parametrize("norm", [NormKind.L1, NormKind.LINF])
def test_epigraph_rows_are_the_written_out_constraints(norm, kappa):
    data, rng = edge_shard(32)
    X, y, N, P = data.X, data.y, data.n, data.p
    prog = build_risk_epigraph_qp(data, ClientConfig(epsilon=0.07, kappa=kappa, norm=norm))
    v = rng.standard_normal(prog.n)

    w, lam, s = v[:P], v[P], v[-N:]
    margins = y * (X @ w)
    expected = [1.0 - margins - s, 1.0 + margins - kappa * lam - s, -s]
    if norm is NormKind.LINF:  # +-w_p <= u_p, then sum(u) <= lam
        u = v[P + 1:2 * P + 1]
        expected += [np.column_stack([w - u, -w - u]).ravel(), [u.sum() - lam]]
    else:  # +-w_p <= lam
        expected += [np.column_stack([w - lam, -w - lam]).ravel()]
    np.testing.assert_allclose(prog.A_ineq @ v - prog.b_ineq, np.concatenate(expected),
                               rtol=1e-12, atol=1e-12)

    # zero y_i x_ip are left out, -kappa on lam is stored even when 0
    dual_norm_nnz = 4 * P + (P + 1 if norm is NormKind.LINF else 0)
    assert prog.A_ineq.nnz == 2 * np.count_nonzero(X) + 4 * N + dual_norm_nnz


def test_central_qp_matches_dual_at_optimum():
    rng = np.random.default_rng(2030)
    data, _ = random_instance(rng, 9, 3)
    for norm in (NormKind.L1, NormKind.LINF):
        cfg = ClientConfig(epsilon=0.05, kappa=0.5, norm=norm)
        prog = build_risk_epigraph_qp(data, cfg)
        sol = solve(prog)
        assert sol.status is SolverStatus.OPTIMAL
        w_star = sol.x_star[: data.p]
        value, _ = worst_case_risk_dual(w_star, data, cfg)
        assert sol.objective == pytest.approx(value, abs=1e-6)


def test_central_qp_matches_enumeration_tiny():
    data = make_data([[0.2], [0.9]], [-1, 1])
    cfg = ClientConfig(epsilon=0.1, kappa=1.0, norm=NormKind.L1)
    prog = build_risk_epigraph_qp(data, cfg)
    ref = solve_lp_by_enumeration(prog)
    sol = solve(prog)
    assert sol.objective == pytest.approx(ref.objective, abs=1e-8)


def test_client_qp_huge_radius_zeroes_w():
    rng = np.random.default_rng(2031)
    data, _ = random_instance(rng, 8, 3)
    cfg = ClientConfig(epsilon=1e3, kappa=1.0, norm=NormKind.L1)
    sol = solve(build_risk_epigraph_qp(data, cfg))
    assert sol.status is SolverStatus.OPTIMAL
    assert np.max(np.abs(sol.x_star[: data.p])) <= 1e-4


def test_admm_qp_objective_identity():
    # The assembled Q and c must reproduce the proximal objective (up to
    # the constant (rho/2)||anchor||^2) at arbitrary points, tau = 0 and
    # tau > 0 alike.
    rng = np.random.default_rng(2034)
    data, _ = random_instance(rng, 5, 3)
    w_global = rng.standard_normal(3)
    mu = rng.standard_normal(3)
    anchor = w_global - mu
    for tau in (0.0, 2.5):
        cfg = ClientConfig(epsilon=0.07, kappa=0.4, rho=1.3, tau=tau)
        prog = build_risk_epigraph_qp(data, cfg, rho=cfg.rho, tau=tau, anchor=anchor)
        for _ in range(5):
            x = rng.standard_normal(prog.n)
            w_part = x[:3]
            lam = x[3]
            s = x[4:]
            direct = (
                cfg.epsilon * lam
                + s.mean()
                + 0.5 * cfg.rho * np.sum((w_part - anchor) ** 2)
                + tau * np.sum(w_part ** 2)
            )
            shifted = prog.objective(x) + 0.5 * cfg.rho * np.sum(anchor ** 2)
            assert shifted == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_admm_qp_objective_monotone_in_tau():
    rng = np.random.default_rng(2035)
    data, _ = random_instance(rng, 6, 2)
    mu = np.array([0.1, -0.3])
    w_global = np.array([0.5, 0.2])
    prev = -np.inf
    for tau in (0.0, 0.5, 2.0, 8.0):
        cfg = ClientConfig(epsilon=0.05, kappa=0.5, rho=1.0, tau=tau)
        sol = solve(build_risk_epigraph_qp(data, cfg, rho=cfg.rho, tau=tau,
                                           anchor=w_global - mu))
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.objective >= prev - 1e-9
        prev = sol.objective


def test_admm_prox_dominates_with_large_rho():
    rng = np.random.default_rng(2032)
    data, _ = random_instance(rng, 6, 2)
    w_global = np.array([0.3, -0.7])
    mu = np.zeros(2)
    cfg = ClientConfig(epsilon=0.05, kappa=0.5, rho=1e6)
    w_g = admm_client_step(ProximalSteps([(data, cfg, None)]), w_global, mu)
    assert np.max(np.abs(w_g - w_global)) <= 1e-3
    np.testing.assert_array_equal(mu, np.zeros(2))


def test_admm_huge_radius_zeroes_client_w():
    rng = np.random.default_rng(2036)
    data, _ = random_instance(rng, 6, 2)
    cfg = ClientConfig(epsilon=1e3, kappa=0.5, rho=1.0)
    w_g = admm_client_step(ProximalSteps([(data, cfg, None)]), np.zeros(2), np.zeros(2))
    assert np.max(np.abs(w_g)) <= 1e-4


def test_admm_client_step_cache_reuse():
    rng = np.random.default_rng(2033)
    data, _ = random_instance(rng, 8, 3)
    cfg = ClientConfig(epsilon=0.05, kappa=0.5, rho=2.0, tau=1.0)
    mu = np.zeros(3)
    steps = ProximalSteps([(data, cfg, None)])
    admm_client_step(steps, np.ones(3), mu)
    assert steps.programs is not None and steps.warms[0] is not None
    # warm-started re-solve with a different anchor must agree with a
    # fresh build to solver accuracy
    w_next = np.array([0.1, -0.2, 0.5])
    kept = admm_client_step(steps, w_next, mu)
    fresh = admm_client_step(ProximalSteps([(data, cfg, None)]), w_next, mu)
    np.testing.assert_allclose(kept, fresh, atol=1e-5)
    # same inputs, fresh build: bitwise repeatable
    again = admm_client_step(ProximalSteps([(data, cfg, None)]), w_next, mu)
    np.testing.assert_array_equal(fresh, again)


def test_admm_client_step_cache_survives_anchor_drift():
    # with small rho the multipliers drift and the anchor can jump far
    # between rounds; the kept QP and warm start must still land on the
    # fresh answer every round (a stale warm point once stalled the solver
    # here)
    rng = np.random.default_rng(2038)
    data, _ = random_instance(rng, 20, 3)
    cfg = ClientConfig(epsilon=1.0 / (10 * data.n), kappa=1.0, rho=1e-2)
    mu = np.zeros(3)
    steps = ProximalSteps([(data, cfg, None)])
    for k in range(6):
        w_global = rng.standard_normal(3) * (3.0 ** k)
        kept = admm_client_step(steps, w_global, mu)
        fresh = admm_client_step(ProximalSteps([(data, cfg, None)]), w_global, mu)
        # iterate norms grow with the anchor here, so compare at solver
        # accuracy relative to scale
        np.testing.assert_allclose(kept, fresh, rtol=1e-4, atol=1e-5)


def test_admm_warm_to_cold_retry_is_logged(monkeypatch, caplog):
    rng = np.random.default_rng(2039)
    data, _ = random_instance(rng, 8, 2)
    cfg = ClientConfig(epsilon=0.05, kappa=0.5, rho=1.0)
    steps = ProximalSteps([(data, cfg, 3)])
    admm_client_step(steps, np.ones(2), np.zeros(2))
    real_solve = robust.solve
    calls = []

    def stall_when_warm(prog, solver_cfg=None, warm=None):
        calls.append(warm is not None)
        sol = real_solve(prog, solver_cfg)
        if warm is None:
            return sol
        return SolverSolution(sol.x_star, sol.objective, SolverStatus.MAX_ITERATIONS,
                              sol.kkt_residual, 200, "iteration cap reached")

    monkeypatch.setattr(robust, "solve", stall_when_warm)
    with caplog.at_level(logging.WARNING, logger="fedrosvm.robust"):
        admm_client_step(steps, np.zeros(2), np.zeros(2))
    assert calls == [True, False]
    assert "client 3" in caplog.text
    assert "iteration cap reached" in caplog.text


# One client shard and two consecutive ADMM anchors (rho = 0.01) on which
# the warm-started proximal QP cycles at a KKT residual near 1e-5 while a
# cold start solves it in 8 iterations; taken from a synthetic federation
# (N = 40, G = 2, round 13) and rounded to 3 decimals.
STALL_X = [[0.652, 0.163], [0.68, 0.065], [0.43, 0.438], [0.681, 0.169],
           [0.845, 0.418], [0.516, 0.414], [1.0, 0.0], [0.337, 0.874],
           [0.074, 1.0], [0.0, 0.31], [0.265, 0.747], [0.483, 0.89],
           [0.544, 0.748], [0.742, 0.605]]
STALL_Y = [1] * 7 + [-1] * 7
STALL_ANCHORS = ([4.228, -6.589], [4.006, -6.768])


def test_stalled_warm_start_gives_up_early_and_retries_cold(monkeypatch, caplog):
    data = make_data(STALL_X, STALL_Y)
    cfg = ClientConfig(epsilon=1.0 / 140.0, kappa=1.0, rho=0.01)
    steps = ProximalSteps([(data, cfg, 1)])
    admm_client_step(steps, np.array(STALL_ANCHORS[0]), np.zeros(2))
    warm_point = steps.warms[0]
    real_solve = robust.solve
    calls = []

    def recording(prog, warm=None):
        sol = real_solve(prog, warm=warm)
        calls.append((warm is not None, sol))
        return sol

    monkeypatch.setattr(robust, "solve", recording)
    with caplog.at_level(logging.WARNING, logger="fedrosvm.robust"):
        step = admm_client_step(steps, np.array(STALL_ANCHORS[1]), np.zeros(2))
    (was_warm, stalled), (retry_warm, cold) = calls
    assert was_warm and not retry_warm
    assert stalled.status is not SolverStatus.OPTIMAL
    assert stalled.message == "warm start stalled"
    assert stalled.iterations < 20
    assert cold.status is SolverStatus.OPTIMAL
    np.testing.assert_array_equal(step, cold.x_star[:2])
    assert "client 1" in caplog.text and "warm start stalled" in caplog.text

    # without the stall exit the same warm start runs to the iteration cap
    monkeypatch.setattr(solver, "WARM_STALL_WINDOW", 10**9)
    capped = real_solve(steps.programs[0], warm=warm_point)
    assert capped.status is SolverStatus.MAX_ITERATIONS
    assert capped.iterations == SolverConfig().max_iterations


def test_client_qp_requires_anchor_with_rho():
    data = make_data([[0.5]], [1])
    with pytest.raises(ValueError, match="anchor"):
        build_risk_epigraph_qp(data, ClientConfig(epsilon=0.1), rho=1.0)


def test_multiplier_update():
    w_g, mu = np.array([1.0, 2.0]), np.array([0.1, -0.2])
    w_global = np.array([0.5, 2.5])
    np.testing.assert_allclose(admm_multiplier_update(mu, w_g, w_global), [0.6, -0.7])
    # consensus reached: multipliers unchanged
    np.testing.assert_allclose(admm_multiplier_update(mu, w_g, w_g), mu)
    # two successive updates compose additively
    twice = admm_multiplier_update(admm_multiplier_update(mu, w_g, w_global), w_g, w_global)
    np.testing.assert_allclose(twice, mu + 2 * (w_g - w_global))


# ----------------------------------------------------------------- radius


def test_radius_heuristic():
    assert radius_heuristic(100) == pytest.approx(1e-3, abs=1e-18)
    assert radius_heuristic(50, beta=2.0) == pytest.approx(1e-2, abs=1e-18)
    with pytest.raises(ValueError):
        radius_heuristic(0)
    with pytest.raises(ValueError):
        radius_heuristic(10, beta=0.0)
