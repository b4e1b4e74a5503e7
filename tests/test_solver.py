"""Interior-point solver against hand values and the enumeration oracle."""

import logging

import numpy as np
import pytest
import scipy.linalg

from fedrosvm import solver
from fedrosvm.core import DatasetView, NormKind
from fedrosvm.robust import ClientConfig, build_risk_epigraph_qp
from fedrosvm.solver import (
    ConvexProgram,
    SolverConfig,
    SolverStatus,
    SolverSolution,
    solve,
    solve_lp_by_enumeration,
)


def epigraph_program(rng):
    """Epigraph-shaped program that triggers the Schur split."""
    n_s, n_r = 30, 3
    n = n_r + n_s
    rows, rhs = [], []
    for i in range(n_s):
        r = np.zeros(n)
        r[:n_r] = rng.normal(size=n_r)
        r[n_r + i] = -1.0
        rows.append(r)
        rhs.append(-1.0)
        r2 = np.zeros(n)
        r2[n_r + i] = -1.0
        rows.append(r2)
        rhs.append(0.0)
    q = np.zeros(n)
    q[:n_r] = 1.0
    c = np.concatenate([rng.normal(size=n_r) * 0.1, np.full(n_s, 1.0 / n_s)])
    return ConvexProgram(n=n, Q=np.diag(q), c=c, A_ineq=np.vstack(rows), b_ineq=rhs)


def epigraph_variants():
    """Risk epigraphs on random shards: both norms, kappa in {0, 1} and
    (rho, tau) in {(0, 0), (0.7, 0), (0.7, 0.3)}."""
    rng = np.random.default_rng(57)
    for norm in (NormKind.L1, NormKind.LINF):
        for kappa in (0.0, 1.0):
            for rho, tau in ((0.0, 0.0), (0.7, 0.0), (0.7, 0.3)):
                N, P = int(rng.integers(5, 40)), int(rng.integers(1, 5))
                data = DatasetView(X=rng.random((N, P)),
                                   y=np.where(rng.random(N) < 0.5, 1, -1))
                cfg = ClientConfig(epsilon=0.05, kappa=kappa, norm=norm)
                yield build_risk_epigraph_qp(data, cfg, rho=rho, tau=tau,
                                             anchor=rng.standard_normal(P))


def scaled_s_program():
    """Schur-eligible QP whose S coefficients are not -1 and where some
    rows touch no S column: 2 dense columns r, 4 eliminable columns s."""
    A = np.array([
        [0.5, -1.0, 2.5, 0.0, 0.0, 0.0],
        [1.5, 0.3, 0.0, -0.3, 0.0, 0.0],
        [-0.7, 2.0, 0.0, 0.0, 4.0, 0.0],
        [0.2, 0.9, 0.0, 0.0, 0.0, -1.7],
        [0.0, 0.0, -2.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, -0.5, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # rows on r alone
        [0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
    ])
    b = np.array([1.0, 0.5, 2.0, 0.3, 1.0, 1.0, 0.8, 0.6])
    q = np.array([0.0, 0.4, 1.0, 0.0, 2.0, 0.5])
    c = np.array([-1.0, 0.7, -0.4, 1.2, 0.3, 0.9])
    return ConvexProgram(n=6, Q=np.diag(q), c=c, A_ineq=A, b_ineq=b)


def schur_eligible_programs():
    yield from epigraph_variants()
    yield scaled_s_program()


def random_box_lp(rng, n=None):
    """Bounded LP: box plus a few random cuts through the interior."""
    n = n or int(rng.integers(2, 7))
    lo = rng.uniform(-2.0, -1.0, n)
    hi = rng.uniform(1.0, 2.0, n)
    rows = [np.eye(n), -np.eye(n)]
    rhs = [hi, -lo]
    n_cuts = int(rng.integers(1, 4))
    a = rng.normal(size=(n_cuts, n))
    rows.append(a)
    rhs.append(rng.uniform(0.2, 1.5, n_cuts))  # keeps the origin feasible
    return ConvexProgram(
        n=n,
        c=rng.normal(size=n),
        A_ineq=np.vstack(rows),
        b_ineq=np.concatenate(rhs),
    )


class TestHandExamples:
    def test_min_x_above_one(self):
        p = ConvexProgram(n=1, c=[1.0], A_ineq=[[-1.0]], b_ineq=[-1.0])
        sol = solve(p)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.x_star[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)

    def test_unconstrained_quadratic(self):
        # the one inequality row stays inactive at the minimizer
        p = ConvexProgram(n=1, Q=[[1.0]], c=[-1.0], A_ineq=[[1.0]], b_ineq=[10.0])
        sol = solve(p)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.x_star[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(-0.5)

    def test_simplex_lp_value_frozen(self):
        # min -x1-x2 on the standard simplex: oracle enumerates the 3 vertices,
        # value is -1 on the whole face x1+x2=1
        p = ConvexProgram(
            n=2, c=[-1.0, -1.0],
            A_ineq=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b_ineq=[1.0, 0.0, 0.0],
        )
        oracle = solve_lp_by_enumeration(p)
        assert oracle.objective == pytest.approx(-1.0, abs=1e-12)
        sol = solve(p)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.0, abs=1e-7)

    def test_equality_constrained_qp(self):
        p = ConvexProgram(n=2, Q=np.eye(2), A_ineq=[[1.0, 0.0]], b_ineq=[10.0],
                          A_eq=[[1.0, 1.0]], b_eq=[1.0])
        sol = solve(p)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.x_star == pytest.approx([0.5, 0.5], abs=1e-7)

    def test_mixed_eq_ineq(self):
        # min x1 s.t. x1 + x2 = 1, x2 <= 0.25  ->  x1 = 0.75
        p = ConvexProgram(
            n=2, c=[1.0, 0.0],
            A_ineq=[[0.0, 1.0]], b_ineq=[0.25],
            A_eq=[[1.0, 1.0]], b_eq=[1.0],
        )
        sol = solve(p)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.x_star[0] == pytest.approx(0.75, abs=1e-6)


class TestEnumerationOracle:
    def test_redundant_constraint_same_objective(self):
        base = ConvexProgram(
            n=2, c=[-1.0, -1.0],
            A_ineq=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            b_ineq=[1.0, 0.0, 0.0],
        )
        redundant = ConvexProgram(
            n=2, c=[-1.0, -1.0],
            A_ineq=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
            b_ineq=[1.0, 0.0, 0.0, 2.0],
        )
        assert solve_lp_by_enumeration(base).objective == pytest.approx(
            solve_lp_by_enumeration(redundant).objective
        )

    def test_zero_objective(self):
        p = ConvexProgram(n=1, c=[0.0], A_ineq=[[1.0]], b_ineq=[1.0])
        assert solve_lp_by_enumeration(p).objective == 0.0

    def test_infeasible_raises(self):
        p = ConvexProgram(n=1, c=[1.0], A_ineq=[[1.0], [-1.0]], b_ineq=[-2.0, 1.0])
        with pytest.raises(ValueError, match="feasible"):
            solve_lp_by_enumeration(p)

    def test_rejects_qp(self):
        p = ConvexProgram(n=1, Q=[[1.0]], c=[0.0], A_ineq=[[1.0]], b_ineq=[1.0])
        with pytest.raises(ValueError, match="LP"):
            solve_lp_by_enumeration(p)


class TestOracleEquivalence:
    def test_objective_matches_on_random_lps(self):
        rng = np.random.default_rng(20240817)
        for trial in range(120):
            p = random_box_lp(rng)
            oracle = solve_lp_by_enumeration(p)
            sol = solve(p)
            assert sol.status is SolverStatus.OPTIMAL, f"trial {trial}: {sol.message}"
            rel = abs(sol.objective - oracle.objective) / (1.0 + abs(oracle.objective))
            assert rel <= 1e-6, f"trial {trial}: ipm {sol.objective} vs oracle {oracle.objective}"


class TestQpStationarity:
    def test_projected_gradient_fixed_point(self):
        rng = np.random.default_rng(99)
        for trial in range(60):
            n = int(rng.integers(2, 8))
            qd = rng.uniform(0.1, 2.0, n)
            c = rng.normal(size=n)
            lo = rng.uniform(-2.0, -0.5, n)
            hi = rng.uniform(0.5, 2.0, n)
            p = ConvexProgram(
                n=n, Q=np.diag(qd), c=c,
                A_ineq=np.vstack([np.eye(n), -np.eye(n)]),
                b_ineq=np.concatenate([hi, -lo]),
            )
            sol = solve(p)
            assert sol.status is SolverStatus.OPTIMAL, f"trial {trial}: {sol.message}"
            x = sol.x_star
            step = x - (qd * x + c)
            resid = np.max(np.abs(x - np.clip(step, lo, hi)))
            assert resid <= 1e-6, f"trial {trial}: stationarity residual {resid}"


class TestStatusHonesty:
    def test_unbounded_lp_not_optimal(self):
        p = ConvexProgram(n=1, c=[-1.0], A_ineq=[[-1.0]], b_ineq=[0.0])
        sol = solve(p)
        assert sol.status is not SolverStatus.OPTIMAL
        assert sol.message != ""

    def test_infeasible_lp_not_optimal(self):
        p = ConvexProgram(n=1, c=[1.0], A_ineq=[[1.0], [-1.0]], b_ineq=[-2.0, 1.0])
        sol = solve(p)
        assert sol.status is not SolverStatus.OPTIMAL

    def test_unbounded_unconstrained_lp(self):
        # the only row bounds x1 from above, so min x1 has no bottom
        p = ConvexProgram(n=2, c=[1.0, 0.0], A_ineq=[[1.0, 0.0]], b_ineq=[1.0])
        sol = solve(p)
        assert sol.status is SolverStatus.NUMERICAL_FAILURE

    def test_unbounded_lp_with_a_shared_row_is_diagnosed_early(self):
        # x1 + x2 <= 1 leaves x1 -> -inf feasible; the iterates run off
        # along that ray without any residual or mu blowing up
        p = ConvexProgram(n=2, c=[1.0, 0.0], A_ineq=[[1.0, 1.0]], b_ineq=[1.0])
        sol = solve(p)
        assert sol.status is SolverStatus.NUMERICAL_FAILURE
        assert sol.iterations <= 20
        assert "unbounded" in sol.message

    def test_costed_column_in_no_row_fails_before_iterating(self):
        # x1 is in no row and has no curvature, so min x1 has no bottom
        p = ConvexProgram(n=2, c=[1.0, 0.0], A_ineq=[[0.0, 1.0]], b_ineq=[1.0])
        sol = solve(p)
        assert sol.status is SolverStatus.NUMERICAL_FAILURE
        assert sol.iterations == 0 and "column 0" in sol.message
        # the column is found once per program; each solve reads its cost
        p.c = np.array([0.0, -1.0])
        assert solve(p).status is SolverStatus.OPTIMAL
        p.c = np.array([-2.0, -1.0])
        assert "column 0" in solve(p).message

    def test_program_without_inequality_rows_is_rejected(self):
        p = ConvexProgram(n=2, Q=np.eye(2), A_eq=[[1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(ValueError, match="no inequality rows"):
            solve(p)

    def test_optimal_report_is_within_tolerance(self):
        rng = np.random.default_rng(4)
        p = random_box_lp(rng, n=4)
        cfg = SolverConfig()
        sol = solve(p, cfg)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.kkt_residual <= cfg.eps2


class TestDeterminismAndBackends:
    def test_bitwise_repeatability(self):
        rng = np.random.default_rng(8)
        p = random_box_lp(rng, n=5)
        a = solve(p)
        b = solve(p)
        assert a.x_star.tobytes() == b.x_star.tobytes()
        assert a.objective == b.objective

    def test_schur_backend_stores_one_s_entry_per_row(self):
        p = scaled_s_program()
        split = solver._schur_split(p)
        assert [idx.tolist() for idx in split] == [[2, 3, 4, 5], [0, 1]]
        backend = solver._SchurBackend(p, split)
        assert backend.scol.tolist() == [0, 1, 2, 3, 0, 2, 0, 0]
        assert backend.scoef.tolist() == [2.5, -0.3, 4.0, -1.7, -2.0, -0.5, 0.0, 0.0]

    def test_schur_products_match_scipy(self):
        rng = np.random.default_rng(5)
        for i, p in enumerate(schur_eligible_programs()):
            split = solver._schur_split(p)
            assert split is not None, i
            backend = solver._SchurBackend(p, split)
            x, z = rng.standard_normal(p.n), rng.standard_normal(p.m)
            for got, want in ((backend.a_dot(x), p.A_ineq @ x),
                              (backend.at_dot(z), p.A_ineq.T @ z),
                              (backend.q_dot(x), p.Q @ x)):
                np.testing.assert_allclose(got, want, rtol=1e-13,
                                           atol=1e-13 * np.abs(want).max(initial=1.0))

    def test_schur_and_sparse_backends_agree(self):
        programs = [epigraph_program(np.random.default_rng(31)), *schur_eligible_programs()]
        for i, p in enumerate(programs):
            fast = solve(p)
            assert isinstance(p._backend_cache[1], solver._SchurBackend), i
            slow = solver._ip_loop(p, SolverConfig(), solver._SparseBackend(p))
            assert fast.status is SolverStatus.OPTIMAL, (i, fast.message)
            assert slow.status is SolverStatus.OPTIMAL, (i, slow.message)
            assert fast.objective == pytest.approx(slow.objective, rel=1e-7, abs=1e-8), i
            np.testing.assert_allclose(fast.x_star, slow.x_star, rtol=1e-7, atol=1e-7,
                                       err_msg=str(i))

    def test_schur_failure_falls_back_loudly(self, monkeypatch, caplog):
        def broken(self, w):
            raise scipy.linalg.LinAlgError("leading minor not positive definite")

        monkeypatch.setattr(solver._SchurBackend, "factor", broken)
        p = epigraph_program(np.random.default_rng(31))
        with caplog.at_level(logging.WARNING, logger="fedrosvm.solver"):
            sol = solve(p)
        assert sol.status is SolverStatus.OPTIMAL
        assert "leading minor not positive definite" in caplog.text
        sparse = solver._ip_loop(p, SolverConfig(), solver._SparseBackend(p))
        assert sol.objective == sparse.objective

    def test_asymmetric_q_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            ConvexProgram(n=2, Q=[[1.0, 0.5], [0.0, 1.0]], c=[0.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ConvexProgram(n=2, c=[1.0], A_ineq=[[1.0, 0.0]], b_ineq=[1.0])
