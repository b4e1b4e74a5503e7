"""Interior-point solver against hand values and the enumeration oracle."""

import logging

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fedrosvm import solver
from fedrosvm.core import DatasetView, NormKind
from fedrosvm.robust import ClientConfig, ProximalSteps, build_risk_epigraph_qp, build_sm_lp
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


def reference_kkt(p, w):
    """The sparse backend's augmented KKT matrix at scaling w, assembled
    from scratch by `sp.bmat`."""
    r = solver.REGULARIZATION
    blocks = [[p.Q + sp.identity(p.n) * r, p.A_ineq.T, p.A_eq.T if p.k else None],
              [p.A_ineq, -sp.diags(1.0 / w + r), None],
              [p.A_eq if p.k else None, None, -sp.identity(p.k) * r if p.k else None]]
    if p.k == 0:
        blocks = [row[:2] for row in blocks[:2]]
    return sp.bmat(blocks, format="csc")


def sparse_backend_programs():
    """SM LPs under both norms with kappa in {0, 1}, an LP without equality
    rows, a QP with a nonzero diagonal Q and one with a full Q and an
    equality row."""
    rng = np.random.default_rng(83)

    def shard(N, P):
        return DatasetView(X=rng.random((N, P)), y=np.where(rng.random(N) < 0.5, 1, -1))

    for norm in (NormKind.L1, NormKind.LINF):
        for kappa in (0.0, 1.0):
            P = int(rng.integers(1, 4))
            yield build_sm_lp(rng.standard_normal(P), shard(int(rng.integers(3, 9)), P),
                              ClientConfig(epsilon=0.1, kappa=kappa, norm=norm))
    yield random_box_lp(rng, n=4)
    yield build_risk_epigraph_qp(shard(12, 3), ClientConfig(epsilon=0.05), rho=0.7, tau=0.3,
                                 anchor=rng.standard_normal(3))
    L = rng.standard_normal((3, 3))
    yield ConvexProgram(n=3, Q=L @ L.T, c=rng.standard_normal(3), A_ineq=np.vstack([np.eye(3),
                        -np.eye(3)]), b_ineq=np.ones(6), A_eq=[[1.0, 1.0, 1.0]], b_eq=[0.5])


def scalings(rng, m, count=3):
    """Newton scalings z/s spread over ten orders of magnitude."""
    return [10.0 ** rng.uniform(-5.0, 5.0, m) for _ in range(count)]


class TestSparseBackend:
    def test_factor_hands_superlu_the_from_scratch_kkt_byte_for_byte(self, monkeypatch):
        seen = []
        real = solver._splu_kkt

        def recording(kkt):
            seen.append((kkt.indptr.copy(), kkt.indices.copy(), kkt.data.copy()))
            return real(kkt)

        monkeypatch.setattr(solver, "_splu_kkt", recording)
        rng = np.random.default_rng(3)
        for i, p in enumerate(sparse_backend_programs()):
            backend = solver._SparseBackend(p)
            for w in scalings(rng, p.m):
                backend.factor(w)
                want = reference_kkt(p, w)
                for got, ref in zip(seen.pop(), (want.indptr, want.indices, want.data)):
                    assert got.dtype == ref.dtype, i
                    assert got.tobytes() == ref.tobytes(), i

    def test_refactoring_solves_as_a_fresh_backend(self):
        rng = np.random.default_rng(4)
        for i, p in enumerate(sparse_backend_programs()):
            w1, w2 = scalings(rng, p.m, 2)
            reused, fresh = solver._SparseBackend(p), solver._SparseBackend(p)
            reused.factor(w1)
            reused.factor(w2)
            fresh.factor(w2)
            rhs = (rng.standard_normal(p.n), rng.standard_normal(p.m), rng.standard_normal(p.k))
            for got, want in zip(reused.solve(*rhs), fresh.solve(*rhs)):
                assert got.tobytes() == want.tobytes(), i

    def test_a_zero_pivot_refactors_loudly_with_default_pivoting(self, monkeypatch, caplog):
        real = solver.spla.splu
        calls = []

        def fails_once(kkt, **kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                raise RuntimeError("Factor is exactly singular")
            return real(kkt, **kwargs)

        p = next(sparse_backend_programs())
        expected = solver._ip_loop(p, SolverConfig(), solver._SparseBackend(p))
        monkeypatch.setattr(solver.spla, "splu", fails_once)
        with caplog.at_level(logging.WARNING, logger="fedrosvm.solver"):
            sol = solver._ip_loop(p, SolverConfig(), solver._SparseBackend(p))
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.objective == pytest.approx(expected.objective, rel=1e-7, abs=1e-8)
        assert calls[1] == {} and all(c["permc_spec"] == "MMD_AT_PLUS_A" for c in calls[2:])
        assert "relaxed symmetric pivoting (Factor is exactly singular)" in caplog.text
        assert len(caplog.records) == 1


def stack_group(seed, norm, P, count):
    """Proximal risk epigraphs of one dense-remainder width: ragged N,
    kappa in {0, 1} and (rho, tau) in {(0.7, 0), (0.7, 0.3), (0.05, 0)}."""
    rng = np.random.default_rng(seed)
    progs = []
    for i in range(count):
        N = int(rng.integers(5, 60))
        data = DatasetView(X=rng.random((N, P)), y=np.where(rng.random(N) < 0.5, 1, -1))
        cfg = ClientConfig(epsilon=0.05, kappa=float(i % 2), norm=norm)
        rho, tau = ((0.7, 0.0), (0.7, 0.3), (0.05, 0.0))[i % 3]
        progs.append(build_risk_epigraph_qp(data, cfg, rho=rho, tau=tau,
                                            anchor=rng.standard_normal(P)))
    return progs


def assert_same_solutions(stacked, alone):
    for i, (a, b) in enumerate(zip(stacked, alone)):
        assert a.status is b.status, (i, a.message, b.message)
        assert a.message == b.message, i
        assert a.iterations == b.iterations, i
        scale = np.abs(b.x_star).max()
        assert np.abs(a.x_star - b.x_star).max() <= 1e-7 * scale, i
        assert a.objective == pytest.approx(b.objective, rel=1e-7, abs=1e-12), i
        assert a.z_star.shape == b.z_star.shape, i


class TestSolveStack:
    @pytest.mark.parametrize("norm,P", [(NormKind.L1, 3), (NormKind.LINF, 2)])
    def test_matches_solve_program_by_program_cold_then_warm(self, norm, P):
        progs = stack_group(11, norm, P, 9)
        cold = solver.solve_stack(progs, [None] * len(progs))
        alone = [solve(p) for p in progs]
        assert_same_solutions(cold, alone)
        # programs leave the stack at different iterations
        assert len({s.iterations for s in alone}) > 1

        rng = np.random.default_rng(12)
        warms = [(s.x_star, s.z_star) for s in alone]
        for p in progs:
            p.c[:P] += 0.3 * rng.standard_normal(P)
        warm = solver.solve_stack(progs, warms)
        assert_same_solutions(warm, [solve(p, warm=w) for p, w in zip(progs, warms)])

    def test_a_stalled_warm_program_exits_as_solve_does(self):
        # a shard and two ADMM anchors on which the warm-started QP stalls
        # (the fixture of tests/test_robust.py)
        from test_robust import STALL_ANCHORS, STALL_X, STALL_Y
        data = DatasetView(X=np.array(STALL_X), y=np.array(STALL_Y))
        stall = build_risk_epigraph_qp(data, ClientConfig(epsilon=1.0 / 140.0, kappa=1.0),
                                       rho=0.01, anchor=np.array(STALL_ANCHORS[0]))
        first = solve(stall)
        stall.c[:2] = -0.01 * np.array(STALL_ANCHORS[1])
        others = stack_group(13, NormKind.L1, 2, 4)
        progs = [others[0], stall] + others[1:]
        warms = [None, (first.x_star, first.z_star), None, None, None]
        stacked = solver.solve_stack(progs, warms)
        alone = [solve(p, warm=w) for p, w in zip(progs, warms)]
        assert alone[1].message == "warm start stalled"
        assert_same_solutions(stacked, alone)

    def test_a_failed_factorization_is_resolved_alone(self, monkeypatch):
        progs = stack_group(14, NormKind.L1, 2, 4)
        real = solver._Stack.factor
        calls = []

        def second_program_fails_once(self, w):
            bad = real(self, w)
            if not calls:
                bad[1] = True
            calls.append(self.ids.tolist())
            return bad

        monkeypatch.setattr(solver._Stack, "factor", second_program_fails_once)
        stacked = solver.solve_stack(progs, [None] * 4)
        assert 1 not in calls[-1]
        alone = [solve(p) for p in progs]
        assert_same_solutions(stacked, alone)
        np.testing.assert_array_equal(stacked[1].x_star, alone[1].x_star)

    def test_free_cost_program_fails_as_solve_reports_it(self):
        p = scaled_s_program()

        def with_free_column(cost):
            return ConvexProgram(n=7, Q=np.diag(np.append(p.Q.diagonal(), 0.0)),
                                 c=np.append(p.c, cost),
                                 A_ineq=np.hstack([p.A_ineq.toarray(), np.zeros((p.m, 1))]),
                                 b_ineq=p.b_ineq)

        free, idle = with_free_column(1.0), with_free_column(0.0)
        got, fine = solver.solve_stack([free, idle], [None, None])
        assert got.status is SolverStatus.NUMERICAL_FAILURE
        assert got.message == solve(free).message
        assert_same_solutions([fine], [solve(idle)])

    def test_one_stack_takes_ragged_widths_and_sends_the_rest_to_solve(self, monkeypatch):
        # L1 QPs at P = 2 and P = 3 and L-inf QPs at P = 2 split with
        # remainders of two widths; a program with equality rows and an
        # L-inf QP at P = 33 (a remainder of 66 columns) do not split
        with_eq = ConvexProgram(n=2, c=[1.0, 1.0], A_ineq=-np.eye(2), b_ineq=[0.0, 0.0],
                                A_eq=[[1.0, 1.0]], b_eq=[1.0])
        progs = (stack_group(16, NormKind.L1, 2, 3) + stack_group(17, NormKind.L1, 3, 3)
                 + stack_group(18, NormKind.LINF, 2, 3) + [with_eq]
                 + stack_group(19, NormKind.LINF, 33, 1))
        P = [2] * 3 + [3] * 3 + [2] * 3 + [2, 33]
        splits = [solver._structure(p)[0] for p in progs]
        assert len({split[1].size for split in splits[:9]}) > 1
        assert splits[9] is None and splits[10] is None
        stacks, alone_ids = [], []
        real_start = solver._Stack.start

        def record(st, warms, skip):
            stacks.append((st.ids.tolist(), st.r))
            return real_start(st, warms, skip)

        def solve_alone(p, cfg=None, warm=None):
            alone_ids.append(next(i for i, q in enumerate(progs) if q is p))
            return solve(p, cfg, warm)

        monkeypatch.setattr(solver._Stack, "start", record)
        monkeypatch.setattr(solver, "solve", solve_alone)
        cold = solver.solve_stack(progs, [None] * len(progs))
        alone = [solve(p) for p in progs]
        assert_same_solutions(cold, alone)
        assert stacks == [(list(range(9)), max(split[1].size for split in splits[:9]))]
        assert alone_ids == [9, 10]  # every stacked program finished in the stack

        rng = np.random.default_rng(20)
        warms = [(s.x_star, s.z_star) for s in alone]
        for p, width in zip(progs, P):
            p.c[:width] += 0.3 * rng.standard_normal(width)
        warm = solver.solve_stack(progs, warms)
        assert_same_solutions(warm, [solve(p, warm=w) for p, w in zip(progs, warms)])
        assert alone_ids == [9, 10] * 2

    def test_a_cold_start_that_fails_to_factor_is_resolved_alone(self, monkeypatch):
        progs = stack_group(21, NormKind.L1, 2, 4)
        failing = solver._structure(progs[2])[1]
        real_factor = solver._SchurBackend.factor
        raised = []

        def fails_once(backend, w):
            if backend is failing and not raised:
                raised.append(True)
                raise scipy.linalg.LinAlgError("forced")
            return real_factor(backend, w)

        real_solve = solver.solve
        alone_ids = []

        def solve_alone(p, cfg=None, warm=None):
            alone_ids.append(next(i for i, q in enumerate(progs) if q is p))
            return real_solve(p, cfg, warm)

        monkeypatch.setattr(solver._SchurBackend, "factor", fails_once)
        monkeypatch.setattr(solver, "solve", solve_alone)
        stacked = solver.solve_stack(progs, [None] * 4)
        assert raised and alone_ids == [2]
        alone = [real_solve(p) for p in progs]
        assert_same_solutions(stacked, alone)
        np.testing.assert_array_equal(stacked[2].x_star, alone[2].x_star)

    def test_rejects_warm_starts_that_do_not_pair_with_the_programs(self):
        with pytest.raises(ValueError, match="2 programs but 1 warm"):
            solver.solve_stack(stack_group(15, NormKind.L1, 2, 2), [None])

    def test_a_stack_without_remainder_columns_solves_as_solve_does(self):
        # the split puts the one column in S, so no program in the stack
        # has a dense remainder
        p = ConvexProgram(n=1, Q=[[1.0]], c=[1.0], A_ineq=[[-1.0]], b_ineq=[0.0])
        assert solver._structure(p)[0][1].size == 0
        alone = solve(p)
        assert alone.status is SolverStatus.OPTIMAL
        assert_same_solutions(solver.solve_stack([p, p], [None, None]), [alone, alone])

    def test_a_singular_complement_is_resolved_alone(self, monkeypatch):
        # program 1's complement passes the Cholesky test at the first
        # factorization but is singular to the LU solve
        progs = stack_group(14, NormKind.L1, 2, 4)
        clean = solver.solve_stack(progs, [None] * 4)
        real = solver._Stack.factor
        calls = []

        def singular_once(st, w):
            bad = real(st, w)
            if not calls:
                st.h[1] = 0.0
            calls.append(st.ids.tolist())
            return bad

        monkeypatch.setattr(solver._Stack, "factor", singular_once)
        stacked = solver.solve_stack(progs, [None] * 4)
        assert len(calls) > 1
        assert_bitwise_equal(stacked[1], solve(progs[1]))
        for i in (0, 2, 3):
            assert_bitwise_equal(stacked[i], clean[i])

    def test_masking_a_program_that_left_moves_no_byte_of_the_rest(self, monkeypatch):
        # cold, program 3 runs the longest; warm-started at its own optimum
        # it leaves first and stays in the stack, masked, while the others
        # iterate on
        progs = stack_group(31, NormKind.L1, 2, 5)
        cold = solver.solve_stack(progs, [None] * 5)
        assert max(range(5), key=lambda i: cold[i].iterations) == 3
        real = solver._Stack.factor
        masked = []

        def record(st, w):
            masked.append(st.K == 5 and bool(st.done[3]))
            return real(st, w)

        monkeypatch.setattr(solver._Stack, "factor", record)
        warms = [None, None, None, (cold[3].x_star, cold[3].z_star), None]
        early = solver.solve_stack(progs, warms)
        assert early[3].status is SolverStatus.OPTIMAL
        assert early[3].iterations < min(s.iterations for s in cold)
        assert any(masked)
        for i in (0, 1, 2, 4):
            assert_bitwise_equal(early[i], cold[i])

    def test_a_program_stack_is_laid_out_once_and_solved_again(self, monkeypatch):
        progs = stack_group(32, NormKind.L1, 2, 4)
        stack = solver.ProgramStack(progs)
        first = stack.solve([None] * 4)
        for got, want in zip(first, solver.solve_stack(progs, [None] * 4)):
            assert_bitwise_equal(got, want)
        rng = np.random.default_rng(33)
        warms = [(s.x_star, s.z_star) for s in first]
        for p in progs:
            p.c[:2] += 0.3 * rng.standard_normal(2)
        expected = solver.solve_stack(progs, warms)
        built = []
        monkeypatch.setattr(solver._Stack, "__init__", lambda *args: built.append(args))
        again = stack.solve(warms)
        assert built == []
        for got, want in zip(again, expected):
            assert_bitwise_equal(got, want)


def test_a_twin_with_another_objective_shares_the_analysis_and_solves_the_same():
    rng = np.random.default_rng(34)
    data = DatasetView(X=rng.random((30, 3)), y=np.where(rng.random(30) < 0.5, 1, -1))
    cfg = ClientConfig(epsilon=0.05)
    first = build_risk_epigraph_qp(data, cfg, rho=0.7, anchor=rng.standard_normal(3))
    fresh = build_risk_epigraph_qp(data, cfg, rho=0.05, tau=0.3, anchor=rng.standard_normal(3))
    twin = first.with_objective(fresh.Q.diagonal(), fresh.c)
    split, backend, _ = solver._structure(twin)
    assert split is solver._structure(first)[0]
    assert backend.A_r is solver._structure(first)[1].A_r
    assert backend.qdiag.tobytes() == fresh.Q.diagonal().tobytes()
    assert_bitwise_equal(solve(twin), solve(fresh))
    with pytest.raises(ValueError, match="length n"):
        first.with_objective(fresh.Q.diagonal()[1:], fresh.c)


class TestStackedExits:
    def test_every_exit_leaves_the_stack_as_solve_reports_it(self, monkeypatch):
        # between two healthy QPs: an LP that splits and falls without bound,
        # an infeasible QP that splits with no dense remainder, and the
        # stalling warm start of tests/test_robust.py with its stall exit
        # switched off, so that it runs to the iteration cap
        from test_robust import STALL_ANCHORS, STALL_X, STALL_Y
        falling = ConvexProgram(n=2, c=[1.0, 0.0], A_ineq=[[1.0, 1.0]], b_ineq=[1.0])
        infeasible = ConvexProgram(n=1, Q=[[1.0]], A_ineq=[[-1.0], [1.0]], b_ineq=[-1.0, 0.0])
        data = DatasetView(X=np.array(STALL_X), y=np.array(STALL_Y))
        capped = build_risk_epigraph_qp(data, ClientConfig(epsilon=1.0 / 140.0, kappa=1.0),
                                        rho=0.01, anchor=np.array(STALL_ANCHORS[0]))
        first = solve(capped)
        capped.c[:2] = -0.01 * np.array(STALL_ANCHORS[1])
        monkeypatch.setattr(solver, "WARM_STALL_WINDOW", 10**9)
        healthy = stack_group(23, NormKind.L1, 2, 2)
        progs = [healthy[0], falling, infeasible, capped, healthy[1]]
        assert all(solver._structure(p)[0] is not None for p in progs)
        warms = [None, None, None, (first.x_star, first.z_star), None]
        stacked = solver.solve_stack(progs, warms)
        alone = [solve(p, warm=w) for p, w in zip(progs, warms)]
        assert [s.iterations for s in alone[1:4]] == [6, 7, SolverConfig().max_iterations]
        assert alone[1].message.startswith("objective falling")
        assert alone[2].message.startswith("iterates diverging")
        assert alone[3].status is SolverStatus.MAX_ITERATIONS
        assert alone[0].status is alone[4].status is SolverStatus.OPTIMAL
        assert_same_solutions(stacked, alone)


def assert_bitwise_equal(a, b):
    assert (a.status, a.message, a.iterations) == (b.status, b.message, b.iterations)
    assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
    assert np.float64(a.kkt_residual).tobytes() == np.float64(b.kkt_residual).tobytes()
    for got, want in ((a.x_star, b.x_star), (a.z_star, b.z_star), (a.y_star, b.y_star)):
        if got is None or want is None:  # a failure found before the iteration
            assert got is want
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestWarmStartContract:
    @pytest.mark.parametrize("size", ["z-short", "z-of-length-n", "z-none", "x-short"])
    def test_a_warm_start_of_the_wrong_size_starts_cold(self, size):
        p = ConvexProgram(n=2, Q=np.eye(2), c=[1.0, -1.0],
                          A_ineq=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], b_ineq=[1.0, 1.0, 1.0])
        assert solver._structure(p)[0] is not None  # so solve_stack stacks it
        cold = solve(p)
        warm = {"z-short": (cold.x_star, [1.0]), "z-of-length-n": (cold.x_star, [1.0, 1.0]),
                "z-none": (cold.x_star, None), "x-short": (cold.x_star[:1], cold.z_star)}[size]
        assert_bitwise_equal(solve(p, warm=warm), cold)
        stacked, = solver.solve_stack([p], [warm])
        assert_bitwise_equal(stacked, solver.solve_stack([p], [None])[0])
        assert_same_solutions([stacked], [cold])


@settings(max_examples=25, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(3, 40), st.integers(1, 4)), min_size=1, max_size=4),
       kappa=st.sampled_from([0.0, 1.0]),
       rho_tau=st.sampled_from([(0.7, 0.0), (0.7, 0.3), (0.05, 0.0)]),
       norm=st.sampled_from([NormKind.L1, NormKind.LINF]),
       seed=st.integers(0, 2**32 - 1))
def test_solve_stack_matches_solve_on_random_epigraph_qps(shapes, kappa, rho_tau, norm, seed):
    rng = np.random.default_rng(seed)
    cfg = ClientConfig(epsilon=0.05, kappa=kappa, norm=norm)
    progs = []
    for N, P in shapes:
        data = DatasetView(X=rng.random((N, P)), y=np.where(rng.random(N) < 0.5, 1, -1))
        progs.append(build_risk_epigraph_qp(data, cfg, rho=rho_tau[0], tau=rho_tau[1],
                                            anchor=rng.standard_normal(P)))
    assert all(solver._structure(p)[0] is not None for p in progs)
    alone = [solve(p) for p in progs]
    assert_same_solutions(solver.solve_stack(progs, [None] * len(progs)), alone)

    warms = [(s.x_star, s.z_star) for s in alone]
    for p, (_, P) in zip(progs, shapes):
        p.c[:P] += 0.3 * rng.standard_normal(P)
    assert_same_solutions(solver.solve_stack(progs, warms),
                          [solve(p, warm=w) for p, w in zip(progs, warms)])


def equal_layout_group(rng, norm, kappa, rho, tau, count, N, P):
    """Proximal risk epigraphs on `count` random shards of N samples: one
    row layout, so `ProgramBatch` steps them as one batch."""
    cfg = ClientConfig(epsilon=0.05, kappa=kappa, norm=norm)
    return [build_risk_epigraph_qp(
        DatasetView(X=rng.random((N, P)), y=np.where(rng.random(N) < 0.5, 1, -1)),
        cfg, rho=rho, tau=tau, anchor=rng.standard_normal(P)) for _ in range(count)]


def solved_alone(monkeypatch):
    """The ids of the programs that `ProgramBatch` hands to `solve`."""
    alone = []
    real = solver.solve

    def recording(p, cfg=None, warm=None):
        alone.append(id(p))
        return real(p, cfg, warm)

    monkeypatch.setattr(solver, "solve", recording)
    return alone


class TestProgramBatch:
    @pytest.mark.parametrize("rho_tau", [(0.7, 0.0), (0.7, 0.3), (0.05, 0.0)])
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    @pytest.mark.parametrize("norm", [NormKind.L1, NormKind.LINF])
    def test_every_row_has_the_bytes_of_solve_cold_then_warm(self, monkeypatch, norm, kappa,
                                                              rho_tau):
        # with P = 3 the l-infinity epigraph's S columns are not a range
        rng = np.random.default_rng([71, norm is NormKind.LINF, int(kappa), int(100 * rho_tau[0]),
                                     int(10 * rho_tau[1])])
        P = 3
        progs = equal_layout_group(rng, norm, kappa, *rho_tau, count=4, N=25, P=P)
        batch = solver.ProgramBatch(progs)
        assert [b.ids for b in batch.batches] == [[0, 1, 2, 3]]
        alone = solved_alone(monkeypatch)
        warms = [None] * len(progs)
        for _ in range(3):
            expected = [solve(p, warm=w) for p, w in zip(progs, warms)]
            for got, want in zip(batch.solve(warms), expected):
                assert_bitwise_equal(got, want)
            warms = [(s.x_star, s.z_star) for s in expected]
            for p in progs:
                p.c[:P] += 0.3 * rng.standard_normal(P)
        assert alone == []

    def test_a_stalled_warm_start_answers_as_solve(self, monkeypatch):
        # the stalling warm start of tests/test_robust.py next to a healthy
        # shard of the same size: left alone once the other row is done, it
        # is taken on by `_ip_loop`; with a twin, both stall in the batch
        # and go back to `solve`
        from test_robust import STALL_ANCHORS, STALL_X, STALL_Y
        cfg = ClientConfig(epsilon=1.0 / 140.0, kappa=1.0)
        stalling = DatasetView(X=np.array(STALL_X), y=np.array(STALL_Y))
        other = DatasetView(X=np.random.default_rng(72).random((14, 2)), y=np.array(STALL_Y))
        for shards, handed_back in (((stalling, other), []), ((stalling, stalling, other), [0, 1])):
            anchor = np.array(STALL_ANCHORS[0])
            progs = [build_risk_epigraph_qp(data, cfg, rho=0.01, anchor=anchor) for data in shards]
            warms = [(s.x_star, s.z_star) for s in map(solve, progs)]
            for p in progs:
                p.c[:2] = -0.01 * np.array(STALL_ANCHORS[1])
            batch = solver.ProgramBatch(progs)
            assert [b.ids for b in batch.batches] == [list(range(len(progs)))]
            alone = solved_alone(monkeypatch)
            got = batch.solve(warms)
            want = [solve(p, warm=w) for p, w in zip(progs, warms)]
            assert want[0].message == "warm start stalled"
            assert want[-1].status is SolverStatus.OPTIMAL
            for a, b in zip(got, want):
                assert_bitwise_equal(a, b)
            assert alone == [id(progs[i]) for i in handed_back]

    @pytest.mark.parametrize("warm", [True, False], ids=["in-the-iteration", "at-the-cold-start"])
    def test_a_schur_failure_goes_to_the_logged_sparse_fallback(self, monkeypatch, caplog, warm):
        rng = np.random.default_rng(73)
        progs = equal_layout_group(rng, NormKind.L1, 1.0, 0.7, 0.0, count=3, N=20, P=2)
        warms = [(s.x_star, s.z_star) if warm else None for s in map(solve, progs)]
        for p in progs:
            p.c[:2] += 0.3 * rng.standard_normal(2)
        # the first Schur complement of program 1's solve fails to factor
        real = solver.dpotrf
        factored = []

        def recording(h, **kwargs):
            factored.append(h.tobytes())
            return real(h, **kwargs)

        monkeypatch.setattr(solver, "dpotrf", recording)
        solve(progs[1], warm=warms[1])

        def fails_on_it(h, **kwargs):
            return (h, 1) if h.tobytes() == factored[0] else real(h, **kwargs)

        monkeypatch.setattr(solver, "dpotrf", fails_on_it)
        want = [solve(p, warm=w) for p, w in zip(progs, warms)]
        alone = solved_alone(monkeypatch)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fedrosvm.solver"):
            got = solver.ProgramBatch(progs).solve(warms)
        for a, b in zip(got, want):
            assert_bitwise_equal(a, b)
        assert alone == [id(progs[1])]
        assert got[1].status is SolverStatus.OPTIMAL
        assert len(caplog.records) == 1
        assert "Schur backend failed" in caplog.text
        assert "re-solving on the sparse KKT backend" in caplog.text

    def test_a_costed_free_column_answers_as_solve(self, monkeypatch):
        # one more column, in no row and without curvature, costed in the
        # middle program only
        rng = np.random.default_rng(74)
        progs = [ConvexProgram(n=p.n + 1, Q=sp.diags(np.append(p.Q.diagonal(), 0.0)),
                               c=np.append(p.c, cost),
                               A_ineq=sp.hstack([p.A_ineq, sp.csr_matrix((p.m, 1))]),
                               b_ineq=p.b_ineq)
                 for p, cost in zip(equal_layout_group(rng, NormKind.L1, 1.0, 0.7, 0.0,
                                                       count=3, N=12, P=2), (0.0, 2.5, 0.0))]
        batch = solver.ProgramBatch(progs)
        assert [b.ids for b in batch.batches] == [[0, 1, 2]]
        alone = solved_alone(monkeypatch)
        got = batch.solve([None] * 3)
        want = [solve(p) for p in progs]
        assert want[1].message.startswith(f"column {progs[1].n - 1} is in no constraint row")
        assert want[0].status is want[2].status is SolverStatus.OPTIMAL
        for a, b in zip(got, want):
            assert_bitwise_equal(a, b)
        assert alone == [id(progs[1])]

    def test_a_program_alone_in_its_layout_goes_to_solve(self, monkeypatch):
        rng = np.random.default_rng(75)
        progs = (equal_layout_group(rng, NormKind.L1, 1.0, 0.7, 0.0, count=2, N=10, P=2)
                 + equal_layout_group(rng, NormKind.L1, 1.0, 0.7, 0.0, count=1, N=11, P=2))
        batch = solver.ProgramBatch(progs)
        assert [b.ids for b in batch.batches] == [[0, 1]]
        alone = solved_alone(monkeypatch)
        for a, b in zip(batch.solve([None] * 3), [solve(p) for p in progs]):
            assert_bitwise_equal(a, b)
        assert alone == [id(progs[2])]


def proximal_family(rng, norm, kappa, tau, sizes, P):
    """Proximal risk epigraphs (rho = 0.5) on random shards of the given
    sizes, each with a warm point from a cold solve at its anchor; then the
    anchors move a little, as between two ADMM rounds."""
    cfg = ClientConfig(epsilon=0.05, kappa=kappa, norm=norm)
    progs = [build_risk_epigraph_qp(
        DatasetView(X=rng.random((N, P)), y=np.where(rng.random(N) < 0.5, 1, -1)),
        cfg, rho=0.5, tau=tau, anchor=rng.standard_normal(P)) for N in sizes]
    warms = [(s.x_star, s.z_star) for s in map(solve, progs)]
    for p in progs:
        p.c[:P] += 1e-3 * rng.standard_normal(P)
    return progs, warms


def kkt_violation(p, x, z):
    """The largest violation of p's KKT conditions at (x, z), from its
    sparse matrices: stationarity, primal and dual feasibility and
    complementarity, each relative to the scale of c or b."""
    slack = p.b_ineq - p.A_ineq @ x
    scale_c = 1.0 + np.abs(p.c).max()
    scale_b = 1.0 + np.abs(p.b_ineq).max()
    return max(np.abs(p.Q @ x + p.c + p.A_ineq.T @ z).max() / scale_c,
               max(-slack.min(), 0.0) / scale_b, max(-z.min(), 0.0) / scale_c,
               np.abs(slack * z).max() / (scale_b * scale_c))


def polish_cases():
    """24 families of random proximal QPs, 240 programs: both norms, kappa
    in {0, 1}, tau in {0, 0.2}, and shard sizes of one row layout and of
    several."""
    rng = np.random.default_rng(77)
    for norm in (NormKind.L1, NormKind.LINF):
        for kappa in (0.0, 1.0):
            for tau in (0.0, 0.2):
                for even in (True, False, True):
                    sizes = ([int(rng.integers(8, 30))] * 10 if even
                             else [int(n) for n in rng.integers(8, 30, size=10)])
                    yield proximal_family(rng, norm, kappa, tau, sizes, int(rng.integers(1, 4)))


class TestActiveSetPolish:
    def test_an_accepted_polish_is_the_optimum_and_has_the_bytes_it_has_alone(self):
        accepted = tried = 0
        for progs, warms in polish_cases():
            together = solver.ActiveSetPolish(progs).solve(warms)
            for p, warm, got in zip(progs, warms, together):
                tried += 1
                alone = solver.ActiveSetPolish([p]).solve([warm])[0]
                if got is None:
                    assert alone is None
                    continue
                accepted += 1
                assert_bitwise_equal(got, alone)
                assert (got.status, got.iterations, got.message) == (
                    SolverStatus.OPTIMAL, 0, "polished")
                assert got.kkt_residual <= SolverConfig().eps2
                assert kkt_violation(p, got.x_star, got.z_star) <= 1e-9
                # a cold solve to a tighter tolerance than the default, whose
                # w can sit 1e-6 from the optimum
                cold = solve(p, SolverConfig(eps2=1e-12))
                assert cold.status is SolverStatus.OPTIMAL
                P = p.Q.diagonal().astype(bool).sum()
                w_scale = 1.0 + np.abs(cold.x_star[:P]).max()
                assert np.abs(got.x_star[:P] - cold.x_star[:P]).max() <= 1e-7 * w_scale
                assert got.objective <= cold.objective + 1e-9 * (1.0 + abs(cold.objective))
        assert tried == 240
        assert accepted >= tried // 2

    def test_a_wrong_active_set_is_rejected_and_the_step_goes_to_the_solver(
            self, monkeypatch):
        from conftest import drop_largest_multiplier
        real = solver._guess_active
        monkeypatch.setattr(solver, "_guess_active",
                            lambda slack, z: drop_largest_multiplier(real(slack, z), z))
        for progs, warms in polish_cases():
            assert solver.ActiveSetPolish(progs).solve(warms) == [None] * len(progs)
        # two shards of one size step in one batch, the third alone
        rng = np.random.default_rng(78)
        cfg = ClientConfig(epsilon=0.05, kappa=1.0, rho=0.5)
        steps = ProximalSteps([(DatasetView(X=rng.random((N, 2)),
                                            y=np.where(rng.random(N) < 0.5, 1, -1)), cfg, g)
                               for g, N in enumerate((12, 12, 15))])
        anchors = rng.standard_normal((3, 2))
        steps.step(anchors)
        warms = list(steps.warms)
        steps.step(anchors + 1e-3 * rng.standard_normal((3, 2)))
        assert (steps.polished, steps.solved) == (0, 6)
        for prog, warm, (x, z) in zip(steps.programs, warms, steps.warms):
            want = solve(prog, warm=warm)
            assert x.tobytes() == want.x_star.tobytes() and z.tobytes() == want.z_star.tobytes()

    def test_a_program_on_the_sparse_backend_is_never_polished(self):
        # under the l-infinity norm 33 features leave a dense remainder of
        # 66 columns, past what the Schur backend takes
        rng = np.random.default_rng(79)
        progs, warms = proximal_family(rng, NormKind.LINF, 1.0, 0.0, [40, 40], 33)
        assert all(solver._structure(p)[0] is None for p in progs)
        polish = solver.ActiveSetPolish(progs)
        assert polish.groups == []
        assert polish.solve(warms) == [None, None]
