"""Self-contained convex QP/LP solver.

Solves

    minimize    (1/2) x'Qx + c'x
    subject to  A_ineq x <= b_ineq,   A_eq x = b_eq,

with free variables, via a primal-dual path-following interior-point method
with Mehrotra predictor-corrector steps. Two linear-algebra backends sit
behind the same iteration:

* a dense Schur-complement path used when the program has no equality rows,
  a diagonal Q, and the inequality columns split into a large set whose
  normal-matrix block is diagonal (each constraint row touches at most one
  such column) plus a small dense remainder. The epigraph-style programs
  built elsewhere in this package (hinge epigraphs s_n coupled only to a
  P+1-dimensional model block) all have this shape, and the per-iteration
  cost collapses to a (P+1)-sized factorization;
* a sparse augmented-KKT path (scipy splu) for everything else.

The reduction is exact; backend choice affects speed and floating-point
roundoff only. Identical inputs take identical paths, so results are
deterministic within one build.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "ConvexProgram",
    "SolverConfig",
    "SolverStatus",
    "SolverSolution",
    "solve",
    "solve_lp_by_enumeration",
]

log = logging.getLogger(__name__)

# Diagonal regularization of every Newton system; keeps the KKT matrix
# quasi-definite when Q is singular or the constraints are degenerate.
REGULARIZATION = 1e-10


def _as_sparse(a, shape):
    if a is None:
        return sp.csr_matrix(shape)
    if sp.issparse(a):
        m = a.tocsr().astype(float)
    else:
        m = sp.csr_matrix(np.atleast_2d(np.asarray(a, dtype=float)))
    if m.shape != shape:
        raise ValueError(f"matrix shape {m.shape} does not match expected {shape}")
    if not np.all(np.isfinite(m.data)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass
class ConvexProgram:
    """Data of one convex program in standard inequality/equality form.

    Q is the (possibly zero) symmetric PSD quadratic term; pass None for LPs.
    """

    n: int
    Q: object = None
    c: np.ndarray = None
    A_ineq: object = None
    b_ineq: np.ndarray = None
    A_eq: object = None
    b_eq: np.ndarray = None

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")
        self.c = np.zeros(self.n) if self.c is None else np.asarray(self.c, dtype=float).ravel()
        if self.c.shape != (self.n,):
            raise ValueError("c must have length n")
        if not np.all(np.isfinite(self.c)):
            raise ValueError("c must be finite")

        self.b_ineq = (
            np.zeros(0) if self.b_ineq is None else np.asarray(self.b_ineq, dtype=float).ravel()
        )
        self.b_eq = (
            np.zeros(0) if self.b_eq is None else np.asarray(self.b_eq, dtype=float).ravel()
        )
        if not (np.all(np.isfinite(self.b_ineq)) and np.all(np.isfinite(self.b_eq))):
            raise ValueError("right-hand sides must be finite")

        self.A_ineq = _as_sparse(self.A_ineq, (self.m, self.n))
        self.A_eq = _as_sparse(self.A_eq, (self.k, self.n))

        self.Q = _as_sparse(self.Q, (self.n, self.n))
        asym = abs(self.Q - self.Q.T)
        if asym.nnz and asym.max() > 1e-12 * (1.0 + abs(self.Q).max()):
            raise ValueError("Q must be symmetric")

    @property
    def m(self) -> int:
        return len(self.b_ineq)

    @property
    def k(self) -> int:
        return len(self.b_eq)

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * (x @ (self.Q @ x)) + self.c @ x)


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolverConfig:
    eps2: float = 1e-9
    max_iterations: int = 200


@dataclass
class SolverSolution:
    x_star: np.ndarray
    objective: float
    status: SolverStatus
    kkt_residual: float
    iterations: int = 0
    message: str = ""
    z_star: np.ndarray = field(default=None, repr=False)
    y_star: np.ndarray = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# structure detection for the Schur backend


def _schur_split(p: ConvexProgram):
    """Greedy split of columns into an 'eliminable' set S and a remainder.

    S collects columns such that no inequality row touches two S members,
    which makes the S-block of Q + A'WA diagonal for any row weights W.
    Candidates are visited by ascending column degree so that the many
    low-degree epigraph columns win over the few dense model columns.
    Returns (S_idx, rest_idx) or None when the reduction is not worthwhile.
    """
    if p.k > 0 or p.m == 0:
        return None
    qoff = p.Q - sp.diags(p.Q.diagonal())
    if qoff.nnz:
        return None
    A = p.A_ineq.tocsc()
    degrees = np.diff(A.indptr)
    order = np.argsort(degrees, kind="stable")
    row_taken = np.zeros(p.m, dtype=bool)
    in_s = np.zeros(p.n, dtype=bool)
    for j in order:
        rows = A.indices[A.indptr[j]:A.indptr[j + 1]]
        if rows.size and not row_taken[rows].any():
            row_taken[rows] = True
            in_s[j] = True
    s_idx = np.flatnonzero(in_s)
    r_idx = np.flatnonzero(~in_s)
    if r_idx.size > 64 or s_idx.size == 0:
        return None
    return s_idx, r_idx


class _SchurBackend:
    """Normal-equations Newton solve with diagonal elimination of the S block."""

    def __init__(self, p: ConvexProgram, split):
        s_idx, r_idx = split
        self.s_idx, self.r_idx = s_idx, r_idx
        A = p.A_ineq.tocsc()
        self.A_s = A[:, s_idx].tocsr()
        self.A_s2 = self.A_s.multiply(self.A_s).tocsr()
        # transposes built once per program, not on every iteration
        self.A_sT = self.A_s.T
        self.A_s2T = self.A_s2.T
        self.A_ineqT = p.A_ineq.T
        self.A_r = np.asarray(A[:, r_idx].todense())
        qdiag = p.Q.diagonal()
        self.q_s = qdiag[s_idx]
        self.q_r = qdiag[r_idx]

    def factor(self, w: np.ndarray):
        self.d_s = self.q_s + (self.A_s2T @ w) + REGULARIZATION
        arw = self.A_r * w[:, None]
        self.m_sr = self.A_sT @ arw  # |S| x n_r dense
        h = arw.T @ self.A_r + np.diag(self.q_r + REGULARIZATION)
        h -= self.m_sr.T @ (self.m_sr / self.d_s[:, None])
        self.w = w
        if self.r_idx.size:
            self.h_fac = scipy.linalg.cho_factor(h, check_finite=False)

    def solve(self, rhs_x: np.ndarray, g: np.ndarray, rhs_e: np.ndarray = None):
        # Newton rows:  (Q + A'WA) dx = rhs_x + A'W g ;  dz = W (A dx - g)
        wg = self.w * g
        b = rhs_x.copy()
        b[self.s_idx] += self.A_sT @ wg
        b[self.r_idx] += self.A_r.T @ wg
        b_s = b[self.s_idx]
        b_r = b[self.r_idx] - self.m_sr.T @ (b_s / self.d_s)
        if self.r_idx.size:
            dx_r = scipy.linalg.cho_solve(self.h_fac, b_r, check_finite=False)
        else:
            dx_r = np.zeros(0)
        dx_s = (b_s - self.m_sr @ dx_r) / self.d_s
        dx = np.empty(len(self.s_idx) + len(self.r_idx))
        dx[self.s_idx] = dx_s
        dx[self.r_idx] = dx_r
        adx = self.A_s @ dx_s + self.A_r @ dx_r
        dz = self.w * (adx - g)
        return dx, dz, np.zeros(0)


def _splu_kkt(kkt):
    """Factor a quasi-definite KKT matrix.

    Symmetric-mode minimum-degree ordering keeps fill low; the default
    COLAMD ordering with full partial pivoting is two orders of magnitude
    slower on the LP reformulations here. The relaxed pivot threshold can
    hit a zero pivot on degenerate systems, in which case we retry with
    the conservative defaults.
    """
    try:
        return spla.splu(kkt, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.1,
                         options=dict(SymmetricMode=True))
    except RuntimeError:
        return spla.splu(kkt)


class _SparseBackend:
    """Augmented-KKT Newton solve via sparse LU."""

    def __init__(self, p: ConvexProgram):
        self.p = p
        self.A_ineqT = p.A_ineq.T
        self.reg_x = sp.identity(p.n) * REGULARIZATION
        self.reg_y = -sp.identity(p.k) * REGULARIZATION if p.k else None

    def factor(self, w: np.ndarray):
        p = self.p
        d = -sp.diags(1.0 / w + REGULARIZATION)
        blocks = [
            [p.Q + self.reg_x, self.A_ineqT, p.A_eq.T if p.k else None],
            [p.A_ineq, d, None],
            [p.A_eq if p.k else None, None, self.reg_y],
        ]
        if p.k == 0:
            blocks = [row[:2] for row in blocks[:2]]
        kkt = sp.bmat(blocks, format="csc")
        self.lu = _splu_kkt(kkt)
        self.w = w

    def solve(self, rhs_x: np.ndarray, g: np.ndarray, rhs_e: np.ndarray = None):
        p = self.p
        rhs = np.concatenate([rhs_x, g, rhs_e if p.k else np.zeros(0)])
        sol = self.lu.solve(rhs)
        dx = sol[: p.n]
        dz = sol[p.n : p.n + p.m]
        dy = sol[p.n + p.m :]
        return dx, dz, dy


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return np.inf
    return float(np.min(-v[neg] / dv[neg]))


def _solve_equality_only(p: ConvexProgram, cfg: SolverConfig) -> SolverSolution:
    if p.k == 0:
        kkt = (p.Q + sp.identity(p.n) * REGULARIZATION).tocsc()
        try:
            x = spla.splu(kkt).solve(-p.c)
        except RuntimeError as e:
            return SolverSolution(np.full(p.n, np.nan), np.nan, SolverStatus.NUMERICAL_FAILURE,
                                  np.inf, 0, f"factorization failed: {e}")
        resid = np.max(np.abs(p.Q @ x + p.c)) / (1.0 + np.max(np.abs(p.c), initial=0.0))
        if not np.isfinite(x).all() or resid > max(cfg.eps2, 1e-7):
            return SolverSolution(x, p.objective(x), SolverStatus.NUMERICAL_FAILURE, float(resid),
                                  0, "stationarity unattainable; objective likely unbounded below")
        return SolverSolution(x, p.objective(x), SolverStatus.OPTIMAL, float(resid), 0, "")
    kkt = sp.bmat(
        [[p.Q + sp.identity(p.n) * REGULARIZATION, p.A_eq.T],
         [p.A_eq, -sp.identity(p.k) * REGULARIZATION]],
        format="csc",
    )
    sol = spla.splu(kkt).solve(np.concatenate([-p.c, p.b_eq]))
    x, y = sol[: p.n], sol[p.n :]
    rd = np.max(np.abs(p.Q @ x + p.c + p.A_eq.T @ y)) / (1.0 + np.max(np.abs(p.c), initial=0.0))
    re = np.max(np.abs(p.A_eq @ x - p.b_eq)) / (1.0 + np.max(np.abs(p.b_eq), initial=0.0))
    resid = max(rd, re)
    status = SolverStatus.OPTIMAL if resid <= max(cfg.eps2, 1e-7) else SolverStatus.NUMERICAL_FAILURE
    msg = "" if status is SolverStatus.OPTIMAL else "equality-constrained solve did not certify"
    return SolverSolution(x, p.objective(x), status, float(resid), 0, msg, y_star=y)


def solve(p: ConvexProgram, cfg: SolverConfig = None, warm=None,
          _force_sparse: bool = False) -> SolverSolution:
    """Solve a ConvexProgram; never raises on solvable-but-hard instances.

    Returns status OPTIMAL only when scaled primal, dual, and complementarity
    residuals are all below cfg.eps2. Infeasible or unbounded inputs surface
    as NUMERICAL_FAILURE with a diagnostic message, never as silent garbage.

    ``warm`` is an optional (x0, z0) pair from a related earlier solve; it
    only changes the starting point, never the answer.
    """
    cfg = cfg or SolverConfig()
    if p.m == 0:
        return _solve_equality_only(p, cfg)

    # constraint structure is immutable after the first solve (only c may be
    # swapped between repeated solves), so the backend can be reused
    cached = getattr(p, "_backend_cache", None)
    if cached is not None and cached[0] == _force_sparse:
        split, backend = cached[1], cached[2]
    else:
        split = None if _force_sparse else _schur_split(p)
        backend = _SchurBackend(p, split) if split else _SparseBackend(p)
        p._backend_cache = (_force_sparse, split, backend)
    try:
        return _ip_loop(p, cfg, backend, warm)
    except (scipy.linalg.LinAlgError, RuntimeError, np.linalg.LinAlgError) as e:
        if split is not None:
            # dense Schur path lost positive definiteness; re-run on the
            # robust sparse path from scratch
            log.warning("Schur backend failed (%s); re-solving on the sparse KKT backend", e)
            try:
                return _ip_loop(p, cfg, _SparseBackend(p), warm)
            except (scipy.linalg.LinAlgError, RuntimeError, np.linalg.LinAlgError) as e2:
                e = e2
        return SolverSolution(np.full(p.n, np.nan), np.nan, SolverStatus.NUMERICAL_FAILURE,
                              np.inf, 0, f"linear algebra failure: {e}")


def _ip_loop(p: ConvexProgram, cfg: SolverConfig, backend, warm=None) -> SolverSolution:
    n, m, k = p.n, p.m, p.k
    scale_b = 1.0 + max(
        np.max(np.abs(p.b_ineq), initial=0.0), np.max(np.abs(p.b_eq), initial=0.0)
    )
    scale_c = 1.0 + np.max(np.abs(p.c), initial=0.0)

    if warm is not None and warm[0] is not None and len(warm[0]) == n:
        # re-center the previous optimum at a moderate complementarity level
        # so the first Newton steps can absorb the changed objective
        x = np.asarray(warm[0], dtype=float).copy()
        lift = np.sqrt(1e-4 * scale_b * scale_c)
        z = np.maximum(np.asarray(warm[1], dtype=float), lift)
        s = np.maximum(p.b_ineq - p.A_ineq @ x, lift)
        y = np.zeros(k)
    else:
        # centered cold start: one Newton solve at (x, s, z) = (0, 1, 1)
        x = np.zeros(n)
        s = np.ones(m)
        z = np.ones(m)
        y = np.zeros(k)
        backend.factor(z / s)
        r_d = p.Q @ x + p.c + backend.A_ineqT @ z + (p.A_eq.T @ y if k else 0.0)
        r_p = p.A_ineq @ x + s - p.b_ineq
        r_e = p.A_eq @ x - p.b_eq if k else np.zeros(0)
        dx, dz, dy = backend.solve(-r_d, -r_p + s - 1.0 / z, -r_e)
        ds = (-s * z + 1.0 - s * dz) / z
        x = x + dx
        y = y + dy
        s_t, z_t = s + ds, z + dz
        ds_shift = max(-1.5 * s_t.min(initial=0.0), 0.0)
        dz_shift = max(-1.5 * z_t.min(initial=0.0), 0.0)
        s_t, z_t = s_t + ds_shift + 1e-10, z_t + dz_shift + 1e-10
        dot = s_t @ z_t
        s = s_t + 0.5 * dot / z_t.sum()
        z = z_t + 0.5 * dot / s_t.sum()

    mu0 = (s @ z) / m
    stall = 0
    kkt_resid = np.inf
    for it in range(1, cfg.max_iterations + 1):
        qx = p.Q @ x
        r_d = qx + p.c + backend.A_ineqT @ z + (p.A_eq.T @ y if k else 0.0)
        r_p = p.A_ineq @ x + s - p.b_ineq
        r_e = p.A_eq @ x - p.b_eq if k else np.zeros(0)
        mu = (s @ z) / m
        obj = float(0.5 * (x @ qx) + p.c @ x)

        rd_rel = np.max(np.abs(r_d)) / (scale_c + np.max(np.abs(qx), initial=0.0))
        rp_rel = max(np.max(np.abs(r_p), initial=0.0), np.max(np.abs(r_e), initial=0.0)) / scale_b
        gap_rel = mu / (1.0 + abs(obj))
        kkt_resid = max(rd_rel, rp_rel, gap_rel)
        if kkt_resid <= cfg.eps2:
            return SolverSolution(x, obj, SolverStatus.OPTIMAL, float(kkt_resid), it - 1, "",
                                  z_star=z, y_star=y)
        if not np.isfinite(kkt_resid) or mu > 1e10 * (1.0 + mu0) or np.max(np.abs(x)) > 1e13:
            return SolverSolution(
                x, obj, SolverStatus.NUMERICAL_FAILURE, float(kkt_resid), it - 1,
                "iterates diverging: problem is likely infeasible or unbounded "
                f"(mu={mu:.2e}, |x|={np.max(np.abs(x)):.2e})", z_star=z, y_star=y)

        backend.factor(z / s)

        # predictor (affine scaling) direction
        rc = -s * z
        g_aff = -r_p - rc / z
        dx_a, dz_a, dy_a = backend.solve(-r_d, g_aff, -r_e)
        ds_a = (rc - s * dz_a) / z
        alpha_a = min(1.0, _max_step(s, ds_a), _max_step(z, dz_a))
        mu_aff = ((s + alpha_a * ds_a) @ (z + alpha_a * dz_a)) / m
        sigma = min(max((mu_aff / mu) ** 3, 1e-10), 1.0 - 1e-10)

        # corrector
        rc = sigma * mu - s * z - ds_a * dz_a
        g = -r_p - rc / z
        dx, dz, dy = backend.solve(-r_d, g, -r_e)
        ds = (rc - s * dz) / z

        eta = 0.99995 if gap_rel < 1e-3 else 0.995
        alpha = min(1.0, eta * _max_step(s, ds), eta * _max_step(z, dz))
        if alpha < 1e-10:
            stall += 1
            if stall >= 3:
                return SolverSolution(
                    x, obj, SolverStatus.NUMERICAL_FAILURE, float(kkt_resid), it,
                    "step length collapsed before reaching tolerance", z_star=z, y_star=y)
        else:
            stall = 0
        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz
        y = y + alpha * dy

    return SolverSolution(x, p.objective(x), SolverStatus.MAX_ITERATIONS, float(kkt_resid),
                          cfg.max_iterations, "iteration cap reached", z_star=z, y_star=y)


# ---------------------------------------------------------------------------
# brute-force oracle


def solve_lp_by_enumeration(p: ConvexProgram, feas_tol: float = 1e-9) -> SolverSolution:
    """Enumerate basic feasible solutions of a small LP (n <= 12).

    Intended as an independent oracle in tests. The feasible set must be a
    bounded polytope; raises when no feasible vertex exists.
    """
    if p.Q.nnz:
        raise ValueError("enumeration oracle only handles LPs (Q = 0)")
    if p.n > 12:
        raise ValueError("enumeration oracle is for n <= 12")

    a_in = np.asarray(p.A_ineq.todense())
    a_eq = np.asarray(p.A_eq.todense())
    need = p.n - p.k
    if need < 0:
        raise ValueError("more equality rows than variables")
    tol = feas_tol * (1.0 + np.max(np.abs(p.b_ineq), initial=0.0))

    best_x, best_obj = None, np.inf
    for combo in combinations(range(p.m), need):
        a = np.vstack([a_eq, a_in[list(combo)]]) if p.k else a_in[list(combo)]
        b = np.concatenate([p.b_eq, p.b_ineq[list(combo)]]) if p.k else p.b_ineq[list(combo)]
        if a.shape[0] != p.n:
            continue
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(x).all():
            continue
        if p.m and np.any(a_in @ x - p.b_ineq > tol):
            continue
        if p.k and np.any(np.abs(a_eq @ x - p.b_eq) > tol):
            continue
        obj = float(p.c @ x)
        if obj < best_obj - 0.0:
            best_obj, best_x = obj, x
    if best_x is None:
        raise ValueError("no feasible vertex found: empty or unbounded feasible set")
    return SolverSolution(best_x, best_obj, SolverStatus.OPTIMAL, 0.0, 0, "enumeration oracle")
