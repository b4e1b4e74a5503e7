"""Self-contained convex QP/LP solver.

Solves

    minimize    (1/2) x'Qx + c'x
    subject to  A_ineq x <= b_ineq,   A_eq x = b_eq,

with free variables, via a primal-dual path-following interior-point method
with Mehrotra predictor-corrector steps. Two linear-algebra backends sit
behind the same iteration; each also supplies the products A x, A'z and Q x
that the iteration needs:

* a dense Schur-complement path used when the program has no equality rows,
  a diagonal Q, and the inequality columns split into a large set S whose
  normal-matrix block is diagonal (each constraint row touches at most one
  such column) plus a small dense remainder. The epigraph-style programs
  built elsewhere in this package (hinge epigraphs s_n coupled only to a
  P+1-dimensional model block) all have this shape. The S block is stored
  as one (column, coefficient) pair per row, so an iteration needs only
  numpy gathers, `np.bincount` and dense products, plus one (P+1)-sized
  Cholesky factorization and two solves through direct LAPACK calls;
* a sparse augmented-KKT path (scipy splu) for everything else.

The reduction is exact; backend choice affects speed and floating-point
roundoff only. Identical inputs take identical paths, so results are
deterministic within one build.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf, dpotrs

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

# A warm-started solve whose KKT residual has not fallen WARM_STALL_DROP-fold
# over the last WARM_STALL_WINDOW iterations gives up, so the caller can
# retry cold instead of running to the iteration cap.
WARM_STALL_WINDOW = 10
WARM_STALL_DROP = 10.0

# An objective below -UNBOUNDED_OBJECTIVE * scale_b * scale_c (the scales of
# the right-hand sides and the costs) marks the program as unbounded below.
# The programs this package builds stay under 1e3 of that unit.
UNBOUNDED_OBJECTIVE = 1e10


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
    if p.k > 0:
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
    """Normal-equations Newton solve with diagonal elimination of the S block.

    Every inequality row touches at most one S column (`_schur_split`
    guarantees it), so A_s is stored per row: `scol[i]` is the position in
    S of row i's S column and `scoef[i]` its coefficient (0 for a row that
    touches no S column). A_r, the few remaining columns, is kept dense with
    its transpose. Every product inside an iteration is then a numpy
    gather, `np.bincount` or dense matmul, and the (P+1)-sized Schur
    complement is factored and solved by direct LAPACK calls (dpotrf and
    dpotrs, the routines behind scipy's cho_factor and cho_solve).
    """

    def __init__(self, p: ConvexProgram, split):
        s_idx, r_idx = split
        self.s_idx, self.r_idx = s_idx, r_idx
        self.n, self.n_s, n_r = p.n, s_idx.size, r_idx.size
        A = p.A_ineq.tocsc()
        a_s = A[:, s_idx].tocoo()
        a_s.sum_duplicates()
        self.scol = np.zeros(p.m, dtype=np.intp)
        self.scoef = np.zeros(p.m)
        self.scol[a_s.row] = a_s.col
        self.scoef[a_s.row] = a_s.data
        self.scoef2 = self.scoef * self.scoef
        self.col_of_row = s_idx[self.scol]  # A_s x = scoef * x[col_of_row]
        self.A_r = A[:, r_idx].toarray()
        self.A_rT = np.ascontiguousarray(self.A_r.T)
        # flat (S position, r column) index of every A_r entry, for M_sr
        self.sr_index = (self.scol[:, None] * n_r + np.arange(n_r)).ravel()
        self.sr_size = self.n_s * n_r
        self.qdiag = p.Q.diagonal()
        self.q_s = self.qdiag[s_idx]
        self.h_diag = np.diag(self.qdiag[r_idx] + REGULARIZATION)
        self.dy = np.zeros(0)  # no equality rows

    def a_dot(self, x: np.ndarray) -> np.ndarray:
        return self.scoef * x[self.col_of_row] + self.A_r @ x[self.r_idx]

    def at_dot(self, z: np.ndarray) -> np.ndarray:
        out = np.bincount(self.col_of_row, self.scoef * z, minlength=self.n)
        out[self.r_idx] = self.A_rT @ z
        return out

    def q_dot(self, x: np.ndarray) -> np.ndarray:
        return self.qdiag * x

    def factor(self, w: np.ndarray):
        # D_s = Q_ss + A_s' W A_s (diagonal), M_sr = A_s' W A_r,
        # H = Q_rr + A_r' W A_r - M_sr' D_s^-1 M_sr
        self.d_s = self.q_s + np.bincount(self.scol, self.scoef2 * w,
                                          minlength=self.n_s) + REGULARIZATION
        arw = self.A_r * w[:, None]
        self.m_sr = np.bincount(self.sr_index, (arw * self.scoef[:, None]).ravel(),
                                minlength=self.sr_size).reshape(self.n_s, -1)
        h = self.A_rT @ arw + self.h_diag
        h -= self.m_sr.T @ (self.m_sr / self.d_s[:, None])
        self.w = w
        if self.r_idx.size:
            self.h_fac, info = dpotrf(h, lower=False, clean=False)
            if info > 0:
                raise scipy.linalg.LinAlgError(
                    f"{info}-th leading minor of the Schur complement is not positive definite")

    def solve(self, rhs_x: np.ndarray, g: np.ndarray, rhs_e: np.ndarray = None):
        # Newton rows:  (Q + A'WA) dx = rhs_x + A'W g ;  dz = W (A dx - g)
        wg = self.w * g
        b_s = rhs_x[self.s_idx] + np.bincount(self.scol, self.scoef * wg,
                                              minlength=self.n_s)
        b_r = rhs_x[self.r_idx] + self.A_rT @ wg - self.m_sr.T @ (b_s / self.d_s)
        dx_r = dpotrs(self.h_fac, b_r, lower=False)[0] if self.r_idx.size else b_r
        dx_s = (b_s - self.m_sr @ dx_r) / self.d_s
        dx = np.empty(self.n)
        dx[self.s_idx] = dx_s
        dx[self.r_idx] = dx_r
        dz = self.w * (self.scoef * dx_s[self.scol] + self.A_r @ dx_r - g)
        return dx, dz, self.dy


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

    def a_dot(self, x: np.ndarray) -> np.ndarray:
        return self.p.A_ineq @ x

    def at_dot(self, z: np.ndarray) -> np.ndarray:
        return self.A_ineqT @ z

    def q_dot(self, x: np.ndarray) -> np.ndarray:
        return self.p.Q @ x

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


def _max_step(s: np.ndarray, ds: np.ndarray, z: np.ndarray, dz: np.ndarray) -> float:
    """Largest alpha with s + alpha*ds >= 0 and z + alpha*dz >= 0 (inf when
    no component decreases)."""
    v, dv = np.concatenate((s, z)), np.concatenate((ds, dz))
    neg = dv < 0
    return -float((v[neg] / dv[neg]).max(initial=-np.inf))


def solve(p: ConvexProgram, cfg: SolverConfig = None, warm=None) -> SolverSolution:
    """Solve a ConvexProgram; never raises on solvable-but-hard instances.

    Returns status OPTIMAL only when scaled primal, dual, and complementarity
    residuals are all below cfg.eps2. Infeasible or unbounded inputs surface
    as NUMERICAL_FAILURE with a diagnostic message, never as silent garbage.
    A program without inequality rows is rejected with a ValueError: the
    interior-point iteration needs at least one.

    ``warm`` is an optional (x0, z0) pair from a related earlier solve; it
    only changes the starting point, never the answer.
    """
    cfg = cfg or SolverConfig()
    if p.m == 0:
        raise ValueError("the program has no inequality rows; the interior-point "
                         "method needs at least one")

    # constraint structure is immutable after the first solve (only c may be
    # swapped between repeated solves), so the backend can be reused, and so
    # can the columns that no row touches and Q leaves flat
    cached = getattr(p, "_backend_cache", None)
    if cached is None:
        split = _schur_split(p)
        backend = _SchurBackend(p, split) if split else _SparseBackend(p)
        free = np.flatnonzero((p.A_ineq.getnnz(axis=0) == 0) & (p.A_eq.getnnz(axis=0) == 0)
                              & (p.Q.diagonal() == 0.0))
        cached = p._backend_cache = (split, backend, free)
    split, backend, free = cached
    if free.size and p.c[free].any():
        j = free[np.flatnonzero(p.c[free])[0]]
        return SolverSolution(np.full(p.n, np.nan), np.nan, SolverStatus.NUMERICAL_FAILURE,
                              np.inf, 0, f"column {j} is in no constraint row and has no "
                              f"curvature, so its cost {p.c[j]:g} is unbounded below")
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
    obj_floor = -UNBOUNDED_OBJECTIVE * scale_b * scale_c

    warm_started = warm is not None and warm[0] is not None and len(warm[0]) == n
    if warm_started:
        # re-center the previous optimum at a moderate complementarity level
        # so the first Newton steps can absorb the changed objective
        x = np.asarray(warm[0], dtype=float).copy()
        lift = np.sqrt(1e-4 * scale_b * scale_c)
        z = np.maximum(np.asarray(warm[1], dtype=float), lift)
        s = np.maximum(p.b_ineq - backend.a_dot(x), lift)
        y = np.zeros(k)
    else:
        # centered cold start: one Newton solve at (x, s, z) = (0, 1, 1)
        x = np.zeros(n)
        s = np.ones(m)
        z = np.ones(m)
        y = np.zeros(k)
        backend.factor(z / s)
        r_d = backend.q_dot(x) + p.c + backend.at_dot(z) + (p.A_eq.T @ y if k else 0.0)
        r_p = backend.a_dot(x) + s - p.b_ineq
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
    trail = []  # KKT residuals of a warm-started solve, for the stall exit
    no_eq = np.zeros(0)
    for it in range(1, cfg.max_iterations + 1):
        qx = backend.q_dot(x)
        r_d = qx + p.c + backend.at_dot(z)
        if k:
            r_d += p.A_eq.T @ y
        r_p = backend.a_dot(x) + s - p.b_ineq
        r_e = p.A_eq @ x - p.b_eq if k else no_eq
        mu = (s @ z) / m
        obj = float(0.5 * (x @ qx) + p.c @ x)

        rd_rel = np.abs(r_d).max() / (scale_c + np.abs(qx).max())
        rp_rel = np.abs(r_p).max()
        if k:
            rp_rel = max(rp_rel, np.abs(r_e).max())
        rp_rel /= scale_b
        gap_rel = mu / (1.0 + abs(obj))
        kkt_resid = max(rd_rel, rp_rel, gap_rel)
        if kkt_resid <= cfg.eps2:
            return SolverSolution(x, obj, SolverStatus.OPTIMAL, float(kkt_resid), it - 1, "",
                                  z_star=z, y_star=y)
        x_max = np.abs(x).max()
        if not math.isfinite(kkt_resid) or mu > 1e10 * (1.0 + mu0) or x_max > 1e13:
            return SolverSolution(
                x, obj, SolverStatus.NUMERICAL_FAILURE, float(kkt_resid), it - 1,
                "iterates diverging: problem is likely infeasible or unbounded "
                f"(mu={mu:.2e}, |x|={x_max:.2e})", z_star=z, y_star=y)
        if obj < obj_floor:
            return SolverSolution(
                x, obj, SolverStatus.NUMERICAL_FAILURE, float(kkt_resid), it - 1,
                "objective falling without bound: problem looks unbounded "
                f"(objective={obj:.2e}, |x|={x_max:.2e})", z_star=z, y_star=y)
        if warm_started:
            trail.append(kkt_resid)
            if len(trail) > WARM_STALL_WINDOW and \
                    kkt_resid * WARM_STALL_DROP > trail[-1 - WARM_STALL_WINDOW]:
                return SolverSolution(x, obj, SolverStatus.NUMERICAL_FAILURE,
                                      float(kkt_resid), it - 1, "warm start stalled",
                                      z_star=z, y_star=y)

        backend.factor(z / s)
        minus_r_d, minus_r_e, sz = -r_d, -r_e, s * z

        # predictor (affine scaling) direction
        rc = -sz
        g_aff = -r_p - rc / z
        dx_a, dz_a, dy_a = backend.solve(minus_r_d, g_aff, minus_r_e)
        ds_a = (rc - s * dz_a) / z
        alpha_a = min(1.0, _max_step(s, ds_a, z, dz_a))
        mu_aff = ((s + alpha_a * ds_a) @ (z + alpha_a * dz_a)) / m
        sigma = min(max((mu_aff / mu) ** 3, 1e-10), 1.0 - 1e-10)

        # corrector
        rc = sigma * mu - sz - ds_a * dz_a
        g = -r_p - rc / z
        dx, dz, dy = backend.solve(minus_r_d, g, minus_r_e)
        ds = (rc - s * dz) / z

        eta = 0.99995 if gap_rel < 1e-3 else 0.995
        alpha = min(1.0, eta * _max_step(s, ds, z, dz))
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
        if k:
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
