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
* a sparse augmented-KKT path (scipy splu) for everything else. The
  augmented matrix is assembled once per program: its pattern is fixed,
  so each Newton step only writes the scaling diagonal into it and
  refactors.

The reduction is exact; backend choice affects speed and floating-point
roundoff only. Identical inputs take identical paths, so results are
deterministic within one build.

`ProgramBatch` runs the iteration over many programs at once. It is laid
out once and solved as often as the costs change, round after round. It
steps the Schur programs of one row layout (the client QPs of equal-size
shards) through `_batch_loop`, one row per program: every operation of
`_ip_loop` runs on all rows in one call, in the memory order and
summation order of the single-program call, and the Cholesky
factorization and solves run per program. So each row's solution is
`solve`'s, byte for byte, and `_ip_loop` and `_batch_loop` are the only
two interior-point loops. A row that would leave `_ip_loop` short of
OPTIMAL, or might, goes to `solve`, and the last row left is taken on by
`_ip_loop` where it stands. A program that does not split, or is alone
in its layout, goes to `solve` too; on a single program the batch's
set-up and indexing would make it slower than `solve`, which stays the
single-program path. The in-process clients of a federation and the
ADMM cross-validation step through it. It takes a mask of programs to
leave out, which it neither starts nor solves.

`ActiveSetPolish` is tried before a warm-started solve. It takes the
active set a warm point suggests (the rows whose multiplier exceeds their
slack), solves the program with those rows as equalities, and keeps the
answer only if it checks out as optimal: every multiplier nonnegative,
every other row satisfied, and `_ip_loop`'s KKT residual at most eps2.
On the Schur split that equality program is one small dense saddle
system. While the active set holds from one solve to the next, as it does
in late ADMM rounds, a solve costs one linear solve instead of an
interior-point run; otherwise the program goes to the solver from the same
warm start. This is the warm start of parametric active-set QP solvers
and the solution polishing of OSQP.
"""

from __future__ import annotations

import copy
import enum
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "ActiveSetPolish",
    "ConvexProgram",
    "SolverConfig",
    "SolverStatus",
    "SolverSolution",
    "solve",
    "ProgramBatch",
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

# +inf read as an unsigned integer; `_max_steps` compares against it
_INF_BITS = np.float64(np.inf).view(np.uint64)

# The exits of the interior-point iteration short of OPTIMAL, as `_ip_loop`
# reports them.
_DIVERGING = ("iterates diverging: problem is likely infeasible or unbounded "
              "(mu={mu:.2e}, |x|={x_max:.2e})")
_FALLING = ("objective falling without bound: problem looks unbounded "
            "(objective={obj:.2e}, |x|={x_max:.2e})")
_STALLED = "warm start stalled"
_COLLAPSED = "step length collapsed before reaching tolerance"
_CAPPED = "iteration cap reached"


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

    def with_objective(self, q_diag, c) -> "ConvexProgram":
        """This program with Q = diag(q_diag) and cost c, and the same
        constraints. When this program splits for the Schur backend, the
        twin shares its constraint analysis (the split and the row layout
        of `_SchurBackend`), so a family of programs that differ only in
        a diagonal Q and c is analysed once."""
        q_diag = np.asarray(q_diag, dtype=float).ravel()
        c = np.asarray(c, dtype=float).ravel()
        if q_diag.shape != (self.n,) or c.shape != (self.n,):
            raise ValueError("q_diag and c must have length n")
        if not (np.all(np.isfinite(q_diag)) and np.all(np.isfinite(c))):
            raise ValueError("q_diag and c must be finite")
        split, backend, _ = _structure(self)
        twin = copy.copy(self)
        twin.Q, twin.c = sp.diags(q_diag, format="csr"), c
        del twin._backend_cache
        if split is not None:
            twin._backend_cache = (split, _SchurBackend(twin, split, like=backend),
                                   _free_columns(twin))
        return twin


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

    Everything but Q's diagonal depends on the constraint rows only; a
    backend built `like` another one, of a program with the same rows,
    shares those arrays.
    """

    _ROW_LAYOUT = ("s_idx", "r_idx", "n", "n_s", "scol", "scoef", "scoef2", "col_of_row",
                   "A_r", "A_rT", "sr_index", "sr_size", "dy")

    def __init__(self, p: ConvexProgram, split, like=None):
        s_idx, r_idx = split
        if like is not None:
            for name in self._ROW_LAYOUT:
                setattr(self, name, getattr(like, name))
        else:
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
            self.dy = np.zeros(0)  # no equality rows
        self.qdiag = p.Q.diagonal()
        self.q_s = self.qdiag[s_idx]
        self.h_diag = np.diag(self.qdiag[r_idx] + REGULARIZATION)

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
    hit a zero pivot on degenerate systems, in which case we warn and retry
    with the conservative defaults.
    """
    try:
        return spla.splu(kkt, permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.1,
                         options=dict(SymmetricMode=True))
    except RuntimeError as e:
        log.warning("sparse KKT factorization failed under relaxed symmetric pivoting "
                    "(%s); re-factoring with SuperLU's default pivoting", e)
        return spla.splu(kkt)


class _SparseBackend:
    """Augmented-KKT Newton solve via sparse LU.

    The augmented matrix

        [ Q + rI   A'             A_eq' ]
        [ A        -(W^-1 + rI)   0     ]
        [ A_eq     0              -rI   ]

    (the A_eq row and column only when there are equality rows; r is
    REGULARIZATION) is assembled once per program. Its pattern never
    changes, so a Newton step only writes the scaling diagonal
    -(1/w + r) into the W block's slots of the CSC data and refactors.
    """

    def __init__(self, p: ConvexProgram):
        self.p = p
        self.A_ineqT = p.A_ineq.T
        n, m, k = p.n, p.m, p.k
        blocks = [
            [p.Q + sp.identity(n) * REGULARIZATION, self.A_ineqT, p.A_eq.T if k else None],
            [p.A_ineq, -sp.identity(m), None],  # W block: `factor` writes its diagonal
            [p.A_eq if k else None, None, -sp.identity(k) * REGULARIZATION if k else None],
        ]
        if k == 0:
            blocks = [row[:2] for row in blocks[:2]]
        self.kkt = sp.bmat(blocks, format="csc")
        # each column's rows are sorted, and in columns n .. n+m-1 the W
        # block's diagonal entry is the bottom one
        self.w_slots = self.kkt.indptr[n + 1 : n + m + 1] - 1

    def a_dot(self, x: np.ndarray) -> np.ndarray:
        return self.p.A_ineq @ x

    def at_dot(self, z: np.ndarray) -> np.ndarray:
        return self.A_ineqT @ z

    def q_dot(self, x: np.ndarray) -> np.ndarray:
        return self.p.Q @ x

    def factor(self, w: np.ndarray):
        self.kkt.data[self.w_slots] = -(1.0 / w + REGULARIZATION)
        self.lu = _splu_kkt(self.kkt)

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


def _free_columns(p: ConvexProgram):
    """The columns that no row touches and Q leaves flat."""
    return np.flatnonzero((p.A_ineq.getnnz(axis=0) == 0) & (p.A_eq.getnnz(axis=0) == 0)
                          & (p.Q.diagonal() == 0.0))


def _structure(p: ConvexProgram):
    """(split, backend, free columns) of a program, built on first use.

    Constraint structure is immutable after the first solve (only c may be
    swapped between repeated solves), so the backend can be reused, and so
    can the free columns."""
    cached = getattr(p, "_backend_cache", None)
    if cached is None:
        split = _schur_split(p)
        backend = _SchurBackend(p, split) if split else _SparseBackend(p)
        cached = p._backend_cache = (split, backend, _free_columns(p))
    return cached


def _free_cost(p: ConvexProgram, free):
    """The failure of a program whose cost pulls on a free column, or None."""
    if free.size and p.c[free].any():
        j = free[np.flatnonzero(p.c[free])[0]]
        return SolverSolution(np.full(p.n, np.nan), np.nan, SolverStatus.NUMERICAL_FAILURE,
                              np.inf, 0, f"column {j} is in no constraint row and has no "
                              f"curvature, so its cost {p.c[j]:g} is unbounded below")
    return None


def solve(p: ConvexProgram, cfg: SolverConfig = None, warm=None) -> SolverSolution:
    """Solve a ConvexProgram; never raises on solvable-but-hard instances.

    Returns status OPTIMAL only when scaled primal, dual, and complementarity
    residuals are all below cfg.eps2. Infeasible or unbounded inputs surface
    as NUMERICAL_FAILURE with a diagnostic message, never as silent garbage.
    A program without inequality rows is rejected with a ValueError: the
    interior-point iteration needs at least one.

    ``warm`` is an optional (x0, z0) pair from a related earlier solve; it
    only changes the starting point, never the answer. A pair that does not
    fit p (x0 of length n, z0 of length m) is ignored and the solve starts
    cold.
    """
    cfg = cfg or SolverConfig()
    if p.m == 0:
        raise ValueError("the program has no inequality rows; the interior-point "
                         "method needs at least one")
    split, backend, free = _structure(p)
    unbounded = _free_cost(p, free)
    if unbounded is not None:
        return unbounded
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


def _warm_fits(warm, p: ConvexProgram) -> bool:
    """Whether `warm` is an (x0, z0) start of p's size, len(x0) == n and
    len(z0) == m; any other warm start is ignored and the solve starts cold."""
    return (warm is not None and warm[0] is not None and warm[1] is not None
            and len(warm[0]) == p.n and len(warm[1]) == p.m)


def _cold_start(p: ConvexProgram, backend):
    """The centred cold start: one Newton solve at (x, s, z) = (0, 1, 1),
    shifted into the interior. Returns (x, y, s, z)."""
    n, m, k = p.n, p.m, p.k
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
    return x, y, s, z


def _scales(p: ConvexProgram):
    """(scale_b, scale_c): 1 plus the largest right-hand side, and 1 plus
    the largest cost, in absolute value."""
    scale_b = 1.0 + max(
        np.max(np.abs(p.b_ineq), initial=0.0), np.max(np.abs(p.b_eq), initial=0.0)
    )
    return scale_b, 1.0 + np.max(np.abs(p.c), initial=0.0)


def _start(p: ConvexProgram, backend, warm, scale_b, scale_c):
    """The starting point of `_ip_loop`: (warm_started, x, y, s, z)."""
    if not _warm_fits(warm, p):
        return (False,) + _cold_start(p, backend)
    # re-center the previous optimum at a moderate complementarity level so
    # the first Newton steps can absorb the changed objective
    x = np.asarray(warm[0], dtype=float).copy()
    lift = np.sqrt(1e-4 * scale_b * scale_c)
    z = np.maximum(np.asarray(warm[1], dtype=float), lift)
    s = np.maximum(p.b_ineq - backend.a_dot(x), lift)
    return True, x, np.zeros(p.k), s, z


def _ip_loop(p: ConvexProgram, cfg: SolverConfig, backend, warm=None,
             resume=None) -> SolverSolution:
    """The interior-point iteration from `_start`'s point, or, with
    `resume` = (it, warm_started, x, s, z, mu0, trail), from iteration it
    of a solve that `_batch_loop` has taken that far with no short step
    (a program without equality rows)."""
    m, k = p.m, p.k
    scale_b, scale_c = _scales(p)
    obj_floor = -UNBOUNDED_OBJECTIVE * scale_b * scale_c
    if resume is None:
        warm_started, x, y, s, z = _start(p, backend, warm, scale_b, scale_c)
        mu0 = (s @ z) / m
        first, trail = 1, []  # KKT residuals of a warm-started solve, for the stall exit
    else:
        first, warm_started, x, s, z, mu0, trail = resume
        y = np.zeros(0)
    stall = 0
    kkt_resid = np.inf
    no_eq = np.zeros(0)
    for it in range(first, cfg.max_iterations + 1):
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
            return SolverSolution(x, obj, SolverStatus.NUMERICAL_FAILURE, float(kkt_resid),
                                  it - 1, _DIVERGING.format(mu=mu, x_max=x_max),
                                  z_star=z, y_star=y)
        if obj < obj_floor:
            return SolverSolution(x, obj, SolverStatus.NUMERICAL_FAILURE, float(kkt_resid),
                                  it - 1, _FALLING.format(obj=obj, x_max=x_max),
                                  z_star=z, y_star=y)
        if warm_started:
            trail.append(kkt_resid)
            if len(trail) > WARM_STALL_WINDOW and \
                    kkt_resid * WARM_STALL_DROP > trail[-1 - WARM_STALL_WINDOW]:
                return SolverSolution(x, obj, SolverStatus.NUMERICAL_FAILURE,
                                      float(kkt_resid), it - 1, _STALLED,
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
                return SolverSolution(x, obj, SolverStatus.NUMERICAL_FAILURE,
                                      float(kkt_resid), it, _COLLAPSED, z_star=z, y_star=y)
        else:
            stall = 0
        x = x + alpha * dx
        s = s + alpha * ds
        z = z + alpha * dz
        if k:
            y = y + alpha * dy

    return SolverSolution(x, p.objective(x), SolverStatus.MAX_ITERATIONS, float(kkt_resid),
                          cfg.max_iterations, _CAPPED, z_star=z, y_star=y)


# ---------------------------------------------------------------------------
# many programs of one row layout, byte for byte


_LINALG_ERRORS = (scipy.linalg.LinAlgError, RuntimeError, np.linalg.LinAlgError)


def _row_layout(backend: _SchurBackend):
    """What programs stepped by one `_Batch` share: the size, the S and
    remainder columns, and each row's S column and coefficient."""
    return (backend.n, backend.scol.size, backend.s_idx.tobytes(), backend.r_idx.tobytes(),
            backend.scol.tobytes(), backend.scoef.tobytes())


def _dots(a, b):
    """The dot product of every row of a with the same row of b, each by
    the BLAS call that `a[k] @ b[k]` makes."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class _Batch:
    """Schur programs of a `ProgramBatch` with one row layout
    (`_row_layout`), stepped together by `_batch_loop`, one row per
    program.

    The layout's index arrays are kept once; a gather of columns is a
    `take`, which keeps the rows C-ordered (a fancy index along the
    second axis would return them F-ordered). A_r' is stacked as (K, r, m) in each program's own C order,
    and A_r is its transposed view, each program's F-ordered A_r: a
    batched matmul over such blocks makes, program by program, the BLAS
    call that `_SchurBackend`'s product makes. The bins of each
    `np.bincount` are laid out program after program (`col_at`, `scol_at`,
    `sr_at`), so every bin adds its terms in `_SchurBackend`'s order, and a
    prefix of those indices serves the first K' rows once others have
    left."""

    def __init__(self, programs, ids):
        self.ids = list(ids)
        self.programs = [programs[i] for i in ids]
        self.backends = [_structure(p)[1] for p in self.programs]
        self.free = [_structure(p)[2] for p in self.programs]
        lay = self.layout = self.backends[0]
        self.a_rT = np.stack([b.A_rT for b in self.backends])
        self.qdiag = np.stack([b.qdiag for b in self.backends])
        self.q_s = np.stack([b.q_s for b in self.backends])
        self.h_diag = np.stack([b.h_diag for b in self.backends])
        self.b = np.stack([p.b_ineq for p in self.programs])
        self.scale_b = np.array([_scales(p)[0] for p in self.programs])
        k = np.arange(len(ids))[:, None]
        self.col_at = (lay.col_of_row + lay.n * k).ravel()
        self.scol_at = (lay.scol + lay.n_s * k).ravel()
        self.sr_at = (lay.sr_index + lay.sr_size * k).ravel()
        self.scoef_col = lay.scoef[:, None]

    def a_dot(self, a_r, x):
        """`_SchurBackend.a_dot` of every row of x."""
        lay = self.layout
        return (lay.scoef * x.take(lay.col_of_row, 1)
                + (a_r @ x.take(lay.r_idx, 1)[:, :, None])[:, :, 0])

    def start(self, warms, skip):
        """The rows of `_batch_loop` at `_ip_loop`'s starting points
        (`_start`), with s and z side by side in v; None when no row
        starts. A program marked in `skip` is left out unstarted. A
        program whose cost pulls on a free column, or whose cold start
        fails to factor, is left out for `solve` to redo."""
        lay = self.layout
        m = lay.scol.size
        c = np.array([p.c for p in self.programs])
        scale_c = 1.0 + np.abs(c).max(axis=1, initial=0.0)
        warm = np.array([_warm_fits(w, p) for w, p in zip(warms, self.programs)])
        started = ~skip
        x, v = np.zeros(c.shape), np.ones((len(self.ids), 2 * m))
        for k, (p, warm_k) in enumerate(zip(self.programs, warms)):
            if skip[k]:
                continue
            if _free_cost(p, self.free[k]) is not None:
                started[k] = False
            elif warm[k]:
                x[k], v[k, m:] = warm_k
            else:
                try:
                    x[k], _, v[k, :m], v[k, m:] = _cold_start(p, self.backends[k])
                except _LINALG_ERRORS:
                    started[k] = False
        if warm.any():
            lift = np.sqrt(1e-4 * self.scale_b * scale_c)[:, None]
            s_warm = np.maximum(self.b - self.a_dot(self.a_rT.transpose(0, 2, 1), x), lift)
            z_warm = np.maximum(v[:, m:], lift)
            if warm.all():
                v[:, :m], v[:, m:] = s_warm, z_warm
            else:
                v[:, :m] = np.where(warm[:, None], s_warm, v[:, :m])
                v[:, m:] = np.where(warm[:, None], z_warm, v[:, m:])
        if not started.any():
            return None
        rows = _Rows(k=np.arange(len(self.ids)), x=x, v=v, c=c, scale_c=scale_c, warm=warm,
                     scale_b=self.scale_b, obj_floor=-UNBOUNDED_OBJECTIVE * self.scale_b * scale_c,
                     a_rT=self.a_rT, qdiag=self.qdiag, q_s=self.q_s, h_diag=self.h_diag,
                     b=self.b, dead=np.zeros(len(self.ids), dtype=bool))
        if not started.all():
            rows.keep(started)
        rows.mu0 = _dots(rows.v[:, :m], rows.v[:, m:]) / m
        rows.mu_cap = 1e10 * (1.0 + rows.mu0)
        return rows


class _Rows:
    """Per-row arrays of a `_batch_loop`, one leading row per program;
    `keep` drops the rows that have left."""

    def __init__(self, **arrays):
        vars(self).update(arrays)

    def keep(self, mask):
        for name, value in vars(self).items():
            setattr(self, name, value[mask])


def _max_steps(v, dv):
    """`_max_step` of every row of v = [s | z] > 0 and dv = [ds | dz]. The
    components with dv < 0 give v / -dv > 0, which as unsigned integers
    keep their order, while the others give a negative number or NaN,
    which sort above +inf; one integer minimum per row finds the nearest
    boundary, and a row with none gets +inf."""
    bits = (v / -dv).view(np.uint64).min(axis=1)
    return np.where(bits <= _INF_BITS, bits.view(np.float64), np.inf)


def _batch_loop(bt: _Batch, cfg: SolverConfig, warms, out, skip):
    """`_ip_loop` over a `_Batch`, with the warm starts of its programs,
    leaving out those marked in `skip`. Each row performs `_ip_loop`'s
    operations on the same bytes. A row
    that reaches OPTIMAL gets, in its entry of `out`, the solution `solve`
    returns; a row that would exit `_ip_loop` in any other way, or fall
    back to the sparse backend, or whose next step could differ from
    `_ip_loop`'s (a NaN step length, or one below 1e-10), leaves with
    None, for `solve` to redo alone. A batch of one is slower than
    `_ip_loop`: when one row is left, returns (i, resume), its program's
    index and the point to resume `_ip_loop` from; else None."""
    lay = bt.layout
    S, R = lay.s_idx, lay.r_idx
    m, n, n_s, r = lay.scol.size, lay.n, lay.n_s, lay.r_idx.size
    st = bt.start(warms, skip)
    if st is None:
        return
    trail = deque(maxlen=WARM_STALL_WINDOW + 1)  # KKT residuals, for the stall exit
    for it in range(1, cfg.max_iterations + 1):
        K = st.k.size
        x, v, c = st.x, st.v, st.c
        if K == 1:
            return bt.ids[st.k[0]], (it, st.warm[0], x[0].copy(), v[0, :m].copy(),
                                     v[0, m:].copy(), st.mu0[0], [past[0] for past in trail])
        s, z = v[:, :m], v[:, m:]
        a_r = st.a_rT.transpose(0, 2, 1)
        qx = st.qdiag * x
        r_d = np.bincount(bt.col_at[:K * m], (lay.scoef * z).ravel(),
                          minlength=K * n).reshape(K, n)
        r_d[:, R] = (st.a_rT @ z[:, :, None])[:, :, 0]
        r_d = qx + c + r_d
        r_p = bt.a_dot(a_r, x) + s - st.b
        mu = _dots(s, z) / m
        obj = 0.5 * _dots(x, qx) + _dots(c, x)

        rd_rel = np.abs(r_d).max(axis=1) / (st.scale_c + np.abs(qx).max(axis=1))
        rp_rel = np.abs(r_p).max(axis=1) / st.scale_b
        gap_rel = mu / (1.0 + np.abs(obj))
        kkt = np.maximum(np.maximum(rd_rel, rp_rel), gap_rel)
        optimal = (kkt <= cfg.eps2) & ~st.dead
        # a row stays unless it has left, or `_ip_loop` would exit here, or
        # might
        stay = (~(optimal | st.dead) & np.isfinite(kkt) & (mu <= st.mu_cap)
                & (np.abs(x).max(axis=1) <= 1e13) & (obj >= st.obj_floor))
        trail.append(kkt)
        if len(trail) > WARM_STALL_WINDOW:
            stay &= ~(st.warm & (kkt * WARM_STALL_DROP > trail[0]))
        if not stay.all():
            for j in np.flatnonzero(optimal):
                out[bt.ids[st.k[j]]] = SolverSolution(
                    x[j].copy(), float(obj[j]), SolverStatus.OPTIMAL, float(kkt[j]), it - 1,
                    "", z_star=z[j].copy(), y_star=np.zeros(0))
            # a row that has left goes on, unread, until half the rows have
            st.dead |= ~stay
            if 2 * np.count_nonzero(st.dead) >= K:
                stay = ~st.dead
                if not stay.any():
                    return
                st.keep(stay)
                trail = deque((past[stay] for past in trail), maxlen=trail.maxlen)
                r_d, r_p, mu, gap_rel = r_d[stay], r_p[stay], mu[stay], gap_rel[stay]
                K = st.k.size
                x, v = st.x, st.v
                s, z = v[:, :m], v[:, m:]
                a_r = st.a_rT.transpose(0, 2, 1)

        # the Schur complements, as `_SchurBackend.factor` forms them
        w = z / s
        d_s = st.q_s + np.bincount(bt.scol_at[:K * m], (lay.scoef2 * w).ravel(),
                                   minlength=K * n_s).reshape(K, n_s) + REGULARIZATION
        arw = a_r * w[:, :, None]
        m_sr = np.bincount(bt.sr_at[:K * m * r], (arw * bt.scoef_col).ravel(),
                           minlength=K * lay.sr_size).reshape(K, n_s, r)
        m_srT = m_sr.transpose(0, 2, 1)
        h = st.a_rT @ arw + st.h_diag
        h -= m_srT @ (m_sr / d_s[:, :, None])
        factors = []
        for j in range(K):
            h_fac, info = dpotrf(h[j], lower=False, clean=False)
            if info > 0:
                # `solve` falls back to the sparse backend here
                st.dead[j] = True
                h_fac = np.eye(r)
            factors.append(h_fac)

        def newton(g, dz):
            # `_SchurBackend.solve` with rhs_x = -r_d, writing dz into `dz`:
            # (dx_s, dx_r)
            wg = w * g
            b_s = minus_r_d_s + np.bincount(bt.scol_at[:K * m], (lay.scoef * wg).ravel(),
                                            minlength=K * n_s).reshape(K, n_s)
            b_r = (minus_r_d_r + (st.a_rT @ wg[:, :, None])[:, :, 0]
                   - (m_srT @ (b_s / d_s)[:, :, None])[:, :, 0])
            dx_r = np.array([dpotrs(f, b, lower=False)[0] for f, b in zip(factors, b_r)])
            dx_s = (b_s - (m_sr @ dx_r[:, :, None])[:, :, 0]) / d_s
            np.multiply(w, lay.scoef * dx_s.take(lay.scol, 1) + (a_r @ dx_r[:, :, None])[:, :, 0]
                        - g, out=dz)
            return dx_s, dx_r

        minus_r_d, minus_r_p, sz = -r_d, -r_p, s * z
        minus_r_d_s, minus_r_d_r = minus_r_d.take(S, 1), minus_r_d.take(R, 1)
        dv = np.empty((K, 2 * m))  # [ds | dz]
        ds, dz = dv[:, :m], dv[:, m:]

        # predictor (affine scaling) direction
        rc = -sz
        newton(minus_r_p - rc / z, dz)
        np.divide(rc - s * dz, z, out=ds)
        alpha_a = np.minimum(1.0, _max_steps(v, dv))
        moved = v + alpha_a[:, None] * dv
        mu_aff = _dots(moved[:, :m], moved[:, m:]) / m
        # on scalars: an array's ** 3 may round differently
        sigma = np.array([min(max((a / b) ** 3, 1e-10), 1.0 - 1e-10)
                          for a, b in zip(mu_aff, mu)])

        # corrector
        rc = (sigma * mu)[:, None] - sz - ds * dz
        dx_s, dx_r = newton(minus_r_p - rc / z, dz)
        np.divide(rc - s * dz, z, out=ds)

        eta = np.where(gap_rel < 1e-3, 0.99995, 0.995)
        alpha = np.minimum(1.0, eta * _max_steps(v, dv))
        # `_ip_loop` takes min(1, NaN) as 1, and counts short steps towards
        # its collapse exit
        st.dead |= np.isnan(alpha_a + sigma + alpha) | (alpha < 1e-10)
        dx = np.empty((K, n))
        dx[:, S] = dx_s
        dx[:, R] = dx_r
        step = alpha[:, None]
        st.x = x + step * dx
        st.v = v + step * dv


class ProgramBatch:
    """A fixed list of programs solved together, as often as needed, with
    only their costs c changing between solves (the structure contract of
    `solve`), each solution byte-equal to `solve`'s.

    Programs that split for the Schur backend with one row layout
    (`_row_layout`: the client QPs of shards of one size) form one
    `_Batch`, laid out once here, and advance through one interior-point
    iteration together: `_batch_loop`, which repeats `_ip_loop`'s
    operations row by row on the same bytes. The last row left in a
    batch goes on in `_ip_loop`. A program alone in its layout, one that
    does not split, and one that leaves the batch short of OPTIMAL (see
    `_batch_loop`) go to `solve`.
    """

    def __init__(self, programs):
        self.programs = list(programs)
        layouts = {}
        for i, p in enumerate(self.programs):
            split, backend, _ = _structure(p)
            # `_Batch` reads each A_r as the transpose of its C-ordered A_r'
            if split is not None and backend.r_idx.size and backend.A_r.flags.f_contiguous:
                layouts.setdefault(_row_layout(backend), []).append(i)
        self.batches = [_Batch(self.programs, ids) for ids in layouts.values() if len(ids) > 1]

    def solve(self, warms, skip=None) -> list:
        """One SolverSolution per program, in order, byte-equal to
        `solve(p, warm=w)` with its entry w of `warms` (an (x0, z0) pair
        or None); None for a program marked in `skip`, a boolean mask,
        which is neither started nor solved."""
        warms = list(warms)
        if len(warms) != len(self.programs):
            raise ValueError(f"{len(self.programs)} programs but {len(warms)} warm starts")
        skip = _skip_mask(skip, len(self.programs))
        out = [None] * len(self.programs)
        cfg = SolverConfig()
        lone = []
        # a row heading for a divergence exit may overflow on the way, and
        # `_max_steps` divides by every component; `solve` redoes such rows
        with np.errstate(all="ignore"):
            for batch in self.batches:
                lone.append(_batch_loop(batch, cfg, [warms[i] for i in batch.ids], out,
                                        skip[batch.ids]))
        for i, resume in filter(None, lone):
            try:
                out[i] = _ip_loop(self.programs[i], cfg, _structure(self.programs[i])[1],
                                  resume=resume)
            except _LINALG_ERRORS:
                pass  # `solve` redoes it, and falls back to the sparse backend
        return [None if left_out else solve(p, warm=warm) if sol is None else sol
                for sol, p, warm, left_out in zip(out, self.programs, warms, skip)]


def _skip_mask(skip, count):
    """The boolean mask of the programs a batch solve leaves out."""
    if skip is None:
        return np.zeros(count, dtype=bool)
    skip = np.asarray(skip, dtype=bool)
    if skip.shape != (count,):
        raise ValueError(f"{count} programs but a skip mask of shape {skip.shape}")
    return skip


# ---------------------------------------------------------------------------
# active-set polish


def _guess_active(slack, z):
    """The active set a primal-dual point suggests, row by row of `slack`
    (b - Ax) and `z`: the rows whose multiplier exceeds their slack."""
    return z > slack


class _PolishGroup:
    """The polishable programs of one row layout (`_row_layout`), laid out
    once as `_Batch` lays them out: one row per program, the per-row
    arrays as (K, m) and A_r as (K, m, r), C-ordered. `rows_of` lists the
    rows of each S column, padded with the row index m, which is never
    active."""

    def __init__(self, programs, ids):
        self.ids = list(ids)
        self.programs = [programs[i] for i in ids]
        backends = [_structure(p)[1] for p in self.programs]
        lay = self.layout = backends[0]
        m = lay.scol.size
        self.a_r = np.stack([b.A_r for b in backends])
        self.qdiag = np.stack([b.qdiag for b in backends])
        self.b = np.stack([p.b_ineq for p in self.programs])
        self.scale_b = np.array([_scales(p)[0] for p in self.programs])
        self.s_row = lay.scoef != 0.0
        s_rows = np.flatnonzero(self.s_row)
        counts = np.bincount(lay.scol[s_rows], minlength=lay.n_s)
        order = s_rows[np.argsort(lay.scol[s_rows], kind="stable")]
        self.rows_of = np.full((lay.n_s, counts.max()), m)
        self.rows_of[lay.scol[order], np.arange(order.size)
                     - np.repeat(np.cumsum(counts) - counts, counts)] = order
        self.col_at = lay.col_of_row + lay.n * np.arange(len(ids))[:, None]

    def polish(self, rows, x0, z0, eps2):
        """Try the active set that each warm point (x0[j], z0[j]) suggests
        on program rows[j] of this group. Returns (j, x, z, objective, KKT
        residual) of the rows accepted, j indexing rows; see
        `ActiveSetPolish`."""
        lay = self.layout
        m, n, n_s, r = lay.scol.size, lay.n, lay.n_s, lay.r_idx.size
        rows = np.asarray(rows)
        a_r, b = self.a_r[rows], self.b[rows]
        active = _guess_active(b - self._a_dot(a_r, x0), z0)
        # the first active row of each S column is its pivot; a column with
        # none leaves its variable free, and the row to the solver
        by_col = np.concatenate((active, np.zeros((len(rows), 1), dtype=bool)),
                                axis=1)[:, self.rows_of]
        pivot = self.rows_of[np.arange(n_s), by_col.argmax(axis=2)]
        # the rows left as equalities on x_r: each further active row of an
        # S column, less its pivot row scaled to the same S coefficient, and
        # each active row that touches no S column. With more than r of
        # them the saddle system below is singular.
        eq = active.copy()
        eq[np.arange(len(rows))[:, None], pivot] = False
        counts = np.count_nonzero(eq, axis=1)
        tried = np.flatnonzero(by_col.any(axis=2).all(axis=1) & (counts <= r))
        if not tried.size:
            return tried, None, None, None, None
        if tried.size < len(rows):
            rows, a_r, b, active, pivot, eq, counts = (
                rows[tried], a_r[tried], b[tried], active[tried], pivot[tried], eq[tried],
                counts[tried])
        K = len(rows)
        k_col = np.arange(K)[:, None]
        kk, ii = np.nonzero(eq)
        pp = pivot[kk, lay.scol[ii]]
        ratio = np.where(self.s_row[ii], lay.scoef[ii] / lay.scoef[pp], 0.0)
        d_rows = a_r[kk, ii] - ratio[:, None] * a_r[kk, pp]
        e = b[kk, ii] - ratio * b[kk, pp]
        # a pivot row fixes its multiplier at -c_j / scoef less the other
        # rows' share, and its S variable in terms of x_r; their cost folds
        # into x_r's
        c = np.array([self.programs[k].c for k in rows])
        scoef_piv = lay.scoef[pivot]
        a_piv = a_r[k_col, pivot]
        c_s = c.take(lay.s_idx, 1)
        c_red = c.take(lay.r_idx, 1) - ((c_s / scoef_piv)[:, None, :] @ a_piv)[:, 0]
        qdiag = self.qdiag[rows]

        # one saddle system [diag(q_r) D'; D 0] per row, padded with the
        # identity to size 2r, which depends on the layout alone; a stacked
        # `np.linalg.solve` solves each as it would alone
        slot = r + np.arange(kk.size) - np.repeat(np.cumsum(counts) - counts, counts)
        kkt = np.zeros((K, 2 * r, 2 * r))
        diag = np.arange(r)
        kkt[:, diag, diag] = qdiag.take(lay.r_idx, 1)
        kkt[:, r + diag, r + diag] = diag >= counts[:, None]
        kkt[kk, slot, :r] = d_rows
        kkt[kk, :r, slot] = d_rows
        rhs = np.zeros((K, 2 * r))
        rhs[:, :r] = -c_red
        rhs[kk, slot] = e
        solved = np.ones(K, dtype=bool)
        try:
            sol = np.linalg.solve(kkt, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            sol = np.zeros((K, 2 * r))
            for j in range(K):
                try:
                    sol[j] = np.linalg.solve(kkt[j], rhs[j])
                except np.linalg.LinAlgError:
                    solved[j] = False
        x_r = sol[:, :r]
        z_eq = sol[kk, slot]

        z = np.zeros((K, m))
        z[kk, ii] = z_eq
        on_s = self.s_row[ii]
        shared = np.bincount(kk[on_s] * n_s + lay.scol[ii[on_s]],
                             lay.scoef[ii[on_s]] * z_eq[on_s], minlength=K * n_s)
        z[k_col, pivot] = (-c_s - shared.reshape(K, n_s)) / scoef_piv
        x = np.empty((K, n))
        x[:, lay.s_idx] = (b[k_col, pivot] - (a_piv @ x_r[:, :, None])[:, :, 0]) / scoef_piv
        x[:, lay.r_idx] = x_r

        # the check: `_ip_loop`'s KKT residual, with s = b - Ax on the rows
        # left inactive and s = 0 on the active ones, so s'z = 0
        res = self._a_dot(a_r, x) - b
        qx = qdiag * x
        r_d = np.bincount(self.col_at[:K].ravel(), (lay.scoef * z).ravel(),
                          minlength=K * n).reshape(K, n)
        r_d[:, lay.r_idx] = (z[:, None, :] @ a_r)[:, 0]
        r_d = qx + c + r_d
        scale_c = 1.0 + np.abs(c).max(axis=1, initial=0.0)
        kkt_res = np.maximum(
            np.abs(r_d).max(axis=1) / (scale_c + np.abs(qx).max(axis=1)),
            np.abs(np.where(active, res, 0.0)).max(axis=1) / self.scale_b[rows])
        ok = np.flatnonzero(solved & (active | (res <= 0.0)).all(axis=1)
                            & (z >= 0.0).all(axis=1) & (kkt_res <= eps2))
        x, z, c, qx = x[ok], z[ok], c[ok], qx[ok]
        return tried[ok], x, z, 0.5 * _dots(x, qx) + _dots(c, x), kkt_res[ok]

    def _a_dot(self, a_r, x):
        """A x of every row of x."""
        lay = self.layout
        return (lay.scoef * x.take(lay.col_of_row, 1)
                + (a_r @ x.take(lay.r_idx, 1)[:, :, None])[:, :, 0])


class ActiveSetPolish:
    """The active-set polish of a fixed list of programs, tried before a
    warm-started solve with only the costs c changed since (the structure
    contract of `solve`).

    For each program with a warm point (x0, z0), the rows with z0_i >
    b_i - (A x0)_i are guessed active and the program is solved with them
    as equalities and the other rows dropped. On the Schur split this is
    small. An S column whose variable sits in no quadratic term pins its
    first active row's multiplier at -c_j / scoef less the share of its
    other active rows, and its variable through that row; each further
    active row of the column (a kink) becomes one equality on the
    remainder x_r, as does each active row that touches no S column. The
    saddle system [diag(q_r) D'; D 0] that is left, of size r plus those
    equalities, is solved with one `np.linalg.solve`.

    The point is accepted only if it is optimal to `solve`'s tolerance:
    every multiplier is nonnegative, every inactive row holds, and
    `_ip_loop`'s KKT residual, with s = b - Ax on the inactive rows and 0
    on the active ones (so the complementarity gap is 0), is at most
    eps2. Otherwise, or when the system is singular or an S column has no
    active row, the program is left to the solver. Programs that do not
    split, whose S columns carry curvature, or that have no remainder
    columns are never polished.

    Programs of one row layout are polished together (`_PolishGroup`),
    with one small solve each; every operation is row by row, so a
    program's polish has the same bytes in any group.
    """

    def __init__(self, programs):
        self.programs = list(programs)
        layouts = {}
        for i, p in enumerate(self.programs):
            split, backend, _ = _structure(p)
            if split is not None and backend.r_idx.size and not backend.q_s.any():
                layouts.setdefault(_row_layout(backend), []).append(i)
        self.groups = [_PolishGroup(self.programs, ids) for ids in layouts.values()]

    def solve(self, warms) -> list:
        """One entry per program, in order: an OPTIMAL SolverSolution (0
        iterations, message "polished") where its warm point's active set
        verifies, else None. `warms` holds an (x0, z0) pair or None per
        program."""
        warms = list(warms)
        if len(warms) != len(self.programs):
            raise ValueError(f"{len(self.programs)} programs but {len(warms)} warm starts")
        eps2 = SolverConfig().eps2
        out = [None] * len(self.programs)
        # a singular or near-singular system may overflow; its row fails
        # the check
        with np.errstate(all="ignore"):
            for group in self.groups:
                rows = [k for k, i in enumerate(group.ids)
                        if _warm_fits(warms[i], self.programs[i])]
                if not rows:
                    continue
                x0 = np.array([warms[group.ids[k]][0] for k in rows], dtype=float)
                z0 = np.array([warms[group.ids[k]][1] for k in rows], dtype=float)
                accepted, x, z, obj, kkt = group.polish(rows, x0, z0, eps2)
                for j, row in enumerate(accepted):
                    out[group.ids[rows[row]]] = SolverSolution(
                        x[j], float(obj[j]), SolverStatus.OPTIMAL, float(kkt[j]), 0,
                        "polished", z_star=z[j], y_star=np.zeros(0))
        return out


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
