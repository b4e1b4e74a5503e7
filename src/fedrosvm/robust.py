"""Client-side distributionally robust operations.

Everything a participant computes against its own data lives here: the
worst-case distribution LP over a Wasserstein ball (with label flips priced
at kappa), extraction of the extremal distribution from the LP solution, the
subgradient of the worst-case risk used by the subgradient-method (SM)
rounds, the closed dual form of the worst-case risk used as the objective
oracle, the proximal QP solved inside ADMM rounds (one body,
`ProximalSteps`: a lone client step goes through `solve`, the steps of
many clients through one `solver.ProgramStack`, laid out once and solved
every round), and the practical radius rule.

Conventions used throughout (and relied on by the tests):

* the adversary moves mass from the empirical point (x_i, y_i) to two atoms,
  one keeping the label and one flipping it;
* the 2N atoms are stacked: row i < N is sample i with its label kept,
  row N + i is sample i with its label flipped. Atom k carries mass beta_k
  and sits at z_k = x_i - q_k / beta_k with label y_i (kept) or -y_i
  (flipped); a dropped atom has mass 0 and sits at its own sample;
* transport is paid as ||z - x|| (feature norm from the config) plus kappa
  per unit of flipped mass, and the average over samples must stay within
  epsilon.

The LP objective is the affine surrogate of the hinge (each atom pays
1 -+ y<w, z> without the max against zero), so the LP value lower-bounds
the worst-case risk; re-evaluating true hinges on the extracted atoms
closes the gap whenever the extremal configuration keeps every hinge
active, which is the regime the duality tests sample from.

The LP requires features in the unit box; the box constraints on q are what
keep the atoms inside the support, so feeding unnormalized data would
silently change the geometry. We refuse instead.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import NormKind, dual_norm, hinge_losses
from .solver import ConvexProgram, ProgramStack, SolverStatus, solve

log = logging.getLogger(__name__)

# Mass below this is treated as a degenerate (empty) atom when extracting the
# worst-case distribution; the division by beta is not meaningful there.
MASS_DROP_TOL = 1e-9

# Tolerance for deciding a hinge sits exactly at its kink when forming the
# subgradient. At the kink we take the active endpoint of the subdifferential
# interval, which keeps runs reproducible.
KINK_TOL = 1e-10

# Slack `WorstCaseDistribution.validate` grants the solver: on per-sample
# mass and negative atom mass, on the unit-box support, and on the average
# transport budget.
VALID_MASS_TOL = 1e-7
VALID_SUPPORT_TOL = 1e-7
VALID_BUDGET_TOL = 1e-6


@dataclass(frozen=True)
class ClientConfig:
    """Per-client robustness knobs.

    epsilon  radius of the local Wasserstein ball (> 0)
    kappa    price of flipping one unit of label mass (>= 0)
    alpha    mixture weight of this client in the global objective
    norm     feature-space transport norm (its dual prices the regularizer)
    tau      extra strong-convexity weight used by the ADMM-SC variant
    rho      ADMM penalty; must agree across clients of one federation
    """

    epsilon: float
    kappa: float = 1.0
    alpha: float = 1.0
    norm: NormKind = NormKind.L1
    tau: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.kappa < 0.0 or not np.isfinite(self.kappa):
            raise ValueError(f"kappa must be nonnegative and finite, got {self.kappa}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (self.tau >= 0.0 and np.isfinite(self.tau)):
            raise ValueError(f"tau must be nonnegative and finite, got {self.tau}")
        if not (self.rho > 0.0 and np.isfinite(self.rho)):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")


@dataclass
class ClientModel:
    """Local consensus state: the client's weight vector and its scaled
    multipliers against the global model."""

    w_g: np.ndarray
    mu_g: np.ndarray

    def __post_init__(self):
        self.w_g = np.asarray(self.w_g, dtype=float)
        self.mu_g = np.asarray(self.mu_g, dtype=float)
        if not (np.isfinite(self.w_g).all() and np.isfinite(self.mu_g).all()):
            raise ValueError("client model state must be finite")
        if self.w_g.shape != self.mu_g.shape:
            raise ValueError("w_g and mu_g must have matching shapes")


def _require_unit_box(X, tol=1e-9):
    if X.size and (X.min() < -tol or X.max() > 1.0 + tol):
        raise ValueError(
            "features must lie in [0, 1]; normalize first "
            f"(observed range [{X.min():.4g}, {X.max():.4g}])"
        )


def _csr(entries, shape):
    """One CSR matrix from (rows, cols, vals) blocks; a scalar broadcasts
    against the arrays of its block. Every (row, col) pair appears once, and
    scipy stores the result canonically (sorted columns, explicit zeros
    kept)."""
    rows, cols, vals = zip(*(
        np.broadcast_arrays(np.atleast_1d(r), np.atleast_1d(c), np.atleast_1d(v).astype(float))
        for r, c, v in entries
    ))
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )


def _sm_lp_layout(N, P, norm):
    """Column layout of the worst-case LP after the two beta blocks and
    the aux block at column 2N (one t per atom, or one u per coordinate):
    (n_aux, off_qp, off_qm, n). The q+ and q- blocks are adjacent, so
    columns off_qp:n read row-major as one (2N, P) block of stacked atoms."""
    NP = N * P
    n_aux = 2 * N if norm is NormKind.LINF else 2 * NP
    off_qp = 2 * N + n_aux
    return n_aux, off_qp, off_qp + NP, off_qp + 2 * NP


def sm_lp_cost(w, data, cfg):
    """The cost vector of `build_sm_lp` at w, its only part that depends on
    w: (beta+ - beta-) y<w,x> - y<w, q+ - q->, the negation of the
    adversary's surrogate gain, averaged over N. Raises ValueError when w
    is not a finite vector of length P."""
    w = np.asarray(w, dtype=float)
    X, y = data.X, data.y
    N, P = data.n, data.p
    if w.shape != (P,):
        raise ValueError(f"w has shape {w.shape}, expected ({P},)")
    if not np.isfinite(w).all():
        raise ValueError(f"w must be finite, got {w}")
    _, off_qp, off_qm, n = _sm_lp_layout(N, P, cfg.norm)
    margins = y * (X @ w)  # y_i <w, x_i>
    c = np.zeros(n)
    c[:N] = margins / N
    c[N:2 * N] = -margins / N
    yw = (y[:, None] * w[None, :]).ravel()  # row-major (i, p) -> y_i w_p
    c[off_qp:off_qm] = -yw / N
    c[off_qm:] = yw / N
    return c


def build_sm_lp(w, data, cfg):
    """LP over adversary mass splits and transport vectors at fixed w,
    whose maximizers define the worst-case distribution for an SM round.

    Decision variables, in column order (N samples, P features):

      L-inf transport norm:  [beta+ (N)] [beta- (N)] [t+ (N)] [t- (N)]
                             [q+ (N*P)] [q- (N*P)]
      L1 transport norm:     [beta+ (N)] [beta- (N)] [u+ (N*P)] [u- (N*P)]
                             [q+ (N*P)] [q- (N*P)]

    where t_i (resp. the row-sum of u_i) upper-bounds ||q_i|| so the single
    budget row sum_i(||q+_i|| + ||q-_i|| + kappa*beta-_i) <= N*epsilon stays
    linear. q blocks are stored row-major (sample-major).

    Inequality rows, in order (j runs over the NP q coordinates, i = j // P):

      budget         1    every t/u; kappa on beta- (left out if kappa = 0)
      epigraph, q+   2NP  q+_j - aux <= 0, then -q+_j - aux <= 0
      epigraph, q-   2NP  the same for q-
      box, beta+ q+  2NP  q+_j - x_j beta+_i <= 0, then (x_j - 1) beta+_i - q+_j <= 0
      box, beta- q-  2NP  the same for beta-, q-; -x_j, x_j - 1 stored even if 0
      beta >= 0      2N   -beta+ <= 0, then -beta- <= 0

    and N equalities beta+_i + beta-_i = 1. So n = 4N + 2NP (L-inf) or
    2N + 4NP (L1) variables and m = 1 + 8NP + 2N inequalities.

    The program minimizes the negated adversary gain
    (1/N) sum_i [(beta+_i - beta-_i) y_i<w, x_i> - y_i<w, q+_i - q-_i>],
    so the surrogate worst-case risk is 1 - solution.objective. Only this
    cost depends on w (`sm_lp_cost`), so the LP of a later w is this one
    with its c swapped. Solve with `solve` and feed the result to
    `extract_worst_case`.
    """
    c = sm_lp_cost(w, data, cfg)
    X = data.X
    N, P = data.n, data.p
    _require_unit_box(X)

    NP = N * P
    n_aux, off_qp, off_qm, n = _sm_lp_layout(N, P, cfg.norm)
    off_aux = 2 * N

    entries = [(0, off_aux + np.arange(n_aux), 1.0)]
    if cfg.kappa != 0.0:
        entries.append((0, N + np.arange(N), cfg.kappa))

    # every block below is NP rows; row j holds q coordinate j and one partner
    # entry: (q column offset, q coefficient, partner columns, coefficients)
    j = np.arange(NP)
    samp = j // P  # sample index of each q coordinate
    blocks = []
    for s, q_off in enumerate((off_qp, off_qm)):
        aux = off_aux + (s * N + samp if cfg.norm is NormKind.LINF else s * NP + j)
        blocks += [(q_off, 1.0, aux, -1.0), (q_off, -1.0, aux, -1.0)]
    x = X.ravel()
    for beta_off, q_off in ((0, off_qp), (N, off_qm)):
        blocks += [(q_off, 1.0, beta_off + samp, -x),
                   (q_off, -1.0, beta_off + samp, x - 1.0)]
    for k, (q_off, q_val, partner, partner_val) in enumerate(blocks):
        rows = 1 + k * NP + j
        entries += [(rows, q_off + j, q_val), (rows, partner, partner_val)]

    m = 1 + len(blocks) * NP + 2 * N
    entries.append((m - 2 * N + np.arange(2 * N), np.arange(2 * N), -1.0))  # beta >= 0
    A_ineq = _csr(entries, (m, n))
    b_ineq = np.zeros(m)
    b_ineq[0] = N * cfg.epsilon

    # --- mass conservation: beta+_i + beta-_i = 1
    i = np.arange(N)
    A_eq = _csr([(i, i, 1.0), (i, N + i, 1.0)], (N, n))

    return ConvexProgram(
        n=n, c=c, A_ineq=A_ineq, b_ineq=b_ineq, A_eq=A_eq, b_eq=np.ones(N)
    )


@dataclass
class WorstCaseDistribution:
    """Extremal distribution: 2N labeled atoms, two per sample.

    The atoms are stacked as in the module conventions: row i < N is
    sample i with its label kept, row N + i is sample i with its label
    flipped. Atoms whose LP mass falls below the drop tolerance get mass 0
    and sit at their own sample; the surviving sibling then carries the
    sample's whole unit of mass, so mass[:N] + mass[N:] is always one.
    """

    z: np.ndarray  # atom locations, shape (2N, P)
    label: np.ndarray  # atom labels, y then -y, shape (2N,)
    mass: np.ndarray  # atom masses, shape (2N,)

    @property
    def n(self):
        return self.label.shape[0] // 2

    def risk(self, w):
        """Expected hinge loss of w under this distribution (true hinges,
        not the LP surrogate)."""
        return float(self.mass @ hinge_losses(w, self.z, self.label)) / self.n

    def transport_spent(self, data, cfg):
        """Average transport cost from the empirical points, feature moves
        plus kappa per unit of flipped mass."""
        move = np.abs(self.z - np.vstack([data.X, data.X]))
        if cfg.norm is NormKind.L1:
            cost = move.sum(axis=1)
        else:
            cost = move.max(axis=1, initial=0.0)
        cost[self.n:] += cfg.kappa
        return float(self.mass @ cost) / self.n

    def validate(self, data, cfg):
        """Return a list of violation messages (empty when the distribution
        is a certified member of the ambiguity ball)."""
        N = self.n
        problems = []
        per_sample = self.mass[:N] + self.mass[N:]
        worst = float(np.max(np.abs(per_sample - 1.0))) if N else 0.0
        if worst > VALID_MASS_TOL:
            problems.append(f"per-sample mass deviates from 1 by {worst:.3e}")
        if (self.mass < -VALID_MASS_TOL).any():
            problems.append("negative atom mass")
        outside = (self.z < -VALID_SUPPORT_TOL) | (self.z > 1.0 + VALID_SUPPORT_TOL)
        escaped = (self.mass > 0.0) & outside.any(axis=1)
        for tag, half in zip(("kept", "flipped"), escaped.reshape(2, N)):
            if half.any():
                problems.append(f"{tag}-label atom escapes the unit box")
        spent = self.transport_spent(data, cfg)
        if spent > cfg.epsilon + VALID_BUDGET_TOL:
            problems.append(
                f"transport budget exceeded: {spent:.6g} > {cfg.epsilon:.6g}"
            )
        return problems


def extract_worst_case(solution, data, cfg):
    """Recover the extremal distribution from a solved worst-case LP.

    The beta block and the two adjacent q blocks give one mass and one
    transport vector per stacked atom, and the atom sits at x - q / beta.
    Where beta is (numerically) zero the atom is dropped and its sibling
    gets the sample's whole unit of mass. Both masses vanishing would
    contradict the mass-conservation constraint, so that case is reported
    as a solver failure.
    """
    if solution.status is not SolverStatus.OPTIMAL:
        raise ValueError(f"cannot extract from a non-optimal solve: {solution.message}")
    N, P = data.n, data.p
    _, off_qp, _, n = _sm_lp_layout(N, P, cfg.norm)
    x = solution.x_star
    beta = x[:2 * N]
    q = x[off_qp:n].reshape(2 * N, P)

    has = beta > MASS_DROP_TOL
    sibling = np.roll(has, N)
    if not (has | sibling).all():
        raise RuntimeError(
            "both atom masses vanished for some sample; the solver output "
            "violates mass conservation"
        )
    mass = np.where(has & ~sibling, 1.0, np.where(has, beta, 0.0))

    z = np.vstack([data.X, data.X])
    z[has] -= q[has] / beta[has, None]
    # the LP box keeps beta*z inside [0,1]*beta; after dividing, clip the
    # solver's last-digit noise so downstream support checks stay clean
    np.clip(z, 0.0, 1.0, out=z)
    return WorstCaseDistribution(z=z, label=np.concatenate([data.y, -data.y]), mass=mass)


def sm_subgradient(w, dist):
    """Subgradient of the worst-case risk at w, built from the extremal
    distribution's active hinges.

    Each atom whose hinge residual 1 - label<w, z> is at least -KINK_TOL
    contributes -mass*label*z; at an exact kink this takes the active
    endpoint of the subdifferential interval. Averaged over samples. Only
    valid at the w the distribution was extracted for.
    """
    w = np.asarray(w, dtype=float)
    active = 1.0 - dist.label * (dist.z @ w) >= -KINK_TOL
    return -(dist.mass * dist.label * active) @ dist.z / dist.n


def worst_case_risk_dual(w, data, cfg):
    """Worst-case hinge risk at w through its dual form.

    The dual is min over lam >= dualnorm(w) of
    eps*lam + mean_i max(l_plus_i, l_minus_i - kappa*lam), where l_plus /
    l_minus are the hinge losses at the sample with its label kept /
    flipped. The objective is piecewise linear in lam, so the minimum sits
    at the dual-norm floor or at one of the crossing points
    (l_minus_i - l_plus_i) / kappa; we evaluate all candidates exactly
    rather than searching. Returns (value, argmin lam).

    Assumes unbounded support, which upper-bounds the boxed primal; the two
    agree whenever the extremal atoms stay interior with active hinges, and
    the acceptance instances are drawn in that regime.
    """
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
    return float(vals[best]), float(cands[best])


def build_risk_epigraph_qp(data, cfg, rho=0.0, tau=0.0, anchor=None):
    """Epigraph program for the client's (optionally proximal) worst-case
    risk minimization.

    minimize  eps*lam + mean(s) + (rho/2)||w - anchor||^2 + tau*||w||^2
    subject to  s_i >= 1 - y_i<w, x_i>,  s_i >= 1 + y_i<w, x_i> - kappa*lam,
                s_i >= 0,  lam >= dualnorm(w).

    With rho = tau = 0 this is the plain robust SVM (an LP, used by the
    central baseline); with rho > 0 and anchor = w_global - mu it is the
    ADMM proximal step (see admm_client_step). The program objective omits the
    constant (rho/2)||anchor||^2.

    Column order: [w (P)] [lam] [u (P), L-inf norm only] [s (N)]. Keeping
    s last leaves the dense solver's independent-column detection free to
    pick up the slack block. Rows, in order:

      hinge            N rows    -y_i x_i . w - s_i <= -1
      flipped hinge    N rows    y_i x_i . w - kappa*lam - s_i <= -1
      s >= 0           N rows    -s_i <= 0
      dual norm, L1    2P rows   w_p - lam <= 0, then -w_p - lam <= 0
      dual norm, L-inf 2P + 1    w_p - u_p <= 0, then -w_p - u_p <= 0;
                                 last sum(u) - lam <= 0

    Zero y_i x_ip entries are left out; -kappa on lam is always stored.
    """
    X, y = data.X, data.y
    N, P = data.n, data.p
    has_u = cfg.norm is NormKind.LINF
    off_lam = P
    off_u = P + 1
    off_s = P + 1 + (P if has_u else 0)
    n = off_s + N
    qd, c = _epigraph_objective(data, cfg, rho, tau, anchor)
    Q = sparse.diags(qd).tocsr() if (rho or tau) else None

    yx = y[:, None] * X
    i, p = np.nonzero(yx)
    samples = np.arange(N)
    entries = [
        (i, p, -yx[i, p]),  # 1 - y<w,x> <= s
        (N + i, p, yx[i, p]),  # 1 + y<w,x> - kappa*lam <= s
        (N + samples, off_lam, -cfg.kappa),
        (np.arange(3 * N), off_s + np.tile(samples, 3), -1.0),  # both hinges, s >= 0
    ]
    rows = 3 * N + np.arange(2 * P)
    cols = np.repeat(np.arange(P), 2)
    entries += [(rows, cols, np.tile([1.0, -1.0], P)),
                (rows, off_u + cols if has_u else off_lam, -1.0)]
    m = 3 * N + 2 * P
    if has_u:
        entries += [(m, off_u + np.arange(P), 1.0), (m, off_lam, -1.0)]
        m += 1
    b = np.zeros(m)
    b[:2 * N] = -1.0
    return ConvexProgram(n=n, c=c, Q=Q, A_ineq=_csr(entries, (m, n)), b_ineq=b)


def _epigraph_objective(data, cfg, rho, tau, anchor):
    """Q's diagonal and the cost c of `build_risk_epigraph_qp`."""
    P = data.p
    off_s = P + 1 + (P if cfg.norm is NormKind.LINF else 0)
    qd = np.zeros(off_s + data.n)
    qd[:P] = rho + 2.0 * tau
    c = np.zeros(off_s + data.n)
    c[P] = cfg.epsilon
    c[off_s:] = 1.0 / data.n
    if rho:
        if anchor is None:
            raise ValueError("anchor is required when rho > 0")
        c[:P] = -rho * np.asarray(anchor, dtype=float)
    return qd, c


def admm_client_step(w_global, client, data, cfg, cache, client_id=None):
    """One client proximal step: solve the local QP anchored at
    w_global - mu_g and return a ClientModel with w_g updated and mu_g
    untouched.

    `cache` is a dict owned by the client, empty before its first round.
    It keeps the assembled program and the last primal-dual point, so
    repeated rounds reuse the solver's factorization backend and
    warm-start. Only the linear term changes between rounds, which the
    solver's program-structure contract allows.
    """
    anchor = np.asarray(w_global, dtype=float) - client.mu_g
    w_g, = ProximalSteps([(data, cfg, cache, client_id)])(anchor[None])
    return ClientModel(w_g=w_g, mu_g=client.mu_g)


class ProximalSteps:
    """The proximal steps of a fixed list of ADMM clients, round after
    round: the one body of the client step (`admm_client_step` takes a
    list of one).

    `clients` holds one (data, cfg, cache, client_id) per client, the
    arguments of `admm_client_step`; the caches must be distinct. Each
    client's QP is built on its first round and only its anchor term is
    swapped after that. Clients whose QPs have the same constraint rows
    (the same data object, kappa and norm, as one fold's client has at
    every rho of a cross-validation) build them once and share their
    analysis (`ConvexProgram.with_objective`). A lone QP is solved by
    `solve`; two or more by one `solver.ProgramStack`, laid out on the
    first round and reused on every later one.
    """

    def __init__(self, clients):
        self.clients = list(clients)
        self.stack = None

    def __call__(self, anchors):
        """Every client's step from its anchor w_global - mu_g, one row of
        `anchors` per client. Each step retries a failed warm start cold,
        raises when its QP still does not converge, and keeps its solution
        as the next warm start. Returns the new w_g, one per client."""
        progs = self._programs(anchors)
        warms = [cache.get("warm") for _, _, cache, _ in self.clients]
        if len(progs) == 1:
            sols = [solve(progs[0], warm=warms[0])]
        else:
            if self.stack is None:
                self.stack = ProgramStack(progs)
            sols = self.stack.solve(warms)
        steps = []
        for sol, prog, warm, (data, _, cache, client_id) in zip(sols, progs, warms,
                                                                 self.clients):
            who = "client" if client_id is None else f"client {client_id}"
            if sol.status is not SolverStatus.OPTIMAL and warm is not None:
                # a stale warm point can stall the solver when the anchor jumps
                # far between rounds (small rho lets the multipliers drift)
                log.warning("%s: warm-started proximal QP failed (%s); retrying cold",
                            who, sol.message)
                sol = solve(prog)
            if sol.status is not SolverStatus.OPTIMAL:
                raise RuntimeError(f"{who}: proximal QP failed to converge: {sol.message}")
            cache["warm"] = (sol.x_star, sol.z_star)
            steps.append(sol.x_star[:data.p].copy())
        return steps

    def _programs(self, anchors):
        """Each client's QP at its anchor: built on the first round, its
        anchor term swapped on later ones."""
        progs, built = [], {}
        for anchor, (data, cfg, cache, _) in zip(anchors, self.clients):
            prog = cache.get("program")
            if prog is not None:
                prog.c[:data.p] = -cfg.rho * anchor
            else:
                rows = (id(data), cfg.kappa, cfg.norm)
                if rows in built:
                    prog = built[rows].with_objective(
                        *_epigraph_objective(data, cfg, cfg.rho, cfg.tau, anchor))
                else:
                    prog = built[rows] = build_risk_epigraph_qp(
                        data, cfg, rho=cfg.rho, tau=cfg.tau, anchor=anchor)
                cache["program"] = prog
            progs.append(prog)
        return progs


def multiplier_step(mu_g, w_g, w_global):
    """The scaled dual ascent rule mu_g + w_g - w, summed left to right.
    The client and the server's mirror of its multipliers both apply it,
    so the two stay equal bit for bit."""
    return (mu_g + w_g) - np.asarray(w_global, dtype=float)


def admm_multiplier_update(client, w_global):
    """Scaled dual ascent after the broadcast: mu_g <- mu_g + w_g - w."""
    return ClientModel(w_g=client.w_g, mu_g=multiplier_step(client.mu_g, client.w_g, w_global))


def radius_heuristic(n_samples, beta=10.0):
    """Practical default radius 1/(beta * n): shrinks with local sample
    size so data-rich clients trust their empirical distribution more."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return 1.0 / (beta * n_samples)
