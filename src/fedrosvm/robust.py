"""Client-side distributionally robust operations.

Everything a participant computes against its own data lives here: the
worst-case hinge risk over a Wasserstein ball (with label flips priced at
kappa) in closed form through its one-dimensional dual, with its minimizing
multiplier and an exact subgradient (`WorstCaseDual`, one body for one client
or many: the subgradient-method (SM) client step and the server's objective
both read it), the proximal QP solved inside ADMM rounds (one body,
`ProximalSteps`, which owns each client's QP, warm start, w_g and
multipliers for the whole run: a step whose last active set still
verifies is taken by `solver.ActiveSetPolish`, a lone client step that
does not goes through `solve`, the steps of many clients through one
`solver.ProgramBatch`, whose rows are `solve`'s bytes, or, in the
cross-validation lockstep, one `solver.ProgramStack`; each is laid out
once and used every round),
the scaled multiplier rule (`multiplier_step`), and the practical radius
rule.

The dual is over unbounded support, so an SM reply is an exact subgradient
of the risk the server reports. The worst-case distribution LP over the
unit box (`build_sm_lp`, `extract_worst_case`, `sm_subgradient`) remains
for reference and for the demo; no federation round solves it.

Conventions of the LP (and relied on by the tests):

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
silently change the geometry. We refuse instead, and an SM client refuses
the same data in every round.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import NormKind, hinge_losses
from .solver import ActiveSetPolish, ConvexProgram, ProgramBatch, SolverStatus, solve

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


UNIT_BOX_TOL = 1e-9


def _require_unit_box(X, tol=UNIT_BOX_TOL):
    if X.size and (X.min() < -tol or X.max() > 1.0 + tol):
        raise ValueError(
            "features must lie in [0, 1]; normalize first "
            f"(observed range [{X.min():.4g}, {X.max():.4g}])"
        )


def _check_model(w, p):
    """w as a float vector, refused unless it is finite with length p."""
    w = np.asarray(w, dtype=float)
    if w.shape != (p,):
        raise ValueError(f"w has shape {w.shape}, expected ({p},)")
    if not np.isfinite(w).all():
        raise ValueError(f"w must be finite, got {w}")
    return w


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


def build_sm_lp(w, data, cfg):
    """LP over adversary mass splits and transport vectors at fixed w,
    whose maximizers define the worst-case distribution over the unit box:
    the reference the closed form is checked against, and the demo's; SM
    rounds read `WorstCaseDual` instead.

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
    so the surrogate worst-case risk is 1 - solution.objective. Solve with
    `solve` and feed the result to `extract_worst_case`. Raises ValueError
    when w is not a finite vector of length P or X leaves the unit box.
    """
    w = _check_model(w, data.p)
    X, y = data.X, data.y
    N, P = data.n, data.p
    _require_unit_box(X)

    NP = N * P
    n_aux, off_qp, off_qm, n = _sm_lp_layout(N, P, cfg.norm)
    off_aux = 2 * N
    margins = y * (X @ w)  # y_i <w, x_i>
    c = np.zeros(n)
    c[:N] = margins / N
    c[N:2 * N] = -margins / N
    yw = (y[:, None] * w[None, :]).ravel()  # row-major (i, p) -> y_i w_p
    c[off_qp:off_qm] = -yw / N
    c[off_qm:] = yw / N

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
    """Worst-case hinge risk at w through its dual form, and its minimizing
    multiplier: (value, lam*), read off a `WorstCaseDual` of one client.

    The dual is min over lam >= dualnorm(w) of
    eps*lam + mean_i max(l_plus_i, l_minus_i - kappa*lam), where l_plus /
    l_minus are the hinge losses at the sample with its label kept /
    flipped. Assumes unbounded support, which upper-bounds the boxed
    primal; the two agree whenever the extremal atoms stay interior with
    active hinges, and the acceptance instances are drawn in that regime.
    """
    point = WorstCaseDual([(data, cfg)]).at(w)
    return float(point.risk[0]), float(point.lam[0])


@dataclass(frozen=True)
class DualPoint:
    """`WorstCaseDual` at one w, one row per client: the worst-case risk,
    its minimizing multiplier lam*, and a subgradient of the risk (None
    when only the risk was asked for)."""

    risk: np.ndarray  # (G,)
    lam: np.ndarray  # (G,)
    v: np.ndarray = None  # (G, P)


class WorstCaseDual:
    """The worst-case hinge risk of a fixed list of clients in closed form,
    with lam* and an exact subgradient: the one body of the SM client step
    (`subgradient`) and of the server's objective (`objective`).

    `clients` holds one (data, cfg) per client. Per client, with margins
    m_i = y_i<w, x_i>, l+_i = max(0, 1 - m_i), l-_i = max(0, 1 + m_i) and the
    crossings c_i = (l-_i - l+_i) / kappa, the dual
    phi(lam) = eps*lam + mean_i max(l+_i, l-_i - kappa*lam) falls until at
    most K = floor(eps*n/kappa) crossings lie above lam, so
    lam* = max(||w||_*, the (K+1)-th largest crossing). One lexsort over
    (client, -crossing) finds every client's selection at once. With
    kappa = 0 lam* is the floor and a sample is flipped iff l- > l+.

    The subgradient is the w-part of a subgradient of the joint dual at
    (w, lam*) whose lam-part vanishes. Samples with c_i > lam* are flipped
    and add +y x where their flipped hinge is active; the rest are kept and
    add -y x where their hinge is active; a hinge at its kink takes the
    active endpoint, as `sm_subgradient` does. Off the floor the samples at
    lam* (pinned) carry flipped weight (eps*n/kappa - #flipped) / #pinned,
    which zeroes the lam-part. On the floor the pinned samples are kept and
    (eps - kappa*#flipped/n)_+ times a subgradient of the dual norm is
    added: the sign at the first peak coordinate for l1 transport, sign(w)
    for l-infinity, 0 at w = 0.

    Every step is local to a client's rows (margins as a sum over columns,
    segment sums by `np.add.reduceat`, values picked from the one sort),
    so a client's row has the same bytes in a stack of one and a stack of
    many. The last point is kept and reused while the bytes of w stay the
    same.
    """

    def __init__(self, clients):
        self.clients = list(clients)
        if not self.clients:
            raise ValueError("at least one client is required")
        dims = {data.p for data, _ in self.clients}
        if len(dims) != 1:
            raise ValueError(f"clients disagree on feature dimension: {sorted(dims)}")
        self.p = dims.pop()
        n = np.array([data.n for data, _ in self.clients])
        if (n < 1).any():
            raise ValueError("every client needs at least one sample")
        self.counts = n
        self.n = n.astype(float)
        self.eps = eps = np.array([cfg.epsilon for _, cfg in self.clients])
        self.kappa = kappa = np.array([cfg.kappa for _, cfg in self.clients])
        self.starts = np.concatenate([[0], np.cumsum(n)[:-1]])
        self.seg = np.repeat(np.arange(len(n)), n)
        X = np.concatenate([data.X for data, _ in self.clients])
        y = np.concatenate([data.y for data, _ in self.clients])
        # y_i x_i, one row per feature: y = +-1, so every product below has
        # the bytes it would have with y applied last
        self.yx = np.ascontiguousarray((y[:, None] * X).T)
        # the clients whose replies refuse their features for leaving the
        # unit box, found for all at once here so that no round pays for it
        self.outside_box = (
            (np.minimum.reduceat(X, self.starts).min(axis=1, initial=0.0) < -UNIT_BOX_TOL)
            | (np.maximum.reduceat(X, self.starts).max(axis=1, initial=0.0)
               > 1.0 + UNIT_BOX_TOL))
        self.kappa_rows = np.repeat(kappa, n)
        self.priced = self.kappa_rows > 0.0
        # eps*n/kappa, the flipped mass the budget buys (inf when flips are free)
        self.budget = np.divide(eps * n, kappa, out=np.full(len(n), np.inf),
                                where=kappa > 0.0)
        k = np.floor(np.minimum(self.budget, n)).astype(int)
        self.selects = k < n
        # sorted position of the (K+1)-th largest crossing of each client that selects
        self.picks = (self.starts + k)[self.selects]
        self.linf = np.array([cfg.norm is NormKind.LINF for _, cfg in self.clients])
        self._key = None
        self._point = None

    def at(self, w, subgradient=True):
        """The `DualPoint` at w; with subgradient=False only its risk and
        lam* are computed. Raises ValueError when w is not a finite vector
        of length P."""
        w = np.asarray(w, dtype=float)
        key = w.tobytes()
        if w.shape != (self.p,) or key != self._key or (subgradient and self._point.v is None):
            self._point = self._evaluate(_check_model(w, self.p), subgradient)
            self._key = key
        return self._point

    def subgradient(self, w, row):
        """Client `row`'s SM reply at w, a copy of its row of `at(w).v`.
        Raises ValueError, as the LP does, when the client's features leave
        the unit box."""
        v = self.at(w).v[row].copy()
        if self.outside_box[row]:
            _require_unit_box(self.clients[row][0].X)
        return v

    def objective(self, w, alphas):
        """sum_g alphas[g] * risk_g(w), added in client order."""
        total = 0.0
        for alpha, risk in zip(alphas, self.at(w, subgradient=False).risk.tolist()):
            total += alpha * risk
        return total

    def _evaluate(self, w, subgradient):
        margins = self.yx[0] * w[0]
        for p in range(1, self.p):
            margins = margins + self.yx[p] * w[p]
        kept_residual, flipped_residual = 1.0 - margins, 1.0 + margins
        lp = np.maximum(0.0, kept_residual)
        lm = np.maximum(0.0, flipped_residual)
        diff = lm - lp
        cross = np.divide(diff, self.kappa_rows, where=self.priced,
                          out=np.where(diff > 0.0, np.inf, -np.inf))

        aw = np.abs(w)  # the dual norm: sum for l-infinity transport, max for l1
        floor = np.where(self.linf, aw.sum(), aw.max(initial=0.0))
        picked = cross[np.lexsort((-cross, self.seg))[self.picks]]
        lam = floor.copy()
        lam[self.selects] = np.maximum(floor[self.selects], picked)
        off = lam > floor
        lam_rows = np.repeat(lam, self.counts)
        risk = self.eps * lam + np.add.reduceat(
            np.maximum(lp, lm - self.kappa_rows * lam_rows), self.starts) / self.n
        if not subgradient:
            return DualPoint(risk=risk, lam=lam)

        flipped = cross > lam_rows
        pinned = (cross == lam_rows) & np.repeat(off, self.counts)
        n_flipped = np.add.reduceat(flipped, self.starts)
        n_pinned = np.add.reduceat(pinned, self.starts)
        share = np.divide(self.budget - n_flipped, n_pinned, out=np.zeros(len(lam)),
                          where=off & (n_pinned > 0))
        theta = np.where(pinned, np.repeat(share, self.counts), flipped)
        kept_active = kept_residual >= -KINK_TOL
        flipped_active = flipped_residual >= -KINK_TOL
        coef = theta * flipped_active - (1.0 - theta) * kept_active
        v = np.add.reduceat(self.yx * coef, self.starts, axis=1).T / self.n[:, None]

        # on the floor, the multiplier of lam >= ||w||_* times a subgradient of it
        nu = np.where(off, 0.0, np.maximum(self.eps - self.kappa * n_flipped / self.n, 0.0))
        peak = np.zeros(self.p)
        top = int(np.argmax(aw))
        peak[top] = np.sign(w[top])
        norm_sub = np.where(self.linf[:, None], np.sign(w)[None, :], peak[None, :])
        return DualPoint(risk=risk, lam=lam, v=v + nu[:, None] * norm_sub)


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


def admm_client_step(steps, row, t, w_global):
    """Client `row`'s new w_g in ADMM round t, from `steps`, the
    `ProximalSteps` that holds its QP, warm start and multipliers mu_g
    (already folded for round t). The first call of round t takes every
    row's step, each anchored at w_global - mu_g; every call returns a copy
    of its own row's w_g, or raises its own row's failure."""
    if steps.t != t:
        steps.step(np.asarray(w_global, dtype=float) - steps.mu_g)
        steps.t = t
    return steps.reply(row)


class ProximalSteps:
    """The proximal steps of a fixed list of ADMM clients, round after
    round: the one body of the client step, and the owner of each client's
    QP, warm start, last w_g (zeros before round 1) and multipliers mu_g
    (ones), one row of `w_g` and `mu_g` per client.

    `clients` holds one (data, cfg, client_id) per client; the id names
    the client in the warm-retry warning and the convergence error, and
    may be None. Each client's QP is built on the first round and only its
    anchor term is swapped after that, which the solver's program-structure
    contract allows; its last primal-dual point warm-starts its next round.
    Clients whose QPs have the same constraint rows (the same data object,
    kappa and norm, as one fold's client has at every rho of a
    cross-validation) build them once and share their analysis
    (`ConvexProgram.with_objective`).

    Each step with a warm point is first tried by one
    `solver.ActiveSetPolish`: the rows active at the last solution are
    taken as equalities, the resulting equality QP is solved by one small
    linear solve, and the point is kept only if it verifies as optimal
    (nonnegative multipliers, the other rows satisfied, and the solver's
    KKT residual within its tolerance). The QP is strongly convex in w
    (rho > 0), so w* is unique and a verified point is the step. The
    steps that do not verify go to the solver from the same warm start: a
    lone QP to `solve`; two or more to one `joint` solver laid out on the
    first round and reused on every later one, which leaves the polished
    rows out: by default a `solver.ProgramBatch`, whose solutions are
    `solve`'s bytes; or a `solver.ProgramStack`, which agrees with `solve`
    to roundoff. The polish works row by row, so with the default a
    client's row is the same in a `ProximalSteps` of one and of many.
    `polished` and `solved` count the steps each took, over the run.
    """

    def __init__(self, clients, joint=ProgramBatch):
        self.clients = list(clients)
        self.joint = joint
        self.programs = None
        self.warms = [None] * len(self.clients)
        self.polish = self.together = None
        self.polished = self.solved = 0  # steps taken by the polish, by the solver
        shape = (len(self.clients), self.clients[0][0].p)
        self.w_g, self.mu_g = np.zeros(shape), np.ones(shape)
        self.failures = [None] * len(self.clients)
        self.t = 0  # the last round `admm_client_step` stepped

    def __call__(self, anchors):
        """Every client's step (see `step`); returns `w_g`, or raises the
        first client's failure."""
        self.step(anchors)
        for failure in self.failures:
            if failure is not None:
                raise failure
        return self.w_g

    def step(self, anchors):
        """Every client's step from its anchor w_global - mu_g, one row of
        `anchors` per client, into its row of `w_g`. Each step retries a
        failed warm start cold and keeps its solution as the next warm
        start. A QP that still does not converge leaves its row as it was,
        and its error in `failures` for `reply` to raise."""
        progs = self._programs(anchors)
        if self.polish is None:
            self.polish = ActiveSetPolish(progs)
        sols = self.polish.solve(self.warms)
        left = np.array([sol is None for sol in sols])
        self.solved += int(left.sum())
        self.polished += len(sols) - int(left.sum())
        if len(progs) == 1:
            if left[0]:
                sols = [solve(progs[0], warm=self.warms[0])]
        elif left.any():
            if self.together is None:
                self.together = self.joint(progs)
            solved = self.together.solve(self.warms, skip=~left)
            sols = [sol if sol is not None else other for sol, other in zip(sols, solved)]
        for k, (sol, prog, (data, _, client_id)) in enumerate(zip(sols, progs, self.clients)):
            who = "client" if client_id is None else f"client {client_id}"
            if sol.status is not SolverStatus.OPTIMAL and self.warms[k] is not None:
                # a stale warm point can stall the solver when the anchor jumps
                # far between rounds (small rho lets the multipliers drift)
                log.warning("%s: warm-started proximal QP failed (%s); retrying cold",
                            who, sol.message)
                sol = solve(prog)
            if sol.status is not SolverStatus.OPTIMAL:
                self.failures[k] = RuntimeError(
                    f"{who}: proximal QP failed to converge: {sol.message}")
                continue
            self.failures[k] = None
            self.warms[k] = (sol.x_star, sol.z_star)
            self.w_g[k] = sol.x_star[:data.p]

    def reply(self, k):
        """A copy of client k's row of `w_g`; raises its failure instead
        when its last step failed."""
        if self.failures[k] is not None:
            raise self.failures[k]
        return self.w_g[k].copy()

    def _programs(self, anchors):
        """Each client's QP at its anchor: built on the first round, its
        anchor term swapped on later ones."""
        if self.programs is not None:
            for prog, anchor, (data, cfg, _) in zip(self.programs, anchors, self.clients):
                prog.c[:data.p] = -cfg.rho * anchor
            return self.programs
        progs, built = [], {}
        for anchor, (data, cfg, _) in zip(anchors, self.clients):
            rows = (id(data), cfg.kappa, cfg.norm)
            if rows in built:
                progs.append(built[rows].with_objective(
                    *_epigraph_objective(data, cfg, cfg.rho, cfg.tau, anchor)))
            else:
                progs.append(build_risk_epigraph_qp(
                    data, cfg, rho=cfg.rho, tau=cfg.tau, anchor=anchor))
                built[rows] = progs[-1]
        self.programs = progs
        return progs


def multiplier_step(mu_g, w_g, w_global):
    """The scaled dual ascent rule mu_g + w_g - w, summed left to right, on
    one client's multipliers or on an array of them with one row per
    client. A client (as `admm_multiplier_update`), the server's mirror in
    `run_federation` and the cross-validation lockstep all apply it, so the
    mirror equals every client's multipliers bit for bit."""
    return (mu_g + w_g) - np.asarray(w_global, dtype=float)


# the client's name for the rule, after the broadcast; perfbench's tracer
# spans it apart from the server's mirror
admm_multiplier_update = multiplier_step


def radius_heuristic(n_samples, beta=10.0):
    """Practical default radius 1/(beta * n): shrinks with local sample
    size so data-rich clients trust their empirical distribution more."""
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    return 1.0 / (beta * n_samples)
