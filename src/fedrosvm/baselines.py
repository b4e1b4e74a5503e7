"""Comparison models: the pooled-data robust SVM and the FedSGD /
FedAvg / FedProx family training an l2-squared regularized SVM.

The federated baselines share one loop. Every round the server sends w,
each client runs E epochs of minibatch subgradient descent on

    (1/N_g) sum hinge(w; x, y) + c_g ||w||^2,    c_g = 1/(10 N_g),

with step gamma0/t, and the server averages the results weighted by
client sample counts. FedSGD is the E=1 full-batch special case; FedProx
adds (prox_mu/2)||w - w_round||^2 to the local objective. Everything is
seeded per (seed, client, round), so runs are reproducible regardless of
scheduling.

Batches depend only on that seed and the shard size, never on gamma0, so
train_fed_l2_stack trains many runs at once: one per (fold, step size)
pair, as cross-validation needs, carried as a (folds, step sizes, P)
weight stack whose runs share each fold's batches. train_fed_l2_svm is
its one-run view, and every stacked run equals that lone run bit for bit.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import GlobalModel
from .robust import ClientConfig, build_risk_epigraph_qp
from .solver import SolverStatus, solve


# The pooled model is one client holding all the data, with the same knobs
CentralDrConfig = ClientConfig


def train_central_dr_svm(data, cfg):
    """Solve the pooled robust hinge program (epigraph form, no proximal
    term) and return the optimal weights. `cfg` gives epsilon, kappa and
    norm; the program reads no other field."""
    sol = solve(build_risk_epigraph_qp(data, cfg))
    if sol.status is not SolverStatus.OPTIMAL:
        raise RuntimeError(f"central robust solve failed: {sol.message}")
    return GlobalModel(w=sol.x_star[: data.p].copy())


class FedVariant(Enum):
    FEDSGD = "fedsgd"
    FEDAVG = "fedavg"
    FEDPROX = "fedprox"


@dataclass(frozen=True)
class FedBaselineConfig:
    variant: FedVariant
    gamma0: float = 1.0
    T: int = 50
    local_epochs: int = 5
    batch_fraction: float = 0.2
    prox_mu: float = 1.0

    def __post_init__(self):
        if not (self.gamma0 > 0.0 and np.isfinite(self.gamma0)):
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if not (0.0 < self.batch_fraction <= 1.0):
            raise ValueError(
                f"batch_fraction must be in (0, 1], got {self.batch_fraction}"
            )
        if not (self.prox_mu >= 0.0 and np.isfinite(self.prox_mu)):
            raise ValueError(f"prox_mu must be nonnegative and finite, got {self.prox_mu}")


def l2_hinge_subgradient(w, yX, c):
    """Subgradient of mean hinge + c||w||^2 over the given rows of
    yX = y[:, None] * X (labels folded into the features, so the margins
    are yX @ w). At the hinge kink (margin exactly 1) the zero branch is
    taken. This is the one-batch rule that train_fed_l2_stack applies to
    many runs at once, with the same arithmetic at P >= 2."""
    margins = yX @ w
    active = margins < 1.0
    grad = 2.0 * c * w
    if active.any():
        grad = grad - yX[active].sum(axis=0) / len(yX)
    return grad


def train_fed_l2_svm(client_data, cfg, seed, trace=None):
    """Run T federated rounds of the configured variant and return the
    final model. Pass a list as `trace` to receive a copy of the global
    iterate after every round.

    FedSGD overrides local_epochs and batch_fraction so each client takes
    exactly one full-batch step per round. Full batches keep the natural
    row order; partial batches are drawn without replacement from a fresh
    permutation each epoch. This is the one-run view of
    train_fed_l2_stack.
    """
    iterates = train_fed_l2_stack([client_data], cfg, seed, [cfg.gamma0])[0, 0]
    if trace is not None:
        trace.extend(w.copy() for w in iterates)
    return GlobalModel(w=iterates[-1].copy())


def train_fed_l2_stack(folds, cfg, seed, gamma0s):
    """Train one run per (fold, step size) pair, all advancing together,
    and return the global iterate after every round as an array of shape
    (folds, step sizes, T, P).

    Each fold is a list of client datasets; client g of a fold is the
    g-th entry of its list and draws its batches from
    default_rng([seed, g, t]) as a lone run would. `cfg` fixes everything
    but the step size, which is gamma0/t for each gamma0 in `gamma0s`
    (cfg.gamma0 is not read). Every run's iterates equal, bit for bit,
    those of train_fed_l2_svm on that fold with that gamma0: within a
    client step the runs of one fold share their batches, the folds whose
    batches have the same length share one matmul that gives each run a
    product over exactly its own rows, and a fold without a batch at a
    step leaves its runs unchanged.
    """
    if not folds or any(len(clients) < 1 for clients in folds):
        raise ValueError("at least one client dataset is required")
    dims = {d.p for clients in folds for d in clients}
    if len(dims) != 1:
        raise ValueError(f"clients disagree on feature dimension: {sorted(dims)}")
    p = dims.pop()
    for gamma0 in gamma0s:
        if not (np.isfinite(gamma0) and gamma0 > 0.0):
            raise ValueError(f"gamma0 must be positive, got {gamma0}")

    if cfg.variant is FedVariant.FEDSGD:
        epochs, fraction = 1, 1.0
    else:
        epochs, fraction = cfg.local_epochs, cfg.batch_fraction
    prox_mu = cfg.prox_mu if cfg.variant is FedVariant.FEDPROX else 0.0

    F, K = len(folds), len(gamma0s)
    gamma0s = np.asarray(gamma0s, dtype=float)[:, None]
    clients = [_StackedClient(g, folds, fraction, epochs)
               for g in range(max(len(c) for c in folds))]
    iterates = np.empty((F, K, cfg.T, p))
    W = np.zeros((F, K, p))
    for t in range(1, cfg.T + 1):
        step = gamma0s / t
        aggregated = np.zeros((F, K, p))
        for client in clients:
            W_g = client.local_epochs(W, seed, t, step, prox_mu)
            aggregated[client.folds] += client.weights * W_g
        W = aggregated
        iterates[:, :, t - 1] = W
    return iterates


class _StackedClient:
    """Client g of every fold that has one: its signed rows (labels folded
    into the features, exact for y = +-1) stored fold after fold, and the
    per-fold batch layout, which depends on the shard size only."""

    def __init__(self, g, folds, fraction, epochs):
        # folds with fewer clients have no client g; the rest keep their order
        self.folds = np.array([f for f, c in enumerate(folds) if g < len(c)])
        shards = [folds[f][g] for f in self.folds]
        self.g, self.epochs = g, epochs
        self.n = [d.n for d in shards]
        self.batch = [max(1, int(round(fraction * n))) for n in self.n]
        self.offsets = np.cumsum([0] + self.n[:-1])
        self.signed = np.vstack([d.y[:, None] * d.X for d in shards])
        # the server's averaging weights, and 2c with c = 1/(10 n)
        self.weights = np.array([n / sum(d.n for d in folds[f])
                                 for f, n in zip(self.folds, self.n)])[:, None, None]
        two_c = np.array([2.0 * (1.0 / (10.0 * n)) for n in self.n])[:, None, None]
        # step s of every epoch: the folds with a batch there, grouped by
        # where it starts and its length, with their 2c
        steps = [-(-n // b) for n, b in zip(self.n, self.batch)]
        self.groups = []
        for s in range(max(steps)):
            spans = {}
            for i, (n, b, k) in enumerate(zip(self.n, self.batch, steps)):
                if s < k:
                    spans.setdefault((s * b, min(b, n - s * b)), []).append(i)
            self.groups.append([])
            for (start, length), members in sorted(spans.items()):
                if len(members) == len(self.n):
                    members = slice(None)
                self.groups[-1].append((start, length, members, two_c[members]))

    def batches(self, seed, t):
        """Row indices into `signed`, (epochs, folds, largest shard): fold
        i's epoch e visits rows[e, i, :n] in order, one batch after the
        next."""
        rows = np.zeros((self.epochs, len(self.n), max(self.n)), dtype=np.intp)
        for i, (n, b, offset) in enumerate(zip(self.n, self.batch, self.offsets)):
            if b >= n:
                rows[:, i, :n] = offset + np.arange(n)
            else:
                rng = np.random.default_rng([seed, self.g, t])
                for e in range(self.epochs):
                    rows[e, i, :n] = offset + rng.permutation(n)
        return rows

    def local_epochs(self, W, seed, t, step, prox_mu):
        """Every run's local model after `epochs` epochs from the global
        iterates W (folds, step sizes, P), for the folds with client g."""
        W_round = W[self.folds]
        W_g = W_round.copy()
        # one epoch's rows at a time: (folds, largest shard, P)
        for rows in self.signed[self.batches(seed, t)]:
            for groups in self.groups:
                for start, length, members, two_c in groups:
                    W_g[members] = _minibatch_step(
                        W_g[members], W_round[members], rows[members, start:start + length],
                        length, two_c, step, prox_mu)
        return W_g


def _minibatch_step(W, W_round, Yb, length, two_c, step, prox_mu):
    """One l2-hinge subgradient step for each run of a group of folds
    whose batches have the same length. W, W_round: (folds, step sizes,
    P); Yb: (folds, length, P), shared by the runs of a fold. Same
    arithmetic as w - step * (l2_hinge_subgradient(w, yb, c) +
    prox_mu * (w - w_round)) per run at P >= 2; the margins come from one
    gemv per run over exactly its batch (one dot for a single row), as
    yb @ w does. At P = 1 numpy sums the active column pairwise, so there
    the masked row sum is a few ulps off that rule."""
    shared = Yb[:, None]
    active = shared @ W[..., None] < 1.0
    # inactive rows add exact zeros to the row-by-row sum
    sums = np.add.reduce(active * shared, axis=2)
    grad = two_c * W - sums / length
    if prox_mu > 0.0:
        grad = grad + prox_mu * (W - W_round)
    return W - step * grad
