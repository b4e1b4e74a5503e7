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
weight stack whose runs share each fold's batches. Its clients are one
stack of (fold, client) pairs, so a minibatch step is one call over every
pair whose batch starts at the same row and has the same length, however
many clients there are. train_fed_l2_svm is its one-run view, and every
stacked run equals that lone run bit for bit.
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


def train_fed_l2_svm(client_data, cfg, seed):
    """Run T federated rounds of the configured variant and return the
    final model.

    FedSGD overrides local_epochs and batch_fraction so each client takes
    exactly one full-batch step per round. Full batches keep the natural
    row order; partial batches are drawn without replacement from a fresh
    permutation each epoch. This is the one-run view of
    train_fed_l2_stack.
    """
    iterates = train_fed_l2_stack([client_data], cfg, seed, [cfg.gamma0])[0, 0]
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
    those of train_fed_l2_svm on that fold with that gamma0: the runs of
    one (fold, client) pair share its batches; at each step of an epoch,
    the pairs of every fold and client whose batches start at the same
    row and have the same length share one `_minibatch_step` call, whose
    matmul gives each run a product over exactly its own rows; a pair
    without a batch at a step leaves its runs unchanged; and each fold's
    server adds its clients in client order.
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
    clients = _StackedClients(folds, fraction, epochs)
    iterates = np.empty((F, K, cfg.T, p))
    W = np.zeros((F, K, p))
    for t in range(1, cfg.T + 1):
        W_g = clients.local_epochs(W, seed, t, gamma0s / t, prox_mu)
        aggregated = np.zeros((F, K, p))
        for pairs in clients.by_client:
            aggregated[clients.fold[pairs]] += clients.weights[pairs] * W_g[pairs]
        W = aggregated
        iterates[:, :, t - 1] = W
    return iterates


class _StackedClients:
    """Every (fold, client) pair of a stacked run, ordered client by
    client (client 0 of every fold that has one, then client 1, ...): the
    pairs' signed rows (labels folded into the features, exact for
    y = +-1) stored pair after pair, and their batch layout, which depends
    on the shard size only."""

    def __init__(self, folds, fraction, epochs):
        pairs = [(f, g) for g in range(max(len(c) for c in folds))
                 for f, clients in enumerate(folds) if g < len(clients)]
        shards = [folds[f][g] for f, g in pairs]
        self.epochs = epochs
        self.fold = np.array([f for f, _ in pairs])
        self.client = [g for _, g in pairs]
        # client g's pairs, a slice: the server adds clients in this order
        counts = np.bincount(self.client)
        self.by_client = [slice(end - count, end)
                          for end, count in zip(np.cumsum(counts), counts)]
        self.n = [d.n for d in shards]
        self.batch = [max(1, int(round(fraction * n))) for n in self.n]
        self.offsets = np.cumsum([0] + self.n[:-1])
        self.signed = np.vstack([d.y[:, None] * d.X for d in shards])
        # the server's averaging weights, and 2c with c = 1/(10 n)
        self.weights = np.array([n / sum(d.n for d in folds[f])
                                 for f, n in zip(self.fold, self.n)])[:, None, None]
        two_c = np.array([2.0 * (1.0 / (10.0 * n)) for n in self.n])[:, None, None]
        # step s of every epoch: the pairs with a batch there, grouped by
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
        """Row indices into `signed`, (epochs, pairs, largest shard): pair
        i's epoch e visits rows[e, i, :n] in order, one batch after the
        next. Client g of every fold draws from default_rng([seed, g, t]),
        as in a lone run, so the pairs of one client whose shards have the
        same size share their permutations."""
        rows = np.zeros((self.epochs, len(self.n), max(self.n)), dtype=np.intp)
        drawn = {}
        for i, (g, n, b, offset) in enumerate(zip(self.client, self.n, self.batch,
                                                  self.offsets)):
            if b >= n:
                rows[:, i, :n] = offset + np.arange(n)
                continue
            if (g, n) not in drawn:
                rng = np.random.default_rng([seed, g, t])
                drawn[g, n] = np.stack([rng.permutation(n) for _ in range(self.epochs)])
            rows[:, i, :n] = offset + drawn[g, n]
        return rows

    def local_epochs(self, W, seed, t, step, prox_mu):
        """Every run's local model, (pairs, step sizes, P), after `epochs`
        epochs from the global iterates W (folds, step sizes, P)."""
        W_round = W[self.fold]
        W_g = W_round.copy()
        # one epoch's rows at a time: (pairs, largest shard, P)
        for rows in self.signed[self.batches(seed, t)]:
            for groups in self.groups:
                for start, length, members, two_c in groups:
                    W_g[members] = _minibatch_step(
                        W_g[members], W_round[members], rows[members, start:start + length],
                        length, two_c, step, prox_mu)
        return W_g


def _minibatch_step(W, W_round, Yb, length, two_c, step, prox_mu):
    """One l2-hinge subgradient step for each run of a group of pairs
    whose batches have the same length. W, W_round: (pairs, step sizes,
    P); Yb: (pairs, length, P), shared by the runs of a pair. Same
    arithmetic as w - step * (l2_hinge_subgradient(w, yb, c) +
    prox_mu * (w - w_round)) per run at P >= 2; the margins come from one
    gemv per run over exactly its batch (one dot for a single row), as
    yb @ w does. The masked rows are added one after the other, as a
    reduction over the rows of a (rows, P) block adds them at P >= 2; at
    P = 1 numpy sums such a block pairwise, so there the masked row sum is
    a few ulps off that rule."""
    active = (Yb[:, None] @ W[..., None] < 1.0).transpose(0, 1, 3, 2).astype(float)
    # (pairs, step sizes, P, rows): inactive rows add exact zeros, and the
    # last of the running sums along the rows is their row-by-row sum; a
    # reduction starts from +0.0, which the added 0.0 supplies for a sum of
    # zeros only
    terms = active * Yb.transpose(0, 2, 1)[:, None]
    sums = np.add.accumulate(terms, axis=3)[..., -1] + 0.0
    grad = two_c * W - sums / length
    if prox_mu > 0.0:
        grad = grad + prox_mu * (W - W_round)
    return W - step * grad
