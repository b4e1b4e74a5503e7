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
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import GlobalModel, NormKind
from .robust import ClientConfig, build_risk_epigraph_qp
from .solver import SolverStatus, solve


@dataclass(frozen=True)
class CentralDrConfig:
    epsilon: float
    kappa: float = 1.0
    norm: NormKind = NormKind.L1

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")


def train_central_dr_svm(data, cfg):
    """Solve the pooled robust hinge program (epigraph form, no proximal
    term) and return the optimal weights."""
    ccfg = ClientConfig(epsilon=cfg.epsilon, kappa=cfg.kappa, norm=cfg.norm)
    sol = solve(build_risk_epigraph_qp(data, ccfg))
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
        if self.gamma0 <= 0.0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if not (0.0 < self.batch_fraction <= 1.0):
            raise ValueError(
                f"batch_fraction must be in (0, 1], got {self.batch_fraction}"
            )
        if self.prox_mu < 0.0:
            raise ValueError(f"prox_mu must be nonnegative, got {self.prox_mu}")


def l2_hinge_subgradient(w, yX, c):
    """Subgradient of mean hinge + c||w||^2 over the given rows of
    yX = y[:, None] * X (labels folded into the features, so the margins
    are yX @ w). At the hinge kink (margin exactly 1) the zero branch is
    taken."""
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
    permutation each epoch.
    """
    G = len(client_data)
    if G < 1:
        raise ValueError("at least one client dataset is required")
    dims = {d.p for d in client_data}
    if len(dims) != 1:
        raise ValueError(f"clients disagree on feature dimension: {sorted(dims)}")
    p = dims.pop()

    if cfg.variant is FedVariant.FEDSGD:
        epochs, fraction = 1, 1.0
    else:
        epochs, fraction = cfg.local_epochs, cfg.batch_fraction
    prox_mu = cfg.prox_mu if cfg.variant is FedVariant.FEDPROX else 0.0

    n_total = sum(d.n for d in client_data)
    weights = np.array([d.n / n_total for d in client_data])
    penalties = [1.0 / (10.0 * d.n) for d in client_data]
    # y = +-1, so folding the labels into the features is exact
    signed = [d.y[:, None] * d.X for d in client_data]

    w = np.zeros(p)
    for t in range(1, cfg.T + 1):
        step = cfg.gamma0 / t
        aggregated = np.zeros(p)
        for g, data in enumerate(client_data):
            batch = max(1, int(round(fraction * data.n)))
            rng = np.random.default_rng([seed, g, t])
            w_g = w.copy()
            for _ in range(epochs):
                if batch >= data.n:
                    order = np.arange(data.n)
                else:
                    order = rng.permutation(data.n)
                for start in range(0, data.n, batch):
                    idx = order[start:start + batch]
                    grad = l2_hinge_subgradient(w_g, signed[g][idx], penalties[g])
                    if prox_mu > 0.0:
                        grad = grad + prox_mu * (w_g - w)
                    w_g = w_g - step * grad
            aggregated += weights[g] * w_g
        w = aggregated
        if trace is not None:
            trace.append(w.copy())
    return GlobalModel(w=w)
