"""Shared primitives: datasets, models, norms, losses, and evaluation metrics.

Everything downstream (worst-case construction, federation, baselines) is built
on the small vocabulary defined here: a dataset of rows x with labels y in
{-1, +1}, a linear model w, the feature-space norm of the transportation cost
with its dual, and the hinge loss max{0, 1 - y<w,x>} evaluated over whole rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormKind",
    "DatasetView",
    "GlobalModel",
    "Metrics",
    "hinge_losses",
    "dual_norm",
    "evaluate",
]


class NormKind(enum.Enum):
    """Feature-space norm used in the transportation cost."""

    L1 = "l1"
    LINF = "linf"


@dataclass
class DatasetView:
    """An ordered collection of labeled samples backed by dense arrays.

    Parameters
    ----------
    X : (N, P) array
        Feature rows.
    y : (N,) array
        Labels in {-1, +1}.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-d (N, P)")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match number of rows in X")
        bad = ~np.isin(self.y, (-1, 1))
        if bad.any():
            raise ValueError(f"labels must be -1/+1, offending value {self.y[bad][0]!r}")
        self.y = self.y.astype(int)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "DatasetView":
        idx = np.asarray(idx)
        return DatasetView(self.X[idx].copy(), self.y[idx].copy())


@dataclass
class GlobalModel:
    """Linear classifier; predicts sign(<w, x>) with ties going to +1."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 1:
            raise ValueError("w must be a 1-d vector")

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = np.asarray(X, dtype=float) @ self.w
        return np.where(scores >= 0.0, 1, -1)


@dataclass
class Metrics:
    """Binary classification metrics with +1 as the positive class.

    ``confusion`` is [[TP, FN], [FP, TN]]. ``mccr`` is the macro-averaged
    per-class accuracy (classes absent from the data are left out of the
    average). ``f1`` is 0 when the denominator 2TP + FP + FN vanishes.
    """

    f1: float
    mccr: float
    confusion: np.ndarray
    n: int = 0

    def __post_init__(self):
        self.confusion = np.asarray(self.confusion, dtype=int)


def hinge_losses(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized hinge losses over rows of X."""
    margins = y * (np.asarray(X, dtype=float) @ np.asarray(w, dtype=float))
    return np.maximum(0.0, 1.0 - margins)


def dual_norm(v: np.ndarray, norm: NormKind) -> float:
    """Dual of ``norm`` evaluated at v: L1 -> max|v_i|, LInf -> sum|v_i|."""
    v = np.asarray(v, dtype=float)
    if norm is NormKind.L1:
        return float(np.abs(v).max()) if v.size else 0.0
    return float(np.abs(v).sum())


def evaluate(model: GlobalModel, data: DatasetView) -> Metrics:
    """Confusion counts, F1 for the +1 class, and macro-averaged accuracy."""
    pred = model.predict(data.X)
    y = data.y
    tp = int(np.sum((y == 1) & (pred == 1)))
    fn = int(np.sum((y == 1) & (pred == -1)))
    fp = int(np.sum((y == -1) & (pred == 1)))
    tn = int(np.sum((y == -1) & (pred == -1)))

    denom = 2 * tp + fp + fn
    f1 = 2.0 * tp / denom if denom > 0 else 0.0

    rates = []
    if tp + fn > 0:
        rates.append(tp / (tp + fn))
    if tn + fp > 0:
        rates.append(tn / (tn + fp))
    mccr = float(np.mean(rates)) if rates else 0.0

    return Metrics(f1=f1, mccr=mccr, confusion=[[tp, fn], [fp, tn]], n=data.n)
