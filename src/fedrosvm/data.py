"""Dataset ingestion, normalization, client partitioning, and the
synthetic two-Gaussian generator.

Partitioning schemes mirror the experimental conditions: an even
stratified split, skewed client sizes, skewed class mixes (down-sampling
the over-demanded class, so the union may be smaller than the input),
both skews combined, and label flipping applied across the pooled
training shards after splitting. Everything is seeded and reproducible.
"""

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DatasetView


class CsvFormatError(ValueError):
    """File structure problems: not parseable, ragged rows, no data rows,
    or a missing label column."""


class NonNumericFeatureError(ValueError):
    pass


class UnknownLabelError(ValueError):
    pass


def load_csv(path, label_column, positive_label):
    """Read a UTF-8 comma-separated file with a header row into a dataset;
    the feature columns keep the file's order, without the label column.

    Rows with the label value `positive_label` map to +1; the single
    remaining label value maps to -1. More than two distinct label values
    is an error, as is a non-numeric or non-finite feature cell or a
    ragged row.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: file is empty")
        rows = list(reader)
    if label_column not in header:
        raise CsvFormatError(
            f"{path}: no column named {label_column!r} (have {header})"
        )
    if not rows:
        raise CsvFormatError(f"{path}: header only, no data rows")
    label_idx = header.index(label_column)

    X = np.empty((len(rows), len(header) - 1))
    raw_labels = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}"
            )
        raw_labels.append(row[label_idx].strip())
        j = 0
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                X[r, j] = float(cell)
            except ValueError:
                raise NonNumericFeatureError(
                    f"{path}: row {r + 2}, column {header[i]!r}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
            if not math.isfinite(X[r, j]):
                # float() reads nan and inf, which would zero the feature
                # in min-max scaling
                raise NonNumericFeatureError(
                    f"{path}: row {r + 2}, column {header[i]!r}: "
                    f"{cell!r} is not a finite number"
                )
            j += 1

    positive = str(positive_label)
    others = sorted(set(raw_labels) - {positive})
    if len(others) > 1:
        raise UnknownLabelError(
            f"{path}: labels besides {positive!r} are not binary: {others}"
        )
    label_map = {positive: 1}
    if others:
        label_map[others[0]] = -1
    y = np.array([label_map[v] for v in raw_labels])
    return DatasetView(X=X, y=y)


# ------------------------------------------------------------ normalization


@dataclass(frozen=True)
class MinMaxStats:
    mins: np.ndarray
    maxs: np.ndarray


def fit_minmax(data):
    """Per-feature minima and maxima from training rows (pass the training
    table or view only; test rows are scaled with these statistics)."""
    X = data.X if hasattr(data, "X") else np.asarray(data, dtype=float)
    return MinMaxStats(mins=X.min(axis=0).copy(), maxs=X.max(axis=0).copy())


def apply_minmax(data, stats):
    """Scale into [0, 1] with the fitted statistics. Out-of-range values
    (possible on held-out rows) are clipped; a feature that was constant
    during fitting maps to 0."""
    span = stats.maxs - stats.mins
    safe = np.where(span > 0.0, span, 1.0)
    X = (data.X - stats.mins) / safe
    X = np.where(span > 0.0, X, 0.0)
    np.clip(X, 0.0, 1.0, out=X)
    return DatasetView(X=X, y=np.asarray(data.y).copy())


# ------------------------------------------------------------- partitioning


class PartitionScheme(Enum):
    EVEN = "even"
    CLIENT_IMBALANCE = "client_imbalance"
    CLASS_IMBALANCE = "class_imbalance"
    CLIENT_PLUS_CLASS = "client_plus_class"
    LABEL_NOISE = "label_noise"


@dataclass(frozen=True)
class PartitionPlan:
    scheme: PartitionScheme
    G: int
    seed: int
    client_fractions: tuple = None
    class_fractions: tuple = None
    noise_rate: float = None

    def __post_init__(self):
        if self.G < 1:
            raise ValueError(f"G must be >= 1, got {self.G}")
        needs_client = self.scheme in (
            PartitionScheme.CLIENT_IMBALANCE, PartitionScheme.CLIENT_PLUS_CLASS
        )
        needs_class = self.scheme in (
            PartitionScheme.CLASS_IMBALANCE, PartitionScheme.CLIENT_PLUS_CLASS
        )
        if needs_client:
            if self.client_fractions is None or len(self.client_fractions) != self.G:
                raise ValueError("client_fractions must list one share per client")
            self._check_fractions(self.client_fractions, "client_fractions")
        if needs_class:
            if self.class_fractions is None or len(self.class_fractions) != 2:
                raise ValueError("class_fractions must be (positive share, negative share)")
            self._check_fractions(self.class_fractions, "class_fractions")
        if self.scheme is PartitionScheme.LABEL_NOISE:
            if self.noise_rate is None or not (0.0 <= self.noise_rate <= 1.0):
                raise ValueError(f"noise_rate must be in [0, 1], got {self.noise_rate}")

    @staticmethod
    def _check_fractions(fractions, name):
        arr = np.asarray(fractions, dtype=float)
        if not (arr > 0.0).all():  # NaN fails this too
            raise ValueError(f"{name} must be positive")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError(f"{name} must sum to 1, got {arr.sum()!r}")


def largest_remainder(fractions, total):
    """Integer apportionment of `total` by the given shares; remainders go
    to the largest fractional parts (ties to the lower index)."""
    shares = np.asarray(fractions, dtype=float) * total
    counts = np.floor(shares).astype(int)
    leftover = total - counts.sum()
    if leftover > 0:
        order = np.argsort(-(shares - counts), kind="stable")
        counts[order[:leftover]] += 1
    return counts


def _stratified_indices(data, fractions, rng):
    """Per-client index lists where every class is apportioned by the same
    shares, so each client mirrors the global class mix to rounding."""
    G = len(fractions)
    out = [[] for _ in range(G)]
    for label in (1, -1):
        pool = np.flatnonzero(data.y == label)
        if pool.size == 0:
            continue
        pool = rng.permutation(pool)
        counts = largest_remainder(fractions, pool.size)
        offset = 0
        for g in range(G):
            out[g].append(pool[offset:offset + counts[g]])
            offset += counts[g]
    return [np.concatenate(chunks) if chunks else np.array([], dtype=int)
            for chunks in out]


def _class_skewed_indices(data, sizes, class_fractions, rng):
    """Fill each client to its target size at the requested class mix,
    consuming shuffled per-class pools. Raises if the pools cannot cover
    the demand (callers shrink sizes until this fits)."""
    pools = {label: list(rng.permutation(np.flatnonzero(data.y == label)))
             for label in (1, -1)}
    out = []
    for size in sizes:
        k_pos = int(round(class_fractions[0] * size))
        k_neg = size - k_pos
        if k_pos > len(pools[1]) or k_neg > len(pools[-1]):
            raise ValueError("class pools exhausted")
        picked = [pools[1].pop() for _ in range(k_pos)]
        picked += [pools[-1].pop() for _ in range(k_neg)]
        out.append(np.array(picked, dtype=int))
    return out


def _max_feasible_total(data, client_fractions, class_fractions):
    """Largest total sample count whose per-client class demands fit the
    available class pools after down-sampling."""
    n_pos = int((data.y == 1).sum())
    n_neg = int((data.y == -1).sum())
    for total in range(data.n, 0, -1):
        sizes = largest_remainder(client_fractions, total)
        if (sizes < 1).any():
            continue
        k_pos = np.array([int(round(class_fractions[0] * s)) for s in sizes])
        k_neg = sizes - k_pos
        if (k_neg < 0).any():
            continue
        if k_pos.sum() <= n_pos and k_neg.sum() <= n_neg:
            return total
    raise ValueError("no feasible class-skewed split for this dataset")


def partition(data, plan):
    """Split a dataset into per-client views according to the plan. The
    outputs are copies: corrupting a shard never touches the input."""
    if data.n < plan.G:
        raise ValueError(f"cannot give {plan.G} clients at least one of {data.n} samples")
    rng = np.random.default_rng(plan.seed)
    even = np.full(plan.G, 1.0 / plan.G)

    if plan.scheme in (PartitionScheme.EVEN, PartitionScheme.LABEL_NOISE):
        idx = _stratified_indices(data, even, rng)
    elif plan.scheme is PartitionScheme.CLIENT_IMBALANCE:
        idx = _stratified_indices(data, plan.client_fractions, rng)
    elif plan.scheme is PartitionScheme.CLASS_IMBALANCE:
        total = _max_feasible_total(data, even, plan.class_fractions)
        sizes = largest_remainder(even, total)
        idx = _class_skewed_indices(data, sizes, plan.class_fractions, rng)
    elif plan.scheme is PartitionScheme.CLIENT_PLUS_CLASS:
        total = _max_feasible_total(data, plan.client_fractions, plan.class_fractions)
        sizes = largest_remainder(plan.client_fractions, total)
        idx = _class_skewed_indices(data, sizes, plan.class_fractions, rng)
    else:
        raise ValueError(f"unhandled scheme {plan.scheme}")

    if any(chunk.size == 0 for chunk in idx):
        raise ValueError("fractions leave at least one client empty")
    shards = [data.subset(chunk) for chunk in idx]

    if plan.scheme is PartitionScheme.LABEL_NOISE:
        total = sum(s.n for s in shards)
        flips = int(round(plan.noise_rate * total))
        chosen = rng.choice(total, size=flips, replace=False)
        bounds = np.cumsum([0] + [s.n for s in shards])
        for pos in chosen:
            g = int(np.searchsorted(bounds, pos, side="right")) - 1
            row = int(pos - bounds[g])
            shards[g].y[row] = -shards[g].y[row]
    return shards


# ---------------------------------------------------------------- synthetic


@dataclass(frozen=True)
class SyntheticSpec:
    N: int
    P: int
    G: int
    class_sep: float = 2.4
    seed: int = 0

    def __post_init__(self):
        if self.N < 2 * self.G:
            raise ValueError(f"need N >= 2G, got N={self.N}, G={self.G}")
        if self.P < 1:
            raise ValueError(f"P must be >= 1, got {self.P}")
        if not (self.class_sep > 0.0 and np.isfinite(self.class_sep)):
            raise ValueError(f"class_sep must be positive and finite, got {self.class_sep}")


def generate_synthetic(spec):
    """Balanced two-class Gaussian data: unit-variance isotropic clouds at
    two opposite corners of the origin-centered P-cube with side
    `class_sep`. The vertex pair alternates sign per coordinate
    (+, -, +, ...), so the classes stay linearly separable through the
    origin even after min-max scaling pushes all features into [0, 1];
    the all-ones corner pair would collapse onto one direction there and
    no bias-free classifier could split it. Per-coordinate mean gap is
    `class_sep` either way. Odd N gives the positive class the extra
    sample. Rows are shuffled."""
    rng = np.random.default_rng(spec.seed)
    n_pos = spec.N - spec.N // 2
    n_neg = spec.N // 2
    vertex = (spec.class_sep / 2.0) * np.where(np.arange(spec.P) % 2 == 0, 1.0, -1.0)
    X = np.vstack([
        vertex + rng.normal(size=(n_pos, spec.P)),
        -vertex + rng.normal(size=(n_neg, spec.P)),
    ])
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    perm = rng.permutation(spec.N)
    return DatasetView(X=X[perm], y=y[perm])


def split_train_test(data, test_fraction=0.3, seed=0):
    """Stratified train/test split (default 70/30): each class contributes
    its share of test rows by largest remainder, seeded."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for label in (1, -1):
        pool = rng.permutation(np.flatnonzero(data.y == label))
        n_test = int(round(test_fraction * pool.size))
        test_idx.append(pool[:n_test])
        train_idx.append(pool[n_test:])
    train = data.subset(np.concatenate(train_idx))
    test = data.subset(np.concatenate(test_idx))
    return train, test
