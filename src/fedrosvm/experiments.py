"""Experiment driver: declarative run configs, cross-validated grid
search, seeded repetition pipelines, and result files.

A config names a dataset (CSV file or synthetic generator), a partition
plan, one model, a hyperparameter grid, and repetition/CV settings. Each
repetition i uses seed base_seed + i for its shuffle/split, normalization
fit, partitioning/corruption, CV folds, and training, so a config and a
base seed fully determine every reported number except wall times.

Model names are the values of `federation.Algorithm` (sm, admm, admm_sc)
and `baselines.FedVariant` (fedsgd, fedavg, fedprox), plus central_dr for
the pooled robust model. Each per-model decision is made once: the client
configs of every robust model (federated or pooled) in `_client_configs`,
and the iterate a federated run keeps in `kept_models`, which `cli serve`
reads too.

The round-count grid is nested rather than crossed: federated training at
the largest T in the grid yields snapshots at every smaller T along the
way (round prefixes are unaffected by later rounds), which keeps grid
search affordable. The l2 baselines go one step further: their grid
points differ only in the step size, so cross-validation trains every
fold and every step size in one stacked run (baselines.train_fed_l2_stack),
with the same iterates as one run per fold and point. ADMM and ADMM-SC
cross-validation advances every (fold, grid point) federation in
lockstep: each round solves all of their client QPs together in one
stacked interior-point solve (one robust.ProximalSteps over every client
of every federation, which keeps their QPs and warm starts and lays out
one solver.ProgramStack per cross-validation), then each federation makes
its server update with federation.admm_server_update, the rule
run_federation aggregates with. Those models agree with one
run_federation per fold and point to solver roundoff. The final fit at
the chosen point, like every other lone run, goes through run_federation.
"""

import csv
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .baselines import (
    FedBaselineConfig,
    FedVariant,
    train_central_dr_svm,
    train_fed_l2_stack,
    train_fed_l2_svm,
)
from .core import DatasetView, GlobalModel, NormKind, evaluate
from .data import (
    PartitionPlan,
    PartitionScheme,
    SyntheticSpec,
    apply_minmax,
    fit_minmax,
    generate_synthetic,
    load_csv,
    partition,
    split_train_test,
)
from .federation import (
    Algorithm,
    FederationConfig,
    RoundTrace,
    admm_server_update,
    run_federation,
    warn_above_rho_cap,
)
from .robust import (
    ClientConfig,
    ProximalSteps,
    multiplier_step,
    radius_heuristic,
)


class ConfigError(ValueError):
    pass


# model names are the enum values: the federated algorithms, the l2
# baselines, and the pooled robust model
FEDERATED_MODELS = sorted(a.value for a in Algorithm)
L2_BASELINES = sorted(v.value for v in FedVariant)
MODEL_NAMES = FEDERATED_MODELS + L2_BASELINES + ["central_dr"]
NORMS = {"l1": NormKind.L1, "linf": NormKind.LINF}

_ROUNDS = [5, 10, 20, 60, 100, 140, 180, 220]
_DECADES = [1e-3, 1e-2, 1e-1, 1e0]  # the ADMM rho and the l2 baselines' gamma0
DEFAULT_GRIDS = {
    "sm": {"gamma0": [1e0, 1e1, 1e2, 1e3], "T": [100, 140, 180, 220]},
    "admm": {"rho": _DECADES, "T": _ROUNDS},
    "admm_sc": {"rho": _DECADES, "T": _ROUNDS},
    "central_dr": {"epsilon": [1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
                   "kappa": [0.1, 0.25, 0.5, 0.75, 1.0]},
    **{name: {"gamma0": _DECADES, "T": _ROUNDS} for name in L2_BASELINES},
}

# the grid keys each model reads; T is the nested round grid
_FEDERATED_KNOBS = ("T", "kappa", "epsilon", "beta")
TUNABLE = {
    "sm": {"gamma0", *_FEDERATED_KNOBS},
    "admm": {"rho", *_FEDERATED_KNOBS},
    "admm_sc": {"rho", *_FEDERATED_KNOBS},
    "central_dr": {"epsilon", "beta", "kappa"},
    **{name: {"gamma0", "T"} for name in L2_BASELINES},
}

DEFAULT_FIXED = {
    "kappa": 1.0,           # label-flip cost at every client
    "beta": 10.0,           # radius heuristic epsilon_g = 1/(beta*N_g)
    "epsilon": None,        # explicit radius overrides the heuristic
    "norm": "l1",
    "tau_factor": 18.0,     # strongly convex weight tau_g = tau_factor*rho
    "local_epochs": 5,
    "batch_fraction": 0.2,
    "prox_mu": 1.0,
}

# Each knob a grid or the fixed block can set, but T and the norm, is checked
# by the class that takes it at run time, after the conversion the run
# applies (`_client_configs`, `_radius`, `federation_config`,
# `baseline_config`); a round count is an integer, as T is.
_KNOB_CHECKS = {
    "rho": lambda v: ClientConfig(epsilon=1.0, rho=v),
    "gamma0": lambda v: FedBaselineConfig(FedVariant.FEDAVG, gamma0=v),
    "kappa": lambda v: ClientConfig(epsilon=1.0, kappa=v),
    "beta": lambda v: ClientConfig(epsilon=radius_heuristic(1, v)),
    "epsilon": lambda v: v is None or ClientConfig(epsilon=v),
    "tau_factor": lambda v: ClientConfig(epsilon=1.0, tau=v),
    "local_epochs": lambda v: _check_count(v, "local_epochs", 1),
    "batch_fraction": lambda v: FedBaselineConfig(FedVariant.FEDAVG, batch_fraction=float(v)),
    "prox_mu": lambda v: FedBaselineConfig(FedVariant.FEDAVG, prox_mu=float(v)),
}


# the keys a dataset block of each kind and a partition block may set
_DATASET_KEYS = {
    "synthetic": {"kind", "N", "P", "class_sep"},
    "csv": {"kind", "path", "label_column", "positive_label"},
}
_PARTITION_KEYS = {"scheme", "G", "client_fractions", "class_fractions", "noise_rate"}


def _check_keys(block, what, known):
    unknown = sorted(set(block) - known)
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}; known keys are {sorted(known)}")


def _check_count(value, what, low):
    """Reject anything but an integer >= low: bools, floats and strings too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")


def _check_knob(where, key, value):
    """Run a knob's check on one value; the error names where it was set
    (grid or fixed) and the key."""
    try:
        _KNOB_CHECKS[key](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} {key!r}: {exc}") from None


@dataclass
class ExperimentConfig:
    name: str
    dataset: dict
    partition: dict
    model: str
    grid: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)
    cv_folds: int = 5
    repetitions: int = 10
    base_seed: int = 0
    test_fraction: float = 0.3
    output: str = None
    raw_text: str = None

    @classmethod
    def from_dict(cls, doc, raw_text=None):
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)} - {"raw_text"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("name", "dataset", "partition", "model"):
            if key not in doc:
                raise ConfigError(f"config is missing {key!r}")
        if not (isinstance(doc["name"], str) and doc["name"]):
            raise ConfigError(f"name must be a non-empty string, got {doc['name']!r}")
        for key in ("dataset", "partition", "grid", "fixed"):
            if not isinstance(doc.get(key, {}), dict):
                raise ConfigError(f"{key} must be a JSON object, got {doc[key]!r}")
        cfg = cls(
            name=doc["name"],
            dataset=dict(doc["dataset"]),
            partition=dict(doc["partition"]),
            model=str(doc["model"]).lower(),
            grid=dict(doc.get("grid", {})),
            fixed=dict(doc.get("fixed", {})),
            cv_folds=doc.get("cv_folds", 5),
            repetitions=doc.get("repetitions", 10),
            base_seed=doc.get("base_seed", 0),
            test_fraction=doc.get("test_fraction", 0.3),
            output=doc.get("output"),
            raw_text=raw_text,
        )
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}")
        return cls.from_dict(doc, raw_text=text)

    def validate(self):
        if self.model not in MODEL_NAMES:
            raise ConfigError(f"unknown model {self.model!r}, expected one of {MODEL_NAMES}")
        kind = self.dataset.get("kind")
        if kind == "csv":
            for key in ("path", "label_column", "positive_label"):
                if key not in self.dataset:
                    raise ConfigError(f"csv dataset needs {key!r}")
            path = self.dataset["path"]
            if not (isinstance(path, str) and os.path.isfile(path)):
                raise ConfigError(f"csv dataset 'path' is not a file: {path!r}")
        elif kind == "synthetic":
            for key in ("N", "P"):
                if key not in self.dataset:
                    raise ConfigError(f"synthetic dataset needs {key!r}")
                _check_count(self.dataset[key], f"dataset {key!r}", 1)
        else:
            raise ConfigError(f"dataset kind must be 'csv' or 'synthetic', got {kind!r}")
        _check_keys(self.dataset, f"{kind} dataset", _DATASET_KEYS[kind])
        _check_keys(self.partition, "partition", _PARTITION_KEYS)
        for key, low in (("cv_folds", 2), ("repetitions", 1), ("base_seed", 0)):
            _check_count(getattr(self, key), key, low)
        try:
            PartitionScheme(self.partition.get("scheme"))
        except ValueError:
            raise ConfigError(f"unknown partition scheme {self.partition.get('scheme')!r}")
        _check_count(self.partition.get("G"), "partition 'G'", 1)
        try:
            _partition_plan(self, self.base_seed)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"partition: {exc}") from None
        if kind == "synthetic":
            try:
                _synthetic_spec(self, self.base_seed)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"dataset: {exc}") from None
        grid = self.grid or DEFAULT_GRIDS[self.model]
        for knob, values in grid.items():
            if knob not in TUNABLE[self.model]:
                raise ConfigError(
                    f"grid key {knob!r} is not tuned by model {self.model!r}; "
                    f"it tunes {sorted(TUNABLE[self.model])}")
            if not isinstance(values, list):
                raise ConfigError(f"grid for {knob!r} must be a list, got {values!r}")
            if not values:
                raise ConfigError(f"grid for {knob!r} is empty")
            if knob in _KNOB_CHECKS:
                for value in values:
                    _check_knob("grid", knob, value)
        self.grid = {k: list(v) for k, v in grid.items()}
        if self.model != "central_dr" and "T" not in self.grid:
            raise ConfigError("federated models need a 'T' list in the grid")
        for t in self.grid.get("T", []):
            _check_count(t, "every round count in the 'T' grid", 1)
        for key in self.fixed:
            if key not in DEFAULT_FIXED:
                raise ConfigError(
                    f"unknown fixed key {key!r} for model {self.model!r}; "
                    f"known keys are {sorted(DEFAULT_FIXED)}")
        merged = dict(DEFAULT_FIXED)
        merged.update(self.fixed)
        self.fixed = merged
        if not (isinstance(self.fixed["norm"], str) and self.fixed["norm"] in NORMS):
            raise ConfigError(f"norm must be 'l1' or 'linf', got {self.fixed['norm']!r}")
        for key, value in self.fixed.items():
            if key in _KNOB_CHECKS:
                _check_knob("fixed", key, value)
        if self.model == "admm_sc" and not self.fixed["tau_factor"] > 0.0:
            raise ConfigError("fixed 'tau_factor': the strongly convex variant needs "
                              f"tau_factor > 0, got {self.fixed['tau_factor']!r}")
        tf = self.test_fraction
        if not (isinstance(tf, (int, float)) and 0.0 < tf < 1.0):
            raise ConfigError(f"test_fraction must be a number in (0, 1), got {tf!r}")
        if not (self.output is None or (isinstance(self.output, str) and self.output)):
            raise ConfigError(f"output must be null or a non-empty string, got {self.output!r}")

    def to_dict(self):
        doc = asdict(self)
        del doc["raw_text"]
        return doc


# ----------------------------------------------------------------- pipeline


def _synthetic_spec(cfg, seed):
    spec = cfg.dataset
    return SyntheticSpec(N=spec["N"], P=spec["P"], G=cfg.partition["G"],
                         class_sep=spec.get("class_sep", 2.4), seed=seed)


def build_dataset(cfg, seed):
    spec = cfg.dataset
    if spec["kind"] == "csv":
        return load_csv(spec["path"], spec["label_column"], spec["positive_label"])
    return generate_synthetic(_synthetic_spec(cfg, seed))


def prepare_repetition(cfg, seed):
    """One repetition's data plumbing: shuffle/split, fit and apply
    normalization, partition (and corrupt) the training side."""
    data = build_dataset(cfg, seed)
    train, test = split_train_test(data, cfg.test_fraction, seed)
    stats = fit_minmax(train)
    train = apply_minmax(train, stats)
    test = apply_minmax(test, stats)
    return partition(train, _partition_plan(cfg, seed)), test, stats


def _partition_plan(cfg, seed):
    part = cfg.partition
    return PartitionPlan(
        scheme=PartitionScheme(part["scheme"]), G=part["G"], seed=seed,
        client_fractions=tuple(part["client_fractions"]) if part.get("client_fractions") else None,
        class_fractions=tuple(part["class_fractions"]) if part.get("class_fractions") else None,
        noise_rate=part.get("noise_rate"),
    )


def pool(shards):
    return DatasetView(X=np.vstack([s.X for s in shards]),
                       y=np.concatenate([s.y for s in shards]))


def _radius(cfg, params, n):
    """Wasserstein radius of a client (or of the pooled data) with n
    samples: a gridded epsilon first, then the fixed one; a null epsilon
    means the heuristic 1/(beta*n), with beta gridded or fixed."""
    eps = params["epsilon"] if "epsilon" in params else cfg.fixed["epsilon"]
    if eps is None:
        eps = radius_heuristic(n, params.get("beta", cfg.fixed["beta"]))
    return eps


def _client_configs(cfg, params, shards):
    G = len(shards)
    kappa = params.get("kappa", cfg.fixed["kappa"])
    norm = NORMS[cfg.fixed["norm"]]
    tau = 0.0
    if cfg.model == "admm_sc":
        tau = cfg.fixed["tau_factor"] * _rho(params)
    return [ClientConfig(epsilon=_radius(cfg, params, s.n), kappa=kappa,
                         alpha=1.0 / G, norm=norm, tau=tau)
            for s in shards]


def _gamma0(params):
    """The step size of a grid point (sm and the l2 baselines)."""
    return float(params.get("gamma0", 1.0))


def _rho(params):
    """The ADMM penalty of a grid point (admm and admm_sc)."""
    return float(params.get("rho", 1.0))


def federation_config(cfg, params, shards, T):
    """The FederationConfig of a federated model (sm/admm/admm_sc) at one
    grid point, run for T rounds."""
    return FederationConfig(
        clients=_client_configs(cfg, params, shards),
        T=T,
        algorithm=Algorithm(cfg.model),
        gamma0=_gamma0(params),
        rho=_rho(params),
    )


def baseline_config(cfg, params, T):
    """The FedBaselineConfig of an l2 baseline (fedsgd/fedavg/fedprox) at
    one grid point, run for T rounds."""
    return FedBaselineConfig(
        variant=FedVariant(cfg.model),
        gamma0=_gamma0(params),
        T=T,
        local_epochs=cfg.fixed["local_epochs"],
        batch_fraction=float(cfg.fixed["batch_fraction"]),
        prox_mu=float(cfg.fixed["prox_mu"]),
    )


def kept_models(name, traces, t_grid):
    """{T: model} for every T in t_grid: what a federated run keeps after T
    rounds. sm keeps the best-objective iterate so far (the subgradient
    method only guarantees the best value converges), the first one on a
    tie as run_federation's w_best does; the ADMM variants keep the last."""
    out = {}
    best_w, best_obj = None, math.inf
    for tr in traces:
        if name != Algorithm.SM.value or tr.global_objective < best_obj:
            best_obj, best_w = tr.global_objective, tr.w_after
        if tr.t in t_grid:
            out[tr.t] = GlobalModel(w=best_w.copy())
    return out


def train_model(cfg, params, shards, seed):
    """Train the configured model at one grid point. Returns the model and
    a per-round telemetry list (empty for non-federated models and the
    l2 baselines)."""
    if cfg.model in L2_BASELINES:
        # a lone run goes through the public one-run view of the stacked
        # trainer, the name perfbench's traced run times
        return train_fed_l2_svm(shards, baseline_config(cfg, params, int(params["T"])), seed), []
    T = None if cfg.model == "central_dr" else int(params["T"])
    models, rounds = _snapshots_of_one_run(cfg, params, shards, [T])
    return models[T], rounds


def _snapshots_over_t(cfg, points, folds, t_grid, seed):
    """Train every grid point on every fold (a list of client shards) once,
    at max(t_grid), and read off the model at every requested round count.
    Round prefixes are unaffected by later rounds, so each snapshot equals
    a fresh run at that T. Returns runs[k][i] = ({T: model}, per-round
    telemetry) for fold k and point i; the central model takes
    t_grid = [None].

    The l2 baselines train all folds and points in one stacked run: their
    points differ only in gamma0 (validate() rejects any other grid key),
    so every fold and step size advance together, bit for bit as separate
    runs would. The ADMM variants advance every run in lockstep too
    (`_admm_lockstep`), to roundoff of separate runs and without telemetry."""
    if cfg.model in L2_BASELINES:
        gamma0s = [_gamma0(point) for point in points]
        iterates = train_fed_l2_stack(
            folds, baseline_config(cfg, {}, max(t_grid)), seed, gamma0s)
        return [[({t: GlobalModel(w=run[t - 1].copy()) for t in t_grid}, [])
                 for run in fold] for fold in iterates]
    if cfg.model in (Algorithm.ADMM.value, Algorithm.ADMM_SC.value):
        runs = _admm_lockstep([federation_config(cfg, point, shards, max(t_grid))
                               for shards in folds for point in points],
                              [shards for shards in folds for _ in points])
        snapshots = [(kept_models(cfg.model, traces, t_grid), []) for traces in runs]
        return [snapshots[k * len(points):(k + 1) * len(points)] for k in range(len(folds))]
    return [[_snapshots_of_one_run(cfg, point, shards, t_grid)
             for point in points] for shards in folds]


def _admm_lockstep(feds, client_data):
    """Run ADMM federations of one round count side by side, round by
    round, and return each one's per-round traces (t and w_after; the
    objective, the residual and the wall time are not measured and read
    NaN).

    The state is held in arrays, one row per (federation, client) pair:
    its multipliers mu_g and its new w_g. Every round takes the client
    steps of all federations together, through one `robust.ProximalSteps`
    kept for the whole run, which owns every client's QP and warm start:
    one `solver.ProgramStack` laid out on the first round, or `solve` when
    there is a single QP. Then each federation aggregates its own rows
    with `federation.admm_server_update`, and one `robust.multiplier_step`
    call folds every new model into its clients' multipliers, as
    `run_federation` does. With no wire between them, the server reads the
    clients' own multipliers, which its mirror in `run_federation` equals
    bit for bit. The models agree with `run_federation`'s to solver
    roundoff. `run_federation` stays the wire runtime; this loop has no
    transport and evaluates no objective."""
    for fed in feds:
        warn_above_rho_cap(fed)
    steps = ProximalSteps([(data, fed.clients[g], g)
                           for fed, shards in zip(feds, client_data)
                           for g, data in enumerate(shards)])
    sizes = [len(shards) for shards in client_data]
    fed_of = np.repeat(np.arange(len(feds)), sizes)
    rows = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
    w = np.zeros((len(feds), client_data[0][0].p))
    mu = np.ones((fed_of.size, w.shape[1]))
    traces = [[] for _ in feds]
    for t in range(1, feds[0].T + 1):
        w_g = np.array(steps(w[fed_of] - mu))
        w = np.array([admm_server_update(fed.alphas, w_g[r], mu[r])
                      for fed, r in zip(feds, rows)])
        mu = multiplier_step(mu, w_g, w[fed_of])
        for f, trace in enumerate(traces):
            trace.append(RoundTrace(t=t, w_after=w[f].copy(), global_objective=math.nan,
                                    consensus_residual=math.nan, wall_time=math.nan))
    return traces


def _snapshots_of_one_run(cfg, params, shards, t_grid):
    """A federated (or the central) model at one grid point on one set of
    shards: ({T: model}, per-round telemetry)."""
    if cfg.model == "central_dr":
        pooled = pool(shards)
        central = _client_configs(cfg, params, [pooled])[0]
        return {None: train_central_dr_svm(pooled, central)}, []
    result = run_federation(federation_config(cfg, params, shards, max(t_grid)), shards)
    rounds = [
        {"t": tr.t, "objective": tr.global_objective,
         "consensus_residual": tr.consensus_residual, "wall_time": tr.wall_time}
        for tr in result.traces
    ]
    return kept_models(cfg.model, result.traces, t_grid), rounds


# ----------------------------------------------------------- cross-validation


# Redraws of the fold assignment allowed before a single-class validation
# fold is accepted.
FOLD_REDRAWS = 20


def _stratified_fold_labels(y, folds, rng):
    """Fold id per row: each class is dealt round-robin across folds after
    a shuffle, so fold class mixes track the shard's."""
    assignment = np.empty(y.size, dtype=int)
    for label in (1, -1):
        idx = rng.permutation(np.flatnonzero(y == label))
        assignment[idx] = np.arange(idx.size) % folds
    return assignment


def build_folds(shards, folds, seed):
    """Per-client fold assignments. If some fold's pooled validation view
    ends up single-class, all assignments are redrawn with the next seed, at
    most FOLD_REDRAWS times; the number of redraws is reported (and the last
    draw kept if the data cannot satisfy the condition, e.g. one minority
    sample total)."""
    attempt = 0
    while True:
        assignments = [
            _stratified_fold_labels(
                s.y, folds, np.random.default_rng([seed, g, attempt])
            )
            for g, s in enumerate(shards)
        ]
        ok = True
        for k in range(folds):
            val_labels = np.concatenate(
                [s.y[a == k] for s, a in zip(shards, assignments)]
            )
            if val_labels.size == 0 or np.unique(val_labels).size < 2:
                ok = False
                break
        if ok or attempt >= FOLD_REDRAWS:
            return assignments, attempt
        attempt += 1


def grid_points(grid):
    """Deterministic enumeration of the grid in key order; T is handled by
    snapshot nesting and excluded here."""
    knobs = [k for k in grid if k != "T"]
    if not knobs:
        return [{}]
    return [dict(zip(knobs, combo))
            for combo in itertools.product(*(grid[k] for k in knobs))]


def cross_validate(cfg, shards, seed):
    """Exhaustive grid search with per-client stratified folds. Selection
    is by mean validation F1; ties go to the smaller enumeration index.
    Returns (chosen params, report)."""
    assignments, resamples = build_folds(shards, cfg.cv_folds, seed)
    points = grid_points(cfg.grid)
    # the central model has no rounds: it is scored once, at T = None
    t_grid = [None] if cfg.model == "central_dr" else sorted(int(t) for t in cfg.grid["T"])

    train_folds, val_folds = [], []
    for k in range(cfg.cv_folds):
        train_shards, val_parts = [], []
        for s, a in zip(shards, assignments):
            keep = np.flatnonzero(a != k)
            if keep.size > 0:
                train_shards.append(s.subset(keep))
            held = np.flatnonzero(a == k)
            if held.size > 0:
                val_parts.append(s.subset(held))
        train_folds.append(train_shards)
        val_folds.append(pool(val_parts))
    runs = _snapshots_over_t(cfg, points, train_folds, t_grid, seed)

    table = []
    for i, point in enumerate(points):
        for t in t_grid:
            fold_f1 = [float(evaluate(fold_runs[i][0][t], val).f1)
                       for fold_runs, val in zip(runs, val_folds)]
            full = dict(point) if t is None else {**point, "T": t}
            table.append({"params": full, "mean_f1": float(np.mean(fold_f1)),
                          "fold_f1": fold_f1})
    best = max(range(len(table)), key=lambda j: table[j]["mean_f1"])
    # max() returns the first maximizer, which is the smaller grid index
    chosen = dict(table[best]["params"])
    report = {"table": table, "fold_resamples": resamples, "chosen_index": best}
    return chosen, report


# -------------------------------------------------------------- run results


@dataclass
class RunResult:
    config: dict
    config_text: str
    repetitions: list
    aggregates: dict

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _aggregate(reps):
    ok = [r for r in reps if r["ok"]]
    agg = {"repetitions": len(reps), "failures": len(reps) - len(ok)}
    for metric in ("f1", "mccr"):
        values = [r[metric] for r in ok]
        agg[f"mean_{metric}"] = float(np.mean(values)) if values else None
        # sample standard deviation (n-1), 0 for a single repetition
        agg[f"std_{metric}"] = (
            float(np.std(values, ddof=1)) if len(values) > 1
            else (0.0 if values else None)
        )
    return agg


def run_experiment(cfg, progress=None):
    """All repetitions of one config. A repetition failure is recorded and
    the run continues; aggregation covers the successes."""
    reps = []
    for i in range(cfg.repetitions):
        seed = cfg.base_seed + i
        started = time.perf_counter()
        try:
            shards, test, _ = prepare_repetition(cfg, seed)
            chosen, cv_report = cross_validate(cfg, shards, seed)
            model, rounds = train_model(cfg, chosen, shards, seed)
            metrics = evaluate(model, test)
            reps.append({
                "seed": seed, "ok": True, "chosen": chosen,
                "f1": float(metrics.f1), "mccr": float(metrics.mccr),
                "n_test": int(metrics.n),
                "confusion": [[int(v) for v in row] for row in metrics.confusion],
                "rounds": rounds, "cv": cv_report,
                "model_w": [float(v) for v in model.w],
                "wall_time": time.perf_counter() - started,
            })
        except Exception as exc:
            reps.append({
                "seed": seed, "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "wall_time": time.perf_counter() - started,
            })
        if progress is not None:
            progress(reps[-1])
    return RunResult(config=cfg.to_dict(), config_text=cfg.raw_text,
                     repetitions=reps, aggregates=_aggregate(reps))


def exit_code_for(result):
    """0 all repetitions succeeded, 2 all failed, 3 more than 10% failed."""
    total = result.aggregates["repetitions"]
    failed = result.aggregates["failures"]
    if failed == 0:
        return 0
    if failed == total:
        return 2
    return 3 if failed > 0.1 * total else 0


def emit_results(result, out_dir):
    """Write result.json (full structured document), rounds.csv (flat
    per-round telemetry for plotting), and a byte-exact config echo."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {"result": os.path.join(out_dir, "result.json"),
             "rounds": os.path.join(out_dir, "rounds.csv")}
    with open(paths["result"], "w", encoding="utf-8") as fh:
        fh.write(result.to_json())
    with open(paths["rounds"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repetition", "t", "objective",
                         "consensus_residual", "wall_time"])
        for rep in result.repetitions:
            for tr in rep.get("rounds", []):
                writer.writerow([rep["seed"], tr["t"], repr(tr["objective"]),
                                 repr(tr["consensus_residual"]), repr(tr["wall_time"])])
    if result.config_text is not None:
        paths["config_echo"] = os.path.join(out_dir, "config_echo.json")
        with open(paths["config_echo"], "w", encoding="utf-8", newline="") as fh:
            fh.write(result.config_text)
    return paths


# ------------------------------------------------------------ model persistence


def save_model(path, model, stats):
    doc = {"w": [float(v) for v in model.w],
           "mins": [float(v) for v in stats.mins],
           "maxs": [float(v) for v in stats.maxs]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def load_model(path):
    from .data import MinMaxStats
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    model = GlobalModel(w=np.array(doc["w"], dtype=float))
    stats = MinMaxStats(mins=np.array(doc["mins"], dtype=float),
                        maxs=np.array(doc["maxs"], dtype=float))
    if not (model.w.size == stats.mins.size == stats.maxs.size):
        raise ValueError(f"model file {path} has {model.w.size} weights, {stats.mins.size} "
                         f"mins and {stats.maxs.size} maxs; they must be equally many")
    return model, stats


# ------------------------------------------------------------ round timing


def time_sm_round(n_total, G, p, runs, seed):
    """Median wall time of a single SM round on normalized synthetic data:
    the clients' exact subgradients of the unbounded-support dual risk the
    server reports (one closed-form pass over every in-process client, no
    LP; the LP remains for reference and the demo), the aggregation and
    the server's objective."""
    data = generate_synthetic(SyntheticSpec(N=n_total, P=p, G=G, seed=seed))
    stats = fit_minmax(data)
    data = apply_minmax(data, stats)
    shards = partition(data, PartitionPlan(scheme=PartitionScheme.EVEN, G=G, seed=seed))
    clients = [ClientConfig(epsilon=radius_heuristic(s.n), kappa=1.0, alpha=1.0 / G)
               for s in shards]
    times = []
    for _ in range(runs):
        fed = FederationConfig(clients=clients, T=1, algorithm=Algorithm.SM, gamma0=1.0)
        result = run_federation(fed, shards)
        times.append(result.traces[0].wall_time)
    return float(np.median(times))
