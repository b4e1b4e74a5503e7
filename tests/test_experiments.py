"""Experiment driver: config schema, CV mechanics, pipelines, emission."""

import json
import math

import numpy as np
import pytest

from fedrosvm import experiments, solver
from fedrosvm.baselines import train_fed_l2_svm
from fedrosvm.core import DatasetView, NormKind, evaluate
from fedrosvm.experiments import (
    DEFAULT_GRIDS,
    ConfigError,
    ExperimentConfig,
    RunResult,
    _snapshots_over_t,
    baseline_config,
    build_folds,
    cross_validate,
    emit_results,
    exit_code_for,
    federation_config,
    grid_points,
    load_model,
    pool,
    prepare_repetition,
    run_experiment,
    save_model,
    train_model,
)
from fedrosvm.data import MinMaxStats
from fedrosvm.robust import ClientConfig, build_risk_epigraph_qp
from fedrosvm.core import GlobalModel


def base_config(**overrides):
    doc = {
        "name": "toy",
        "dataset": {"kind": "synthetic", "N": 80, "P": 3},
        "partition": {"scheme": "even", "G": 2},
        "model": "admm",
        "grid": {"rho": [1e-2], "T": [5]},
        "cv_folds": 2,
        "repetitions": 1,
        "base_seed": 0,
    }
    doc.update(overrides)
    return doc


def toy_shards(seed=0, n=40, p=3, G=2):
    cfg = ExperimentConfig.from_dict(base_config(
        dataset={"kind": "synthetic", "N": n, "P": p},
        partition={"scheme": "even", "G": G},
    ))
    shards, test, stats = prepare_repetition(cfg, seed)
    return cfg, shards, test


# ------------------------------------------------------------------- config


def test_config_defaults_and_grid_fill():
    cfg = ExperimentConfig.from_dict(base_config(grid={}))
    # default tuning protocol: four rho values crossed with the round grid
    assert cfg.grid["rho"] == [1e-3, 1e-2, 1e-1, 1e0]
    assert len(cfg.grid["T"]) == 8
    assert cfg.fixed["kappa"] == 1.0 and cfg.fixed["beta"] == 10.0
    assert cfg.cv_folds == 2


def test_config_rejections():
    with pytest.raises(ConfigError, match="missing 'model'"):
        ExperimentConfig.from_dict({"name": "x", "dataset": {}, "partition": {}})
    with pytest.raises(ConfigError, match="unknown model"):
        ExperimentConfig.from_dict(base_config(model="boosted_trees"))
    with pytest.raises(ConfigError, match="dataset kind"):
        ExperimentConfig.from_dict(base_config(dataset={"kind": "parquet"}))
    with pytest.raises(ConfigError, match="csv dataset needs"):
        ExperimentConfig.from_dict(base_config(dataset={"kind": "csv", "path": "x"}))
    with pytest.raises(ConfigError, match="is empty"):
        ExperimentConfig.from_dict(base_config(grid={"rho": [], "T": [5]}))
    with pytest.raises(ConfigError, match="'T'"):
        ExperimentConfig.from_dict(base_config(grid={"rho": [1e-2]}))
    with pytest.raises(ConfigError, match="cv_folds"):
        ExperimentConfig.from_dict(base_config(cv_folds=1))
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(base_config(extra_knob=1))
    with pytest.raises(ConfigError, match="partition scheme"):
        ExperimentConfig.from_dict(base_config(partition={"scheme": "zipf", "G": 2}))


def test_config_from_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        ExperimentConfig.from_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_file(str(bad))


# -------------------------------------------------------------------- folds


def test_folds_cover_each_shard_disjointly():
    _, shards, _ = toy_shards(seed=1)
    assignments, resamples = build_folds(shards, folds=2, seed=1)
    assert resamples == 0
    for s, a in zip(shards, assignments):
        assert a.shape == (s.n,)
        assert set(np.unique(a)) <= {0, 1}
        held = np.flatnonzero(a == 0)
        kept = np.flatnonzero(a != 0)
        assert sorted(np.concatenate([held, kept]).tolist()) == list(range(s.n))


def test_folds_are_stratified():
    _, shards, _ = toy_shards(seed=2, n=80)
    assignments, _ = build_folds(shards, folds=2, seed=2)
    for s, a in zip(shards, assignments):
        for k in (0, 1):
            labels = s.y[a == k]
            assert (labels == 1).any() and (labels == -1).any()


def test_single_class_fold_triggers_recorded_resampling():
    # one minority sample total: some fold must be single-class no matter
    # what, so the redraw budget is exhausted and reported
    X = np.random.default_rng(3).uniform(size=(9, 2))
    y = np.array([1, 1, 1, 1, 1, 1, 1, 1, -1])
    shard = DatasetView(X=X, y=y)
    assignments, resamples = build_folds([shard], folds=2, seed=3)
    assert resamples > 0
    assert assignments[0].shape == (9,)


# ----------------------------------------------------------- grid mechanics


def test_grid_points_enumeration_order():
    pts = grid_points({"rho": [0.1, 0.2], "kappa": [1, 2], "T": [5, 10]})
    assert pts == [
        {"rho": 0.1, "kappa": 1}, {"rho": 0.1, "kappa": 2},
        {"rho": 0.2, "kappa": 1}, {"rho": 0.2, "kappa": 2},
    ]
    assert grid_points({"T": [5]}) == [{}]


def test_cv_single_point_grid_returns_it_with_fold_scores():
    cfg, shards, _ = toy_shards(seed=4)
    chosen, report = cross_validate(cfg, shards, seed=4)
    assert chosen == {"rho": 1e-2, "T": 5}
    assert len(report["table"]) == 1
    assert len(report["table"][0]["fold_f1"]) == cfg.cv_folds


def test_cv_tie_breaks_to_smaller_grid_index():
    doc = base_config(grid={"rho": [1e-2, 1e-1], "T": [10, 20]},
                      dataset={"kind": "synthetic", "N": 120, "P": 3, "class_sep": 6.0})
    cfg = ExperimentConfig.from_dict(doc)
    shards, _, _ = prepare_repetition(cfg, 5)
    chosen, report = cross_validate(cfg, shards, seed=5)
    table = report["table"]
    best = max(t["mean_f1"] for t in table)
    firsts = [t for t in table if t["mean_f1"] == best]
    assert len(firsts) >= 2  # widely separable: several points tie at the top
    assert chosen == firsts[0]["params"]
    assert report["chosen_index"] == table.index(firsts[0])


def test_round_snapshots_match_fresh_runs():
    # sm and fedavg snapshots are bit-identical to fresh runs; the ADMM
    # lockstep solves its client QPs in one stack, which agrees with the
    # one-program solver to roundoff
    cfg, shards, _ = toy_shards(seed=6)
    for model_name, point in (("admm", {"rho": 1e-2}),
                              ("sm", {"gamma0": 0.5}),
                              ("fedavg", {"gamma0": 0.5})):
        cfg.model = model_name
        snaps, _ = _snapshots_over_t(cfg, [point], [shards], [2, 4], seed=6)[0][0]
        for t in (2, 4):
            fresh, _ = train_model(cfg, {**point, "T": t}, shards, seed=6)
            if model_name == "admm":
                assert np.abs(snaps[t].w - fresh.w).max() <= 1e-7 * np.abs(fresh.w).max()
            else:
                assert np.array_equal(snaps[t].w, fresh.w), (model_name, t)


def test_central_model_reads_gridded_beta_and_null_epsilon():
    cfg = ExperimentConfig.from_dict(base_config(
        model="central_dr", grid={"kappa": [1.0]}, fixed={"epsilon": 0.05}))
    shards, _, _ = prepare_repetition(cfg, 0)
    n = sum(s.n for s in shards)
    models = {}
    for beta in (0.01, 100.0):
        # a gridded null epsilon selects the heuristic over the fixed 0.05
        models[beta], _ = train_model(cfg, {"epsilon": None, "beta": beta}, shards, 0)
        explicit, _ = train_model(cfg, {"epsilon": 1.0 / (beta * n)}, shards, 0)
        assert np.array_equal(models[beta].w, explicit.w), beta
    assert not np.array_equal(models[0.01].w, models[100.0].w)


def test_federated_radius_follows_the_same_rule():
    cfg = ExperimentConfig.from_dict(base_config(fixed={"epsilon": 0.05}))
    shards, _, _ = prepare_repetition(cfg, 0)
    fixed = federation_config(cfg, {"rho": 1e-2}, shards, 1)
    assert [c.epsilon for c in fixed.clients] == [0.05] * len(shards)
    heuristic = federation_config(cfg, {"rho": 1e-2, "epsilon": None, "beta": 4.0}, shards, 1)
    assert [c.epsilon for c in heuristic.clients] == [1.0 / (4.0 * s.n) for s in shards]


def test_round_counts_must_be_positive():
    with pytest.raises(ConfigError, match="'T' grid"):
        ExperimentConfig.from_dict(base_config(grid={"rho": [1e-2], "T": [0, 5]}))


# ------------------------------------------------------------- experiments


def test_run_experiment_structure_and_determinism():
    cfg_doc = base_config(repetitions=2)
    a = run_experiment(ExperimentConfig.from_dict(cfg_doc))
    b = run_experiment(ExperimentConfig.from_dict(cfg_doc))
    assert a.aggregates["repetitions"] == 2 and a.aggregates["failures"] == 0
    assert a.aggregates["mean_f1"] is not None and a.aggregates["std_f1"] is not None
    for ra, rb in zip(a.repetitions, b.repetitions):
        assert ra["seed"] == rb["seed"]
        assert ra["f1"] == rb["f1"] and ra["mccr"] == rb["mccr"]
        assert ra["chosen"] == rb["chosen"]
        assert ra["model_w"] == rb["model_w"]
    assert a.repetitions[0]["seed"] != a.repetitions[1]["seed"]


def test_equal_seeds_give_equal_metrics():
    doc = base_config(repetitions=1, base_seed=9)
    r1 = run_experiment(ExperimentConfig.from_dict(doc))
    r2 = run_experiment(ExperimentConfig.from_dict(doc))
    assert r1.repetitions[0]["f1"] == r2.repetitions[0]["f1"]


def test_separable_synthetic_robust_model_scores_high():
    doc = base_config(
        dataset={"kind": "synthetic", "N": 120, "P": 3, "class_sep": 2.4},
        grid={"rho": [1e-2], "T": [20]},
        repetitions=2,
    )
    result = run_experiment(ExperimentConfig.from_dict(doc))
    assert result.aggregates["failures"] == 0
    assert result.aggregates["mean_f1"] >= 0.95


def test_central_and_l2_baseline_paths():
    central = base_config(model="central_dr", grid={"epsilon": [1e-3], "kappa": [1.0]},
                          dataset={"kind": "synthetic", "N": 100, "P": 3,
                                   "class_sep": 2.4})
    result = run_experiment(ExperimentConfig.from_dict(central))
    assert result.aggregates["failures"] == 0
    assert result.repetitions[0]["rounds"] == []

    fed = base_config(model="fedavg", grid={"gamma0": [0.5], "T": [10]},
                      dataset={"kind": "synthetic", "N": 100, "P": 3,
                               "class_sep": 2.4})
    result = run_experiment(ExperimentConfig.from_dict(fed))
    assert result.aggregates["failures"] == 0


def test_repetition_failures_are_recorded_and_run_continues():
    doc = base_config(
        partition={"scheme": "client_imbalance", "G": 2,
                   "client_fractions": [0.999, 0.001]},
        dataset={"kind": "synthetic", "N": 40, "P": 2},
        repetitions=2,
    )
    result = run_experiment(ExperimentConfig.from_dict(doc))
    assert result.aggregates["failures"] == 2
    assert all(not r["ok"] for r in result.repetitions)
    assert all("error" in r for r in result.repetitions)
    assert result.aggregates["mean_f1"] is None
    assert exit_code_for(result) == 2


def test_a_nan_knob_in_a_config_file_is_named_in_the_failure():
    # json.loads accepts the NaN literal, so a config file can carry one
    doc = json.loads(json.dumps(base_config()).replace("0.01", "NaN"))
    assert math.isnan(doc["grid"]["rho"][0])
    with pytest.raises(ConfigError, match="grid 'rho': rho must be positive and finite, got nan"):
        ExperimentConfig.from_dict(doc)


def test_exit_code_thresholds():
    def fake(failures, total):
        return RunResult(config={}, config_text=None, repetitions=[],
                         aggregates={"repetitions": total, "failures": failures})

    assert exit_code_for(fake(0, 10)) == 0
    assert exit_code_for(fake(1, 20)) == 0    # 5% tolerated
    assert exit_code_for(fake(3, 20)) == 3
    assert exit_code_for(fake(10, 10)) == 2


# ---------------------------------------------------------------- emission


def test_emit_round_trip_and_csv_rows(tmp_path):
    raw = '{\n  "weird":   "spacing"\n}'  # echo must be byte-exact
    doc = base_config(repetitions=2, grid={"rho": [1e-2], "T": [3]})
    cfg = ExperimentConfig.from_dict(doc)
    cfg.raw_text = raw
    result = run_experiment(cfg)
    out = tmp_path / "run"
    paths = emit_results(result, str(out))

    again = json.loads((out / "result.json").read_text())
    assert again == {"config": result.config, "config_text": raw,
                     "repetitions": result.repetitions, "aggregates": result.aggregates}

    rows = (out / "rounds.csv").read_text().strip().splitlines()
    expected = sum(len(r["rounds"]) for r in result.repetitions)
    assert len(rows) == 1 + expected
    assert (out / "config_echo.json").read_bytes() == raw.encode()
    assert set(paths) == {"result", "rounds", "config_echo"}


def test_model_save_load_round_trip(tmp_path):
    model = GlobalModel(w=np.array([0.5, -1.25, 3.0]))
    stats = MinMaxStats(mins=np.array([0.0, 1.0, -2.0]),
                        maxs=np.array([1.0, 4.0, 2.0]))
    path = tmp_path / "model.json"
    save_model(str(path), model, stats)
    loaded, loaded_stats = load_model(str(path))
    assert np.array_equal(loaded.w, model.w)
    assert np.array_equal(loaded_stats.mins, stats.mins)
    assert np.array_equal(loaded_stats.maxs, stats.maxs)


def test_load_model_rejects_weights_and_scales_of_other_lengths(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"w": [0.5, -1.25, 3.0], "mins": [0.0, 1.0],
                                "maxs": [1.0, 4.0]}))
    with pytest.raises(ValueError, match="has 3 weights, 2 mins and 2 maxs"):
        load_model(str(path))


def test_stacked_cv_report_equals_one_run_per_fold_and_point():
    rng = np.random.default_rng(7)

    def shard(n):
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return DatasetView(X=rng.uniform(size=(n, 3)), y=y)

    # the one-sample client has no training rows in the fold that holds it
    shards = [shard(23), shard(1), shard(16)]
    cfg = ExperimentConfig.from_dict(base_config(
        model="fedavg", grid={"gamma0": [0.05, 0.5, 2.0], "T": [2, 5, 9]}, cv_folds=3))
    chosen, report = cross_validate(cfg, shards, seed=8)

    assignments, _ = build_folds(shards, cfg.cv_folds, 8)
    fold_f1 = {}
    clients_per_fold = []
    for k in range(cfg.cv_folds):
        train = [s.subset(np.flatnonzero(a != k)) for s, a in zip(shards, assignments)]
        train = [s for s in train if s.n > 0]
        clients_per_fold.append(len(train))
        val = pool([s.subset(np.flatnonzero(a == k)) for s, a in zip(shards, assignments)])
        for i, point in enumerate(grid_points(cfg.grid)):
            for t in (2, 5, 9):
                f1 = evaluate(train_fed_l2_svm(train, baseline_config(cfg, point, t), 8), val).f1
                fold_f1.setdefault((i, t), []).append(float(f1))
    assert sorted(set(clients_per_fold)) == [2, 3]

    table = [{"params": {"gamma0": g, "T": t}, "mean_f1": float(np.mean(fold_f1[(i, t)])),
              "fold_f1": fold_f1[(i, t)]}
             for i, g in enumerate(cfg.grid["gamma0"]) for t in (2, 5, 9)]
    assert report["table"] == table
    best = max(range(len(table)), key=lambda j: table[j]["mean_f1"])
    assert report["chosen_index"] == best
    assert chosen == table[best]["params"]


def one_federation_per_run(cfg, points, folds, t_grid, seed):
    return [[experiments._snapshots_of_one_run(cfg, point, shards, t_grid)
             for point in points] for shards in folds]


def assert_lockstep_matches_one_federation_per_run(cfg, points, folds, t_grid, seed):
    lockstep = _snapshots_over_t(cfg, points, folds, t_grid, seed)
    reference = one_federation_per_run(cfg, points, folds, t_grid, seed)
    for fold, ref_fold in zip(lockstep, reference):
        for (snaps, rounds), (ref, _) in zip(fold, ref_fold):
            assert rounds == []
            for t in t_grid:
                gap = np.abs(snaps[t].w - ref[t].w).max()
                assert gap <= 1e-7 * np.abs(ref[t].w).max(), (t, gap)


@pytest.mark.parametrize("model", ["admm", "admm_sc"])
def test_lockstep_admm_cv_matches_one_federation_per_fold_and_point(monkeypatch, model):
    cfg = ExperimentConfig.from_dict(base_config(
        model=model, grid={"rho": [1e-2, 1e-1, 1.0], "T": [2, 6, 9]}, cv_folds=3,
        partition={"scheme": "label_noise", "G": 3, "noise_rate": 0.2}))
    shards, _, _ = prepare_repetition(cfg, 3)
    folds = [[s.subset(np.arange(k, s.n, 2)) for s in shards] for k in range(2)]
    assert_lockstep_matches_one_federation_per_run(cfg, grid_points(cfg.grid), folds,
                                                   [2, 6, 9], 3)

    chosen, report = cross_validate(cfg, shards, seed=3)
    monkeypatch.setattr(experiments, "_snapshots_over_t", one_federation_per_run)
    assert (chosen, report) == cross_validate(cfg, shards, seed=3)


def test_lockstep_stacks_ragged_remainder_widths_together(monkeypatch):
    # a feature that is zero throughout one client's fold shard leaves its
    # weight out of every hinge row, so that QP's dense remainder is one
    # column narrower than the other clients'
    cfg = ExperimentConfig.from_dict(base_config(
        grid={"rho": [1e-2, 1e-1], "T": [2, 5]}, partition={"scheme": "even", "G": 3}))
    shards, _, _ = prepare_repetition(cfg, 4)
    blank = shards[1].X.copy()
    blank[:, 0] = 0.0
    shards[1] = DatasetView(X=blank, y=shards[1].y)
    folds = [[s.subset(np.arange(k, s.n, 2)) for s in shards] for k in range(2)]
    stacks, widths = [], []
    real_start = solver._Stack.start

    def record(st, warms, skip):
        stacks.append(st)
        widths.append(sorted({b.r_idx.size for b in st.layout}))
        return real_start(st, warms, skip)

    monkeypatch.setattr(solver._Stack, "start", record)
    assert_lockstep_matches_one_federation_per_run(cfg, grid_points(cfg.grid), folds, [2, 5], 4)
    # one stack for the whole cross-validation, holding both widths and
    # started once a round
    assert all(st is stacks[0] for st in stacks)
    assert widths == [[3, 4]] * 5


def test_lockstep_solves_programs_without_a_schur_split_alone():
    # under the L-inf norm 33 features leave a dense remainder of 66
    # columns, past what the Schur backend takes
    cfg = ExperimentConfig.from_dict(base_config(
        dataset={"kind": "synthetic", "N": 60, "P": 33}, fixed={"norm": "linf"},
        grid={"rho": [1e-1, 1.0], "T": [2, 3]}))
    shards, _, _ = prepare_repetition(cfg, 5)
    folds = [[s.subset(np.arange(k, s.n, 2)) for s in shards] for k in range(2)]
    prog = build_risk_epigraph_qp(folds[0][0], ClientConfig(epsilon=0.1, norm=NormKind.LINF),
                                  rho=1.0, anchor=np.zeros(33))
    assert solver._structure(prog)[0] is None
    assert_lockstep_matches_one_federation_per_run(cfg, grid_points(cfg.grid), folds, [2, 3], 5)


def test_lockstep_admm_sc_warns_once_per_federation_above_the_rho_cap():
    # tau = 0.1 rho puts every rho above the two-client cap of 0.05 rho
    cfg = ExperimentConfig.from_dict(base_config(
        model="admm_sc", grid={"rho": [1e-2, 1e-1], "T": [2]}, cv_folds=3,
        fixed={"tau_factor": 0.1}))
    shards, _, _ = prepare_repetition(cfg, 0)
    with pytest.warns(RuntimeWarning, match="exceeds the convergence bound") as caught:
        _snapshots_over_t(cfg, grid_points(cfg.grid), [shards, shards, shards], [2], seed=0)
    assert len(caught) == 3 * 2


def test_admm_sc_without_a_rho_grid_runs_at_the_default_rho():
    cfg = ExperimentConfig.from_dict(base_config(model="admm_sc", grid={"T": [2]}))
    result = run_experiment(cfg)
    assert [rep["ok"] for rep in result.repetitions] == [True]
    shards, _, _ = prepare_repetition(cfg, 0)
    fed = federation_config(cfg, {"T": 2}, shards, 2)
    assert fed.rho == 1.0
    assert [c.tau for c in fed.clients] == [cfg.fixed["tau_factor"]] * len(shards)


def test_every_default_grid_validates():
    for model, grid in DEFAULT_GRIDS.items():
        cfg = ExperimentConfig.from_dict(base_config(model=model, grid={}))
        assert cfg.grid == grid


def test_grid_key_the_fed_baselines_never_read_is_rejected():
    with pytest.raises(ConfigError, match="'local_epochs' is not tuned by model 'fedavg'"):
        ExperimentConfig.from_dict(base_config(
            model="fedavg", grid={"local_epochs": [1, 5], "gamma0": [0.1], "T": [5]}))


def test_grid_key_sm_never_reads_is_rejected():
    with pytest.raises(ConfigError, match="'rho' is not tuned by model 'sm'"):
        ExperimentConfig.from_dict(base_config(
            model="sm", grid={"rho": [1e-2, 1e-1], "gamma0": [1.0], "T": [5]}))


def test_round_grid_for_the_central_model_is_rejected():
    with pytest.raises(ConfigError, match="'T' is not tuned by model 'central_dr'"):
        ExperimentConfig.from_dict(base_config(
            model="central_dr", grid={"kappa": [1.0], "T": [5, 10]}))


def test_unknown_fixed_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown fixed key 'local_epoch' for model 'fedavg'"):
        ExperimentConfig.from_dict(base_config(
            model="fedavg", grid={"gamma0": [0.1], "T": [5]}, fixed={"local_epoch": 1}))


@pytest.mark.parametrize("bad", [0.0, -0.1])
def test_cv_rejects_a_step_size_grid_point_that_is_not_positive(bad):
    doc = base_config(model="fedavg", grid={"gamma0": [bad, 0.1], "T": [5]})
    with pytest.raises(ConfigError, match="grid 'gamma0': gamma0 must be positive"):
        ExperimentConfig.from_dict(doc)
    # the stacked trainer keeps its own check for a grid set after loading
    cfg = ExperimentConfig.from_dict(base_config(model="fedavg", grid={"gamma0": [0.1], "T": [5]}))
    cfg.grid = doc["grid"]
    shards, _, _ = prepare_repetition(cfg, 2)
    with pytest.raises(ValueError, match="gamma0 must be positive"):
        cross_validate(cfg, shards, seed=2)
