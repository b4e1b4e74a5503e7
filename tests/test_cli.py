"""Drives each subcommand through main() with real files on disk, plus one
server/client federation across separate OS processes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedrosvm import cli, experiments
from fedrosvm.cli import main
from fedrosvm.core import GlobalModel, evaluate
from fedrosvm.data import MinMaxStats
from fedrosvm.experiments import (
    ExperimentConfig,
    prepare_repetition,
    save_model,
    train_model,
)


def write_config(path, **overrides):
    doc = {
        "name": "cli_toy",
        "dataset": {"kind": "synthetic", "N": 60, "P": 2, "class_sep": 2.4},
        "partition": {"scheme": "even", "G": 2},
        "model": "admm",
        "grid": {"rho": [1e-2], "T": [3]},
        "cv_folds": 2,
        "repetitions": 1,
        "base_seed": 0,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


def test_train_writes_artifacts_and_exits_zero(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "out"
    rc = main(["train", "-c", cfg, "-o", str(out_dir)])
    assert rc == 0
    for name in ("result.json", "rounds.csv", "config_echo.json", "model.json"):
        assert (out_dir / name).is_file(), name
    captured = capsys.readouterr().out
    assert "mean_f1" in captured and "wrote" in captured
    result = json.loads((out_dir / "result.json").read_text())
    assert result["aggregates"]["failures"] == 0
    # echo is byte-identical to the file the run was launched from
    assert (out_dir / "config_echo.json").read_text() == (tmp_path / "cfg.json").read_text()


def test_train_trains_each_repetition_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting_train_model(cfg, params, shards, seed):
        calls.append(seed)
        return train_model(cfg, params, shards, seed)

    monkeypatch.setattr(experiments, "train_model", counting_train_model)
    # also counts a final refit made through a name imported into cli
    monkeypatch.setattr(cli, "train_model", counting_train_model, raising=False)
    cfg_path = write_config(tmp_path / "cfg.json", repetitions=2)
    out_dir = tmp_path / "out"
    assert main(["train", "-c", cfg_path, "-o", str(out_dir)]) == 0
    capsys.readouterr()
    assert calls == [0, 1]

    # model.json holds the last repetition's model, as a fresh fit saves it
    cfg = ExperimentConfig.from_file(cfg_path)
    shards, _, stats = prepare_repetition(cfg, 1)
    model, _ = train_model(cfg, {"rho": 0.01, "T": 3}, shards, 1)
    save_model(str(tmp_path / "fresh.json"), model, stats)
    assert (out_dir / "model.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_train_config_error_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", bogus_knob=3)
    assert main(["train", "-c", cfg]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert main(["train", "-c", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("overrides,named", [
    ({"grid": {"rho": 0.1, "T": [3]}}, "grid for 'rho' must be a list"),
    ({"cv_folds": "two"}, "cv_folds must be an integer >= 2, got 'two'"),
    ({"fixed": {"norm": ["l1"]}}, "norm must be 'l1' or 'linf'"),
    ({"fixed": {"kappa": -1}}, "fixed 'kappa': kappa must be nonnegative"),
    ({"partition": {"scheme": "label_noise", "G": 2}}, "partition: noise_rate must be"),
    ({"grid": {"rho": [1e-2], "T": [2.7]}}, "round count in the 'T' grid must be an integer"),
    ({"dataset": {"kind": "synthetic", "N": 60, "P": "two"}},
     "dataset 'P' must be an integer >= 1, got 'two'"),
    ({"dataset": {"kind": "synthetic", "N": 60.7, "P": 2}},
     "dataset 'N' must be an integer >= 1, got 60.7"),
    ({"dataset": {"kind": "synthetic", "N": 60, "P": 2, "class_sep": -1}},
     "dataset: class_sep must be positive"),
    ({"dataset": {"kind": "synthetic", "N": 3, "P": 2}}, "dataset: need N >= 2G"),
    ({"test_fraction": "x"}, "test_fraction must be a number in (0, 1), got 'x'"),
    ({"grid": {"rho": [-1], "T": [3]}}, "grid 'rho': rho must be positive"),
    ({"model": "sm", "grid": {"gamma0": ["x"], "T": [3]}}, "grid 'gamma0'"),
    ({"grid": {"rho": [1e-2], "epsilon": [0], "T": [3]}},
     "grid 'epsilon': epsilon must be positive"),
    ({"grid": {"rho": [1e-2], "kappa": [-1], "T": [3]}},
     "grid 'kappa': kappa must be nonnegative"),
    ({"grid": {"rho": [1e-2], "beta": [0], "T": [3]}}, "grid 'beta': beta must be positive"),
    ({"model": "fedavg", "grid": {"gamma0": [0.1], "T": [3]}, "fixed": {"local_epochs": 2.5}},
     "fixed 'local_epochs': local_epochs must be an integer >= 1, got 2.5"),
    ({"dataset": {"kind": "csv", "path": "no-such-file.csv", "label_column": "class",
                  "positive_label": "1"}}, "csv dataset 'path' is not a file"),
    ({"model": "admm_sc", "fixed": {"tau_factor": 0}}, "fixed 'tau_factor'"),
    ({"dataset": {"kind": "synthetic", "N": 60, "P": 2, "class_seperation": 9.0}},
     "unknown synthetic dataset key 'class_seperation'"),
    ({"partition": {"scheme": "even", "G": 2, "noise_rte": 0.3}},
     "unknown partition key 'noise_rte'"),
    ({"output": 123}, "output must be null or a non-empty string, got 123"),
    ({"dataset": ["synthetic"]}, "dataset must be a JSON object, got ['synthetic']"),
    ({"partition": "even"}, "partition must be a JSON object, got 'even'"),
    ({"grid": [["rho", 0.1]]}, "grid must be a JSON object, got [['rho', 0.1]]"),
    ({"fixed": [["kappa", 1]]}, "fixed must be a JSON object, got [['kappa', 1]]"),
    ({"name": 5}, "name must be a non-empty string, got 5"),
    ({"name": ""}, "name must be a non-empty string, got ''"),
], ids=["grid-scalar", "cv-folds-str", "norm-list", "kappa-negative", "noise-rate-missing",
        "t-float", "p-str", "n-float", "class-sep-negative", "n-below-2g", "test-fraction-str",
        "grid-rho-negative", "grid-gamma0-str", "grid-epsilon-zero", "grid-kappa-negative",
        "grid-beta-zero", "local-epochs-float", "csv-path-missing", "admm-sc-tau-factor-zero",
        "dataset-unknown-key", "partition-unknown-key", "output-int", "dataset-list",
        "partition-str", "grid-list", "fixed-list", "name-int", "name-empty"])
def test_train_rejects_a_bad_config_value_naming_its_key(tmp_path, capsys, overrides, named):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["train", "-c", cfg, "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err, err
    assert not (tmp_path / "out").exists()


def test_evaluate_scores_saved_model(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    save_model(str(model_path), GlobalModel(w=np.array([1.0, -1.0])),
               MinMaxStats(mins=np.zeros(2), maxs=np.ones(2)))
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text(
        "a,b,label\n0.9,0.1,yes\n0.8,0.2,yes\n0.1,0.9,no\n0.2,0.8,no\n"
    )
    rc = main(["evaluate", "--model", str(model_path), "--csv", str(csv_path),
               "--label-column", "label", "--positive-label", "yes"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f1"] == 1.0
    assert report["n"] == 4
    assert report["confusion"] == [[2, 0], [0, 2]]


def test_evaluate_rejects_a_csv_whose_width_is_not_the_models(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    save_model(str(model_path), GlobalModel(w=np.array([1.0, -1.0, 0.5])),
               MinMaxStats(mins=np.zeros(3), maxs=np.ones(3)))
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("a,b,label\n0.9,0.1,yes\n0.1,0.9,no\n")
    rc = main(["evaluate", "--model", str(model_path), "--csv", str(csv_path),
               "--label-column", "label", "--positive-label", "yes"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "has 2 features but the model" in err and "has 3 weights" in err, err


def test_cv_prints_the_single_grid_point(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    rc = main(["cv", "-c", cfg])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chosen"] == {"rho": 0.01, "T": 3}
    assert len(report["table"]) == 1
    assert report["table"][0]["mean_f1"] >= 0.0


def test_serve_rejects_multipoint_grid(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", grid={"rho": [1e-2, 1e-1], "T": [3]})
    assert main(["serve", "-c", cfg]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "rho" in err


def test_client_rejects_out_of_range_id(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    rc = main(["client", "-c", cfg, "--address", "127.0.0.1:9", "--client-id", "5"])
    assert rc == 1
    assert "client id" in capsys.readouterr().err


def test_client_rejects_an_address_without_a_port(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    rc = main(["client", "-c", cfg, "--address", "127.0.0.1", "--client-id", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--address" in err and "'127.0.0.1'" in err, err


def test_help_and_missing_subcommand_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 1
    capsys.readouterr()


def serve_over_tcp(cfg_path):
    """Run `serve` and both `client` subcommands as separate processes and
    return the server's JSON report."""
    # the children import fedrosvm from this checkout's src/, whatever the
    # parent's PYTHONPATH
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    server = subprocess.Popen(
        [sys.executable, "-m", "fedrosvm.cli", "serve", "-c", cfg_path, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = server.stdout.readline()
        assert banner.startswith("serving on "), banner
        address = banner.split()[2].rstrip(",")
        # both clients must be up at once: the server barrier waits for G joins
        clients = [
            subprocess.Popen(
                [sys.executable, "-m", "fedrosvm.cli", "client", "-c", cfg_path,
                 "--address", address, "--client-id", str(g)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            )
            for g in range(2)
        ]
        client_io = [proc.communicate(timeout=120) for proc in clients]
        out, err = server.communicate(timeout=120)
    finally:
        for proc in [server] + list(locals().get("clients", [])):
            if proc.poll() is None:
                proc.kill()
    assert server.returncode == 0, err
    for g, (proc, (c_out, c_err)) in enumerate(zip(clients, client_io)):
        assert proc.returncode == 0, c_err
        assert f"client {g} finished" in c_out
    return json.loads(out)


def test_tcp_serve_and_clients_match_in_process_run(tmp_path):
    cfg_path = write_config(tmp_path / "cfg.json")
    report = serve_over_tcp(cfg_path)
    assert report["test_f1"] >= 0.0

    # the TCP run must land on exactly the model the in-process run produces
    cfg = ExperimentConfig.from_file(cfg_path)
    shards, _, _ = prepare_repetition(cfg, cfg.base_seed)
    model, _ = train_model(cfg, {"rho": 0.01, "T": 3}, shards, cfg.base_seed)
    np.testing.assert_array_equal(np.array(report["w_last"]), model.w)
    np.testing.assert_array_equal(np.array(report["model_w"]), model.w)


def test_tcp_serve_scores_the_sm_model_train_keeps(tmp_path):
    # at this point the best objective is reached in round 2 of 4
    cfg_path = write_config(tmp_path / "cfg.json", model="sm",
                            grid={"gamma0": [100.0], "T": [4]})
    report = serve_over_tcp(cfg_path)
    assert report["best_round"] == 2

    cfg = ExperimentConfig.from_file(cfg_path)
    shards, test, _ = prepare_repetition(cfg, cfg.base_seed)
    model, _ = train_model(cfg, {"gamma0": 100.0, "T": 4}, shards, cfg.base_seed)
    np.testing.assert_array_equal(np.array(report["model_w"]), model.w)
    assert report["model_w"] != report["w_last"]
    assert report["test_f1"] == evaluate(model, test).f1
