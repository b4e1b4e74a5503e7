"""The benchmark's tracer against the library.

`perfbench/tracing.py` rebinds a fixed set of library names; a name it
needs that the library no longer has breaks the traced benchmark run.
Installing and uninstalling the tracer here catches that in the unit
tests instead, and traced runs of the experiment harness and of an SM
federation check that they still reach the names the tracer wraps.
"""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np

from fedrosvm import baselines, experiments, federation, robust, wire
from fedrosvm.core import DatasetView

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (baselines, experiments, federation, robust, wire,
          federation.InProcessTransport, federation.TcpServerTransport)


def test_tracer_installs_and_uninstalls_against_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    before = [dict(vars(owner)) for owner in OWNERS]

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer._undo
        for owner, attr, original in tracer._undo:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()

    for owner, names in zip(OWNERS, before):
        restored = vars(owner)
        assert all(restored[name] is value for name, value in names.items()), owner


def test_traced_experiments_record_the_spans_noisy_cv_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    base = {"dataset": {"kind": "synthetic", "N": 60, "P": 2},
            "partition": {"scheme": "label_noise", "G": 2, "noise_rate": 0.1},
            "cv_folds": 3, "repetitions": 1}
    configs = [experiments.ExperimentConfig.from_dict({
        **base, "name": model, "model": model, "grid": {knob: [1e-2, 1e-1], "T": [2, 3]},
    }) for model, knob in (("admm", "rho"), ("fedavg", "gamma0"))]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, cfg in enumerate(configs):
            tracer.op = op
            assert experiments.run_experiment(cfg).aggregates["failures"] == 0
    finally:
        tracer.uninstall()

    admm, fedavg = (Counter(s[tracing.NAME] for s in tracer.spans if s[tracing.OP] == op)
                    for op in (0, 1))
    # cross-validation runs every fold and grid point in lockstep, without
    # run_federation; only the final fit goes through the runtime
    assert admm["federation.run_federation"] == 1
    # the l2 baselines cross-validate in one stacked run and fit once more
    assert fedavg["federation.run_federation"] == 0
    assert fedavg["baselines.train_fed_l2_svm"] == 1
    for spans in (admm, fedavg):
        assert spans["experiments.cross_validate"] == 1
        assert spans["experiments.train_model"] == 1
        assert spans["data.prepare"] == 1


def test_every_traced_admm_client_step_spans_a_solver_call(monkeypatch):
    # perfbench's per-layer solver metrics and its cold-retry count read the
    # solver.solve spans under each client step; a lone step that bypassed
    # robust.solve would leave them empty
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    cfg = experiments.ExperimentConfig.from_dict({
        "name": "admm", "model": "admm", "dataset": {"kind": "synthetic", "N": 40, "P": 2},
        "partition": {"scheme": "even", "G": 2}, "grid": {"rho": [1e-1], "T": [3]},
        "repetitions": 1})
    shards, _, _ = experiments.prepare_repetition(cfg, 0)
    fed = experiments.federation_config(cfg, {"rho": 1e-1}, shards, 3)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        federation.run_federation(fed, shards)
    finally:
        tracer.uninstall()

    steps = [s for s in tracer.spans if s[tracing.NAME] == "robust.admm_client_step"]
    assert len(steps) == 2 * 3
    solves_under = Counter(s[tracing.PARENT] for s in tracer.spans
                           if s[tracing.NAME] == "solver.solve")
    assert all(solves_under[s[tracing.ID]] >= 1 for s in steps)


def test_traced_sm_federation_records_every_extraction_the_gate_validates(monkeypatch):
    # sm-oracle's traced gate validates every distribution the tracer sees
    # pass through robust.extract_worst_case; an extraction hidden from the
    # tracer would leave that gate with nothing to check
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    rng = np.random.default_rng(8)
    G, T = 2, 3
    shards = [DatasetView(X=rng.uniform(0.05, 0.95, (10, 2)), y=np.tile([1.0, -1.0], 5))
              for _ in range(G)]
    fed = federation.FederationConfig(
        clients=[robust.ClientConfig(epsilon=2e-3, kappa=0.5, alpha=1.0 / G)] * G, T=T,
        algorithm=federation.Algorithm.SM, gamma0=0.5)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        federation.run_federation(fed, shards)
    finally:
        tracer.uninstall()

    spans = Counter(s[tracing.NAME] for s in tracer.spans)
    assert spans["robust.extract_worst_case"] == G * T
    assert spans["robust.build_sm_lp"] == G
    assert spans["solver.solve"] == G * T
    assert len(tracer.distributions) == G * T
    assert tracer.validate_distributions() == []
