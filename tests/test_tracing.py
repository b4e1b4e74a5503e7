"""The benchmark's tracer against the library.

`perfbench/tracing.py` rebinds a fixed set of library names; a name it
needs that the library no longer has breaks the traced benchmark run.
Installing and uninstalling the tracer here catches that in the unit
tests instead, and a traced run of the experiment harness checks that it
still reaches the names the tracer wraps.
"""

import importlib
from collections import Counter
from pathlib import Path

from fedrosvm import baselines, experiments, federation, robust, wire

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
    # one federation per fold and grid point (T is nested), then the final fit
    assert admm["federation.run_federation"] == 3 * 2 + 1
    # the l2 baselines cross-validate in one stacked run and fit once more
    assert fedavg["federation.run_federation"] == 0
    assert fedavg["baselines.train_fed_l2_svm"] == 1
    for spans in (admm, fedavg):
        assert spans["experiments.cross_validate"] == 1
        assert spans["experiments.train_model"] == 1
        assert spans["data.prepare"] == 1
