"""The benchmark's tracer against the library.

`perfbench/tracing.py` rebinds a fixed set of library names; a name it
needs that the library no longer has breaks the traced benchmark run.
Installing and uninstalling the tracer here catches that in the unit
tests instead.
"""

import importlib
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
