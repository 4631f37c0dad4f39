"""The benchmark's traced run (perfbench/spans.py) wraps module-level names
that chainmix code looks up at call time.  A rename or an inlined helper
would leave a boundary without calls, so every one must resolve."""

import importlib
from pathlib import Path

import chainmix.vem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    digamma = chainmix.vem.digamma
    tracer = spans.Tracer()
    with tracer.installed():
        assert tracer.missing == []
        assert chainmix.vem.digamma is not digamma
    assert chainmix.vem.digamma is digamma
