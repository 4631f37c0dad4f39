"""The benchmark's traced run (perfbench/spans.py) wraps module-level names
that chainmix code looks up at call time.  A rename or an inlined helper
would leave a boundary without calls, so every one must resolve."""

import importlib
from pathlib import Path

import chainmix.vem
from chainmix import TrajectoryDataset

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


def test_both_dataset_constructors_reach_the_traced_init(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    with tracer.installed():
        TrajectoryDataset(([0, 1], [1]), s=2)
        TrajectoryDataset.from_flat([0, 1, 1], [2, 1], s=2)
    assert [s.name for s in tracer.spans] == ["model_core.dataset_init"] * 2
