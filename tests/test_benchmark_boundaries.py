"""The benchmark's traced run (perfbench/spans.py) wraps module-level names
that chainmix code looks up at call time.  A rename or an inlined helper
would leave a boundary without calls, so every one must resolve."""

import importlib
from pathlib import Path

import pytest

import chainmix.vem
from chainmix import (
    EmConfig,
    TrajectoryDataset,
    VemConfig,
    multistart_fit,
    random_mixture_params,
    sample_mixture,
    sufficient_stats,
)

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


@pytest.mark.parametrize("algorithm, config, span", [
    ("em", EmConfig(k=2), "em.em_fit"),
    ("vem", VemConfig(k_max=3), "vem.vem_fit"),
])
def test_fit_spans_carry_iterations_and_convergence(monkeypatch, algorithm, config, span):
    # the traced run's fit.* metrics read these two fields off each fit span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    data, _ = sample_mixture(random_mixture_params(2, 2, seed=1), 10, 8, seed=2)
    stats = sufficient_stats(data)
    tracer = spans.Tracer()
    with tracer.installed():
        report = multistart_fit(stats, algorithm, 2, config, seed=3)
    fits = [s.info for s in tracer.spans if s.name == span]
    assert fits == [{"iterations": int(i), "converged": bool(c)}
                    for i, c in zip(report.all_iterations, report.all_converged)]
