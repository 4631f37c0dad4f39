"""The benchmark's traced run (perfbench/spans.py) wraps module-level names
that chainmix code looks up at call time.  A rename or an inlined helper
would leave a boundary without calls, so every one must resolve."""

import importlib
from pathlib import Path

import numpy as np
import pytest

import chainmix.vem
from chainmix import (
    EmConfig,
    NumericalError,
    Responsibilities,
    TrajectoryDataset,
    VemConfig,
    em_fit,
    multistart_fit,
    random_mixture_params,
    sample_mixture,
    sufficient_stats,
)

from helpers import zero_probability_stats

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


def test_e_step_failure_in_a_traced_leaf(monkeypatch):
    # the zero-probability error starts inside the wrapped log_normalize_rows
    # leaf; the traced run must pass it on with its iteration and unwind
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    stats = zero_probability_stats()
    tracer = spans.Tracer()
    with tracer.installed(), np.errstate(over="ignore"):
        with pytest.raises(NumericalError) as err:
            em_fit(stats, Responsibilities(np.ones((3, 1))), EmConfig(k=1))
        with pytest.raises(NumericalError, match="^all 2 restarts failed: restart 0: trajectory 1"):
            chainmix.multistart_fit(stats, "em", 2, EmConfig(k=1))
    assert str(err.value) == "trajectory 1 has zero probability under every component"
    assert err.value.iteration == 1
    assert tracer.leaves[(-1, "model_core.log_normalize_rows")][1] == 1
    assert [(s.name, s.info) for s in tracer.spans] == (
        [("multistart.multistart_fit", {"error": "NumericalError"})]
        + [("multistart.init", {}), ("em.em_fit", {"error": "NumericalError"})] * 2)
    assert tracer._stack == [-1]
