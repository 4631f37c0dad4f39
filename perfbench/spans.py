"""Span tracing at chainmix module boundaries, installed from outside the package.

`Tracer.installed()` swaps the module-level names that chainmix code looks up
at call time (for example `chainmix.vem.digamma` or
`chainmix.multistart.vem_fit`) for timing wrappers and restores them on exit.
Each wrapped call records a span: name, start, end, parent span and job id.
Hot leaf calls (digamma and the E-step helpers) are aggregated per parent
span instead of recorded one by one.  Spans stay in memory until `dump`.

`layer_metrics` turns the spans into the per-layer metrics.  A metric whose
boundary saw no calls is None, which the traced run prints as absent, never as
zero seconds.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance under which a restart counts as tied with the best.
TIE_RTOL = 1e-9


@dataclass
class Span:
    sid: int
    name: str
    parent: int
    job: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _fit_info(args, result):
    fit = result[0] if isinstance(result, tuple) else result
    return {"iterations": int(fit.iterations), "converged": bool(fit.converged)}


def _multistart_info(args, report):
    obj = report.all_objectives
    best = np.nanmax(obj)
    ties = np.abs(obj - best) <= TIE_RTOL * max(1.0, abs(best))
    return {"restarts": int(obj.size), "failed": len(report.failures),
            "ties": int(np.sum(ties))}


def _file_info(args, result):
    return {"file_bytes": os.path.getsize(args["path"])}


def _spectral_info(args, model):
    return {"fit_points": int(model.points.shape[0])}


def _misa_info(args, result):
    return {"sim_time": float(args["t_end"]) + float(args["burn_in"])}


# (owner, attribute, span name, leaf, info hook).  Attributes of the
# `chainmix` package are the names the workloads call; the others are the
# names chainmix modules resolve internally at call time.
BOUNDARIES = (
    ("chainmix", "sample_mixture", "model_core.sample_mixture", False, None),
    ("chainmix", "sufficient_stats", "model_core.sufficient_stats", False, None),
    ("chainmix", "kl_report", "theory.kl_report", False, None),
    ("chainmix", "multistart_fit", "multistart.multistart_fit", False, _multistart_info),
    ("chainmix", "accuracy", "metrics.accuracy", False, None),
    ("chainmix", "misa_mixture_experiment", "gene_circuit.misa_mixture_experiment", False, None),
    ("chainmix.dataio", "write_trajectories", "dataio.write_trajectories", False, _file_info),
    ("chainmix.dataio", "read_trajectories", "dataio.read_trajectories", False, None),
    ("chainmix.model_core.TrajectoryDataset", "__post_init__", "model_core.dataset_init", False, None),
    ("chainmix.multistart", "sample_simplex_rows", "multistart.init", False, None),
    ("chainmix.multistart", "vem_fit", "vem.vem_fit", False, _fit_info),
    ("chainmix.multistart", "em_fit", "em.em_fit", False, _fit_info),
    ("chainmix.multistart", "accuracy", "metrics.accuracy", False, None),
    ("chainmix.vem", "digamma", "vem.digamma", True, None),
    ("chainmix.vem", "log_mixture_weights", "model_core.log_mixture_weights", True, None),
    ("chainmix.vem", "log_normalize_rows", "model_core.log_normalize_rows", True, None),
    ("chainmix.em", "log_mixture_weights", "model_core.log_mixture_weights", True, None),
    ("chainmix.em", "log_normalize_rows", "model_core.log_normalize_rows", True, None),
    ("chainmix.gene_circuit", "misa_simulate", "gene_circuit.misa_simulate", False, _misa_info),
    ("chainmix.gene_circuit", "spectral_fit", "clustering.spectral_fit", False, _spectral_info),
    ("chainmix.gene_circuit", "discretize_trajectories", "clustering.discretize", False, None),
    ("chainmix.gene_circuit", "sufficient_stats", "model_core.sufficient_stats", False, None),
    ("chainmix.gene_circuit", "multistart_fit", "multistart.multistart_fit", False, _multistart_info),
    ("chainmix.gene_circuit", "accuracy", "metrics.accuracy", False, None),
    ("chainmix.clustering", "kmeans", "clustering.kmeans", False, None),
)


def _resolve(path):
    """Import a dotted module path whose last component may be a class."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr, None)


class Tracer:
    """Records spans for every call through the wrapped boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict = {}  # (parent sid, name) -> [seconds, calls]
        self.missing: list[str] = []
        self._stack: list[int] = [-1]
        self.job = -1

    def _wrap(self, fn, name, leaf, info):
        stack, spans, leaves = self._stack, self.spans, self.leaves
        clock = time.perf_counter

        if leaf:
            def leaf_wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    slot = leaves.setdefault((stack[-1], name), [0.0, 0])
                    slot[0] += clock() - t0
                    slot[1] += 1
            return leaf_wrapper

        signature = inspect.signature(fn) if info else None

        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, stack[-1], self.job, 0.0)
            spans.append(span)
            stack.append(span.sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if info:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info.update(info(bound.arguments, result))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        saved = []
        self.missing = []
        try:
            for path, attr, name, leaf, info in BOUNDARIES:
                owner = _resolve(path)
                original = None if owner is None else vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{path}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, leaf, info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path):
        """Write all spans and leaf aggregates as JSON."""
        payload = {
            "spans": [vars(s) for s in self.spans],
            "leaves": [{"parent": p, "name": n, "seconds": v[0], "calls": v[1]}
                       for (p, n), v in self.leaves.items()],
            "missing_boundaries": self.missing,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _Totals:
    """Per-name sums over spans and leaf aggregates, plus self times."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.secs = defaultdict(float)
        self.calls = defaultdict(int)
        self.child_secs = defaultdict(float)  # parent sid -> seconds in children
        self.children = defaultdict(list)
        for s in self.spans:
            self.secs[s.name] += s.seconds
            self.calls[s.name] += 1
            if s.parent >= 0:
                self.child_secs[s.parent] += s.seconds
                self.children[s.parent].append(s)
        for (parent, name), (secs, calls) in tracer.leaves.items():
            self.secs[name] += secs
            self.calls[name] += calls
            if parent >= 0:
                self.child_secs[parent] += secs

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def self_secs(self, name):
        return sum(s.seconds - self.child_secs[s.sid] for s in self.named(name))

    def info_sum(self, name, key, where=lambda info: True):
        return sum(s.info.get(key, 0) for s in self.named(name) if where(s.info))

    def restart_seconds(self):
        """Per-restart time: init draw, fit and accuracy of one restart."""
        out = []
        for ms in self.named("multistart.multistart_fit"):
            for child in self.children[ms.sid]:
                if child.name == "multistart.init":
                    out.append(0.0)
                if out:
                    out[-1] += child.seconds
        return out


def _fit_layer(t: _Totals, prefix: str, names: tuple, time_metric: str):
    """Solver metrics over the spans `names`; self time excludes the leaves."""
    fits = [s for name in names for s in t.named(name) if "iterations" in s.info]
    iters = sum(s.info["iterations"] for s in fits)
    stalled = sum(s.info["iterations"] for s in fits if not s.info["converged"])
    secs = sum(t.secs[name] for name in names)
    return {
        f"{prefix}.{time_metric}": secs,
        f"{prefix}.self_s": sum(t.self_secs(name) for name in names),
        f"{prefix}.iterations": iters,
        f"{prefix}.us_per_iteration": 1e6 * secs / iters if iters else None,
        f"{prefix}.converged_frac": sum(s.info["converged"] for s in fits) / len(fits) if fits else None,
        f"{prefix}.maxiter_iter_share": stalled / iters if iters else None,
    }


# Metric name, or its layer, -> the span or leaf names whose calls it needs.
# The `fit` layer is whichever solver the workload runs, VEM or EM.
SOURCES = {
    "vem": "vem.vem_fit", "em": "em.em_fit", "multistart": "multistart.multistart_fit",
    "fit": ("vem.vem_fit", "em.em_fit"),
    "vem.digamma_s": "vem.digamma", "vem.digamma_calls": "vem.digamma",
    "model_core.log_mixture_weights_s": "model_core.log_mixture_weights",
    "model_core.log_mixture_weights_calls": "model_core.log_mixture_weights",
    "model_core.log_normalize_rows_s": "model_core.log_normalize_rows",
    "model_core.sample_mixture_s": "model_core.sample_mixture",
    "model_core.dataset_init_s": "model_core.dataset_init",
    "model_core.sufficient_stats_s": "model_core.sufficient_stats",
    "dataio.write_trajectories_s": "dataio.write_trajectories",
    "dataio.file_bytes": "dataio.write_trajectories",
    "dataio.read_trajectories_s": "dataio.read_trajectories",
    "multistart.init_s": "multistart.init",
    "metrics": "metrics.accuracy", "theory": "theory.kl_report",
    "clustering.spectral_fit_s": "clustering.spectral_fit",
    "clustering.fit_points": "clustering.spectral_fit",
    "clustering.kmeans_s": "clustering.kmeans",
    "clustering.discretize_s": "clustering.discretize",
    "gene_circuit.misa_simulate_s": "gene_circuit.misa_simulate",
    "gene_circuit.trajectories": "gene_circuit.misa_simulate",
    "gene_circuit.sim_time_per_s": "gene_circuit.misa_simulate",
    "gene_circuit.self_s": "gene_circuit.misa_mixture_experiment",
}


def sources_of(metric: str) -> tuple:
    """The boundaries a metric is measured at: exact name, else its layer."""
    source = SOURCES.get(metric) or SOURCES[metric.split(".")[0]]
    return source if isinstance(source, tuple) else (source,)


# Unit of every per-layer metric: those `layer_metrics` computes and the three
# the traced run adds (trace.overhead_frac, fit.failed_frac, fit.k_recovered_frac).
UNITS = {
    "vem.vem_fit_s": "s", "vem.digamma_s": "s", "vem.digamma_calls": "count",
    "vem.self_s": "s", "vem.us_per_iteration": "us", "vem.iterations": "count",
    "vem.converged_frac": "fraction", "vem.maxiter_iter_share": "fraction",
    "em.em_fit_s": "s", "em.self_s": "s", "em.iterations": "count",
    "em.us_per_iteration": "us", "em.converged_frac": "fraction",
    "em.maxiter_iter_share": "fraction",
    "model_core.log_mixture_weights_s": "s", "model_core.log_mixture_weights_calls": "count",
    "model_core.log_normalize_rows_s": "s", "model_core.sample_mixture_s": "s",
    "model_core.dataset_init_s": "s", "model_core.sufficient_stats_s": "s",
    "dataio.write_trajectories_s": "s", "dataio.read_trajectories_s": "s",
    "dataio.file_bytes": "bytes",
    "multistart.multistart_fit_s": "s", "multistart.self_s": "s", "multistart.init_s": "s",
    "multistart.restarts": "count", "multistart.failed_restarts": "count",
    "multistart.restart_s_p50": "s", "multistart.restart_s_p95": "s",
    "multistart.best_tie_frac": "fraction",
    "metrics.accuracy_s": "s", "metrics.accuracy_calls": "count",
    "theory.kl_report_s": "s", "theory.kl_report_calls": "count",
    "clustering.spectral_fit_s": "s", "clustering.kmeans_s": "s",
    "clustering.discretize_s": "s", "clustering.fit_points": "count",
    "gene_circuit.misa_simulate_s": "s", "gene_circuit.trajectories": "count",
    "gene_circuit.sim_time_per_s": "tu/s", "gene_circuit.self_s": "s",
    "fit.solver_s": "s", "fit.self_s": "s", "fit.iterations": "count",
    "fit.us_per_iteration": "us", "fit.converged_frac": "fraction",
    "fit.maxiter_iter_share": "fraction", "fit.failed_frac": "fraction",
    "fit.k_recovered_frac": "fraction", "trace.overhead_frac": "fraction",
}

# Metrics that are ratios or quantiles rather than totals over a pass.
INTENSIVE = {
    "vem.us_per_iteration", "vem.converged_frac", "vem.maxiter_iter_share",
    "em.us_per_iteration", "em.converged_frac", "em.maxiter_iter_share",
    "fit.us_per_iteration", "fit.converged_frac", "fit.maxiter_iter_share",
    "multistart.restart_s_p50", "multistart.restart_s_p95", "multistart.best_tie_frac",
    "gene_circuit.sim_time_per_s",
}


def layer_metrics(tracer: Tracer, passes: int = 1) -> dict:
    """Per-layer values per traced pass; None where the boundary saw no calls.

    Every traced pass runs the same jobs, so totals are divided by `passes`;
    counts divide exactly.
    """
    t = _Totals(tracer)
    restarts = t.restart_seconds()
    n_restarts = t.info_sum("multistart.multistart_fit", "restarts")
    sim = t.secs["gene_circuit.misa_simulate"]
    values = {
        **_fit_layer(t, "vem", ("vem.vem_fit",), "vem_fit_s"),
        **_fit_layer(t, "em", ("em.em_fit",), "em_fit_s"),
        **_fit_layer(t, "fit", ("vem.vem_fit", "em.em_fit"), "solver_s"),
        "vem.digamma_s": t.secs["vem.digamma"],
        "vem.digamma_calls": t.calls["vem.digamma"],
        "model_core.log_mixture_weights_s": t.secs["model_core.log_mixture_weights"],
        "model_core.log_mixture_weights_calls": t.calls["model_core.log_mixture_weights"],
        "model_core.log_normalize_rows_s": t.secs["model_core.log_normalize_rows"],
        "model_core.sample_mixture_s": t.secs["model_core.sample_mixture"],
        "model_core.dataset_init_s": t.secs["model_core.dataset_init"],
        "model_core.sufficient_stats_s": t.secs["model_core.sufficient_stats"],
        "dataio.write_trajectories_s": t.secs["dataio.write_trajectories"],
        "dataio.read_trajectories_s": t.secs["dataio.read_trajectories"],
        "dataio.file_bytes": t.info_sum("dataio.write_trajectories", "file_bytes"),
        "multistart.multistart_fit_s": t.secs["multistart.multistart_fit"],
        "multistart.self_s": t.self_secs("multistart.multistart_fit"),
        "multistart.init_s": t.secs["multistart.init"],
        "multistart.restarts": n_restarts,
        "multistart.failed_restarts": t.info_sum("multistart.multistart_fit", "failed"),
        "multistart.restart_s_p50": float(np.percentile(restarts, 50)) if restarts else None,
        "multistart.restart_s_p95": float(np.percentile(restarts, 95)) if restarts else None,
        "multistart.best_tie_frac": (t.info_sum("multistart.multistart_fit", "ties") / n_restarts
                                     if n_restarts else None),
        "metrics.accuracy_s": t.secs["metrics.accuracy"],
        "metrics.accuracy_calls": t.calls["metrics.accuracy"],
        "theory.kl_report_s": t.secs["theory.kl_report"],
        "theory.kl_report_calls": t.calls["theory.kl_report"],
        "clustering.spectral_fit_s": t.secs["clustering.spectral_fit"],
        "clustering.kmeans_s": t.secs["clustering.kmeans"],
        "clustering.discretize_s": t.secs["clustering.discretize"],
        "clustering.fit_points": t.info_sum("clustering.spectral_fit", "fit_points"),
        "gene_circuit.misa_simulate_s": sim,
        "gene_circuit.trajectories": t.calls["gene_circuit.misa_simulate"],
        "gene_circuit.sim_time_per_s": (t.info_sum("gene_circuit.misa_simulate", "sim_time") / sim
                                        if sim else None),
        "gene_circuit.self_s": t.self_secs("gene_circuit.misa_mixture_experiment"),
    }
    for metric, value in values.items():
        if not any(t.calls[source] for source in sources_of(metric)):
            values[metric] = None
        elif metric not in INTENSIVE:
            values[metric] = value // passes if isinstance(value, int) else value / passes
    return values
