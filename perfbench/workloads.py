"""The benchmark's seeded workloads and the checks on every job's outputs.

Job j of a run with seed `seed` draws all of its inputs from
SeedSequence(seed, spawn_key=(j,)), so a (seed, j) pair always names the same
job.  Every job calls chainmix public functions serially, and every call goes
through an attribute lookup on the `chainmix` package or its `dataio` module,
which is where the traced run installs its wrappers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import chainmix
import chainmix.dataio


@dataclass
class JobResult:
    """What one job produced, reduced to the numbers the benchmark reports."""

    failed_restarts: int
    accuracy: float
    surviving: int
    objective: float
    k_true: int
    # Counts that must repeat exactly whenever the same job runs again.
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _streams(seed: int, j: int, n: int):
    return np.random.SeedSequence(seed, spawn_key=(j,)).spawn(n)


def _check_stats(stats, n: int, t: int, problems: list):
    if stats.U.sum() != n or stats.V.sum() != n * t:
        problems.append(f"sufficient_stats totals U={stats.U.sum()} V={stats.V.sum()}, "
                        f"expected N={n} and N*T={n * t}")


def _check_fit(report, n: int, k: int, problems: list):
    labels = report.best.labels
    if not np.isfinite(report.best.objective):
        problems.append(f"best objective is not finite ({report.best.objective})")
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k:
        problems.append(f"labels invalid: shape {labels.shape}, range "
                        f"[{labels.min()}, {labels.max()}] for k={k}")


def _result(report, acc, k_true, problems, **counts) -> JobResult:
    return JobResult(
        failed_restarts=len(report.failures),
        accuracy=float(acc),
        surviving=int(report.best.surviving_components),
        objective=float(report.best.objective),
        k_true=k_true,
        counts={
            "iterations": int(report.all_iterations.sum()),
            "failed_restarts": len(report.failures),
            "best_index": int(report.best_index),
            "surviving": int(report.best.surviving_components),
            **counts,
        },
        problems=problems,
    )


# fig2-vem: the paper's headline task, N=100 trajectories of T=30 over s=3
# states from k=4 chains, fitted by VEM with k_max=10.
FIG2_RESTARTS = 1


def fig2_vem(seed: int, j: int, workdir) -> JobResult:
    s_params, s_sample, s_fit = _streams(seed, j, 3)
    n, t, k_true, k_max = 100, 30, 4, 10
    params = chainmix.random_mixture_params(k=k_true, s=3, seed=s_params)
    data, z = chainmix.sample_mixture(params, n, t, seed=s_sample)
    stats = chainmix.sufficient_stats(data)
    kl = chainmix.kl_report(params, horizon=t)
    report = chainmix.multistart_fit(stats, "vem", restarts=FIG2_RESTARTS,
                                     config=chainmix.VemConfig(k_max=k_max),
                                     seed=s_fit, true_labels=z)
    acc, _ = chainmix.accuracy(z, report.best.labels)
    problems = []
    _check_stats(stats, n, t, problems)
    _check_fit(report, n, k_max, problems)
    if not 0.0 <= kl.bound <= 1.0:
        problems.append(f"misclassification bound {kl.bound} outside [0, 1]")
    return _result(report, acc, k_true, problems)


# large-n-em: the CLI simulate -> fit flow at scale, through a trajectory file.
EM_MAX_ITERS = 15


def large_n_em(seed: int, j: int, workdir) -> JobResult:
    s_params, s_sample, s_fit = _streams(seed, j, 3)
    n, t, k = 20000, 100, 4
    params = chainmix.random_mixture_params(k=k, s=5, seed=s_params)
    data, z = chainmix.sample_mixture(params, n, t, seed=s_sample)
    path = os.path.join(workdir, f"large-n-em-{j}.txt")
    try:
        chainmix.dataio.write_trajectories(path, data)
        file_bytes = os.path.getsize(path)
        loaded = chainmix.dataio.read_trajectories(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    problems = []
    if loaded.s != data.s or loaded.n != data.n or not np.array_equal(
            np.stack(loaded.trajectories), np.stack(data.trajectories)):
        problems.append("file round trip did not return the sampled states")
    stats = chainmix.sufficient_stats(loaded)
    report = chainmix.multistart_fit(stats, "em", restarts=2,
                                     config=chainmix.EmConfig(k=k, max_iters=EM_MAX_ITERS),
                                     seed=s_fit, true_labels=z)
    acc, _ = chainmix.accuracy(z, report.best.labels)
    _check_stats(stats, n, t, problems)
    _check_fit(report, n, k, problems)
    return _result(report, acc, k, problems, file_bytes=file_bytes)


# misa-cell: one fig8 cell at rate ratio 25 with trajectories of T=50.
def misa_cell(seed: int, j: int, workdir) -> JobResult:
    (stream,) = _streams(seed, j, 1)
    n_per_group, t_len = 15, 50
    result = chainmix.misa_mixture_experiment(
        0.01, 0.25, n_per_group=n_per_group, t_len=t_len, restarts=20,
        seed=int(stream.generate_state(1)[0]))
    data = result.dataset
    problems = []
    if data.n != 2 * n_per_group or np.any(data.lengths != t_len):
        problems.append(f"dataset has {data.n} trajectories with lengths "
                        f"{sorted(set(data.lengths.tolist()))}, expected "
                        f"{2 * n_per_group} of {t_len} transitions")
    _check_fit(result.report, data.n, 10, problems)
    return _result(result.report, result.accuracy, 2, problems,
                   states=data.n * (t_len + 1))


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable
    jobs: int  # distinct jobs in a run; a run cycles through them
    restarts: int  # restarts per job, all counted as failed if the job raises


WORKLOADS = {
    w.name: w for w in (
        Workload("fig2-vem", fig2_vem, jobs=300, restarts=FIG2_RESTARTS),
        Workload("large-n-em", large_n_em, jobs=6, restarts=2),
        Workload("misa-cell", misa_cell, jobs=6, restarts=20),
    )
}


def warm_up(workdir):
    """Touch every code path once on tiny inputs so lazy set-up is done."""
    params = chainmix.random_mixture_params(k=2, s=3, seed=1)
    data, z = chainmix.sample_mixture(params, 8, 5, seed=2)
    path = os.path.join(workdir, "warm-up.txt")
    chainmix.dataio.write_trajectories(path, data)
    data = chainmix.dataio.read_trajectories(path)
    os.remove(path)
    stats = chainmix.sufficient_stats(data)
    chainmix.kl_report(params, horizon=5)
    chainmix.multistart_fit(stats, "vem", 2, chainmix.VemConfig(k_max=3), seed=3, true_labels=z)
    chainmix.multistart_fit(stats, "em", 2, chainmix.EmConfig(k=2), seed=4, true_labels=z)
    chainmix.misa_mixture_experiment(0.01, 0.25, n_per_group=2, t_len=3, restarts=2,
                                     seed=5, burn_in=1.0, n_states=2)
