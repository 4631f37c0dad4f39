"""Named experiment recipes driven by the CLI.

Each recipe simulates data, fits mixtures, and returns plot-ready rows
(list of dicts) plus a list of per-cell failures; rendering is left to
external tools.  Every cell derives its seed from the master seed and the
cell index, so sweeps are reproducible and independent of execution order.

Preset names and default parameters:

  fig2: component-count recovery on simulated mixtures
        (k_true=4, s=3, N=100, T=30, k_max=10, 100 restarts, 20 instances).
  fig3: accuracy versus trajectory length and collection size
        (T in {5,10,30,100} x N in {25,100,400}, 250 trials per cell).
  fig4: local-optima landscape over many restarts
        (k_max=15, k_true=10, s=7, N=100, T=50, 1000 restarts).
  fig8: two-population gene-circuit discrimination sweep over the
        repressor-unbinding ratio and trajectory length (5 repetitions).
"""

from __future__ import annotations

import numpy as np

from .em import EmConfig
from .gene_circuit import misa_mixture_experiment
from .metrics import accuracy
from .model_core import random_mixture_params, sample_mixture, sufficient_stats
from .multistart import multistart_fit
from .vem import VemConfig

EXPERIMENT_NAMES = ("fig2", "fig3", "fig4", "fig8")


def _cell_seed(master: int, *key) -> int:
    seq = np.random.SeedSequence(master, spawn_key=tuple(int(v) for v in key))
    return int(seq.generate_state(1, np.uint64)[0])


def _failed_row(keys: dict, result_columns) -> dict:
    """Sweep row for a cell that raised: its result columns left blank."""
    return {**keys, **dict.fromkeys(result_columns, ""), "status": "failed"}


def run_fig2(instances: int = 20, k_true: int = 4, s: int = 3, n_traj: int = 100,
             t_len: int = 30, k_max: int = 10, restarts: int = 100,
             seed: int = 0):
    """Component-count recovery: does the best-bound run keep exactly k_true?"""
    rows = []
    for inst in range(instances):
        inst_seed = _cell_seed(seed, inst)
        params = random_mixture_params(k_true, s, seed=inst_seed)
        data, labels = sample_mixture(params, n_traj, t_len, seed=inst_seed + 1)
        stats = sufficient_stats(data)
        report = multistart_fit(stats, "vem", restarts, VemConfig(k_max=k_max),
                                seed=inst_seed + 2, true_labels=labels)
        acc, _ = accuracy(labels, report.best.labels)
        rows.append({
            "instance": inst,
            "seed": inst_seed,
            "surviving_components": report.best.surviving_components,
            "accuracy": acc,
            "final_objective": report.best.objective,
        })
    return rows, []


def run_fig3(t_values=(5, 10, 30, 100), n_values=(25, 100, 400),
             trials: int = 250, k_true: int = 4, s: int = 3, k_max: int = 10,
             restarts: int = 8, seed: int = 0):
    """Accuracy over an (N, T) grid of simulated mixtures, `trials` per cell."""
    rows = []
    failures = []
    for n_traj in n_values:
        for t_len in t_values:
            for trial in range(trials):
                cell_seed = _cell_seed(seed, n_traj, t_len, trial)
                keys = {"n": n_traj, "t": t_len, "trial": trial, "seed": cell_seed}
                try:
                    params = random_mixture_params(k_true, s, seed=cell_seed)
                    data, labels = sample_mixture(params, n_traj, t_len,
                                                  seed=cell_seed + 1)
                    stats = sufficient_stats(data)
                    report = multistart_fit(
                        stats, "vem", restarts, VemConfig(k_max=k_max),
                        seed=cell_seed + 2, true_labels=labels,
                    )
                    acc, _ = accuracy(labels, report.best.labels)
                    rows.append({
                        **keys,
                        "accuracy": acc,
                        "final_objective": report.best.objective,
                        "surviving_components": report.best.surviving_components,
                        "status": "ok",
                    })
                except Exception as exc:  # sweep survives individual failures
                    failures.append({"n": n_traj, "t": t_len, "trial": trial,
                                     "error": str(exc)})
                    rows.append(_failed_row(
                        keys, ("accuracy", "final_objective", "surviving_components")
                    ))
    return rows, failures


def summarize_fig3(rows):
    """Mean accuracy and Monte-Carlo standard error per (N, T) cell."""
    cells = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        cells.setdefault((row["n"], row["t"]), []).append(row["accuracy"])
    summary = []
    for (n_traj, t_len), accs in sorted(cells.items()):
        arr = np.asarray(accs)
        stderr = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
        summary.append({
            "n": n_traj,
            "t": t_len,
            "trials": arr.size,
            "mean_accuracy": float(arr.mean()),
            "stderr": float(stderr),
        })
    return summary


def run_fig4(k_max: int = 15, k_true: int = 10, s: int = 7, n_traj: int = 100,
             t_len: int = 50, restarts: int = 1000, seed: int = 0,
             algorithm: str = "vem"):
    """Final objective and accuracy for every restart on one hard instance."""
    inst_seed = _cell_seed(seed, 0)
    params = random_mixture_params(k_true, s, seed=inst_seed)
    data, labels = sample_mixture(params, n_traj, t_len, seed=inst_seed + 1)
    stats = sufficient_stats(data)
    config = VemConfig(k_max=k_max) if algorithm == "vem" else EmConfig(k=k_max)
    report = multistart_fit(stats, algorithm, restarts, config,
                            seed=inst_seed + 2, true_labels=labels)
    rows = []
    for r in range(restarts):
        obj = report.all_objectives[r]
        acc = report.all_accuracies[r]
        rows.append({
            "restart": r,
            "seed": report.seeds[r],
            "final_objective": float(obj) if np.isfinite(obj) else "",
            "accuracy": float(acc) if np.isfinite(acc) else "",
        })
    return rows, []


def run_fig8(fr1: float = 0.01, fr2_values=(0.01, 0.05, 0.25, 1.0),
             t_values=(5, 10, 25, 50), reps: int = 5, n_per_group: int = 15,
             restarts: int = 20, k_max: int = 10, sigma: float = 50.0,
             n_states: int = 4, seed: int = 0):
    """Gene-circuit discrimination accuracy over (rate ratio, T) cells."""
    rows = []
    failures = []
    for fr2 in fr2_values:
        for t_len in t_values:
            for rep in range(reps):
                cell_seed = _cell_seed(seed, int(round(fr2 * 10**6)), t_len, rep)
                keys = {"f_r_1": fr1, "f_r_2": fr2, "ratio": fr2 / fr1,
                        "t": t_len, "rep": rep, "seed": cell_seed}
                try:
                    result = misa_mixture_experiment(
                        fr1, fr2, n_per_group=n_per_group, t_len=t_len,
                        seed=cell_seed, k_max=k_max, restarts=restarts,
                        sigma=sigma, n_states=n_states,
                    )
                    rows.append({
                        **keys,
                        "accuracy": result.accuracy,
                        "surviving_components": result.report.best.surviving_components,
                        "status": "ok",
                    })
                except Exception as exc:
                    failures.append({"f_r_2": fr2, "t": t_len, "rep": rep,
                                     "error": str(exc)})
                    rows.append(_failed_row(keys, ("accuracy", "surviving_components")))
    return rows, failures
