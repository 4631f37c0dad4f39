"""Named experiment recipes driven by the CLI.

Each recipe simulates data, fits mixtures, and returns plot-ready rows
(list of dicts) plus a list of per-cell failures; rendering is left to
external tools.  Every cell derives its seed from the master seed and the
cell index, so sweeps are reproducible and independent of execution order.

The keyword parameters of the recipes in `RECIPES` are the flags of
`chainmix experiment`: each but `seed` becomes a flag typed by its default
(`n_per_group` is `--n-per-group`), so a new keyword needs no CLI edit.

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
from .gene_circuit import _STAGES, misa_mixture_experiment
from .model_core import check_int, check_real, check_seed, random_mixture_params, sample_mixture, sufficient_stats
from .multistart import multistart_fit
from .vem import VemConfig


def _cell_seed(master: int, *key) -> int:
    seq = np.random.SeedSequence(check_seed(master), spawn_key=tuple(int(v) for v in key))
    return int(seq.generate_state(1, np.uint64)[0])


def _sweep(cells, run, result_columns):
    """Rows and failures of a sweep over `cells`, dicts of key columns.

    `run(keys)` returns the values of `result_columns` for one cell.  A cell
    that raises gets a row with blank result columns and status "failed",
    its keys and message go to the failures, and the sweep goes on.
    """
    rows = []
    failures = []
    for keys in cells:
        try:
            results = dict(zip(result_columns, run(keys)))
            status = "ok"
        except Exception as exc:  # sweep survives individual failures
            failures.append({**keys, "error": str(exc)})
            results = dict.fromkeys(result_columns, "")
            status = "failed"
        rows.append({**keys, **results, "status": status})
    return rows, failures


def _simulated_fit(k_true, s, n_traj, t_len, restarts, config, seed,
                   algorithm="vem"):
    """Multistart report on a random mixture drawn from `seed`: parameters
    from `seed`, data from `seed + 1`, restarts from `seed + 2`, scored
    against the true labels."""
    params = random_mixture_params(k_true, s, seed=seed)
    data, labels = sample_mixture(params, n_traj, t_len, seed=seed + 1)
    return multistart_fit(sufficient_stats(data), algorithm, restarts, config,
                          seed=seed + 2, true_labels=labels)


def _best_accuracy(report) -> float:
    return float(report.all_accuracies[report.best_index])


def run_fig2(instances: int = 20, k_true: int = 4, s: int = 3, n_traj: int = 100,
             t_len: int = 30, k_max: int = 10, restarts: int = 100,
             seed: int = 0):
    """Component-count recovery: does the best-bound run keep exactly k_true?"""
    def run(keys):
        report = _simulated_fit(k_true, s, n_traj, t_len, restarts,
                                VemConfig(k_max=k_max), keys["seed"])
        return (report.best.surviving_components, _best_accuracy(report),
                report.best.objective)

    check_int(instances, "instances", 0)
    cells = ({"instance": inst, "seed": _cell_seed(seed, inst)}
             for inst in range(instances))
    return _sweep(cells, run, ("surviving_components", "accuracy", "final_objective"))


def run_fig3(t_values=(5, 10, 30, 100), n_values=(25, 100, 400),
             trials: int = 250, k_true: int = 4, s: int = 3, k_max: int = 10,
             restarts: int = 8, seed: int = 0):
    """Accuracy over an (N, T) grid of simulated mixtures, `trials` per cell."""
    def run(keys):
        report = _simulated_fit(k_true, s, keys["n"], keys["t"], restarts,
                                VemConfig(k_max=k_max), keys["seed"])
        return (_best_accuracy(report), report.best.objective,
                report.best.surviving_components)

    check_int(trials, "trials", 0)
    cells = ({"n": n_traj, "t": t_len, "trial": trial,
              "seed": _cell_seed(seed, n_traj, t_len, trial)}
             for n_traj in n_values for t_len in t_values for trial in range(trials))
    return _sweep(cells, run, ("accuracy", "final_objective", "surviving_components"))


# The columns of `summarize_fig3`'s rows, so a sweep whose every cell failed
# still gets a summary table with its header.
FIG3_SUMMARY_COLUMNS = ("n", "t", "trials", "mean_accuracy", "stderr")


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
        summary.append(dict(zip(FIG3_SUMMARY_COLUMNS, (
            n_traj, t_len, arr.size, float(arr.mean()), float(stderr)))))
    return summary


def run_fig4(k_max: int = 15, k_true: int = 10, s: int = 7, n_traj: int = 100,
             t_len: int = 50, restarts: int = 1000, seed: int = 0,
             algorithm: str = "vem"):
    """Final objective and accuracy for every restart on one hard instance."""
    config = VemConfig(k_max=k_max) if algorithm == "vem" else EmConfig(k=k_max)
    report = _simulated_fit(k_true, s, n_traj, t_len, restarts, config,
                            _cell_seed(seed, 0), algorithm)
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
    """Gene-circuit discrimination accuracy over (rate ratio, T) cells.

    Each row also holds the wall time in seconds of each stage of its cell,
    `simulate_s`, `cluster_s`, `discretize_s`, `fit_s` and `score_s`; they
    are the only columns that differ between two runs of the same sweep.
    """
    def run(keys):
        result = misa_mixture_experiment(
            fr1, keys["f_r_2"], n_per_group=n_per_group, t_len=keys["t"],
            seed=keys["seed"], k_max=k_max, restarts=restarts,
            sigma=sigma, n_states=n_states,
        )
        return (result.accuracy, result.report.best.surviving_components,
                *(result.stage_s[stage] for stage in _STAGES))

    check_int(reps, "reps", 0)
    check_real(fr1, "fr1", True)
    for i, fr2 in enumerate(fr2_values):  # its cells' seed key is round(fr2 * 10**6)
        check_real(check_real(fr2, f"fr2_values[{i}]", True) * 10**6, f"fr2_values[{i}] * 10**6", True)
    cells = ({"f_r_1": fr1, "f_r_2": fr2, "ratio": fr2 / fr1, "t": t_len, "rep": rep,
              "seed": _cell_seed(seed, int(round(fr2 * 10**6)), t_len, rep)}
             for fr2 in fr2_values for t_len in t_values for rep in range(reps))
    return _sweep(cells, run, ("accuracy", "surviving_components",
                               *(f"{stage}_s" for stage in _STAGES)))


# The presets by name; the keyword parameters of each are the CLI flags it
# accepts.
RECIPES = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig8": run_fig8,
}
