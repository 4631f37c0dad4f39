"""Random initialization and multi-restart orchestration for EM / VEM fits.

Both fitting algorithms are nonconvex and sensitive to initialization, so
the standard remedy is many independent restarts from uniform random
responsibilities, keeping the run with the best final objective.  The
restarts run one after another.  Restart r draws its random stream from
SeedSequence(master, spawn_key=(r,)), which makes every restart
reproducible on its own and the first r restarts of a longer run identical
to a shorter one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .em import EmConfig, em_fit
from .errors import NumericalError, ValidationError
from .metrics import _as_labels, accuracy
from .model_core import (FitResult, Responsibilities, SufficientStats, as_rng, check_int,
                         check_seed, uniform_simplex)
from .vem import VemConfig, vem_fit

# Relative tolerance under which a restart's objective ties with the best.
TIE_RTOL = 1e-9


def sample_simplex_rows(n: int, k: int, seed=None) -> Responsibilities:
    """Draw N rows independently and uniformly from the (k-1)-simplex.

    Each row normalizes k independent exponential variates, the standard
    construction of the flat simplex distribution.  Deterministic given seed.
    """
    check_int(n, "n", 1)
    check_int(k, "k", 1)
    return Responsibilities(uniform_simplex(as_rng(seed), n, k))


def restart_seed_sequence(master_entropy, index: int) -> np.random.SeedSequence:
    """The documented stream for restart `index` under a master seed."""
    return np.random.SeedSequence(master_entropy, spawn_key=(index,))


def _master_entropy(seed) -> int:
    """Reduce any accepted seed form (None, a non-negative int or a
    SeedSequence) to a master entropy integer."""
    check_seed(seed, np.random.SeedSequence)
    if seed is None:
        return np.random.SeedSequence().entropy
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0])
    return int(seed)


@dataclass(frozen=True, eq=False)
class MultistartReport:
    """Outcome of a batch of restarts.

    best holds the fit of restart `best_index` (with its posterior for VEM):
    the lowest restart index whose final objective lies within
    TIE_RTOL * max(1, |L_max|) of the best finite objective L_max.  The
    tolerance makes the choice insensitive to last-ulp rounding among
    restarts that reached the same optimum.  Failed restarts record NaN
    objectives and are never chosen.

    all_converged[r] tells whether restart r met the stopping rule before
    max_iters, and all_final_deltas[r] is its last |delta L|, the step the
    stopping rule judged.  A failed restart records False and NaN; a restart
    that ran a single iteration records a NaN delta.

    tied_indices lists, in increasing order, every restart whose objective
    lies within that tolerance of L_max; best_index is its first entry.

    all_wall_s[r] is restart r's wall time in seconds (`time.perf_counter`),
    NaN for a failed restart.
    """

    best: FitResult
    best_index: int
    all_objectives: np.ndarray
    all_iterations: np.ndarray
    all_accuracies: np.ndarray | None
    seeds: tuple
    master_seed: int
    failures: tuple
    all_converged: np.ndarray
    all_final_deltas: np.ndarray
    tied_indices: tuple
    all_wall_s: np.ndarray


def _run_restart(seq, stats, algorithm, config, true_labels):
    if algorithm == "em":
        fit = em_fit(stats, sample_simplex_rows(stats.n, config.k, seq), config)
    else:
        fit = vem_fit(stats, sample_simplex_rows(stats.n, config.k_max, seq), config)
    return fit, None if true_labels is None else accuracy(true_labels, fit.labels)[0]


def multistart_fit(stats: SufficientStats, algorithm: str, restarts: int,
                   config, seed=None, true_labels=None) -> MultistartReport:
    """Fit with `restarts` independent initializations; keep the best run.

    algorithm is "em" (config: EmConfig) or "vem" (config: VemConfig).
    Per-restart seeds derive from the master seed by spawn index, so each
    restart can be reproduced on its own.  When `true_labels` is given,
    per-restart permutation-matched accuracies are recorded; they must be N
    non-negative integers, checked before the first restart.

    Raises NumericalError if every restart fails numerically.
    """
    check_int(restarts, "restarts", 1)
    if algorithm == "em":
        if not isinstance(config, EmConfig):
            raise ValidationError("algorithm 'em' requires an EmConfig")
    elif algorithm == "vem":
        if not isinstance(config, VemConfig):
            raise ValidationError("algorithm 'vem' requires a VemConfig")
    else:
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    if true_labels is not None:
        true_labels = _as_labels(true_labels, "true_labels")
        if true_labels.size != stats.n:
            raise ValidationError(
                f"true_labels must have one label per trajectory ({stats.n}), not {true_labels.size}")

    master_entropy = _master_entropy(seed)
    sequences = [restart_seed_sequence(master_entropy, r) for r in range(restarts)]
    objectives = np.full(restarts, np.nan)
    iterations = np.zeros(restarts, dtype=np.int64)
    converged = np.zeros(restarts, dtype=bool)
    final_deltas = np.full(restarts, np.nan)
    wall_s = np.full(restarts, np.nan)
    accuracies = np.full(restarts, np.nan) if true_labels is not None else None
    # The fits that can still tie with the best, by restart: each holds its
    # (k, N) E-step buffer.  The tie floor of the running best only rises, so
    # a fit below it is never chosen and is dropped; at the end it is the
    # floor of the best objective.
    kept, best_value, floor = {}, -np.inf, -np.inf
    failures = []
    for r in range(restarts):
        begin = time.perf_counter()
        try:
            fit, acc = _run_restart(sequences[r], stats, algorithm, config, true_labels)
        except NumericalError as exc:
            failures.append((r, str(exc)))
            continue
        wall_s[r] = time.perf_counter() - begin
        if fit.objective > best_value:
            best_value = fit.objective
            floor = best_value - TIE_RTOL * max(1.0, abs(best_value))
            kept = {i: kept_fit for i, kept_fit in kept.items() if kept_fit.objective >= floor}
        if fit.objective >= floor:
            kept[r] = fit
        objectives[r] = fit.objective
        iterations[r] = fit.iterations
        converged[r] = fit.converged
        if fit.objective_trace.size > 1:
            final_deltas[r] = abs(fit.objective_trace[-1] - fit.objective_trace[-2])
        if acc is not None:
            accuracies[r] = acc
        del fit  # a dropped fit is freed before the next restart allocates

    if len(failures) == restarts:
        detail = "; ".join(f"restart {r}: {msg}" for r, msg in failures)
        raise NumericalError(f"all {restarts} restarts failed: {detail}")

    tied = objectives >= floor
    best_index = int(np.argmax(tied))

    seeds = tuple(int(seq.generate_state(1)[0]) for seq in sequences)
    return MultistartReport(
        best=kept[best_index],
        best_index=best_index,
        all_objectives=objectives,
        all_iterations=iterations,
        all_accuracies=accuracies,
        seeds=seeds,
        master_seed=master_entropy,
        failures=tuple(failures),
        all_converged=converged,
        all_final_deltas=final_deltas,
        tied_indices=tuple(np.flatnonzero(tied).tolist()),
        all_wall_s=wall_s,
    )
