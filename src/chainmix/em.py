"""Classical expectation-maximization for Markov chain mixtures.

Serves as the maximum-likelihood baseline: the M-step normalizes
responsibility-weighted counts into point parameters, the E-step evaluates
per-trajectory component posteriors entirely in log space, and the
log-likelihood is the sum of the E-step normalizing constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model_core import (
    FitResult,
    MixtureParams,
    Responsibilities,
    SufficientStats,
    coordinate_ascent,
    labels_from_responsibilities,
    log_mixture_weights,
    log_normalize_rows,
)


@dataclass(frozen=True)
class EmConfig:
    """Settings for a plain EM fit: component count and stopping rule."""

    k: int
    max_iters: int = 1000
    tol_scale: float = 1e-12

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")


def normalize_rows(counts: np.ndarray) -> np.ndarray:
    """Normalize the last axis to sum to 1; all-zero rows become uniform.

    A row with zero total count corresponds to a state never visited under a
    component, where any stochastic row is likelihood-equivalent; uniform is
    the symmetric choice.
    """
    totals = counts.sum(axis=-1, keepdims=True)
    uniform = 1.0 / counts.shape[-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), uniform)
    return out


def em_fit(stats: SufficientStats, init: Responsibilities,
           max_iters: int = 1000, tol_scale: float = 1e-12) -> FitResult:
    """Run EM from the given initial responsibilities.

    Each iteration updates point parameters from responsibility-weighted
    counts, recomputes responsibilities in log space, and records the
    log-likelihood L = sum_n log C_n evaluated at the freshly updated
    parameters.  Terminates when |delta L| <= tol_scale * N * T_mean or at
    `max_iters`.

    Zero-probability parameter estimates are kept exact: log 0 = -inf, and a
    component assigning probability zero to a trajectory receives
    responsibility zero for it.

    Raises NumericalError (carrying the iteration index) if a trajectory has
    zero probability under every component or the objective becomes NaN or
    +/-inf.
    """
    def step(gamma, it):
        weights = gamma.sum(axis=0)
        mu = weights / weights.sum()
        nu = normalize_rows(gamma.T @ stats.U)
        P = normalize_rows(np.einsum("nk,nab->kab", gamma, stats.V))

        with np.errstate(divide="ignore", invalid="ignore"):
            logw = log_mixture_weights(np.log(mu), np.log(nu), np.log(P), stats)
        gamma, log_c = log_normalize_rows(logw)
        if np.any(np.isneginf(log_c)):
            bad = int(np.flatnonzero(np.isneginf(log_c))[0])
            raise NumericalError(
                f"trajectory {bad} has zero probability under every component",
                iteration=it,
            )
        return gamma, float(log_c.sum()), (mu, nu, P)

    gamma, (mu, nu, P), trace, converged, iterations = coordinate_ascent(
        stats, init, step, max_iters, tol_scale
    )
    labels = labels_from_responsibilities(gamma)
    surviving = int(np.unique(labels).size)
    return FitResult(
        params=MixtureParams(mu=mu, nu=nu, P=P),
        responsibilities=Responsibilities(gamma),
        labels=labels,
        objective_trace=trace,
        converged=converged,
        iterations=iterations,
        surviving_components=surviving,
    )
