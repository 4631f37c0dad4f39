"""Classical expectation-maximization for Markov chain mixtures.

Serves as the maximum-likelihood baseline.  The M-step is the one both
algorithms share (`model_core._ParameterStack`), with no prior; EM's link
divides each count by its total, and its objective, the log-likelihood, is
the sum of the E-step normalizing constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model_core import (
    FitResult,
    MixtureParams,
    Responsibilities,
    SufficientStats,
    _ParameterStack,
    check_int,
    check_real,
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
        check_int(self.k, "k", 1)
        check_int(self.max_iters, "max_iters", 1)
        check_real(self.tol_scale, "tol_scale", False)


def em_fit(stats: SufficientStats, init: Responsibilities, config: EmConfig) -> FitResult:
    """Run EM from the given initial responsibilities.

    Each iteration divides the shared M-step counts by their totals,
    recomputes responsibilities in log space, and records the log-likelihood
    L = sum_n log C_n at the updated parameters.  Terminates when |delta L|
    <= config.tol_scale * N * T_mean or at config.max_iters.  The returned
    fit has no posterior, and its params view this fit's buffer.

    One fit allocates its M-step stack, a (k, N) E-step buffer and a (2, N)
    log-sum-exp scratch, and every iteration overwrites them: an iteration
    allocates nothing of size N, unless a log parameter is -inf, when the
    E-step builds its (N, k) support mask.  The returned responsibilities
    view the E-step buffer.

    Zero-probability parameter estimates are kept exact: log 0 = -inf, and a
    component assigning probability zero to a trajectory receives
    responsibility zero for it.

    Raises NumericalError (carrying the iteration index) if a trajectory has
    zero probability under every component or the objective becomes NaN or
    +/-inf.
    """
    if init.k != config.k:
        raise ValidationError("init must have k columns")
    k, s = config.k, stats.s
    stack = _ParameterStack(k, s)
    # mu, then per component nu_i and the rows of P_i; the fit's params view it
    theta, positive = np.empty_like(stack.entries), np.ones(stack.entries.size, dtype=bool)
    row_totals, row_positive = stack.gathered[k:], positive[k:]  # mu: weights over their total
    e_step, scratch = np.empty((k, stats.n)), np.empty((2, stats.n))

    def step(it):
        # each entry over its total; a row that no trajectory reaches is
        # likelihood-equivalent to any other, and uniform is the symmetric choice
        gathered = stack.gather(stack.totals)
        np.greater(row_totals, 0.0, out=row_positive)
        theta.fill(1.0 / s)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(stack.entries, gathered, out=theta, where=positive)
            np.log(theta, out=stack.log_theta)
        logw = log_mixture_weights(stack.log_mu, stack.log_params, stats, e_step)
        gamma, log_c = log_normalize_rows(logw, scratch)
        total = float(np.add.reduce(log_c))
        if not math.isfinite(total):  # a -inf row makes it -inf, or NaN beside a NaN row
            bad = np.flatnonzero(np.isneginf(log_c))
            if bad.size:
                raise NumericalError(
                    f"trajectory {bad[0]} has zero probability under every component",
                    iteration=it,
                )
        return gamma, total

    gamma, trace, converged, iterations = coordinate_ascent(
        stats, init, stack, step, config.max_iters, config.tol_scale
    )
    labels = labels_from_responsibilities(gamma)
    rows = theta[k:].reshape(k, s + 1, s)
    return FitResult(
        params=MixtureParams(mu=theta[:k], nu=rows[:, 0], P=rows[:, 1:]),
        responsibilities=Responsibilities(gamma),
        labels=labels,
        objective_trace=trace,
        converged=converged,
        iterations=iterations,
        surviving_components=int(np.unique(labels).size),
    )
