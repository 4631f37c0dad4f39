"""Information-theoretic limits on classifying trajectories by component.

Provides the exact finite-horizon Kullback-Leibler divergence between two
labeled chains (computed by dynamic programming over state marginals, never
by trajectory enumeration), the asymptotic per-step KL rate under the
stationary measure, a lower bound on the misclassification error of any
label estimator, and the Bayes-optimal classifier that attains the optimum.

Support mismatches yield an infinite divergence, represented by the +inf
sentinel; exp(-inf) = 0 keeps the error bound well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model_core import (
    MixtureParams,
    TrajectoryDataset,
    log_mixture_weights,
    log_normalize_rows,
    sufficient_stats,
)


@dataclass(frozen=True)
class KlReport:
    """Pairwise divergences at a horizon, per-step rates, and the error bound."""

    pairwise: np.ndarray
    rates: np.ndarray
    bound: float
    horizon: int


def _kl_vector(p, q):
    """sum p log(p/q) with 0 log 0 = 0; +inf when q = 0 on p's support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    if np.any(q[mask] == 0):
        return np.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def kl_trajectory(params: MixtureParams, i: int, j: int, horizon: int) -> float:
    """Exact KL divergence between length-`horizon` trajectory laws of chains i and j.

    Propagates the state marginal of chain i forward and accumulates the
    initial-distribution divergence plus, per step, the marginal-weighted
    divergence between matching transition rows.  O(horizon * s^2); returns
    +inf when chain j fails to cover chain i's reachable support.
    """
    if horizon < 0:
        raise ValidationError("horizon must be >= 0")
    nu_i, nu_j = params.nu[i], params.nu[j]
    p_i, p_j = params.P[i], params.P[j]

    total = _kl_vector(nu_i, nu_j)
    if np.isinf(total):
        return np.inf
    row_kl = np.array([_kl_vector(p_i[a], p_j[a]) for a in range(params.s)])
    marginal = nu_i.copy()
    for _ in range(horizon):
        step_terms = np.where(marginal > 0, marginal * row_kl, 0.0)
        total += float(step_terms.sum())
        if np.isinf(total):
            return np.inf
        marginal = marginal @ p_i
    return total


def stationary_distribution(transition: np.ndarray, tol: float = 1e-12,
                            max_iters: int = 10**6) -> np.ndarray:
    """Stationary measure by power iteration from the uniform vector.

    Raises NumericalError if the iteration does not reach an L1 residual
    below `tol` (periodic or otherwise non-convergent chains are reported,
    not regularized).
    """
    p = np.asarray(transition, dtype=np.float64)
    s = p.shape[0]
    pi = np.full(s, 1.0 / s)
    for _ in range(max_iters):
        nxt = pi @ p
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() < tol:
            return nxt
        pi = nxt
    raise NumericalError(
        f"power iteration did not converge to tolerance {tol}"
    )


def _stationary_of(params: MixtureParams, i: int) -> np.ndarray:
    """Stationary measure of chain i; a NumericalError names the component."""
    try:
        return stationary_distribution(params.P[i])
    except NumericalError as exc:
        raise NumericalError(
            f"stationary measure of component {i} did not converge: {exc}"
        ) from exc


def _rate_under(params: MixtureParams, pi: np.ndarray, i: int, j: int) -> float:
    """Row divergences of P_i from P_j averaged under chain i's stationary measure pi."""
    row_kl = np.array([_kl_vector(params.P[i][a], params.P[j][a])
                       for a in range(params.s)])
    terms = np.where(pi > 0, pi * row_kl, 0.0)
    return float(terms.sum())


def kl_rate(params: MixtureParams, i: int, j: int) -> float:
    """Asymptotic per-step KL divergence of chain i from chain j.

    Averages the row divergences of the transition matrices under chain i's
    stationary measure.  Raises NumericalError naming the component when the
    stationary computation does not converge.
    """
    return _rate_under(params, _stationary_of(params, i), i, j)


def _divergence_matrix(params: MixtureParams, horizon: int) -> np.ndarray:
    """D[i, j] = kl_trajectory(params, i, j, horizon), zero on the diagonal."""
    k = params.k
    divergence = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                divergence[i, j] = kl_trajectory(params, i, j, horizon)
    return divergence


def _bound_from_divergence(mu: np.ndarray, divergence: np.ndarray) -> float:
    """(1/2) * sum_i max_{j != i} exp(-D_ij) / (1/mu_i + 1/mu_j)."""
    k = mu.shape[0]
    total = 0.0
    with np.errstate(divide="ignore"):
        inv_mu = np.where(mu > 0, 1.0 / mu, np.inf)
    for i in range(k):
        best = 0.0
        for j in range(k):
            if j == i:
                continue
            denom = inv_mu[i] + inv_mu[j]
            term = 0.0 if np.isinf(denom) else np.exp(-divergence[i, j]) / denom
            best = max(best, term)
        total += best
    return 0.5 * total


def misclassification_bound(params: MixtureParams, horizon: int) -> float:
    """Lower bound on the misclassification error of any label estimator.

    Evaluates (1/2) * sum_i max_{j != i} exp(-D_ij) / (1/mu_i + 1/mu_j)
    with D_ij the trajectory-law KL divergence at the given horizon.
    Components with infinite divergence or zero weight contribute nothing.
    """
    return _bound_from_divergence(params.mu, _divergence_matrix(params, horizon))


def bayes_classify(params: MixtureParams, data: TrajectoryDataset):
    """Optimal classification given the true mixture parameters.

    Returns (labels, posterior) where posterior[n, i] is the exact
    component posterior of trajectory n, computed in log space, and labels
    are its argmax (lowest index on ties).  Raises ValidationError naming
    the first trajectory that has probability zero under every component.
    """
    stats = sufficient_stats(data)
    with np.errstate(divide="ignore"):
        logw = log_mixture_weights(
            np.log(params.mu), np.log(params.nu), np.log(params.P), stats
        )
    posterior, log_c = log_normalize_rows(logw)
    if np.any(np.isneginf(log_c)):
        bad = int(np.flatnonzero(np.isneginf(log_c))[0])
        raise ValidationError(
            f"trajectory {bad} has zero probability under every component"
        )
    labels = np.argmax(posterior, axis=1).astype(np.int64)
    return labels, posterior


def kl_report(params: MixtureParams, horizon: int) -> KlReport:
    """Pairwise divergence matrix, per-step rate matrix, and the error bound."""
    k = params.k
    pairwise = _divergence_matrix(params, horizon)
    rates = np.zeros((k, k))
    if k > 1:  # a single chain has no rates, so no stationary measure is needed
        for i in range(k):
            pi = _stationary_of(params, i)
            for j in range(k):
                if i != j:
                    rates[i, j] = _rate_under(params, pi, i, j)
    return KlReport(
        pairwise=pairwise,
        rates=rates,
        bound=_bound_from_divergence(params.mu, pairwise),
        horizon=horizon,
    )
