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
    check_int,
    labels_from_responsibilities,
    log_mixture_weights,
    log_normalize_rows,
    parameter_block,
    sufficient_stats,
)


@dataclass(frozen=True, eq=False)
class KlReport:
    """Pairwise divergences at a horizon, per-step rates, and the error bound."""

    pairwise: np.ndarray
    rates: np.ndarray
    bound: float
    horizon: int


def _kl_rows(p, q) -> np.ndarray:
    """sum p log(p/q) along the last axis, broadcast over the leading axes.

    0 log 0 = 0, and the divergence is +inf where q = 0 on p's support.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / q)
    return np.where(p > 0, terms, 0.0).sum(axis=-1)


def _occupation(nu: np.ndarray, P: np.ndarray, horizon: int) -> np.ndarray:
    """sum_{t < horizon} nu P^t: expected visits to each state before the horizon.

    nu is (..., s) and P is (..., s, s), one chain per leading index.  The
    sum and the marginal are row vectors written into preallocated buffers.
    """
    check_int(horizon, "horizon", 0)
    marginal = nu[..., None, :].copy()
    occupation = np.zeros_like(marginal)
    following = np.empty_like(marginal)
    for _ in range(horizon):
        occupation += marginal
        np.matmul(marginal, P, out=following)
        marginal, following = following, marginal
    return occupation[..., 0, :]


def _average(weights: np.ndarray, row_kl: np.ndarray) -> np.ndarray:
    """sum_a weights[..., a] * row_kl[..., a]; a state of weight 0 adds 0, even against +inf."""
    return (weights * np.where(weights > 0, row_kl, 0.0)).sum(axis=-1)


def kl_trajectory(params: MixtureParams, i: int, j: int, horizon: int) -> float:
    """Exact KL divergence between length-`horizon` trajectory laws of chains i and j.

    The initial-distribution divergence plus the divergences between
    matching transition rows, weighted by chain i's expected visits to each
    state over the first `horizon` steps.  O(horizon * s^2); returns +inf
    when chain j fails to cover chain i's reachable support.
    """
    check_int(i, "i", 0, params.k - 1)
    check_int(j, "j", 0, params.k - 1)
    occupation = _occupation(params.nu[i], params.P[i], horizon)
    return float(_kl_rows(params.nu[i], params.nu[j])
                 + _average(occupation, _kl_rows(params.P[i], params.P[j])))


def _stationary_measures(P: np.ndarray, tol: float = 1e-12, max_iters: int = 10**6,
                         components=None) -> np.ndarray:
    """Stationary measures of the chains of the (m, s, s) stack P, by one
    power iteration over all of them; see `stationary_distribution`.

    Every chain walks the same schedule of steps and leaves the batch at the
    first step where its own residual meets `tol`.  Raises NumericalError if
    some chain never does; with `components`, the component index of each
    chain, the message names the lowest such component.
    """
    P = np.asarray(P, dtype=np.float64)
    m, s = P.shape[:2]
    measures = np.empty((m, s))
    live = np.arange(m)  # the chains still in the batch, in increasing order
    pi = np.full((m, 1, s), 1.0 / s)
    last = max_iters - 1
    t, jump = 0, P  # pi = pi_t and jump = P^(t+1), while t = 2^j - 1
    while t <= last:
        nxt = pi @ P
        nxt /= np.add.reduce(nxt, axis=2, keepdims=True)
        done = np.add.reduce(np.abs(nxt - pi), axis=2)[:, 0] < tol
        if done.any():
            measures[live[done]] = nxt[done, 0]
            if done.all():
                return measures
            stay = ~done
            live, pi, P, jump = live[stay], pi[stay], P[stay], jump[stay]
        if t == last:
            break
        if 2 * t + 1 <= last:
            pi, t, jump = pi @ jump, 2 * t + 1, jump @ jump
        else:
            pi, t = pi @ np.linalg.matrix_power(P, last - t), last
        pi /= np.add.reduce(pi, axis=2, keepdims=True)
    message = f"power iteration did not converge to tolerance {tol}"
    if components is not None:
        message = (f"stationary measure of component {components[live[0]]} "
                   f"did not converge: {message}")
    raise NumericalError(message)


def stationary_distribution(transition: np.ndarray, tol: float = 1e-12,
                            max_iters: int = 10**6) -> np.ndarray:
    """Stationary measure by power iteration from the uniform vector.

    Step t of the iteration is pi_t = uniform P^t, and it converges at the
    first t < max_iters whose one-step L1 residual |pi_t P - pi_t| is below
    `tol`, returning pi_t P.  A row vector times a stochastic matrix never
    grows in L1, so the residual never rises along the iteration.  The
    residual is therefore checked only at t = 0, 1, 3, 7, ..., reached by
    repeated squaring of P, and at t = max_iters - 1 before giving up: a
    O(log max_iters) walk that converges and fails for the same chains,
    up to rounding, as checking every step.

    Raises ValidationError if `transition` is not a nonempty square matrix,
    and NumericalError if no step below max_iters reaches the tolerance
    (periodic or otherwise non-convergent chains are reported, not
    regularized).
    """
    P = np.asarray(transition, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.size == 0:
        raise ValidationError(f"transition matrix must be square (s, s), not {P.shape}")
    return _stationary_measures(P[None], tol, max_iters)[0]


def kl_rate(params: MixtureParams, i: int, j: int) -> float:
    """Asymptotic per-step KL divergence of chain i from chain j.

    Averages the row divergences of the transition matrices under chain i's
    stationary measure.  Raises NumericalError naming the component when the
    stationary computation does not converge.
    """
    check_int(i, "i", 0, params.k - 1)
    check_int(j, "j", 0, params.k - 1)
    stationary = _stationary_measures(params.P[i:i + 1], components=(i,))[0]
    return float(_average(stationary, _kl_rows(params.P[i], params.P[j])))


def _row_kl_tensor(params: MixtureParams) -> np.ndarray:
    """R[i, j, a] = KL(P_i(a, .) || P_j(a, .)), zero where i == j."""
    return _kl_rows(params.P[:, None], params.P[None, :])


def _divergence_matrix(params: MixtureParams, row_kl: np.ndarray, horizon: int) -> np.ndarray:
    """D[i, j] = kl_trajectory(params, i, j, horizon) for all pairs, zero on the diagonal."""
    occupation = _occupation(params.nu, params.P, horizon)
    return (_kl_rows(params.nu[:, None], params.nu[None, :])
            + _average(occupation[:, None, :], row_kl))


def _bound_from_divergence(mu: np.ndarray, divergence: np.ndarray) -> float:
    """(1/2) * sum_i max_{j != i} exp(-D_ij) / (1/mu_i + 1/mu_j)."""
    with np.errstate(divide="ignore"):
        inv_mu = 1.0 / mu
    # a zero weight makes the denominator +inf and its term 0
    terms = np.exp(-divergence) / (inv_mu[:, None] + inv_mu[None, :])
    np.fill_diagonal(terms, 0.0)
    return 0.5 * float(terms.max(axis=1).sum())


def misclassification_bound(params: MixtureParams, horizon: int) -> float:
    """Lower bound on the misclassification error of any label estimator.

    Evaluates (1/2) * sum_i max_{j != i} exp(-D_ij) / (1/mu_i + 1/mu_j)
    with D_ij the trajectory-law KL divergence at the given horizon.
    Components with infinite divergence or zero weight contribute nothing.
    """
    divergence = _divergence_matrix(params, _row_kl_tensor(params), horizon)
    return _bound_from_divergence(params.mu, divergence)


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
            np.log(params.mu), np.log(parameter_block(params.nu, params.P)), stats
        )
    posterior, log_c = log_normalize_rows(logw)
    if np.any(np.isneginf(log_c)):
        bad = int(np.flatnonzero(np.isneginf(log_c))[0])
        raise ValidationError(
            f"trajectory {bad} has zero probability under every component"
        )
    return labels_from_responsibilities(posterior), posterior


def kl_report(params: MixtureParams, horizon: int) -> KlReport:
    """Pairwise divergence matrix, per-step rate matrix, and the error bound.

    The row-KL tensor is built once and weighted by each chain's expected
    visits for the divergences and by its stationary measure for the rates.
    All k stationary measures come from one batched power iteration.
    """
    k = params.k
    row_kl = _row_kl_tensor(params)
    pairwise = _divergence_matrix(params, row_kl, horizon)
    rates = np.zeros((k, k))
    if k > 1:  # a single chain has no rates, so no stationary measure is needed
        stationary = _stationary_measures(params.P, components=range(k))
        rates = _average(stationary[:, None, :], row_kl)
    return KlReport(
        pairwise=pairwise,
        rates=rates,
        bound=_bound_from_divergence(params.mu, pairwise),
        horizon=horizon,
    )
