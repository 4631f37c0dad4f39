"""Variational EM with Dirichlet posteriors and automatic component pruning.

The Bayesian mixture places a Dir(1/k, ..., 1/k) prior on the component
weights and flat Dir(1, ..., 1) priors on every initial-state vector and
transition-matrix row.  Coordinate ascent alternates between updating the
Dirichlet posterior parameters from responsibility-weighted counts and
updating responsibilities from the digamma-derived geometric-mean
parameters.  The sparse 1/k prior drives unused components' posterior mass
to its floor, pruning them without any model comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma as _scipy_digamma, gammaln

from .errors import ValidationError
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


def digamma(x):
    """Digamma function psi(x) = d/dx log Gamma(x) for x > 0.

    scipy.special.digamma restricted to the domain the Dirichlet posteriors
    live on: raises ValueError for x <= 0 or non-finite input.  Accepts
    scalars or arrays and returns a float for scalar input.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError("digamma requires x > 0")
    out = _scipy_digamma(arr)
    return float(out) if arr.ndim == 0 else out


def log_beta(counts) -> float:
    """log of the multivariate beta function B(c) = prod Gamma(c_i) / Gamma(sum c_i)."""
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or c.size < 1:
        raise ValueError("log_beta expects a nonempty 1-D vector")
    if np.any(~np.isfinite(c)) or np.any(c <= 0):
        raise ValueError("log_beta requires strictly positive entries")
    return float(gammaln(c).sum() - gammaln(c.sum()))


@dataclass(frozen=True)
class VemConfig:
    """Settings for a variational fit.

    k_max bounds the number of components; extraneous ones are pruned.
    A component is reported as surviving when its weight-posterior mass is
    at least `prune_threshold` and at least one trajectory is labeled with it.
    """

    k_max: int
    max_iters: int = 1000
    tol_scale: float = 1e-12
    prune_threshold: float = 1.0

    def __post_init__(self):
        if self.k_max < 1:
            raise ValidationError("k_max must be >= 1")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.prune_threshold < 1.0 / self.k_max:
            raise ValidationError("prune_threshold must be >= 1/k_max")


@dataclass(frozen=True)
class DirichletPosterior:
    """Variational Dirichlet posterior over all mixture parameters.

    n_hat        : (k,) posterior parameters over the component weights.
    n_i_hat      : (k, s) posterior parameters over each nu_i.
    n_ialpha_hat : (k, s, s) posterior parameters over each row P_i(a, .).
    """

    n_hat: np.ndarray
    n_i_hat: np.ndarray
    n_ialpha_hat: np.ndarray
    responsibilities: Responsibilities

    def __post_init__(self):
        n_hat = np.asarray(self.n_hat, dtype=np.float64)
        n_i = np.asarray(self.n_i_hat, dtype=np.float64)
        n_ia = np.asarray(self.n_ialpha_hat, dtype=np.float64)
        k = n_hat.shape[0]
        if n_i.ndim != 2 or n_i.shape[0] != k or n_ia.shape != n_i.shape + (n_i.shape[1],):
            raise ValidationError("inconsistent posterior parameter shapes")
        if np.any(n_hat < 1.0 / k - 1e-9):
            raise ValidationError("n_hat entries must stay at or above the 1/k prior floor")
        if np.any(n_i < 1.0 - 1e-9) or np.any(n_ia < 1.0 - 1e-9):
            raise ValidationError("count posteriors must stay at or above the prior floor 1")
        object.__setattr__(self, "n_hat", n_hat)
        object.__setattr__(self, "n_i_hat", n_i)
        object.__setattr__(self, "n_ialpha_hat", n_ia)

    @property
    def k(self) -> int:
        return self.n_hat.shape[0]

    @property
    def s(self) -> int:
        return self.n_i_hat.shape[1]

    def mean_params(self) -> MixtureParams:
        """Posterior-mean point estimates of (mu, nu, P)."""
        return MixtureParams(
            mu=self.n_hat / self.n_hat.sum(),
            nu=self.n_i_hat / self.n_i_hat.sum(axis=1, keepdims=True),
            P=self.n_ialpha_hat / self.n_ialpha_hat.sum(axis=2, keepdims=True),
        )


def _log_beta_rows(arr: np.ndarray) -> np.ndarray:
    """log B along the last axis for a stack of positive parameter vectors."""
    return gammaln(arr).sum(axis=-1) - gammaln(arr.sum(axis=-1))


def _elbo_value(n_hat, n_i_hat, n_ialpha_hat, log_mu_t, log_nu_t, log_p_t,
                log_c) -> float:
    """Variational lower bound: data term minus Dirichlet divergence terms.

    Each correction term is the negative KL divergence between a posterior
    Dirichlet and its prior, expressed through log-beta differences and the
    geometric-mean (digamma) log parameters.
    """
    k = n_hat.shape[0]
    s = n_i_hat.shape[1]
    prior_mu = 1.0 / k
    log_b_prior_mu = k * gammaln(prior_mu) - gammaln(1.0)
    log_b_prior_s = -gammaln(float(s))

    term_mu = (
        _log_beta_rows(n_hat) - log_b_prior_mu
        - ((n_hat - prior_mu) * log_mu_t).sum()
    )
    term_nu = (
        _log_beta_rows(n_i_hat) - log_b_prior_s
        - ((n_i_hat - 1.0) * log_nu_t).sum(axis=1)
    ).sum()
    term_p = (
        _log_beta_rows(n_ialpha_hat) - log_b_prior_s
        - ((n_ialpha_hat - 1.0) * log_p_t).sum(axis=2)
    ).sum()
    return float(log_c.sum() + term_mu + term_nu + term_p)


def elbo(stats: SufficientStats, posterior: DirichletPosterior,
         log_mu_tilde, log_nu_tilde, log_p_tilde, log_c) -> float:
    """Evaluate the variational lower bound for a posterior state.

    `log_mu_tilde`, `log_nu_tilde`, `log_p_tilde` are the digamma-derived
    geometric-mean log parameters consistent with the posterior, and `log_c`
    holds the per-trajectory responsibility normalizers computed from them.
    With no trajectories the bound is 0 at the prior.
    """
    del stats
    return _elbo_value(
        posterior.n_hat,
        posterior.n_i_hat,
        posterior.n_ialpha_hat,
        np.asarray(log_mu_tilde, dtype=np.float64),
        np.asarray(log_nu_tilde, dtype=np.float64),
        np.asarray(log_p_tilde, dtype=np.float64),
        np.asarray(log_c, dtype=np.float64),
    )


def vem_fit(stats: SufficientStats, init: Responsibilities,
            config: VemConfig):
    """Run variational EM from the given initial responsibilities.

    Returns (FitResult, DirichletPosterior).  FitResult.params holds the
    posterior-mean point estimates; the objective trace is the variational
    lower bound per iteration.  Terminates when |delta L| <=
    tol_scale * N * T_mean or at max_iters.
    """
    if init.k != config.k_max:
        raise ValidationError("init must have k_max columns")
    prior_mu = 1.0 / config.k_max

    def step(gamma, it):
        n_hat = prior_mu + gamma.sum(axis=0)
        n_i_hat = 1.0 + gamma.T @ stats.U
        n_ialpha_hat = 1.0 + np.einsum("nk,nab->kab", gamma, stats.V)

        log_mu_t = digamma(n_hat) - digamma(n_hat.sum())
        log_nu_t = digamma(n_i_hat) - digamma(n_i_hat.sum(axis=1))[:, None]
        log_p_t = digamma(n_ialpha_hat) - digamma(n_ialpha_hat.sum(axis=2))[:, :, None]

        logw = log_mixture_weights(log_mu_t, log_nu_t, log_p_t, stats)
        gamma, log_c = log_normalize_rows(logw)
        objective = _elbo_value(n_hat, n_i_hat, n_ialpha_hat,
                                log_mu_t, log_nu_t, log_p_t, log_c)
        return gamma, objective, (n_hat, n_i_hat, n_ialpha_hat)

    gamma, (n_hat, n_i_hat, n_ialpha_hat), trace, converged, iterations = (
        coordinate_ascent(stats, init, step, config.max_iters, config.tol_scale)
    )

    responsibilities = Responsibilities(gamma)
    posterior = DirichletPosterior(
        n_hat=n_hat,
        n_i_hat=n_i_hat,
        n_ialpha_hat=n_ialpha_hat,
        responsibilities=responsibilities,
    )
    labels = labels_from_responsibilities(gamma)
    label_counts = np.bincount(labels, minlength=config.k_max)
    surviving = int(np.sum((n_hat >= config.prune_threshold) & (label_counts > 0)))
    result = FitResult(
        params=posterior.mean_params(),
        responsibilities=responsibilities,
        labels=labels,
        objective_trace=trace,
        converged=converged,
        iterations=iterations,
        surviving_components=surviving,
    )
    return result, posterior
