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
from scipy.special import digamma, gammaln

from .errors import ValidationError
from .model_core import (
    FitResult,
    MixtureParams,
    Responsibilities,
    SufficientStats,
    _ParameterStack,
    check_int,
    check_real,
    check_reals,
    coordinate_ascent,
    labels_from_responsibilities,
    log_mixture_weights,
    log_normalize_rows,
)


@dataclass(frozen=True)
class VemConfig:
    """Settings for a variational fit.

    k_max bounds the number of components; extraneous ones are pruned.
    """

    k_max: int
    max_iters: int = 1000
    tol_scale: float = 1e-12

    def __post_init__(self):
        check_int(self.k_max, "k_max", 1)
        check_int(self.max_iters, "max_iters", 1)
        check_real(self.tol_scale, "tol_scale", False)


@dataclass(frozen=True, eq=False)
class DirichletPosterior:
    """Variational Dirichlet posterior over all mixture parameters.

    n_hat        : (k,) posterior parameters over the component weights.
    n_i_hat      : (k, s) posterior parameters over each nu_i.
    n_ialpha_hat : (k, s, s) posterior parameters over each row P_i(a, .).
    """

    n_hat: np.ndarray
    n_i_hat: np.ndarray
    n_ialpha_hat: np.ndarray

    def __post_init__(self):
        n_hat = check_reals(self.n_hat, "n_hat", 1)
        n_i = check_reals(self.n_i_hat, "n_i_hat", 2)
        n_ia = check_reals(self.n_ialpha_hat, "n_ialpha_hat", 3)
        k = n_hat.shape[0]
        if n_i.shape[0] != k or n_ia.shape != n_i.shape + (n_i.shape[1],):
            raise ValidationError("inconsistent posterior parameter shapes")
        if n_ia.size == 0:
            raise ValidationError("a posterior needs at least one component and one state")
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


def _elbo_value(stack: _ParameterStack, log_b_prior: float, log_c: np.ndarray,
                work: np.ndarray) -> float:
    """Variational lower bound: data term minus Dirichlet divergence terms.

    `stack.log_theta` holds the geometric-mean (digamma) log parameters of
    the stack's entries, and `log_b_prior` the summed log-beta of all prior
    Dirichlets.  Each correction term is the negative KL divergence between
    a posterior Dirichlet and its prior, expressed through log-beta
    differences and the geometric-mean log parameters; summed over all
    Dirichlets they are one signed sum of gammaln over the stack.  `work`
    is a scratch buffer shaped like `stack.values`.
    """
    n = stack.entries.size
    lg = gammaln(stack.values, out=work)
    data = np.add.reduce(log_c) + np.add.reduce(lg[:n]) - np.add.reduce(lg[n:])
    excess = np.subtract(stack.entries, stack.prior, out=work[:n])
    return float(data - log_b_prior - excess @ stack.log_theta)


def vem_fit(stats: SufficientStats, init: Responsibilities,
            config: VemConfig) -> FitResult:
    """Run variational EM from the given initial responsibilities.

    The returned fit carries the DirichletPosterior in `posterior`, and its
    params hold the posterior-mean point estimates; the objective trace is
    the variational lower bound per iteration.  Terminates when |delta L| <=
    tol_scale * N * T_mean or at max_iters.  A component survives when its
    weight-posterior parameter n_hat is at least 1 and at least one
    trajectory is labeled with it.

    Each iteration fills the shared M-step stack with the Dirichlet prior
    added, takes one digamma and one gammaln over it and one matrix product
    for the E-step.  One fit allocates the stack, a (k, N) E-step buffer and
    a (2, N) log-sum-exp scratch, and no iteration allocates anything of
    size N; the returned posterior views the stack, and the
    responsibilities view the E-step buffer.
    """
    if init.k != config.k_max:
        raise ValidationError("init must have k_max columns")
    k, s = config.k_max, stats.s
    stack = _ParameterStack(k, s, weight_prior=1.0 / k, count_prior=1.0)
    log_b_prior = float(k * gammaln(1.0 / k) - k * (s + 1) * gammaln(float(s)))
    work, n = np.empty_like(stack.values), stack.entries.size
    psi_mu, psi_total = work[:k], work[n:n + 1]  # views of the stack's digamma
    psi_rows, psi_row_totals = work[k:n].reshape(-1, s), work[n + 1:, None]
    log_rows = stack.log_params.reshape(-1, s)
    e_step, scratch = np.empty((k, stats.n)), np.empty((2, stats.n))

    def step():
        digamma(stack.values, out=work)  # `_elbo_value` overwrites work after
        np.subtract(psi_mu, psi_total, out=stack.log_mu)
        np.subtract(psi_rows, psi_row_totals, out=log_rows)
        logw = log_mixture_weights(stack.log_mu, stack.log_params, stats, e_step)
        gamma, log_c = log_normalize_rows(logw, scratch)
        return gamma, _elbo_value(stack, log_b_prior, log_c, work)

    gamma, trace, converged, iterations = coordinate_ascent(
        stats, init, stack, step, config.max_iters, config.tol_scale
    )
    rows = stack.rows.reshape(k, s + 1, s)
    posterior = DirichletPosterior(stack.weights, rows[:, 0], rows[:, 1:])
    labels = labels_from_responsibilities(gamma)
    label_counts = np.bincount(labels, minlength=config.k_max)
    surviving = int(np.sum((stack.weights >= 1.0) & (label_counts > 0)))
    return FitResult(
        params=posterior.mean_params(),
        responsibilities=Responsibilities(gamma),
        labels=labels,
        objective_trace=trace,
        converged=converged,
        iterations=iterations,
        surviving_components=surviving,
        posterior=posterior,
    )
