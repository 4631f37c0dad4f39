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
from typing import NamedTuple

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
    # a NaN fails the first comparison, because min and max propagate it
    if arr.size and not (arr.min() > 0 and arr.max() < np.inf):
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


class _Block(NamedTuple):
    """Layout of the stacked Dirichlet parameters of a k-component, s-state model.

    The stack is [n_hat, rows.ravel(), sum(n_hat), rows.sum(axis=1)]: every
    Dirichlet parameter, then every Dirichlet total.  `rows` is the
    (k*(s+1), s) block whose rows are, per component, nu_i and then the s
    rows of P_i, so `rows.reshape(k, s + s*s)` lines up with the design
    block X.  `prior` holds each entry's prior parameter, `owner[e]` the
    index among the totals of entry e's total, and `log_b_prior` the summed
    log-beta of all prior Dirichlets.
    """

    prior: np.ndarray
    owner: np.ndarray
    log_b_prior: float


def _block(k: int, s: int) -> _Block:
    groups = k * (s + 1)
    return _Block(
        prior=np.concatenate([np.full(k, 1.0 / k), np.ones(groups * s)]),
        owner=np.concatenate([np.zeros(k, dtype=np.intp),
                              np.repeat(np.arange(1, groups + 1), s)]),
        log_b_prior=float(k * gammaln(1.0 / k) - gammaln(1.0) - groups * gammaln(float(s))),
    )


def _stack(n_hat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The stacked parameters and totals laid out as `_Block` describes."""
    return np.concatenate([n_hat, rows.ravel(), [n_hat.sum()], rows.sum(axis=1)])


def _elbo_value(block: _Block, stack: np.ndarray, log_theta: np.ndarray,
                log_c: np.ndarray) -> float:
    """Variational lower bound: data term minus Dirichlet divergence terms.

    `log_theta` holds the geometric-mean (digamma) log parameters of the
    stack's entries.  Each correction term is the negative KL divergence
    between a posterior Dirichlet and its prior, expressed through log-beta
    differences and the geometric-mean log parameters; summed over all
    Dirichlets they are one signed sum of gammaln over the stack.
    """
    entries = block.prior.size
    lg = gammaln(stack)
    return float(log_c.sum() + lg[:entries].sum() - lg[entries:].sum()
                 - block.log_b_prior - (stack[:entries] - block.prior) @ log_theta)


def elbo(stats: SufficientStats, posterior: DirichletPosterior,
         log_mu_tilde, log_nu_tilde, log_p_tilde, log_c) -> float:
    """Evaluate the variational lower bound for a posterior state.

    `log_mu_tilde`, `log_nu_tilde`, `log_p_tilde` are the digamma-derived
    geometric-mean log parameters consistent with the posterior, and `log_c`
    holds the per-trajectory responsibility normalizers computed from them.
    With no trajectories the bound is 0 at the prior.
    """
    del stats
    k, s = posterior.k, posterior.s
    rows = np.concatenate([posterior.n_i_hat[:, None, :], posterior.n_ialpha_hat],
                          axis=1).reshape(-1, s)
    log_rows = np.concatenate([np.asarray(log_nu_tilde, dtype=np.float64)[:, None, :],
                               np.asarray(log_p_tilde, dtype=np.float64)], axis=1)
    log_theta = np.concatenate([np.asarray(log_mu_tilde, dtype=np.float64),
                                log_rows.ravel()])
    return _elbo_value(_block(k, s), _stack(posterior.n_hat, rows), log_theta,
                       np.asarray(log_c, dtype=np.float64))


def vem_fit(stats: SufficientStats, init: Responsibilities,
            config: VemConfig):
    """Run variational EM from the given initial responsibilities.

    Returns (FitResult, DirichletPosterior).  FitResult.params holds the
    posterior-mean point estimates; the objective trace is the variational
    lower bound per iteration.  Terminates when |delta L| <=
    tol_scale * N * T_mean or at max_iters.

    Each iteration takes one matrix product for the posterior counts, one
    digamma and one gammaln over the stacked Dirichlet parameters, and one
    matrix product for the E-step.
    """
    if init.k != config.k_max:
        raise ValidationError("init must have k_max columns")
    k, s = config.k_max, stats.s
    block = _block(k, s)
    entries = block.prior.size
    stack_size = entries + 1 + k * (s + 1)

    def step(gamma, it):
        # the stack of `_stack`, filled in place: parameters, then totals
        stack = np.empty(stack_size)
        n_hat, rows, totals = stack[:k], stack[k:entries], stack[entries:]
        np.add(block.prior[:k], gamma.sum(axis=0), out=n_hat)
        np.matmul(gamma.T, stats.X, out=rows.reshape(k, -1))
        rows += 1.0
        rows = rows.reshape(-1, s)
        totals[0] = n_hat.sum()
        rows.sum(axis=1, out=totals[1:])
        psi = digamma(stack)
        log_theta = psi[:entries] - psi[entries:][block.owner]
        log_design = log_theta[k:].reshape(k, -1)
        logw = log_mixture_weights(log_theta[:k], log_design[:, :s],
                                   log_design[:, s:].reshape(k, s, s), stats)
        gamma, log_c = log_normalize_rows(logw)
        return gamma, _elbo_value(block, stack, log_theta, log_c), (n_hat, rows)

    gamma, (n_hat, rows), trace, converged, iterations = coordinate_ascent(
        stats, init, step, config.max_iters, config.tol_scale
    )
    rows = rows.reshape(k, s + 1, s)
    n_i_hat, n_ialpha_hat = rows[:, 0], rows[:, 1:]

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
