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
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import digamma as _scipy_digamma, gammaln

from .errors import ValidationError
from .model_core import (
    FitResult,
    MixtureParams,
    Responsibilities,
    SufficientStats,
    check_int,
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
    if arr.size and not (np.minimum.reduce(arr, axis=None) > 0
                         and np.maximum.reduce(arr, axis=None) < np.inf):
        raise ValueError("digamma requires x > 0")
    out = _scipy_digamma(arr)
    return float(out) if arr.ndim == 0 else out


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
        if not self.tol_scale >= 0:
            raise ValidationError(f"tol_scale must be >= 0, not {self.tol_scale!r}")


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
        n_hat = np.asarray(self.n_hat, dtype=np.float64)
        n_i = np.asarray(self.n_i_hat, dtype=np.float64)
        n_ia = np.asarray(self.n_ialpha_hat, dtype=np.float64)
        k = n_hat.shape[0]
        if n_i.ndim != 2 or n_i.shape[0] != k or n_ia.shape != n_i.shape + (n_i.shape[1],):
            raise ValidationError("inconsistent posterior parameter shapes")
        if not all(np.all(np.isfinite(a)) for a in (n_hat, n_i, n_ia)):
            raise ValidationError("posterior parameters must be finite")
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


@lru_cache(maxsize=64)
def _block(k: int, s: int) -> _Block:
    """The layout for (k, s), built once and shared by every fit, so read-only."""
    groups = k * (s + 1)
    prior = np.concatenate([np.full(k, 1.0 / k), np.ones(groups * s)])
    owner = np.concatenate([np.zeros(k, dtype=np.intp), np.repeat(np.arange(1, groups + 1), s)])
    prior.flags.writeable = owner.flags.writeable = False
    return _Block(
        prior=prior,
        owner=owner,
        log_b_prior=float(k * gammaln(1.0 / k) - gammaln(1.0) - groups * gammaln(float(s))),
    )


def _elbo_value(block: _Block, stack: np.ndarray, log_theta: np.ndarray,
                log_c: np.ndarray, work: np.ndarray) -> float:
    """Variational lower bound: data term minus Dirichlet divergence terms.

    `log_theta` holds the geometric-mean (digamma) log parameters of the
    stack's entries.  Each correction term is the negative KL divergence
    between a posterior Dirichlet and its prior, expressed through log-beta
    differences and the geometric-mean log parameters; summed over all
    Dirichlets they are one signed sum of gammaln over the stack.  `work`
    is a scratch buffer shaped like the stack.
    """
    entries = block.prior.size
    lg = gammaln(stack, out=work)
    data = np.add.reduce(log_c) + np.add.reduce(lg[:entries]) - np.add.reduce(lg[entries:])
    excess = np.subtract(stack[:entries], block.prior, out=work[:entries])
    return float(data - block.log_b_prior - excess @ log_theta)


def vem_fit(stats: SufficientStats, init: Responsibilities,
            config: VemConfig) -> FitResult:
    """Run variational EM from the given initial responsibilities.

    The returned fit carries the DirichletPosterior in `posterior`, and its
    params hold the posterior-mean point estimates; the objective trace is
    the variational lower bound per iteration.  Terminates when |delta L| <=
    tol_scale * N * T_mean or at max_iters.  A component survives when its
    weight-posterior parameter n_hat is at least 1 and at least one
    trajectory is labeled with it.

    Each iteration takes one matrix product for the posterior counts, one
    digamma and one gammaln over the stacked Dirichlet parameters, and one
    matrix product for the E-step.  The stack, its gathered totals and the
    log parameters live in buffers that this call allocates once and every
    iteration overwrites; the returned posterior views the stack of the
    last one.
    """
    if init.k != config.k_max:
        raise ValidationError("init must have k_max columns")
    k, s = config.k_max, stats.s
    block = _block(k, s)
    entries = block.prior.size
    # the stack `_Block` lays out: parameters, then totals
    stack = np.empty(entries + 1 + k * (s + 1))
    n_hat, totals = stack[:k], stack[entries:]
    counts = stack[k:entries].reshape(k, -1)  # laid out like the columns of X
    rows = counts.reshape(-1, s)
    gathered, log_theta, work = np.empty(entries), np.empty(entries), np.empty_like(stack)
    log_mu, log_params = log_theta[:k], log_theta[k:].reshape(k, -1)

    def step(gamma, it):
        np.add(block.prior[:k], np.add.reduce(gamma, axis=0), out=n_hat)
        np.matmul(gamma.T, stats.X, out=counts)
        np.add(counts, 1.0, out=counts)
        totals[0] = np.add.reduce(n_hat)
        np.add.reduce(rows, axis=1, out=totals[1:])
        psi = digamma(stack)
        psi[entries:].take(block.owner, out=gathered, mode="clip")
        np.subtract(psi[:entries], gathered, out=log_theta)
        logw = log_mixture_weights(log_mu, log_params, stats)
        gamma, log_c = log_normalize_rows(logw)
        return gamma, _elbo_value(block, stack, log_theta, log_c, work), (n_hat, rows)

    gamma, (n_hat, rows), trace, converged, iterations = coordinate_ascent(
        stats, init, step, config.max_iters, config.tol_scale
    )
    rows = rows.reshape(k, s + 1, s)
    posterior = DirichletPosterior(n_hat=n_hat, n_i_hat=rows[:, 0], n_ialpha_hat=rows[:, 1:])
    labels = labels_from_responsibilities(gamma)
    label_counts = np.bincount(labels, minlength=config.k_max)
    surviving = int(np.sum((n_hat >= 1.0) & (label_counts > 0)))
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
