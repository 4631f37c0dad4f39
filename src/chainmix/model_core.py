"""Core types, generative sampling, and sufficient statistics for Markov chain mixtures.

A mixture of k finite-state Markov chains over states {0, ..., s-1} is
parameterized by component weights mu, per-component initial distributions
nu_i, and per-component row-stochastic transition matrices P_i.  Each
trajectory is generated by drawing a latent component label Z with
probabilities mu, an initial state from nu_Z, and subsequent states from
the rows of P_Z.

States are 0-based everywhere in memory; file readers/writers can convert
to and from 1-based indexing (see chainmix.dataio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError

# Tolerance for accepting externally supplied probability vectors.  Values
# produced internally (normalized counts) are exact to a few ulp.
_SUM_TOL = 1e-9


def as_rng(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, Generator, or None into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def uniform_simplex(rng: np.random.Generator, *shape) -> np.ndarray:
    """Draw vectors uniformly from the probability simplex.

    The last axis of `shape` indexes simplex coordinates.  Each vector is
    produced by normalizing independent exponential variates, which yields
    the uniform (flat Dirichlet) distribution on the simplex.
    """
    x = rng.standard_exponential(size=shape)
    return x / x.sum(axis=-1, keepdims=True)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_states(values):
    """Return (`values` as an int64 array, -1), or (None, i) when flat entry i
    is the first value that is not a whole number.

    Integer and float input are accepted; any other dtype (bool, string,
    complex, object) is rejected at entry 0.  Only float input is inspected
    value by value, and int64 input is used without a copy.
    """
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind not in "iuf":
        return None, 0
    if kind == "f":
        whole = (np.isfinite(arr) & (arr == np.trunc(arr))).ravel()
        if not whole.all():
            return None, int(np.argmin(whole))
    return arr.astype(np.int64, copy=False), -1


class _FlatStates(NamedTuple):
    """The flat form handed to TrajectoryDataset by `TrajectoryDataset.from_flat`."""

    states: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True)
class TrajectoryDataset:
    """A collection of integer-state trajectories over states {0, ..., s-1}.

    Trajectories may have unequal lengths.  A trajectory of length L has
    L - 1 transitions; length-1 trajectories (no transitions) are permitted
    and reported via `zero_transition_indices`.

    All states live in one read-only int64 array `states`, trajectory after
    trajectory, and `sizes[n]` is the length of trajectory n.
    `trajectories` is a tuple of read-only views into `states`.  Build a
    dataset from a sequence of trajectories, `TrajectoryDataset(trajs, s)`,
    or from the flat form, `TrajectoryDataset.from_flat(states, sizes, s)`;
    both are validated by the same checks.
    """

    trajectories: tuple
    s: int
    states: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    @classmethod
    def from_flat(cls, states, sizes, s: int) -> TrajectoryDataset:
        """Dataset whose trajectory n is the next `sizes[n]` entries of `states`.

        An int64 `states` array is used without a copy and marked read-only.
        """
        return cls(_FlatStates(states, sizes), s)

    def __post_init__(self):
        if isinstance(self.trajectories, _FlatStates):
            states, fraction = _as_states(self.trajectories.states)
            sizes = np.asarray(self.trajectories.sizes, dtype=np.int64)
            if fraction >= 0:
                n = int(np.searchsorted(np.cumsum(sizes), fraction, side="right"))
                raise ValidationError(
                    f"trajectory {n} must be a nonempty 1-D integer sequence")
            if states.ndim != 1 or sizes.ndim != 1:
                raise ValidationError("flat states and sizes must be 1-D arrays")
        else:
            parts = [_as_states(t)[0] for t in self.trajectories]
            # a part that is not 1-D or holds a value that is not a whole
            # number gets size 0 so the size check names it
            sizes = np.array([0 if p is None or p.ndim != 1 else p.size for p in parts],
                             dtype=np.int64)
            # with no parts, the empty `sizes` stands in; it is rejected below
            states = (np.concatenate([p.ravel() for p in parts if p is not None])
                      if parts else sizes)
        bad = np.flatnonzero(sizes < 1)
        if bad.size:
            raise ValidationError(
                f"trajectory {bad[0]} must be a nonempty 1-D integer sequence"
            )
        if sizes.size == 0:
            raise ValidationError("dataset must contain at least one trajectory")
        if self.s < 1:
            raise ValidationError("state count s must be >= 1")
        if sizes.sum() != states.size:
            raise ValidationError(
                f"sizes sum to {sizes.sum()} but there are {states.size} states"
            )
        lo, hi = int(states.min()), int(states.max())
        if lo < 0 or hi >= self.s:
            raise ValidationError(
                f"state indices must lie in [0, {self.s}); found range [{lo}, {hi}]"
            )
        ends = np.cumsum(sizes).tolist()
        states = _freeze(states)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "sizes", _freeze(sizes))
        object.__setattr__(self, "trajectories", tuple(
            states[a:b] for a, b in zip([0] + ends[:-1], ends)))

    @property
    def n(self) -> int:
        return self.sizes.size

    def __len__(self) -> int:
        return self.sizes.size

    @property
    def lengths(self) -> np.ndarray:
        """Per-trajectory transition counts (length minus one)."""
        return self.sizes - 1

    @property
    def mean_transitions(self) -> float:
        return float(self.lengths.mean())

    @property
    def zero_transition_indices(self) -> tuple:
        """Indices of trajectories that consist of a single state."""
        return tuple(np.flatnonzero(self.sizes == 1).tolist())


@dataclass(frozen=True)
class MixtureParams:
    """Point parameters (mu, nu_i, P_i) of a k-component chain mixture.

    mu : (k,) component probabilities summing to 1.
    nu : (k, s) rows are initial-state distributions.
    P  : (k, s, s) each P[i] is row-stochastic.
    """

    mu: np.ndarray
    nu: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        nu = np.asarray(self.nu, dtype=np.float64)
        P = np.asarray(self.P, dtype=np.float64)
        if mu.ndim != 1 or nu.ndim != 2 or P.ndim != 3:
            raise ValidationError("expected shapes mu:(k,), nu:(k,s), P:(k,s,s)")
        k = mu.shape[0]
        s = nu.shape[1]
        if nu.shape[0] != k or P.shape != (k, s, s):
            raise ValidationError(
                f"inconsistent shapes: mu {mu.shape}, nu {nu.shape}, P {P.shape}"
            )
        for name, arr in (("mu", mu), ("nu", nu), ("P", P)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
            if np.any(arr < 0):
                raise ValidationError(f"{name} contains negative entries")
        if abs(mu.sum() - 1.0) > _SUM_TOL:
            raise ValidationError(f"mu must sum to 1 (got {mu.sum()!r})")
        if np.any(np.abs(nu.sum(axis=1) - 1.0) > _SUM_TOL):
            raise ValidationError("each nu_i must sum to 1")
        if np.any(np.abs(P.sum(axis=2) - 1.0) > _SUM_TOL):
            raise ValidationError("each row of each P_i must sum to 1")
        object.__setattr__(self, "mu", _freeze(mu))
        object.__setattr__(self, "nu", _freeze(nu))
        object.__setattr__(self, "P", _freeze(P))

    @property
    def k(self) -> int:
        return self.mu.shape[0]

    @property
    def s(self) -> int:
        return self.nu.shape[1]


@dataclass(frozen=True)
class SufficientStats:
    """Per-trajectory initial-state indicators and transition-count matrices.

    U : (N, s) one-hot rows marking each trajectory's initial state.
    V : (N, s, s) V[n, a, b] counts transitions a -> b in trajectory n.

    The counts are stored once, in the design block `X`; U and V are
    read-only views into it.
    """

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=np.float64)
        V = np.asarray(self.V)
        if U.ndim != 2 or V.ndim != 3 or V.shape[:1] != U.shape[:1] or V.shape[1:] != (U.shape[1],) * 2:
            raise ValidationError("expected shapes U:(N,s), V:(N,s,s)")
        counts = V
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        n, s = U.shape
        X = self.X
        U, V = X[:, :s], X[:, s:].reshape(n, s, s)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        if not (np.all((U == 0) | (U == 1)) and np.all(U.sum(axis=1) == 1)):
            raise ValidationError("each row of U must be one-hot")
        # integer counts need only the sign check, made on the given array;
        # any other input is checked for whole numbers in X
        if counts.dtype.kind in "iub":
            bad = counts.size and counts.min() < 0
        else:
            bad = np.any(V < 0) or not np.all(V == np.round(V))
        if bad:
            raise ValidationError("V must contain nonnegative integer counts")

    @cached_property
    def X(self) -> np.ndarray:
        """(N, s + s*s) read-only C-ordered design block [U | V.reshape(N, s*s)].

        Built from the given U and V at construction, which then become views
        into it.  Every fit contracts responsibilities or log-parameters with
        X in one matrix product.  V is converted while it is copied in, so no
        float copy of it is made.
        """
        n, s = self.U.shape
        X = np.empty((n, s + s * s))
        X[:, :s] = self.U
        X[:, s:] = self.V.reshape(n, s * s)
        return _freeze(X)

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def s(self) -> int:
        return self.U.shape[1]

    @property
    def transition_counts(self) -> np.ndarray:
        """Per-trajectory total transition counts T_n."""
        return self.V.sum(axis=(1, 2))

    @property
    def mean_transitions(self) -> float:
        return float(self.transition_counts.mean())


@dataclass(frozen=True)
class Responsibilities:
    """Per-trajectory posterior probabilities over components: gamma (N, k)."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        if g.ndim != 2:
            raise ValidationError("gamma must be a 2-D (N, k) array")
        # written so that a NaN entry fails too
        if not np.all((g >= 0) & (g <= 1 + 1e-12)):
            raise ValidationError("gamma entries must lie in [0, 1]")
        if np.any(np.abs(g.sum(axis=1) - 1.0) > _SUM_TOL):
            raise ValidationError("each gamma row must sum to 1")
        object.__setattr__(self, "gamma", _freeze(g))

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @property
    def k(self) -> int:
        return self.gamma.shape[1]


@dataclass(frozen=True)
class FitResult:
    """Converged fit: point parameters, responsibilities, labels, and trace.

    labels[n] = argmax_i gamma[n, i], ties broken by lowest index.
    surviving_components counts components considered alive at convergence
    (for EM: components holding at least one label; variational fits add a
    posterior-mass threshold, see chainmix.vem).
    """

    params: MixtureParams
    responsibilities: Responsibilities
    labels: np.ndarray
    objective_trace: np.ndarray
    converged: bool
    iterations: int
    surviving_components: int

    @property
    def objective(self) -> float:
        """Final objective value (log-likelihood or variational lower bound)."""
        return float(self.objective_trace[-1])


def labels_from_responsibilities(gamma: np.ndarray) -> np.ndarray:
    """Argmax labels per row; ties resolve to the lowest component index."""
    return np.argmax(gamma, axis=1).astype(np.int64)


def _categorical(rng, columns, rows, out, u, gathered, hit) -> np.ndarray:
    """Draw one index per trajectory m from row `rows[m]` of a cumulative table.

    `columns` holds the table by column: columns[b][r] is the cumulative
    probability of indices 0..b in row r.  The draw is the number of columns
    below the last that a uniform variate reaches.  Cumulative rows never
    decrease, so this is the count over all columns capped at the last
    index, and a variate above a row total that rounding left short of 1
    still picks the last index.  One `rng.random` fill of `u` per call.

    The draw is written into `out`, which is returned.  `u`, `gathered` and
    `hit` are work buffers of the same length, owned by the caller and
    overwritten here.  Every row index is in range, so the clipping gather
    never clips; it is used because `take` with `out=` buffers its result
    in the default "raise" mode.  The method, not `np.take`, is called: the
    function adds about 1 µs of Python per call, which small n would feel.
    """
    rng.random(out=u)
    out.fill(0)
    for col in columns[:-1]:
        col.take(rows, out=gathered, mode="clip")
        np.greater_equal(u, gathered, out=hit)
        out += hit
    return out


def sample_mixture(params: MixtureParams, n: int, t: int, seed=None):
    """Sample `n` trajectories with `t` transitions each from the mixture.

    Returns (TrajectoryDataset, labels) where labels[n] is the true latent
    component of trajectory n.  Deterministic given `seed`.

    The n-sized work arrays (row indices, uniforms, gathered column,
    comparison mask and the current states) are allocated once per call and
    reused at every step; only the returned states and labels outlive it.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if t < 0:
        raise ValidationError("t must be >= 0")
    rng = as_rng(seed)
    k, s = params.k, params.s
    work = (np.empty(n), np.empty(n), np.empty(n, dtype=bool))

    rows = np.zeros(n, dtype=np.int64)  # mu is a table of one row
    z = _categorical(rng, np.cumsum(params.mu)[:, None], rows,
                     np.empty(n, dtype=np.int64), *work)

    states = np.empty((n, t + 1), dtype=np.int64)
    prev = _categorical(rng, np.cumsum(params.nu, axis=1).T, z,
                        np.empty(n, dtype=np.int64), *work)
    states[:, 0] = prev

    # column b of the transition table, row z*s + a: P_z(a, 0..b) summed
    cum_P = np.ascontiguousarray(np.cumsum(params.P, axis=2).reshape(k * s, s).T)
    base = z * s
    for step in range(t):
        np.add(base, prev, out=rows)
        states[:, step + 1] = _categorical(rng, cum_P, rows, prev, *work)

    data = TrajectoryDataset.from_flat(states.ravel(), np.full(n, t + 1), s=s)
    return data, z


def sufficient_stats(data: TrajectoryDataset) -> SufficientStats:
    """Count initial states and transitions for every trajectory.

    Every adjacent pair of states in the dataset's flat state array is
    coded as (trajectory, from, to) for one flat bincount.  The pairs that
    straddle two trajectories go to one extra bin that is dropped, so ragged
    and equal-length data take the same path.
    """
    n, s = data.n, data.s
    states, sizes = data.states, data.sizes
    starts = np.cumsum(sizes) - sizes
    U = np.zeros((n, s), dtype=np.float64)
    U[np.arange(n), states[starts]] = 1.0
    # in-place updates keep the peak at three state-sized arrays
    codes = states[:-1] * s
    codes += states[1:]
    codes += np.repeat(np.arange(n) * (s * s), sizes)[:-1]
    codes[starts[1:] - 1] = n * s * s
    counts = np.bincount(codes, minlength=n * s * s + 1)[:-1]
    return SufficientStats(U, counts.reshape(n, s, s))


def _check_counts(counts) -> np.ndarray:
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or c.size < 1:
        raise ValidationError("counts must be a nonempty 1-D vector")
    if np.any(c < 0):
        raise ValidationError("counts must be nonnegative")
    if c.sum() == 0:
        raise ValidationError("counts must not sum to zero")
    return c


def dirichlet_mean(counts) -> np.ndarray:
    """Mean of a Dirichlet distribution with the given parameter vector."""
    c = _check_counts(counts)
    return c / c.sum()


def dirichlet_variance(counts, i: int) -> float:
    """Variance of coordinate i under a Dirichlet with the given parameters."""
    c = _check_counts(counts)
    total = c.sum()
    rest = total - c[i]
    return float(c[i] * rest / (total * total * (total + 1.0)))


def random_mixture_params(k: int, s: int, seed=None) -> MixtureParams:
    """Draw mu, each nu_i, and each row of each P_i uniformly from the simplex."""
    if k < 1 or s < 1:
        raise ValidationError("k and s must be >= 1")
    rng = as_rng(seed)
    return MixtureParams(
        mu=uniform_simplex(rng, k),
        nu=uniform_simplex(rng, k, s),
        P=uniform_simplex(rng, k, s, s),
    )


def log_mixture_weights(log_mu, log_nu, log_P, stats: SufficientStats) -> np.ndarray:
    """Per-trajectory, per-component unnormalized log posterior weights.

    Computes log mu_i + sum_a U[n,a] log nu_i(a) + sum_ab V[n,a,b] log P_i(a,b)
    as one product of the design block X with the stacked log-parameters,
    with the convention 0 * log 0 = 0: a -inf log-parameter hit by a positive
    count forces the weight to -inf, and one that no count hits adds nothing.
    The support mask is built only when log_nu or log_P holds a -inf.

    Returns a fresh (N, k) F-ordered array, the transpose of the product;
    log_mu is added into it in place, and the caller owns it.
    """
    k = log_mu.shape[0]
    log_theta = np.concatenate([log_nu, log_P.reshape(k, -1)], axis=1)
    # (L X^T)^T rather than X L^T: in the second form OpenBLAS packs all of X
    # into its work buffer, which then stays resident (4.9 MB at N=20000, s=5)
    if log_theta.min() > -np.inf:  # False for a NaN too, which the mask leaves as it is
        w = (log_theta @ stats.X.T).T
        w += log_mu
        return w
    neg_inf = np.isneginf(log_theta)
    w = (np.where(neg_inf, 0.0, log_theta) @ stats.X.T).T
    w += log_mu
    w[(stats.X > 0) @ neg_inf.T] = -np.inf
    return w


def log_normalize_rows(logw: np.ndarray):
    """Row-wise log-sum-exp normalization via a max shift.

    Returns (gamma, log_norms) with gamma = exp(logw - log_norms[:, None]).
    Rows that are entirely -inf yield log_norms of -inf and NaN gamma; the
    callers treat that as a support failure.

    Consumes `logw`: it must be a float64 array the caller no longer needs.
    The shift, the exponential and the division happen in place, so the
    returned gamma is `logw` itself, and log_norms is the buffer that held
    the row sums.
    """
    m = logw.max(axis=1)
    if math.isfinite(m.sum()):  # every row max is finite: no row needs a mask
        logw -= m[:, None]
        gamma = np.exp(logw, out=logw)
        sums = gamma.sum(axis=1)
        gamma /= sums[:, None]
        log_norms = np.log(sums, out=sums)
        log_norms += m
        return gamma, log_norms
    finite = np.isfinite(m)
    # rows without a finite max are overwritten below, so shifting them by 0 is safe
    logw -= np.where(finite, m, 0.0)[:, None]
    gamma = np.exp(logw, out=logw)
    sums = gamma.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma /= sums[:, None]
        log_norms = np.log(sums, out=sums)
        log_norms += m
    gamma[~finite] = np.nan
    log_norms[~finite] = -np.inf
    return gamma, log_norms


def coordinate_ascent(stats: SufficientStats, init: Responsibilities, step,
                      max_iters: int, tol_scale: float):
    """The iteration shared by EM and variational EM.

    `step(gamma, it)` performs one parameter update from responsibilities
    `gamma`, the E-step and the objective evaluation at iteration `it`
    (1-based), and returns (new gamma, objective, parameters).  The loop
    stops when |delta L| <= tol_scale * N * T_mean or after `max_iters`
    steps.

    Returns (gamma, parameters, objective trace, converged, iterations) from
    the last step.  Raises NumericalError carrying the iteration index if
    the objective becomes NaN or +/-inf.
    """
    if init.n != stats.n:
        raise ValidationError("init responsibilities and stats disagree on N")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    threshold = tol_scale * stats.n * stats.mean_transitions
    gamma = init.gamma.copy()
    trace = []
    for it in range(1, max_iters + 1):
        gamma, objective, params = step(gamma, it)
        if not math.isfinite(objective):
            raise NumericalError(
                f"objective became non-finite ({objective})", iteration=it
            )
        trace.append(objective)
        if it > 1 and abs(trace[-1] - trace[-2]) <= threshold:
            return gamma, params, np.asarray(trace), True, it
    return gamma, params, np.asarray(trace), False, max_iters
