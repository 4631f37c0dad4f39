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
import sys
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError

# Tolerance for accepting externally supplied probability vectors.  Values
# produced internally (normalized counts) are exact to a few ulp.
_SUM_TOL = 1e-9

# A categorical draw compares the uniform variates with the cumulative table
# in blocks of this many columns, so its work buffers hold 9 bytes per
# trajectory per column whatever the number of states (s = 5, the benchmark's
# shape, is one block).
_DRAW_BLOCK_COLUMNS = 4


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(value, name, low, high=None):
    """`value` if it is an int or np.integer (not a bool) in [low, high], else
    ValidationError naming `name`: every count and index the library takes."""
    if not _is_int(value):
        raise ValidationError(f"{name} must be an integer, not {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be <= {high}")
    return value


def check_real(value, name, positive):
    """`value` if it is an int, float or numpy scalar (not a bool), finite as a
    float64 and > 0 (`positive`) or >= 0, else ValidationError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a number, not {value!r}")
    finite = value <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)
    if not (finite and (value > 0 or value == 0 and not positive)):
        side = "positive" if positive else "nonnegative"
        raise ValidationError(f"{name} must be finite and {side}")
    return value


def check_reals(values, name, ndim):
    """`values` as a float64 array of `ndim` dimensions with every entry finite,
    not copied if it is one, else ValidationError naming `name`: every real-valued
    array the library takes.  Integer and float input only; no bool or complex."""
    try:
        arr = np.asarray(values)
    except ValueError:  # lists nested to uneven depths or lengths
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be an array of numbers")
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be a {ndim}-D array, not {arr.ndim}-D")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    return arr


def check_seed(seed, *kinds):
    """`seed` itself if it is None, a non-negative integer or an instance of
    one of `kinds`; ValidationError otherwise.

    Every seeded entry point passes its seed through here, so a negative,
    fractional, boolean or string seed fails with one message instead of
    being truncated, parsed or rejected deep inside numpy.
    """
    if seed is None or isinstance(seed, kinds) or (_is_int(seed) and seed >= 0):
        return seed
    raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def as_rng(seed) -> np.random.Generator:
    """Coerce a non-negative int seed, SeedSequence, Generator, or None into a
    Generator; any other seed raises ValidationError."""
    check_seed(seed, np.random.SeedSequence, np.random.Generator)
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


@dataclass(frozen=True, eq=False)
class TrajectoryDataset:
    """A collection of integer-state trajectories over states {0, ..., s-1}.

    Trajectories may have unequal lengths.  A trajectory of length L has
    L - 1 transitions; length-1 trajectories (no transitions) are permitted
    and reported via `zero_transition_indices`.

    All states live in one read-only int64 array `states`, trajectory after
    trajectory, and `sizes[n]` is the length of trajectory n; the dataset
    stores nothing else.  Build one from a sequence of trajectories,
    `TrajectoryDataset(parts, s)`, or from the flat form with
    `TrajectoryDataset.from_flat(states, sizes, s)`; both pass the same checks.
    """

    parts: InitVar[tuple]
    s: int
    states: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)

    @classmethod
    def from_flat(cls, states, sizes, s: int) -> TrajectoryDataset:
        """Dataset whose trajectory n is the next `sizes[n]` entries of `states`.

        An int64 `states` array is used without a copy and marked read-only.
        """
        return cls(_FlatStates(states, sizes), s)

    def __post_init__(self, parts):
        if isinstance(parts, _FlatStates):
            sizes, bad = _as_states(parts.sizes)
            states, fraction = _as_states(parts.states)
            if bad < 0 <= fraction:
                bad = int(np.searchsorted(np.cumsum(sizes), fraction, side="right"))
            if bad >= 0:
                raise ValidationError(
                    f"trajectory {bad} must be a nonempty 1-D integer sequence")
            if states.ndim != 1 or sizes.ndim != 1:
                raise ValidationError("flat states and sizes must be 1-D arrays")
        else:
            parts = [_as_states(t)[0] for t in parts]
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
        check_int(self.s, "state count s", 1)
        if sizes.sum() != states.size:
            raise ValidationError(
                f"sizes sum to {sizes.sum()} but there are {states.size} states"
            )
        # one pass: read as unsigned, a negative state is at least 2**63
        if states.view(np.uint64).max() >= min(self.s, 2**63):
            raise ValidationError(
                f"state indices must lie in [0, {self.s}); "
                f"found range [{states.min()}, {states.max()}]"
            )
        object.__setattr__(self, "states", _freeze(states))
        object.__setattr__(self, "sizes", _freeze(sizes))

    @cached_property
    def trajectories(self) -> tuple:
        """Read-only views into `states`, one per trajectory; built on first use."""
        ends = np.cumsum(self.sizes).tolist()
        return tuple(self.states[a:b] for a, b in zip([0] + ends[:-1], ends))

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


@dataclass(frozen=True, eq=False)
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
        mu, nu, P = (check_reals(self.mu, "mu", 1), check_reals(self.nu, "nu", 2),
                     check_reals(self.P, "P", 3))
        k = mu.shape[0]
        s = nu.shape[1]
        if nu.shape[0] != k or P.shape != (k, s, s):
            raise ValidationError(
                f"inconsistent shapes: mu {mu.shape}, nu {nu.shape}, P {P.shape}"
            )
        for name, arr in (("mu", mu), ("nu", nu), ("P", P)):
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


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Per-trajectory initial-state indicators and transition-count matrices.

    U : (N, s) one-hot rows marking each trajectory's initial state.
    V : (N, s, s) V[n, a, b] counts transitions a -> b in trajectory n.
    X : (N, s + s*s) read-only C-ordered design block [U | V.reshape(N, s*s)].

    The given U and V are validated and copied into X once (V is converted
    on the way in, with no float copy), and then become read-only views of X.

    Every fit contracts responsibilities or log-parameters with X in one
    matrix product, so the per-component parameters share its layout: a
    (k, s + s*s) block whose row i is nu_i followed by the s rows of P_i.
    Its `reshape(k, s + 1, s)` holds nu_i at `[:, 0]` and P_i at `[:, 1:]`;
    `parameter_block` joins a separate nu and P.  EM and variational EM
    share one M-step in that layout (`_ParameterStack`) and differ only in
    its prior, the link from counts to log parameters and the objective.
    """

    U: np.ndarray
    V: np.ndarray
    X: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        U, V = np.asarray(self.U), np.asarray(self.V)
        if U.ndim != 2 or V.ndim != 3 or V.shape[:1] != U.shape[:1] or V.shape[1:] != (U.shape[1],) * 2:
            raise ValidationError("expected shapes U:(N,s), V:(N,s,s)")
        if U.shape[0] == 0:
            raise ValidationError("stats must contain at least one trajectory")
        if U.dtype.kind not in "iubf" or not (
                np.all((U == 0) | (U == 1)) and np.all(U.sum(axis=1) == 1)):
            raise ValidationError("each row of U must be one-hot")
        # integer counts need only a sign check; float ones must be finite whole numbers
        if V.dtype.kind in "iub":
            bad = V.min() < 0
        else:
            bad = V.dtype.kind != "f" or not np.all(np.isfinite(V) & (V >= 0) & (V == np.round(V)))
        if bad:
            raise ValidationError("V must contain nonnegative integer counts")
        n, s = U.shape
        X = np.empty((n, s + s * s))
        X[:, :s] = U
        X[:, s:] = V.reshape(n, s * s)
        object.__setattr__(self, "X", _freeze(X))
        object.__setattr__(self, "U", X[:, :s])
        object.__setattr__(self, "V", X[:, s:].reshape(n, s, s))

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


@dataclass(frozen=True, eq=False)
class Responsibilities:
    """Per-trajectory posterior probabilities over components: gamma (N, k)."""

    gamma: np.ndarray

    def __post_init__(self):
        g = check_reals(self.gamma, "gamma", 2)
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


@dataclass(frozen=True, eq=False)
class FitResult:
    """Converged fit: point parameters, responsibilities, labels, and trace.

    labels[n] = argmax_i gamma[n, i], ties broken by lowest index.
    surviving_components counts components considered alive at convergence
    (for EM: components holding at least one label; variational fits add a
    posterior-mass threshold, see chainmix.vem).  posterior is the
    variational fit's Dirichlet posterior, None for EM.
    """

    params: MixtureParams
    responsibilities: Responsibilities
    labels: np.ndarray
    objective_trace: np.ndarray
    converged: bool
    iterations: int
    surviving_components: int
    posterior: "DirichletPosterior | None" = None

    @property
    def objective(self) -> float:
        """Final objective value (log-likelihood or variational lower bound)."""
        return float(self.objective_trace[-1])


def labels_from_responsibilities(gamma: np.ndarray) -> np.ndarray:
    """Argmax labels per row; ties resolve to the lowest component index."""
    return np.argmax(gamma, axis=1).astype(np.int64)


def _categorical(rng, table, rows, out, u, gathered, hit) -> np.ndarray:
    """Draw one index per trajectory m from row `rows[m]` of a cumulative table.

    `table` is a (columns, rows) block holding every cumulative column but
    the last: table[b, r] is the probability of indices 0..b in row r.  The
    draw is the number of those columns that a uniform variate reaches.
    Cumulative rows never decrease, so this is the index itself, and a
    variate above a row total that rounding left short of 1 still picks the
    last index.  One `rng.random` fill of `u` per call, then, for each block
    of up to `len(gathered)` columns, one gather, one comparison and one
    column sum; a table of no columns is one empty block, which draws 0.

    The draw is written into `out`, in its dtype, which is returned.  `u`
    (n,), `gathered` and `hit` (at least one block row, n) are work buffers
    owned by the caller and overwritten here.  Every row index is in range,
    so the clipping gather never clips; it is used because `take` with
    `out=` buffers its result in the default "raise" mode.  The method, not
    `np.take`, is called: the function adds about 1 µs of Python per call,
    which small n would feel.
    """
    rng.random(out=u)
    width = len(gathered)
    for lo in range(0, max(len(table), 1), width):
        block = table[lo:lo + width]
        g, h = gathered[:len(block)], hit[:len(block)]
        block.take(rows, axis=1, out=g, mode="clip")
        np.greater_equal(u, g, out=h)
        if lo:
            out += np.add.reduce(h, axis=0, dtype=out.dtype)
        else:
            np.add.reduce(h, axis=0, out=out, dtype=out.dtype)
    return out


def sample_mixture(params: MixtureParams, n: int, t: int, seed=None):
    """Sample `n` trajectories with `t` transitions each from the mixture.

    Returns (TrajectoryDataset, labels) where labels[n] is the true latent
    component of trajectory n.  Deterministic given `seed`.

    The work arrays (row indices, uniforms, and a gathered block and
    comparison mask of at most `_DRAW_BLOCK_COLUMNS` rows of n) are
    allocated once per call and reused at every step.  The states are drawn
    time-major into a (t + 1, n) array of the narrowest unsigned dtype that
    holds s - 1 (uint8 for s <= 256), so each step writes one contiguous row
    and reads the previous one; one transposing copy then widens them into
    the int64 array that holds them trajectory after trajectory.  Only the
    returned states and labels outlive the call.
    """
    check_int(n, "n", 1)
    check_int(t, "t", 0)
    rng = as_rng(seed)
    k, s = params.k, params.s
    u = np.empty(n)
    gathered = np.empty((min(max(k, s, 2) - 1, _DRAW_BLOCK_COLUMNS), n))
    hit = np.empty(gathered.shape, dtype=bool)
    work = (u, gathered, hit)

    rows = np.zeros(n, dtype=np.int64)  # mu is a table of one row
    z = _categorical(rng, np.cumsum(params.mu)[:-1, None], rows,
                     np.empty(n, dtype=np.int64), *work)

    # steps[j, m]: state j of trajectory m, in the narrowest dtype that holds s - 1
    steps = np.empty((t + 1, n), dtype=np.min_scalar_type(s - 1))
    _categorical(rng, np.cumsum(params.nu, axis=1)[:, :-1].T, z, steps[0], *work)

    # column b of the transition table, row z*s + a: P_z(a, 0..b) summed
    cum_P = np.ascontiguousarray(np.cumsum(params.P, axis=2)[:, :, :-1].reshape(k * s, s - 1).T)
    base = z * s
    for step in range(t):
        np.add(base, steps[step], out=rows)
        _categorical(rng, cum_P, rows, steps[step + 1], *work)

    states = np.empty((n, t + 1), dtype=np.int64)
    np.copyto(states, steps.T)
    data = TrajectoryDataset.from_flat(states.reshape(-1), np.full(n, t + 1), s=s)
    return data, z


def sufficient_stats(data: TrajectoryDataset) -> SufficientStats:
    """Count initial states and transitions for every trajectory.

    Every adjacent pair of states is coded as (trajectory, from, to) for one
    flat bincount.  When every trajectory has the same length L the pairs
    are the adjacent columns of the (n, L) block, offset per trajectory by
    a broadcast column.  Ragged data code the pairs of the flat state array
    with a per-state offset instead, and the pairs that straddle two
    trajectories go to one extra bin that is dropped.
    """
    n, s = data.n, data.s
    states, sizes = data.states, data.sizes
    bins = n * s * s
    U = np.zeros((n, s), dtype=np.float64)
    # in-place updates keep the peak at the states, the codes and, for ragged
    # data only, the per-state offsets.  Every simulator and preset draws
    # equal lengths, so the block is the common case; only files are ragged.
    if sizes.min() == sizes.max():
        block = states.reshape(n, -1)
        U[np.arange(n), block[:, 0]] = 1.0
        codes = block[:, :-1] * s
        codes += block[:, 1:]
        codes += (np.arange(n) * (s * s))[:, None]
    else:
        starts = np.cumsum(sizes) - sizes
        U[np.arange(n), states[starts]] = 1.0
        codes = states[:-1] * s
        codes += states[1:]
        codes += np.repeat(np.arange(n) * (s * s), sizes)[:-1]
        codes[starts[1:] - 1] = bins
    counts = np.bincount(codes.reshape(-1), minlength=bins + 1)[:bins]
    del codes  # before SufficientStats copies the counts into X
    return SufficientStats(U, counts.reshape(n, s, s))


def random_mixture_params(k: int, s: int, seed=None) -> MixtureParams:
    """Draw mu, each nu_i, and each row of each P_i uniformly from the simplex."""
    check_int(k, "k", 1)
    check_int(s, "s", 1)
    rng = as_rng(seed)
    return MixtureParams(
        mu=uniform_simplex(rng, k),
        nu=uniform_simplex(rng, k, s),
        P=uniform_simplex(rng, k, s, s),
    )


def parameter_block(nu, P) -> np.ndarray:
    """The (k, s + s*s) block [nu_i | P_i.ravel()] laid out like the columns of X."""
    nu = np.asarray(nu, dtype=np.float64)
    return np.concatenate([nu[:, None, :], np.asarray(P, dtype=np.float64)],
                          axis=1).reshape(nu.shape[0], -1)


def log_mixture_weights(log_mu, log_theta, stats: SufficientStats, out=None) -> np.ndarray:
    """Per-trajectory, per-component unnormalized log posterior weights.

    `log_theta` is the (k, s + s*s) log-parameter block laid out like the
    columns of X (see `SufficientStats.X`).  Computes
    log mu_i + sum_a U[n,a] log nu_i(a) + sum_ab V[n,a,b] log P_i(a,b)
    as one product of X with that block, with the convention 0 * log 0 = 0:
    a -inf log-parameter hit by a positive count forces the weight to -inf,
    and one that no count hits adds nothing.  The support mask is built only
    when the block holds a -inf.

    The product is written into `out`, a C-ordered float64 (k, N) buffer the
    caller owns and lets this call overwrite, or into a fresh one when `out`
    is None.  Returns its transpose, an F-ordered (N, k) view, with log_mu
    added in place.
    """
    # (L X^T)^T rather than X L^T: in the second form OpenBLAS packs all of X
    # into its work buffer, which then stays resident (4.9 MB at N=20000, s=5)
    # False for a NaN too, which the mask leaves as it is
    if np.minimum.reduce(log_theta, axis=None) > -np.inf:
        w = np.matmul(log_theta, stats.X.T, out=out).T
        w += log_mu
        return w
    neg_inf = np.isneginf(log_theta)
    w = np.matmul(np.where(neg_inf, 0.0, log_theta), stats.X.T, out=out).T
    w += log_mu
    # X holds nonnegative whole counts: a -inf entry is hit where this BLAS product
    # is positive (an unvalidated infinite count makes a NaN, which hits nothing)
    with np.errstate(invalid="ignore"):
        w[np.matmul(neg_inf.astype(np.float64), stats.X.T).T > 0] = -np.inf
    return w


def log_normalize_rows(logw: np.ndarray, scratch=None):
    """Row-wise log-sum-exp normalization via a max shift.

    Returns (gamma, log_norms) with gamma = exp(logw - log_norms[:, None]).
    Raises NumericalError naming the first trajectory whose row has no
    finite maximum: no component can produce it.

    Consumes `logw`: it must be a float64 array the caller no longer needs.
    The shift, the exponential and the division happen in place, so the
    returned gamma is `logw` itself.  The row maxima and row sums go into
    `scratch`, a float64 (2, N) buffer the caller owns (fresh when None), and
    log_norms is its second row.
    """
    if scratch is None:
        scratch = np.empty((2, logw.shape[0]))
    m, sums = scratch[0], scratch[1]  # unpacking would iterate, at about 1 µs a call
    np.maximum.reduce(logw, axis=1, out=m)
    if not math.isfinite(np.add.reduce(m)):  # a row max is not finite, or the sum overflows
        bad = np.flatnonzero(~np.isfinite(m))
        if bad.size:
            raise NumericalError(f"trajectory {bad[0]} has zero probability under every component")
    logw -= m[:, None]
    gamma = np.exp(logw, out=logw)
    np.add.reduce(gamma, axis=1, out=sums)
    gamma /= sums[:, None]
    log_norms = np.log(sums, out=sums)
    log_norms += m
    return gamma, log_norms


class _ParameterStack:
    """One fit's M-step buffer: the counts both algorithms build from gamma.

    `values` is [weights (k) | counts (k, s + s*s) | weight total |
    k*(s+1) row totals]: every parameter entry (`entries`), then every
    total (`totals`).  The counts are laid out like the columns of X, so
    their rows of s (`rows`) are, per component, nu_i's and then P_i's
    rows; `totals[:1]` is the weights' total and `totals[1:, None]` the
    rows' totals, in `rows` order.  `prior[e]` is entry e's prior: none for
    EM, the Dirichlet prior for variational EM.  `fill` writes sum(gamma)
    and gamma^T X plus the prior, then the totals; each algorithm links the
    stack to the log parameters in `log_theta`, laid out like the entries.
    One fit allocates these buffers and every iteration overwrites them.
    """

    def __init__(self, k: int, s: int, weight_prior: float = 0.0, count_prior: float = 0.0):
        entries = k * (1 + s + s * s)
        self.prior = np.repeat([weight_prior, count_prior], [k, entries - k])
        self.values = np.empty(entries + 1 + k * (s + 1))
        self.entries, self.totals = self.values[:entries], self.values[entries:]
        self.weights = self.values[:k]
        self.counts = self.values[k:entries].reshape(k, -1)
        self.rows = self.counts.reshape(-1, s)
        self.log_theta = np.empty(entries)
        self.log_mu, self.log_params = self.log_theta[:k], self.log_theta[k:].reshape(k, -1)

    def fill(self, gamma: np.ndarray, X: np.ndarray):
        np.add.reduce(gamma, axis=0, out=self.weights)
        np.matmul(gamma.T, X, out=self.counts)
        np.add(self.entries, self.prior, out=self.entries)
        self.totals[0] = np.add.reduce(self.weights)
        np.add.reduce(self.rows, axis=1, out=self.totals[1:])


def coordinate_ascent(stats: SufficientStats, init: Responsibilities,
                      stack: _ParameterStack, step, max_iters: int, tol_scale: float):
    """The iteration shared by EM and variational EM.

    Each iteration `it` (1-based) fills `stack` from the responsibilities;
    then `step()` links it to log parameters, performs the E-step,
    evaluates the objective and returns (new gamma, objective).  The loop
    stops when |delta L| <= tol_scale * N * T_mean or after `max_iters`
    steps; `max_iters` >= 1 is the config's check.

    Returns (gamma, objective trace, converged, iterations); `stack` holds
    the last iteration's counts.  Raises NumericalError carrying the
    iteration index if the objective becomes NaN or +/-inf, and sets that
    index on any NumericalError the step raises.
    """
    if init.n != stats.n:
        raise ValidationError("init responsibilities and stats disagree on N")
    threshold = tol_scale * stats.n * stats.mean_transitions
    gamma = init.gamma
    trace = []
    for it in range(1, max_iters + 1):
        stack.fill(gamma, stats.X)
        try:
            gamma, objective = step()
        except NumericalError as exc:
            exc.iteration = it
            raise
        if not math.isfinite(objective):
            raise NumericalError(
                f"objective became non-finite ({objective})", iteration=it
            )
        trace.append(objective)
        if it > 1 and abs(trace[-1] - trace[-2]) <= threshold:
            return gamma, np.asarray(trace), True, it
    return gamma, np.asarray(trace), False, max_iters
