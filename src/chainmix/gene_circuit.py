"""Exact stochastic simulation of the MISA two-gene circuit.

The mutual-inhibition, self-activation (MISA) network has an A gene and a
B gene, each in one of four conditions ij (i = activator bound, j =
repressor bound).  A gene produces its protein at rate g_ij read from its
own condition; proteins degrade at rate d.  Two copies of a gene's own
protein can bind as an activator (rates h_a / f_a), and two copies of the
opposite protein can bind as a repressor (rates h_r / f_r).  Binding
consumes two proteins and unbinding releases them.

Bimolecular "+2x" propensities use the combinatorial mass-action form
h * x * (x-1) / 2 (number of distinct identical-species pairs), the
convention of standard Gillespie simulators.  Note this halves effective
binding rates versus the ordered-pair x*(x-1) convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import GaussianKernel, PointSet, discretize_trajectories, spectral_fit
from .errors import NumericalError, ValidationError
from .metrics import accuracy
from .model_core import TrajectoryDataset, sufficient_stats
from .multistart import MultistartReport, multistart_fit
from .vem import VemConfig

_RNG_CHUNK = 8192
# Pools larger than this are subsampled before the dense spectral fit; all
# points are still assigned through the out-of-sample embedding.
_MAX_FIT_POINTS = 1500


@dataclass(frozen=True)
class MisaParams:
    """Reaction rates; f_r (repressor unbinding) is the free parameter."""

    f_r: float
    g00: float = 10.0
    g01: float = 10.0
    g10: float = 100.0
    g11: float = 10.0
    d: float = 1.0
    h_a: float = 1e-1
    f_a: float = 1.0
    h_r: float = 1e-3

    def __post_init__(self):
        for name in ("f_r", "g00", "g01", "g10", "g11", "d", "h_a", "f_a", "h_r"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"rate {name} must be positive")

    def production(self, activator: int, repressor: int) -> float:
        return ((self.g00, self.g01), (self.g10, self.g11))[activator][repressor]


@dataclass(frozen=True)
class MisaState:
    """Gene conditions (activator bit, repressor bit) and protein counts."""

    gene_a: tuple
    gene_b: tuple
    a: int
    b: int

    def __post_init__(self):
        for gene in (self.gene_a, self.gene_b):
            if tuple(gene) not in ((0, 0), (0, 1), (1, 0), (1, 1)):
                raise ValidationError(f"invalid gene condition {gene!r}")
        if self.a < 0 or self.b < 0:
            raise ValidationError("protein counts must be nonnegative")
        object.__setattr__(self, "gene_a", tuple(self.gene_a))
        object.__setattr__(self, "gene_b", tuple(self.gene_b))


# Reaction table: propensity index -> state delta, as explicit updates in
# _apply.  Order: productions, degradations, activator bind/unbind for A
# and B, repressor bind/unbind for A and B.
_N_REACTIONS = 12


def _propensities(ia, ja, ib, jb, a, b, p: MisaParams):
    return (
        p.production(ia, ja),
        p.production(ib, jb),
        p.d * a,
        p.d * b,
        p.h_a * a * (a - 1) * 0.5 if ia == 0 else 0.0,
        p.f_a if ia == 1 else 0.0,
        p.h_a * b * (b - 1) * 0.5 if ib == 0 else 0.0,
        p.f_a if ib == 1 else 0.0,
        p.h_r * b * (b - 1) * 0.5 if ja == 0 else 0.0,
        p.f_r if ja == 1 else 0.0,
        p.h_r * a * (a - 1) * 0.5 if jb == 0 else 0.0,
        p.f_r if jb == 1 else 0.0,
    )


def _apply(reaction, ia, ja, ib, jb, a, b):
    if reaction == 0:
        a += 1
    elif reaction == 1:
        b += 1
    elif reaction == 2:
        a -= 1
    elif reaction == 3:
        b -= 1
    elif reaction == 4:
        ia, a = 1, a - 2
    elif reaction == 5:
        ia, a = 0, a + 2
    elif reaction == 6:
        ib, b = 1, b - 2
    elif reaction == 7:
        ib, b = 0, b + 2
    elif reaction == 8:
        ja, b = 1, b - 2
    elif reaction == 9:
        ja, b = 0, b + 2
    elif reaction == 10:
        jb, a = 1, a - 2
    elif reaction == 11:
        jb, a = 0, a + 2
    return ia, ja, ib, jb, a, b


def misa_step_ssa(state: MisaState, params: MisaParams, rng):
    """One Gillespie event: returns (next_state, waiting_time)."""
    ia, ja = state.gene_a
    ib, jb = state.gene_b
    props = _propensities(ia, ja, ib, jb, state.a, state.b, params)
    total = sum(props)
    if total <= 0:
        raise NumericalError("total propensity is zero")
    wait = rng.standard_exponential() / total
    u = rng.random() * total
    acc = 0.0
    reaction = _N_REACTIONS - 1
    for idx, prop in enumerate(props):
        acc += prop
        if u < acc:
            reaction = idx
            break
    ia, ja, ib, jb, a, b = _apply(reaction, ia, ja, ib, jb, state.a, state.b)
    return MisaState(gene_a=(ia, ja), gene_b=(ib, jb), a=a, b=b), wait


@dataclass(frozen=True)
class MisaTrajectory:
    """Uniformly sampled circuit states: times, protein counts, gene conditions."""

    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    gene_a: np.ndarray
    gene_b: np.ndarray

    @property
    def ab(self) -> np.ndarray:
        """(n_samples, 2) float array of protein counts, clustering-ready."""
        return np.column_stack([self.a, self.b]).astype(np.float64)


def misa_simulate(params: MisaParams, t_end: float, sample_interval: float = 1.0,
                  seed=None, burn_in: float = 100.0,
                  initial_state: MisaState = None) -> MisaTrajectory:
    """Simulate the circuit and sample its state at uniformly spaced times.

    Starts from both genes unbound with zero proteins, discards `burn_in`
    time units, then records the state holding immediately before each
    sample time t = 0, sample_interval, 2*sample_interval, ..., t_end.
    Deterministic given `seed`.
    """
    if not t_end > 0:
        raise ValidationError("t_end must be positive")
    if not sample_interval > 0:
        raise ValidationError("sample_interval must be positive")
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed

    if initial_state is None:
        ia = ja = ib = jb = 0
        a = b = 0
    else:
        ia, ja = initial_state.gene_a
        ib, jb = initial_state.gene_b
        a, b = initial_state.a, initial_state.b

    n_samples = int(np.floor(t_end / sample_interval)) + 1
    sample_times = burn_in + sample_interval * np.arange(n_samples)

    out_a = np.empty(n_samples, dtype=np.int64)
    out_b = np.empty(n_samples, dtype=np.int64)
    out_ga = np.empty((n_samples, 2), dtype=np.int64)
    out_gb = np.empty((n_samples, 2), dtype=np.int64)

    # Local bindings and chunked random draws keep the event loop cheap.
    p = params
    exps = rng.standard_exponential(_RNG_CHUNK)
    unis = rng.random(_RNG_CHUNK)
    cursor = _RNG_CHUNK

    t = 0.0
    idx = 0
    while idx < n_samples:
        props = _propensities(ia, ja, ib, jb, a, b, p)
        total = (
            props[0] + props[1] + props[2] + props[3] + props[4] + props[5]
            + props[6] + props[7] + props[8] + props[9] + props[10] + props[11]
        )
        if cursor >= _RNG_CHUNK:
            exps = rng.standard_exponential(_RNG_CHUNK)
            unis = rng.random(_RNG_CHUNK)
            cursor = 0
        t_next = t + exps[cursor] / total
        u = unis[cursor] * total
        cursor += 1

        while idx < n_samples and sample_times[idx] < t_next:
            out_a[idx] = a
            out_b[idx] = b
            out_ga[idx] = (ia, ja)
            out_gb[idx] = (ib, jb)
            idx += 1
        if idx >= n_samples:
            break

        acc = 0.0
        reaction = _N_REACTIONS - 1
        for ridx in range(_N_REACTIONS):
            acc += props[ridx]
            if u < acc:
                reaction = ridx
                break
        ia, ja, ib, jb, a, b = _apply(reaction, ia, ja, ib, jb, a, b)
        t = t_next

    return MisaTrajectory(
        times=sample_interval * np.arange(n_samples),
        a=out_a,
        b=out_b,
        gene_a=out_ga,
        gene_b=out_gb,
    )


@dataclass(frozen=True)
class MisaMixtureResult:
    """Outcome of the two-population discrimination experiment."""

    dataset: TrajectoryDataset
    true_labels: np.ndarray
    accuracy: float
    report: MultistartReport


def misa_mixture_experiment(f_r_1: float, f_r_2: float, n_per_group: int = 15,
                            t_len: int = 25, seed=None, k_max: int = 10,
                            restarts: int = 20, sigma: float = 50.0,
                            n_states: int = 4,
                            burn_in: float = 100.0) -> MisaMixtureResult:
    """Simulate two populations, discretize by spectral clustering, fit, score.

    Simulates `n_per_group` trajectories at each repressor-unbinding rate,
    fits spectral clustering (Gaussian kernel) on the pooled protein counts,
    discretizes every trajectory into `n_states` states, runs multistart
    variational EM, and returns the permutation-matched accuracy against the
    true group labels.
    """
    if t_len < 1:
        raise ValidationError("t_len must be >= 1")
    master = np.random.SeedSequence(seed)
    sim_seqs = master.spawn(2 * n_per_group)
    cluster_seq, fit_seq, sub_seq = master.spawn(3)

    trajectories = []
    for g, f_r in enumerate((f_r_1, f_r_2)):
        params = MisaParams(f_r=f_r)
        for i in range(n_per_group):
            traj = misa_simulate(params, t_end=float(t_len), sample_interval=1.0,
                                 seed=sim_seqs[g * n_per_group + i],
                                 burn_in=burn_in)
            trajectories.append(traj.ab)
    true_labels = np.repeat(np.arange(2), n_per_group)

    pooled = np.vstack(trajectories)
    if pooled.shape[0] > _MAX_FIT_POINTS:
        pick = np.random.default_rng(sub_seq).choice(
            pooled.shape[0], size=_MAX_FIT_POINTS, replace=False
        )
        fit_points = pooled[np.sort(pick)]
    else:
        fit_points = pooled
    model = spectral_fit(PointSet(fit_points), GaussianKernel(sigma=sigma),
                         s=n_states, seed=cluster_seq)
    dataset = discretize_trajectories(model, trajectories)

    stats = sufficient_stats(dataset)
    report = multistart_fit(
        stats, "vem", restarts=restarts,
        config=VemConfig(k_max=k_max),
        seed=fit_seq, true_labels=true_labels,
    )
    acc, _ = accuracy(true_labels, report.best.labels)
    return MisaMixtureResult(
        dataset=dataset,
        true_labels=true_labels,
        accuracy=acc,
        report=report,
    )
