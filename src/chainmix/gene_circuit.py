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

import math
import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .clustering import GaussianKernel, PointSet, discretize_trajectories, spectral_fit
from .errors import ValidationError
from .metrics import accuracy  # noqa: F401  (perfbench/spans.py wraps this name)
from .model_core import TrajectoryDataset, as_rng, sufficient_stats
from .multistart import MultistartReport, multistart_fit
from .vem import VemConfig

_RNG_CHUNK = 8192
# Pools larger than this are subsampled before the dense spectral fit; all
# points are still assigned through the out-of-sample embedding.
_MAX_FIT_POINTS = 1500
# The timed stages of misa_mixture_experiment, in order.
_STAGES = ("simulate", "cluster", "discretize", "fit", "score")


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
        for rate in fields(self):
            name, value = rate.name, getattr(self, rate.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"rate {name} must be a number, not {value!r}")
            if not 0 < value < math.inf:
                raise ValidationError(f"rate {name} must be finite and positive")


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


def _ssa_events(params: MisaParams, rng, state: tuple, sample_times: list):
    """Run the exact SSA from `state` = (ia, ja, ib, jb, a, b) at time 0.

    Records the state holding immediately before each time of the increasing,
    nonempty list `sample_times`, and stops once all are recorded.  Draws
    come in chunks of `_RNG_CHUNK` exponential waits, then `_RNG_CHUNK`
    uniforms, one pair per event.  Returns the samples, each the tuple
    (a, b, ia, ja, ib, jb).

    The twelve reactions, in propensity order: production of A and of B
    (rate g_ij of the gene's own condition), degradation of A and of B,
    activator binding and unbinding for A and for B, repressor binding and
    unbinding for A (by B proteins) and for B (by A proteins).  The event is
    the first reaction whose cumulative propensity exceeds u; the nested ifs
    below search the cumulative sums, summed left to right, for it.
    """
    g = ((params.g00, params.g01), (params.g10, params.g11))
    d, h_a, f_a = params.d, params.h_a, params.f_a
    h_r, f_r = params.h_r, params.f_r
    ia, ja, ib, jb, a, b = state
    times = list(sample_times) + [math.inf]
    n_samples = len(sample_times)
    samples = []
    next_sample = times[0]
    exps = unis = None
    cursor = _RNG_CHUNK
    t = 0.0
    while True:
        c0 = g[ia][ja]
        c1 = c0 + g[ib][jb]
        c2 = c1 + d * a
        c3 = c2 + d * b
        c4 = c3 + (h_a * a * (a - 1) * 0.5 if ia == 0 else 0.0)
        c5 = c4 + (f_a if ia == 1 else 0.0)
        c6 = c5 + (h_a * b * (b - 1) * 0.5 if ib == 0 else 0.0)
        c7 = c6 + (f_a if ib == 1 else 0.0)
        c8 = c7 + (h_r * b * (b - 1) * 0.5 if ja == 0 else 0.0)
        c9 = c8 + (f_r if ja == 1 else 0.0)
        c10 = c9 + (h_r * a * (a - 1) * 0.5 if jb == 0 else 0.0)
        total = c10 + (f_r if jb == 1 else 0.0)
        if cursor == _RNG_CHUNK:
            # a memoryview yields Python floats about as fast as a list,
            # without holding a float object per draw
            exps = memoryview(rng.standard_exponential(_RNG_CHUNK))
            unis = memoryview(rng.random(_RNG_CHUNK))
            cursor = 0
        t_next = t + exps[cursor] / total
        u = unis[cursor] * total
        cursor += 1

        if next_sample < t_next:
            while times[len(samples)] < t_next:
                samples.append((a, b, ia, ja, ib, jb))
            if len(samples) == n_samples:
                break
            next_sample = times[len(samples)]

        if u < c5:
            if u < c2:
                if u < c0:
                    a += 1
                elif u < c1:
                    b += 1
                else:
                    a -= 1
            elif u < c3:
                b -= 1
            elif u < c4:
                ia, a = 1, a - 2
            else:
                ia, a = 0, a + 2
        elif u < c8:
            if u < c6:
                ib, b = 1, b - 2
            elif u < c7:
                ib, b = 0, b + 2
            else:
                ja, b = 1, b - 2
        elif u < c9:
            ja, b = 0, b + 2
        elif u < c10:
            jb, a = 1, a - 2
        else:
            jb, a = 0, a + 2
        t = t_next
    return samples


@dataclass(frozen=True, eq=False)
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
    if not 0 < t_end < math.inf:
        raise ValidationError("t_end must be finite and positive")
    if not 0 < sample_interval < math.inf:
        raise ValidationError("sample_interval must be finite and positive")
    if not 0 <= burn_in < math.inf:
        raise ValidationError("burn_in must be finite and nonnegative")
    rng = as_rng(seed)

    if initial_state is None:
        state = (0, 0, 0, 0, 0, 0)
    else:
        state = (*initial_state.gene_a, *initial_state.gene_b,
                 initial_state.a, initial_state.b)

    steps = t_end / sample_interval
    if not math.isfinite(steps):
        raise ValidationError("t_end / sample_interval must be finite")
    n_samples = int(np.floor(steps)) + 1
    sample_times = burn_in + sample_interval * np.arange(n_samples)

    # One chunk pair is drawn and discarded before the run: every seeded
    # trajectory depends on that draw, so it stays.
    rng.standard_exponential(_RNG_CHUNK)
    rng.random(_RNG_CHUNK)
    samples = _ssa_events(params, rng, state, sample_times.tolist())
    columns = np.array(samples, dtype=np.int64)

    return MisaTrajectory(
        times=sample_interval * np.arange(n_samples),
        a=columns[:, 0].copy(),
        b=columns[:, 1].copy(),
        gene_a=columns[:, 2:4].copy(),
        gene_b=columns[:, 4:6].copy(),
    )


@dataclass(frozen=True, eq=False)
class MisaMixtureResult:
    """Outcome of the two-population discrimination experiment.

    `stage_s` holds the wall time in seconds (`time.perf_counter`) of each
    stage: "simulate", "cluster", "discretize", "fit" and "score".
    """

    dataset: TrajectoryDataset
    true_labels: np.ndarray
    accuracy: float
    report: MultistartReport
    stage_s: dict = field(default_factory=dict)


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
    marks = [time.perf_counter()]  # each stage ends at the next mark

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
    marks.append(time.perf_counter())
    if pooled.shape[0] > _MAX_FIT_POINTS:
        pick = np.random.default_rng(sub_seq).choice(
            pooled.shape[0], size=_MAX_FIT_POINTS, replace=False
        )
        fit_points = pooled[np.sort(pick)]
    else:
        fit_points = pooled
    model = spectral_fit(PointSet(fit_points), GaussianKernel(sigma=sigma),
                         s=n_states, seed=cluster_seq)
    marks.append(time.perf_counter())
    dataset = discretize_trajectories(model, trajectories)
    marks.append(time.perf_counter())

    stats = sufficient_stats(dataset)
    report = multistart_fit(
        stats, "vem", restarts=restarts,
        config=VemConfig(k_max=k_max),
        seed=fit_seq, true_labels=true_labels,
    )
    marks.append(time.perf_counter())
    acc = float(report.all_accuracies[report.best_index])
    marks.append(time.perf_counter())
    return MisaMixtureResult(
        dataset=dataset,
        true_labels=true_labels,
        accuracy=acc,
        report=report,
        stage_s={name: end - begin
                 for name, begin, end in zip(_STAGES, marks, marks[1:])},
    )
