import hashlib
import itertools

import numpy as np
import pytest

from chainmix import (
    EmConfig,
    MixtureParams,
    NumericalError,
    Responsibilities,
    TrajectoryDataset,
    ValidationError,
    accuracy,
    bayes_classify,
    em_fit,
    kl_rate,
    random_mixture_params,
    sample_mixture,
    sample_simplex_rows,
    sufficient_stats,
)
from chainmix.model_core import SufficientStats

from helpers import assert_e_step_buffers_reused, record_results, zero_probability_stats


def test_single_component_collapses_to_count_normalization():
    ds = TrajectoryDataset(([0, 1, 1, 0], [1, 1, 0, 0]), s=2)
    stats = sufficient_stats(ds)
    fit = em_fit(stats, Responsibilities(np.ones((2, 1))), EmConfig(k=1))
    assert fit.posterior is None
    assert np.allclose(fit.responsibilities.gamma, 1.0)
    assert np.allclose(fit.params.mu, [1.0])
    total_U = stats.U.sum(axis=0)
    total_V = stats.V.sum(axis=0)
    assert np.allclose(fit.params.nu[0], total_U / total_U.sum())
    assert np.allclose(fit.params.P[0],
                       total_V / total_V.sum(axis=1, keepdims=True))


def _two_trajectory_loglik(mu0, nu, p00, p11):
    """Mixture log likelihood of trajectories (0,0,0,0) and (1,1,1,1)."""
    mus = (mu0, 1.0 - mu0)
    lik_a = sum(m * n * q0**3
                for m, n, q0 in zip(mus, (nu[0], nu[1]), (p00[0], p00[1])))
    lik_b = sum(m * (1.0 - n) * q1**3
                for m, n, q1 in zip(mus, (nu[0], nu[1]), (p11[0], p11[1])))
    if lik_a == 0 or lik_b == 0:
        return -np.inf
    return np.log(lik_a) + np.log(lik_b)


def test_two_trajectory_separation_matches_grid_search():
    # grid-search oracle over all 7 free parameters; the grid contains the
    # exact optimum (each trajectory perfectly fit by its own component)
    grid = np.linspace(0.0, 1.0, 5)
    best = -np.inf
    for mu0 in grid:
        for nu0, nu1 in itertools.product(grid, repeat=2):
            for a0, a1 in itertools.product(grid, repeat=2):
                for b0, b1 in itertools.product(grid, repeat=2):
                    val = _two_trajectory_loglik(mu0, (nu0, nu1), (a0, a1), (b0, b1))
                    if val > best:
                        best = val
    assert best == pytest.approx(-2 * np.log(2), abs=1e-12)

    ds = TrajectoryDataset(([0, 0, 0, 0], [1, 1, 1, 1]), s=2)
    stats = sufficient_stats(ds)
    init = Responsibilities(np.array([[0.6, 0.4], [0.4, 0.6]]))
    fit = em_fit(stats, init, EmConfig(k=2))
    # the fit attains the global maximum of the two-trajectory likelihood
    assert fit.objective == pytest.approx(best, abs=1e-9)
    # the two trajectories separate into distinct components whose transition
    # rows are the identity on the visited states (this instance has a whole
    # family of equal-likelihood optima, so responsibilities keep the init's
    # asymmetry rather than saturating)
    assert fit.labels[0] != fit.labels[1]
    for traj_idx, comp in enumerate(fit.labels):
        state = traj_idx  # trajectory 0 lives on state 0, trajectory 1 on state 1
        assert fit.params.P[comp][state, state] == pytest.approx(1.0, abs=1e-9)


def test_well_separated_mixture_classified_perfectly():
    params = MixtureParams(
        mu=[0.5, 0.5],
        nu=[[0.5, 0.5], [0.5, 0.5]],
        P=[[[0.95, 0.05], [0.05, 0.95]],
           [[0.05, 0.95], [0.95, 0.05]]],
    )
    assert kl_rate(params, 0, 1) >= 1.0
    assert kl_rate(params, 1, 0) >= 1.0
    data, labels = sample_mixture(params, 50, 100, seed=21)

    # oracle: the optimal classifier with the true parameters is perfect here
    bayes_labels, _ = bayes_classify(params, data)
    bayes_acc, _ = accuracy(labels, bayes_labels)
    assert bayes_acc == 1.0

    from chainmix import multistart_fit
    report = multistart_fit(sufficient_stats(data), "em", restarts=5,
                            config=EmConfig(k=2), seed=22)
    acc, _ = accuracy(labels, report.best.labels)
    assert acc == 1.0


def test_monotone_log_likelihood_and_normalized_rows():
    rng = np.random.default_rng(31)
    for trial in range(20):
        k = int(rng.integers(1, 5))
        s = int(rng.integers(2, 5))
        params = random_mixture_params(k, s, seed=int(rng.integers(2**31)))
        data, _ = sample_mixture(params, int(rng.integers(5, 40)),
                                 int(rng.integers(1, 30)),
                                 seed=int(rng.integers(2**31)))
        stats = sufficient_stats(data)
        init = sample_simplex_rows(stats.n, k, seed=int(rng.integers(2**31)))
        fit = em_fit(stats, init, EmConfig(k=k))
        trace = fit.objective_trace
        assert np.all(np.isfinite(trace))
        deltas = np.diff(trace)
        assert np.all(deltas >= -1e-9 * np.abs(trace[:-1]))
        assert np.allclose(fit.responsibilities.gamma.sum(axis=1), 1.0,
                           atol=1e-12)


def test_refit_from_own_output_is_fixed_point():
    params = random_mixture_params(2, 3, seed=41)
    data, _ = sample_mixture(params, 30, 20, seed=42)
    stats = sufficient_stats(data)
    fit = em_fit(stats, sample_simplex_rows(30, 2, seed=43), EmConfig(k=2))
    refit = em_fit(stats, fit.responsibilities, EmConfig(k=2))
    tol = 1e-12 * stats.n * stats.mean_transitions
    assert abs(refit.objective - fit.objective) < max(tol, 1e-9)


def test_one_e_step_call_per_iteration(monkeypatch):
    # the E-step helpers are looked up through chainmix.em once per
    # iteration; the benchmark's traced run wraps those names.  Every call
    # writes the fit's one (k, N) buffer and (2, N) scratch
    from chainmix import em, sample_simplex_rows
    params = random_mixture_params(3, 3, seed=44)
    data, _ = sample_mixture(params, 30, 10, seed=45)
    results = record_results(monkeypatch, em, "log_mixture_weights", "log_normalize_rows")
    fit = em_fit(sufficient_stats(data), sample_simplex_rows(30, 3, seed=46),
                 EmConfig(k=3))
    assert fit.iterations > 1
    assert_e_step_buffers_reused(results, fit, 3, 30)


def test_zero_support_e_step_reuses_per_fit_buffers(monkeypatch):
    # the -inf support path writes the same buffers
    from chainmix import em
    ds = TrajectoryDataset(([0, 0, 0, 0, 0], [0, 1, 0, 1, 1]), s=2)
    results = record_results(monkeypatch, em, "log_mixture_weights", "log_normalize_rows")
    fit = em_fit(sufficient_stats(ds), Responsibilities(np.array([[1.0, 0.0], [0.0, 1.0]])),
                 EmConfig(k=2))
    assert fit.iterations > 1 and np.any(fit.params.P == 0)
    assert_e_step_buffers_reused(results, fit, 2, 2)


def test_zero_probability_trajectory_named_with_iteration():
    stats = zero_probability_stats()
    with np.errstate(over="ignore"), pytest.raises(NumericalError) as err:
        em_fit(stats, Responsibilities(np.ones((3, 1))), EmConfig(k=1))
    assert str(err.value) == "trajectory 1 has zero probability under every component"
    assert err.value.iteration == 1


def test_zero_probability_components_get_zero_responsibility():
    # trajectory 1 contains a transition impossible under a point-mass
    # component fitted to trajectory 0 only
    ds = TrajectoryDataset(([0, 0, 0, 0, 0], [0, 1, 0, 1, 1]), s=2)
    stats = sufficient_stats(ds)
    init = Responsibilities(np.array([[1.0, 0.0], [0.0, 1.0]]))
    fit = em_fit(stats, init, EmConfig(k=2))
    assert np.allclose(fit.responsibilities.gamma, np.eye(2), atol=1e-12)


def _fit_digest(fit):
    digest = hashlib.sha256()
    for a in (fit.objective_trace, fit.params.mu, fit.params.nu, fit.params.P,
              fit.responsibilities.gamma):
        digest.update(np.ascontiguousarray(a).tobytes())
    return fit.iterations, digest.hexdigest()


@pytest.mark.parametrize("seed, k_true, k, iterations, sha", [
    (0, 4, 4, 178, "9cc3ee556ec944cdceade2ffe8b7ba8ff68617701de065bf398dbc6aa7734c82"),
    (1, 3, 2, 8, "95de90df46d283de07c00068d8438cb2a9239e35f8cd2cecac847425ecb83fba"),
    (2, 4, 6, 164, "7e13d5afd7fc020c60149bbc8fc89dd6fb8cfb7685b987a87295e21cd90f2267"),
])
def test_seeded_fits_pinned(seed, k_true, k, iterations, sha):
    # digests of the fits made when EM built its own M-step arrays every
    # iteration: the trace, mu, nu, P and gamma
    params = random_mixture_params(k_true, 3, seed=seed)
    data, _ = sample_mixture(params, 100, 30, seed=seed + 1)
    fit = em_fit(sufficient_stats(data), sample_simplex_rows(100, k, seed=seed + 2),
                 EmConfig(k=k))
    assert _fit_digest(fit) == (iterations, sha)


def test_zero_support_fit_pinned():
    # the fit of test_zero_probability_components_get_zero_responsibility,
    # whose unvisited rows are uniform
    ds = TrajectoryDataset(([0, 0, 0, 0, 0], [0, 1, 0, 1, 1]), s=2)
    init = Responsibilities(np.array([[1.0, 0.0], [0.0, 1.0]]))
    fit = em_fit(sufficient_stats(ds), init, EmConfig(k=2))
    assert np.array_equal(fit.params.P[:, 1], np.full((2, 2), 0.5))
    assert _fit_digest(fit) == (
        2, "1ba8db3ac95c2f28b278f546f502c83d1d7cf1a1b50a91bd57ffe91c0adebbe0")


def test_numerical_failure_carries_iteration_index():
    U = np.array([[1.0, 0.0]])
    V = np.array([[[np.inf, 0.0], [0.0, 0.0]]])
    stats = SufficientStats.__new__(SufficientStats)  # bypass count validation
    object.__setattr__(stats, "U", U)
    object.__setattr__(stats, "V", V)
    object.__setattr__(stats, "X", np.hstack([U, V.reshape(1, 4)]))
    with pytest.raises(NumericalError) as err:
        em_fit(stats, Responsibilities(np.ones((1, 1))), EmConfig(k=1))
    assert err.value.iteration == 1


def test_config_validation():
    from chainmix import ValidationError
    for kwargs in (dict(k=0), dict(k=2, max_iters=0)):
        with pytest.raises(ValidationError):
            EmConfig(**kwargs)
    for tol in (-1e-12, float("nan")):
        with pytest.raises(ValidationError, match="tol_scale must be finite and nonnegative"):
            EmConfig(k=2, tol_scale=tol)
    assert EmConfig(k=2, tol_scale=0.0).tol_scale == 0.0


def test_init_width_must_match_k():
    stats = sufficient_stats(TrajectoryDataset(([0, 1],), s=2))
    with pytest.raises(ValidationError, match="init must have k columns"):
        em_fit(stats, Responsibilities(np.array([[0.5, 0.5]])), EmConfig(k=3))
