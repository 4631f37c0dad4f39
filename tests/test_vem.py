import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmix import (
    Responsibilities,
    TrajectoryDataset,
    VemConfig,
    multistart_fit,
    random_mixture_params,
    sample_mixture,
    sample_simplex_rows,
    sufficient_stats,
    vem_fit,
)
from chainmix import model_core, vem
from chainmix.model_core import log_mixture_weights, parameter_block
from chainmix.vem import DirichletPosterior, digamma

from helpers import (
    assert_e_step_buffers_reused,
    log_beta,
    partition_log_evidence,
    record_results,
)

# High-precision reference values (40-digit arbitrary-precision evaluation).
DIGAMMA_REFERENCE = {
    1e-06: -1000000.5772140201,
    0.001: -1000.5755719318103,
    0.1: -10.423754940411076,
    0.25: -4.2274535333762655,
    0.5: -1.9635100260214235,
    1.0: -0.5772156649015329,
    2.0: 0.42278433509846713,
    3.7: 1.1671535393615113,
    6.0: 1.7061176684318005,
    10.25: 2.277704790686724,
    100.0: 4.600161852738087,
    10000.0: 9.210290371142849,
}


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, rel=1e-12)

    def test_recurrence(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, rel=1e-13)

    def test_half_argument_identity(self):
        assert digamma(0.5) == pytest.approx(digamma(1.0) - 2 * np.log(2), rel=1e-13)

    @pytest.mark.parametrize("x,expected", sorted(DIGAMMA_REFERENCE.items()))
    def test_reference_values(self, x, expected):
        assert digamma(x) == pytest.approx(expected, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.01, 0.9, 3.3, 17.0])
        vec = digamma(xs)
        assert np.allclose(vec, [digamma(float(x)) for x in xs], rtol=1e-14)

    @given(st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, x):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x,
                                                 rel=1e-10, abs=1e-12)


class TestLogBeta:
    def test_flat_pair(self):
        assert log_beta([1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)

    def test_flat_triple(self):
        # Gamma(1)^3 / Gamma(3) = 1/2
        assert log_beta([1.0, 1.0, 1.0]) == pytest.approx(np.log(0.5), rel=1e-14)

    def test_two_two(self):
        # Gamma(2)^2 / Gamma(4) = 1/6
        assert log_beta([2.0, 2.0]) == pytest.approx(np.log(1 / 6), rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_beta([1.0, 0.0])
        with pytest.raises(ValueError):
            log_beta([-1.0, 2.0])


class TestVemFit:
    def test_degenerate_single_component(self):
        ds = TrajectoryDataset(([0, 1, 0], [1, 1, 1]), s=2)
        stats = sufficient_stats(ds)
        fit = vem_fit(stats, Responsibilities(np.ones((2, 1))), VemConfig(k_max=1))
        post = fit.posterior
        assert np.allclose(fit.responsibilities.gamma, 1.0)
        assert post.n_hat[0] == pytest.approx(1 + 2, abs=1e-12)
        assert np.allclose(post.n_ialpha_hat[0], 1.0 + stats.V.sum(axis=0))
        assert np.allclose(post.n_i_hat[0], 1.0 + stats.U.sum(axis=0))

    def test_symmetric_initialization_is_fixed_point(self):
        ds = TrajectoryDataset(([0, 1],), s=2)
        stats = sufficient_stats(ds)
        fit = vem_fit(stats, Responsibilities(np.array([[0.5, 0.5]])), VemConfig(k_max=2))
        post = fit.posterior
        assert np.allclose(fit.responsibilities.gamma, [[0.5, 0.5]], atol=1e-12)
        assert np.allclose(post.n_hat, post.n_hat[::-1])
        assert np.allclose(post.n_i_hat[0], post.n_i_hat[1])

    def test_component_count_recovery_single_instance(self):
        from chainmix import accuracy, multistart_fit
        params = random_mixture_params(4, 3, seed=1002)
        data, labels = sample_mixture(params, 100, 30, seed=1003)
        report = multistart_fit(sufficient_stats(data), "vem", restarts=25,
                                config=VemConfig(k_max=10), seed=1004)
        assert report.best.surviving_components == 4
        acc, _ = accuracy(labels, report.best.labels)
        assert acc >= 0.9

    def test_elbo_trace_monotone(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            k_true = int(rng.integers(1, 4))
            s = int(rng.integers(2, 5))
            params = random_mixture_params(k_true, s, seed=int(rng.integers(2**31)))
            data, _ = sample_mixture(params, int(rng.integers(5, 40)),
                                     int(rng.integers(1, 25)),
                                     seed=int(rng.integers(2**31)))
            stats = sufficient_stats(data)
            k_max = int(rng.integers(1, 8))
            fit = vem_fit(stats, sample_simplex_rows(stats.n, k_max,
                                                     seed=int(rng.integers(2**31))),
                          VemConfig(k_max=k_max))
            trace = fit.objective_trace
            assert np.all(np.isfinite(trace))
            assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))

    def test_pruned_components_reach_prior_floor(self):
        # two clearly distinct chains, generous component budget
        params = random_mixture_params(2, 2, seed=61)
        data, _ = sample_mixture(params, 60, 40, seed=62)
        stats = sufficient_stats(data)
        from chainmix import multistart_fit
        report = multistart_fit(stats, "vem", restarts=20,
                                config=VemConfig(k_max=8, max_iters=5000),
                                seed=63)
        post = report.best.posterior
        k = post.k
        labeled = np.unique(report.best.labels)
        pruned = [i for i in range(k) if i not in labeled]
        assert pruned, "expected at least one pruned component"
        assert np.all(np.abs(post.n_hat[pruned] - 1.0 / k) < 1e-6)

    def test_posterior_floors_and_sum_rule(self):
        params = random_mixture_params(3, 3, seed=71)
        data, _ = sample_mixture(params, 35, 15, seed=72)
        stats = sufficient_stats(data)
        post = vem_fit(stats, sample_simplex_rows(35, 6, seed=73),
                       VemConfig(k_max=6)).posterior
        assert np.all(post.n_hat >= 1 / 6 - 1e-12)
        assert np.all(post.n_i_hat >= 1.0 - 1e-12)
        assert np.all(post.n_ialpha_hat >= 1.0 - 1e-12)
        assert post.n_hat.sum() - 1.0 == pytest.approx(35, abs=1e-9)

    def test_geometric_mean_undershoots_arithmetic_mean(self):
        params = random_mixture_params(2, 2, seed=81)
        data, _ = sample_mixture(params, 20, 10, seed=82)
        stats = sufficient_stats(data)
        post = vem_fit(stats, sample_simplex_rows(20, 4, seed=83),
                       VemConfig(k_max=4)).posterior
        mu_tilde = np.exp(digamma(post.n_hat) - digamma(post.n_hat.sum()))
        assert np.all(mu_tilde < post.mean_params().mu)

    def test_posterior_invariant_under_trajectory_reordering(self):
        params = random_mixture_params(2, 3, seed=91)
        data, _ = sample_mixture(params, 15, 12, seed=92)
        stats = sufficient_stats(data)
        init = sample_simplex_rows(15, 4, seed=93)
        fit_a = vem_fit(stats, init, VemConfig(k_max=4))

        perm = np.random.default_rng(94).permutation(15)
        data_p = TrajectoryDataset(tuple(data.trajectories[i] for i in perm), s=3)
        init_p = Responsibilities(init.gamma[perm])
        fit_b = vem_fit(sufficient_stats(data_p), init_p, VemConfig(k_max=4))
        post_a, post_b = fit_a.posterior, fit_b.posterior

        assert np.allclose(post_a.n_hat, post_b.n_hat, atol=1e-9)
        assert np.allclose(post_a.n_i_hat, post_b.n_i_hat, atol=1e-9)
        assert np.allclose(post_a.n_ialpha_hat, post_b.n_ialpha_hat, atol=1e-9)
        assert np.allclose(fit_a.responsibilities.gamma[perm],
                           fit_b.responsibilities.gamma, atol=1e-9)

    def test_one_digamma_call_per_iteration(self, monkeypatch):
        # digamma and the E-step helpers are looked up through chainmix.vem
        # once per iteration; the benchmark's traced run wraps those names.
        # Every E-step call writes the fit's one (k, N) buffer and (2, N) scratch
        params = random_mixture_params(3, 3, seed=61)
        data, _ = sample_mixture(params, 30, 10, seed=62)
        results = record_results(monkeypatch, vem, "digamma", "log_mixture_weights",
                                 "log_normalize_rows")
        fit = vem_fit(sufficient_stats(data), sample_simplex_rows(30, 5, seed=63),
                      VemConfig(k_max=5))
        assert fit.iterations > 1
        assert len(results["digamma"]) == fit.iterations
        assert_e_step_buffers_reused(results, fit, 5, 30)

    @pytest.mark.parametrize("field", ["n_hat", "n_i_hat", "n_ialpha_hat"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_posterior_rejects_non_finite_parameters(self, field, value):
        from chainmix import ValidationError
        arrays = {"n_hat": np.full(2, 0.5), "n_i_hat": np.ones((2, 2)),
                  "n_ialpha_hat": np.ones((2, 2, 2))}
        arrays[field].flat[0] = value
        with pytest.raises(ValidationError, match=f"^{field} must be finite$"):
            DirichletPosterior(**arrays)

    @pytest.mark.parametrize("arrays, text", [
        ((np.ones(2), np.ones((3, 2)), np.ones((3, 2, 2))), "inconsistent posterior parameter shapes"),
        ((np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2, 2))), "at least one component and one state"),
        ((np.ones(2), np.zeros((2, 0)), np.zeros((2, 0, 0))), "at least one component and one state"),
    ], ids=["inconsistent", "no-components", "no-states"])
    def test_posterior_rejects_bad_shapes(self, arrays, text):
        from chainmix import ValidationError
        with pytest.raises(ValidationError, match=text):
            DirichletPosterior(*arrays)

    def test_init_width_must_match_k_max(self):
        ds = TrajectoryDataset(([0, 1],), s=2)
        stats = sufficient_stats(ds)
        from chainmix import ValidationError
        with pytest.raises(ValidationError):
            vem_fit(stats, Responsibilities(np.array([[0.5, 0.5]])),
                    VemConfig(k_max=3))

    def test_config_validation(self):
        from chainmix import ValidationError
        with pytest.raises(ValidationError):
            VemConfig(k_max=0)
        for tol in (-1e-12, float("nan")):
            with pytest.raises(ValidationError, match="tol_scale must be finite and nonnegative"):
                VemConfig(k_max=2, tol_scale=tol)
        assert VemConfig(k_max=2, tol_scale=0.0).tol_scale == 0.0


class TestPerFitBuffers:
    """The step writes into buffers that one fit allocates and reuses."""

    @pytest.mark.parametrize("seed, iterations, trace_sha, posterior_sha", [
        (0, 1000, "266517104db09c9f00963c0c897f9ff3f4c13cd1cc6a38eae83923796fa9c70d",
         "cf18b50ca780c3144ce189f594cd6c817164a1380e59d77139777b0312c82d9a"),
        (1, 50, "180d453bb1d4fea7018e9f6a016d743083ae2f4d3c555acf3dafeb4b16cb3f1b",
         "bcd35514ae841ba248b8556726479f840d4ac5251f2d726a3c03d0d1eddb71be"),
        (2, 37, "d1bff259ab07f6f56e0445e740b3527eda8c91a4348638c7bc0e54a1739bb7dc",
         "081cdbff9840b866ceeb633e253c9265d5fb8a31916988606773050d9dd76cc1"),
    ])
    def test_seeded_fig2_fits_pinned(self, seed, iterations, trace_sha, posterior_sha):
        # digests of the fits made when every step allocated its own arrays
        params = random_mixture_params(4, 3, seed=seed)
        data, _ = sample_mixture(params, 100, 30, seed=seed + 1)
        fit = vem_fit(sufficient_stats(data), sample_simplex_rows(100, 10, seed=seed + 2),
                      VemConfig(k_max=10))
        post = fit.posterior
        posterior = hashlib.sha256()
        for a in (post.n_hat, post.n_i_hat, post.n_ialpha_hat, fit.responsibilities.gamma):
            posterior.update(np.ascontiguousarray(a).tobytes())
        assert fit.iterations == iterations
        assert hashlib.sha256(fit.objective_trace.tobytes()).hexdigest() == trace_sha
        assert posterior.hexdigest() == posterior_sha

    @pytest.mark.parametrize("algorithm", ["em", "vem"])
    def test_restarts_share_no_buffer(self, monkeypatch, algorithm):
        from chainmix import EmConfig, multistart
        params = random_mixture_params(3, 3, seed=71)
        data, _ = sample_mixture(params, 40, 12, seed=72)
        stats, k = sufficient_stats(data), 5 if algorithm == "vem" else 3
        config = VemConfig(k_max=k) if algorithm == "vem" else EmConfig(k=k)
        fits = []
        fit_one = getattr(multistart, f"{algorithm}_fit")
        monkeypatch.setattr(multistart, f"{algorithm}_fit",
                            lambda *args: fits.append(fit_one(*args)) or fits[-1])
        report = multistart_fit(stats, algorithm, 4, config, seed=73)

        def arrays(fit):  # copies, so a later fit cannot change what is compared
            post = fit.posterior
            dirichlet = () if post is None else (post.n_hat, post.n_i_hat, post.n_ialpha_hat)
            return [np.array(a) for a in (*dirichlet, fit.objective_trace,
                                          fit.responsibilities.gamma, fit.params.mu,
                                          fit.params.nu, fit.params.P)]

        kept = [arrays(fit) for fit in fits]  # read after every restart has run
        assert len(kept) == 4
        for r, restart in enumerate(kept):
            seq = multistart.restart_seed_sequence(report.master_seed, r)
            alone = arrays(fit_one(stats, sample_simplex_rows(stats.n, k, seq), config))
            assert all(np.array_equal(a, b) for a, b in zip(restart, alone))


def _elbo(n_hat, n_i, n_ia, log_mu, log_nu, log_p, log_c):
    """The bound `vem_fit` evaluates, with the Dirichlet parameters and their
    totals stacked in the layout of `model_core._ParameterStack`."""
    k, s = n_i.shape
    stack = model_core._ParameterStack(k, s, 1.0 / k, 1.0)
    stack.weights[:] = n_hat
    stack.rows[:] = parameter_block(n_i, n_ia).reshape(-1, s)
    stack.totals[:] = np.concatenate([[n_hat.sum()], stack.rows.sum(axis=1)])
    stack.log_theta[:] = np.concatenate([log_mu, parameter_block(log_nu, log_p).ravel()])
    log_b_prior = log_beta(np.full(k, 1.0 / k)) + k * (s + 1) * log_beta(np.ones(s))
    return vem._elbo_value(stack, log_b_prior, log_c, np.empty_like(stack.values))


class TestElbo:
    def test_zero_trajectories_prior_state_gives_zero(self):
        # posterior equal to the prior and no data: every term vanishes
        k, s = 3, 2
        n_hat = np.full(k, 1.0 / k)
        n_i = np.ones((k, s))
        n_ia = np.ones((k, s, s))
        log_mu = digamma(n_hat) - digamma(n_hat.sum())
        log_nu = digamma(n_i) - digamma(n_i.sum(axis=1))[:, None]
        log_p = digamma(n_ia) - digamma(n_ia.sum(axis=2))[:, :, None]
        value = _elbo(n_hat, n_i, n_ia, log_mu, log_nu, log_p, np.zeros(0))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_single_trajectory_closed_form(self):
        # k=1, trajectory (0,1): the converged bound equals the exact
        # log marginal likelihood log(1/4) of the conjugate model
        ds = TrajectoryDataset(([0, 1],), s=2)
        stats = sufficient_stats(ds)
        fit = vem_fit(stats, Responsibilities(np.ones((1, 1))), VemConfig(k_max=1))
        assert fit.objective == pytest.approx(np.log(0.25), abs=1e-12)

    def test_bound_below_exact_marginal_by_quadrature(self):
        # brute-force midpoint quadrature of the k=1, s=2 evidence: the
        # likelihood factorizes over nu(0), P(0,.), P(1,.), so the triple
        # integral splits into three 1-D integrals
        ds = TrajectoryDataset(([0, 1, 0], [1, 0, 0]), s=2)
        stats = sufficient_stats(ds)
        U = stats.U.sum(axis=0)
        V = stats.V.sum(axis=0)

        grid = (np.arange(200000) + 0.5) / 200000

        def marginal_1d(success, failure):
            return np.mean(grid**success * (1 - grid)**failure)

        log_marginal = (
            np.log(marginal_1d(U[0], U[1]))
            + np.log(marginal_1d(V[0, 0], V[0, 1]))
            + np.log(marginal_1d(V[1, 0], V[1, 1]))
        )
        fit = vem_fit(stats, Responsibilities(np.ones((2, 1))), VemConfig(k_max=1))
        assert fit.objective <= log_marginal + 1e-9
        # conjugate k=1 case: the bound is tight
        assert fit.objective == pytest.approx(log_marginal, abs=1e-7)

    def test_one_hot_bound_equals_partition_evidence(self):
        # at a hard assignment with q(theta) the exact conditional Dirichlet
        # posterior, the bound is the closed-form evidence log p(X, z)
        k = 5
        params = random_mixture_params(3, 3, seed=31)
        data, _ = sample_mixture(params, 40, 12, seed=32)
        stats = sufficient_stats(data)
        labels = np.random.default_rng(33).choice([0, 2, 3], size=stats.n)
        gamma = np.eye(k)[labels]
        n_hat = 1.0 / k + gamma.sum(axis=0)
        n_i = 1.0 + gamma.T @ stats.U
        n_ia = 1.0 + np.einsum("nk,nab->kab", gamma, stats.V)
        log_mu = digamma(n_hat) - digamma(n_hat.sum())
        log_nu = digamma(n_i) - digamma(n_i.sum(axis=1))[:, None]
        log_p = digamma(n_ia) - digamma(n_ia.sum(axis=2))[:, :, None]
        logw = log_mixture_weights(log_mu, parameter_block(log_nu, log_p), stats)
        log_c = logw[np.arange(stats.n), labels]
        value = _elbo(n_hat, n_i, n_ia, log_mu, log_nu, log_p, log_c)
        evidence = partition_log_evidence(stats, labels, k)
        assert value == pytest.approx(evidence, rel=1e-12)
        # the evidence depends on the partition, not on the block names
        assert partition_log_evidence(stats, 4 - labels, k) == \
            pytest.approx(evidence, rel=1e-14)

    def test_bound_below_marginal_for_k2(self):
        # with k_max=2 the factorization is exact no longer; the bound must
        # stay below the k=1-structured evidence of the same data only if the
        # richer model has smaller evidence; just assert monotone trace end
        ds = TrajectoryDataset(([0, 1, 0], [1, 0, 0]), s=2)
        stats = sufficient_stats(ds)
        fit = vem_fit(stats, Responsibilities(np.full((2, 2), 0.5)), VemConfig(k_max=2))
        assert np.all(np.isfinite(fit.objective_trace))
