import numpy as np
import pytest

from chainmix import (
    MixtureParams,
    NumericalError,
    TrajectoryDataset,
    ValidationError,
    accuracy,
    bayes_classify,
    kl_rate,
    kl_report,
    kl_trajectory,
    random_mixture_params,
    sample_mixture,
    misclassification_bound,
)
from chainmix.theory import stationary_distribution

from helpers import (
    enumerate_kl,
    reference_bound,
    reference_kl_rate,
    reference_kl_report,
    reference_kl_trajectory,
    reference_stationary_distribution,
    reference_stationary_measures,
    strictly_positive_params,
)


def duplicate_component_params():
    base_nu = [0.3, 0.7]
    base_P = [[0.6, 0.4], [0.2, 0.8]]
    return MixtureParams(mu=[0.5, 0.5], nu=[base_nu, base_nu],
                         P=[base_P, base_P])


class TestKlTrajectory:
    def test_identical_components_zero(self):
        p = duplicate_component_params()
        for t in (0, 1, 5, 20):
            assert kl_trajectory(p, 0, 1, t) == 0.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(12):
            s = int(rng.integers(2, 4))
            t = int(rng.integers(1, 7))
            params = strictly_positive_params(2, s, int(rng.integers(2**31)))
            dp = kl_trajectory(params, 0, 1, t)
            brute = enumerate_kl(params, 0, 1, t)
            assert dp == pytest.approx(brute, abs=1e-10)

    def test_stationary_initial_distribution_gives_constant_increments(self):
        params = strictly_positive_params(2, 3, seed=111)
        pi0 = stationary_distribution(params.P[0])
        stationary = MixtureParams(mu=params.mu, nu=[pi0, pi0], P=params.P)
        values = [kl_trajectory(stationary, 0, 1, t) for t in range(6)]
        increments = np.diff(values)
        assert np.allclose(increments, increments[0], atol=1e-10)
        # and the per-step increment is exactly the asymptotic rate
        assert increments[0] == pytest.approx(kl_rate(stationary, 0, 1), abs=1e-10)

    def test_monotone_in_horizon(self):
        params = strictly_positive_params(2, 3, seed=121)
        values = [kl_trajectory(params, 0, 1, t) for t in range(10)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_support_mismatch_gives_infinity(self):
        p = MixtureParams(
            mu=[0.5, 0.5],
            nu=[[1.0, 0.0], [1.0, 0.0]],
            P=[[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.5, 0.5]]],
        )
        # chain 0 can emit transition 0->1; chain 1 forbids it
        assert kl_trajectory(p, 0, 1, 3) == np.inf
        # unreachable support differences do not matter at horizon 0
        assert kl_trajectory(p, 0, 1, 0) == 0.0


class TestKlRate:
    def test_identical_zero(self):
        p = duplicate_component_params()
        assert kl_rate(p, 0, 1) == pytest.approx(0.0, abs=1e-14)

    def test_rate_is_long_horizon_limit(self):
        params = strictly_positive_params(2, 3, seed=131)
        rate = kl_rate(params, 0, 1)
        t = 1000
        ratio = kl_trajectory(params, 0, 1, t) / t
        assert abs(ratio - rate) / rate < 0.01

    def test_doubling_horizon_doubles_stationary_divergence(self):
        params = strictly_positive_params(2, 3, seed=141)
        pi0 = stationary_distribution(params.P[0])
        stat = MixtureParams(mu=params.mu, nu=[pi0, pi0], P=params.P)
        base = kl_trajectory(stat, 0, 1, 0)
        assert (kl_trajectory(stat, 0, 1, 8) - base) == pytest.approx(
            2 * (kl_trajectory(stat, 0, 1, 4) - base), abs=1e-9)

    def test_nonnegative_with_equality_iff_equal_rows(self):
        params = strictly_positive_params(3, 3, seed=151)
        for i in range(3):
            for j in range(3):
                rate = kl_rate(params, i, j)
                if i == j:
                    assert rate == pytest.approx(0.0, abs=1e-13)
                else:
                    assert rate > 0

    def test_periodic_chain_reported(self):
        # bipartite chain {0} <-> {1,2}: probability mass oscillates between
        # the two classes forever, so power iteration from uniform never
        # settles and the failure is reported rather than regularized
        p = np.array([[0.0, 0.3, 0.7], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NumericalError):
            stationary_distribution(p, max_iters=2000)
        params = MixtureParams(mu=[0.5, 0.5], nu=[[1, 0, 0]] * 2,
                               P=[p, np.full((3, 3), 1 / 3)])
        with pytest.raises(NumericalError, match="component 0"):
            kl_rate(params, 0, 1)


class TestComponentIndices:
    """A component index outside [0, k) is rejected, not wrapped around."""

    @pytest.mark.parametrize("i, j, text", [
        (-1, 0, "i must be >= 0"), (0, -1, "j must be >= 0"),
        (3, 0, "i must be <= 2"), (0, 3, "j must be <= 2"),
    ])
    def test_out_of_range(self, i, j, text):
        params = strictly_positive_params(3, 2, seed=161)
        with pytest.raises(ValidationError, match=text):
            kl_trajectory(params, i, j, 5)
        with pytest.raises(ValidationError, match=text):
            kl_rate(params, i, j)


class TestStationaryDistribution:
    """The log-step walk against the step-by-step power iteration."""

    @pytest.mark.parametrize("transition, text", [
        ([[0.5, 0.5]], "transition matrix must be square"),
        ([0.5, 0.5], "^transition must be a 2-D array, not 1-D$"),
        ([[[1.0]]], "^transition must be a 2-D array, not 3-D$"),
        (np.zeros((0, 0)), "transition matrix must be square"),
        (1.0, "^transition must be a 2-D array, not 0-D$"),
    ], ids=["wide", "vector", "3-d", "empty", "scalar"])
    def test_non_square_matrix_rejected(self, transition, text):
        with pytest.raises(ValidationError, match=text):
            stationary_distribution(transition)

    def test_period_two_chain_with_stationary_uniform_start(self):
        # uniform is already stationary, so the first residual is 0 even
        # though the chain is periodic
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        for max_iters in (1, 2000, 10**6):
            assert np.array_equal(stationary_distribution(p, max_iters=max_iters), [0.5, 0.5])

    def test_two_closed_classes_keep_their_uniform_mass(self):
        # {0, 1} holds 2/3 of the start and has stationary measure (2/3, 1/3)
        p = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.0, 0.0, 1.0]])
        pi = stationary_distribution(p)
        np.testing.assert_allclose(pi, [4 / 9, 2 / 9, 1 / 3], rtol=0, atol=1e-11)
        reference, _ = reference_stationary_distribution(p)
        assert np.abs(pi - reference).sum() < 1e-11

    def test_transient_state_drains_into_closed_classes(self):
        p = np.array([[0.5, 0.25, 0.25, 0.0],
                      [0.0, 0.3, 0.7, 0.0],
                      [0.0, 0.6, 0.4, 0.0],
                      [0.0, 0.0, 0.0, 1.0]])
        pi = stationary_distribution(p)
        # state 0 sends its 1/4 start to {1, 2}, which then holds 3/4 with
        # measure (6/13, 7/13) inside it
        np.testing.assert_allclose(pi, [0.0, 0.75 * 6 / 13, 0.75 * 7 / 13, 0.25],
                                   rtol=0, atol=1e-11)
        reference, _ = reference_stationary_distribution(p)
        assert np.abs(pi - reference).sum() < 1e-11

    def test_late_convergence_within_max_iters(self):
        # the one-step residual 0.01 * 0.97^t first drops below 1e-12 at
        # t = 756, past max_iters / 2 for max_iters = 800 and 1000
        p = np.array([[0.99, 0.01], [0.02, 0.98]])
        _, steps = reference_stationary_distribution(p)
        assert steps == 757
        for max_iters in (800, 1000):
            pi = stationary_distribution(p, max_iters=max_iters)
            np.testing.assert_allclose(pi, [2 / 3, 1 / 3], rtol=0, atol=1e-10)
        with pytest.raises(NumericalError, match="did not converge"):
            stationary_distribution(p, max_iters=700)

    @pytest.mark.parametrize("max_iters", [0, 1])
    def test_too_few_steps_raise(self, max_iters):
        p = np.array([[0.9, 0.1], [0.5, 0.5]])
        with pytest.raises(NumericalError,
                           match=r"^power iteration did not converge to tolerance 1e-12$"):
            stationary_distribution(p, max_iters=max_iters)

    def test_matches_step_by_step_iteration(self):
        for params in theory_models():
            for transition in params.P:
                reference, _ = reference_stationary_distribution(transition)
                pi = stationary_distribution(transition)
                # slow-mixing chains stop up to about 3e-11 from the limit
                assert np.abs(pi - reference).sum() < 1e-10


class TestThm1Bound:
    def test_duplicate_components_quarter(self):
        p = duplicate_component_params()
        assert misclassification_bound(p, 7) == pytest.approx(0.25, abs=1e-12)

    def test_single_component_zero(self):
        p = MixtureParams(mu=[1.0], nu=[[0.5, 0.5]],
                          P=[[[0.5, 0.5], [0.5, 0.5]]])
        assert misclassification_bound(p, 5) == 0.0

    def test_nonincreasing_in_horizon(self):
        params = strictly_positive_params(3, 3, seed=161)
        values = [misclassification_bound(params, t) for t in (0, 1, 2, 5, 10, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_bound_below_monte_carlo_bayes_error(self):
        rng = np.random.default_rng(171)
        for _ in range(5):
            k = int(rng.integers(2, 4))
            s = int(rng.integers(2, 4))
            t = int(rng.integers(1, 15))
            params = strictly_positive_params(k, s, int(rng.integers(2**31)))
            n = 20000
            data, labels = sample_mixture(params, n, t, seed=int(rng.integers(2**31)))
            est, _ = bayes_classify(params, data)
            err = float(np.mean(est != labels))
            bound = misclassification_bound(params, t)
            stderr = np.sqrt(max(err * (1 - err), 1e-12) / n)
            assert err >= bound - 3 * stderr

    def test_zero_weight_component_contributes_nothing(self):
        base = duplicate_component_params()
        p = MixtureParams(mu=[1.0, 0.0], nu=base.nu, P=base.P)
        # identical components but one has zero weight: classifier that
        # always answers 0 errs with probability 0, bound must respect that
        assert misclassification_bound(p, 3) <= 0.25


class TestBayesClassify:
    def test_single_component(self):
        p = MixtureParams(mu=[1.0], nu=[[0.5, 0.5]],
                          P=[[[0.5, 0.5], [0.5, 0.5]]])
        data = TrajectoryDataset(([0, 1, 0], [1, 1]), s=2)
        labels, posterior = bayes_classify(p, data)
        assert np.all(labels == 0)
        assert np.allclose(posterior, 1.0)

    def test_support_exclusion(self):
        p = MixtureParams(
            mu=[0.5, 0.5],
            nu=[[1.0, 0.0], [0.5, 0.5]],
            P=[[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
        )
        data = TrajectoryDataset(([0, 1],), s=2)  # impossible under component 0
        labels, posterior = bayes_classify(p, data)
        assert labels[0] == 1
        assert np.allclose(posterior[0], [0.0, 1.0])

    def test_matches_hand_computed_products(self):
        p = strictly_positive_params(2, 2, seed=181)
        data = TrajectoryDataset(([0, 1, 1, 0],), s=2)
        _, posterior = bayes_classify(p, data)
        weights = []
        for i in range(2):
            w = p.mu[i] * p.nu[i][0] * p.P[i][0, 1] * p.P[i][1, 1] * p.P[i][1, 0]
            weights.append(w)
        expected = np.asarray(weights) / sum(weights)
        assert np.allclose(posterior[0], expected, atol=1e-12)

    def test_posterior_rows_normalized(self):
        params = strictly_positive_params(3, 3, seed=191)
        data, _ = sample_mixture(params, 50, 10, seed=192)
        _, posterior = bayes_classify(params, data)
        assert np.allclose(posterior.sum(axis=1), 1.0, atol=1e-12)

    def test_impossible_everywhere_raises(self):
        p = MixtureParams(
            mu=[0.5, 0.5],
            nu=[[1.0, 0.0], [1.0, 0.0]],
            P=[[[1.0, 0.0], [0.5, 0.5]]] * 2,
        )
        data = TrajectoryDataset(([0, 1],), s=2)
        with pytest.raises(ValidationError, match="trajectory 0"):
            bayes_classify(p, data)


class TestKlReportStructure:
    def test_report_fields(self):
        params = strictly_positive_params(3, 2, seed=201)
        report = kl_report(params, 12)
        assert np.all(np.diag(report.pairwise) == 0)
        assert np.all(report.pairwise >= 0)
        assert np.all(np.diag(report.rates) == 0)
        assert np.all(report.rates >= 0)
        assert 0.0 <= report.bound <= 1.0
        assert report.horizon == 12

    def test_one_batched_stationary_solve_per_report(self, monkeypatch):
        from chainmix import theory
        params = strictly_positive_params(4, 3, seed=202)
        solve = theory._stationary_measures
        stacks = []
        monkeypatch.setattr(theory, "_stationary_measures",
                            lambda P, **kw: stacks.append(P) or solve(P, **kw))
        report = kl_report(params, 9)
        monkeypatch.undo()
        assert len(stacks) == 1
        assert np.array_equal(stacks[0], params.P)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert report.rates[i, j] == kl_rate(params, i, j)

    def test_failed_stationary_measure_names_component(self):
        # a bipartite chain {0} <-> {1, 2} never settles from the uniform start;
        # the lowest such component is named
        base = strictly_positive_params(3, 3, seed=203)
        for periodic in ([1], [1, 2]):
            P = base.P.copy()
            P[periodic] = [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
            params = MixtureParams(mu=base.mu, nu=base.nu, P=P)
            with pytest.raises(NumericalError, match=(
                    r"^stationary measure of component 1 did not converge: "
                    r"power iteration did not converge to tolerance 1e-12$")):
                kl_report(params, 5)


class TestBatchedStationaryMeasures:
    """One power iteration over the stack against the per-chain loop it replaced."""

    @staticmethod
    def assert_byte_equal(P, **kwargs):
        from chainmix.theory import _stationary_measures
        batched = _stationary_measures(P, **kwargs)
        assert batched.tobytes() == reference_stationary_measures(P, **kwargs).tobytes()

    def test_random_models(self):
        rng = np.random.default_rng(409)
        for m in range(500):
            k, s = int(rng.integers(1, 9)), int(rng.integers(2, 10))
            draw = random_mixture_params if m % 4 else random_sparse_params
            self.assert_byte_equal(draw(k, s, seed=int(rng.integers(2**31))).P)

    def test_theory_models(self):
        for params in theory_models():
            self.assert_byte_equal(params.P)

    @pytest.mark.parametrize("max_iters", [757, 800, 1000])
    def test_chains_leaving_at_different_steps(self, max_iters):
        # the slow chain first converges at t = 756, in the matrix_power tail
        # for 800 and 1000 and at the last step for 757
        P = np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.99, 0.01], [0.02, 0.98]],
                      [[0.9, 0.1], [0.5, 0.5]], [[0.0, 1.0], [1.0, 0.0]]])
        self.assert_byte_equal(P, max_iters=max_iters)


def assert_matches_reference(actual, expected):
    """Same +inf pattern, no NaN, and the finite entries within 1e-12 relative."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert not np.isnan(actual).any()
    assert np.array_equal(np.isinf(actual), np.isinf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(actual[finite], expected[finite], rtol=1e-12, atol=0)


def sparse_support_params():
    """Zeros in nu and in P rows, with infinite row divergences reached and not.

    Chain 0 never visits state 2, where its row diverges infinitely from
    chain 1's: D_01 stays finite.  Chain 3 starts in state 1 with probability
    0.4, and its row there puts mass on state 2, which chain 1's row
    excludes: D_31 is finite at horizon 0 and +inf from horizon 1.
    Component 2 has weight zero.
    """
    return MixtureParams(
        mu=[0.4, 0.3, 0.0, 0.3],
        nu=[[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.6, 0.4, 0.0]],
        P=[[[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.2, 0.2, 0.6]],
           [[0.4, 0.6, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
           [[1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5], [0.1, 0.1, 0.8]],
           [[0.5, 0.5, 0.0], [0.3, 0.3, 0.4], [0.2, 0.0, 0.8]]],
    )


def random_sparse_params(k, s, seed):
    """Random model with about a third of the nu and off-diagonal P entries zeroed.

    Every P keeps its diagonal, so each chain is aperiodic and its stationary
    power iteration converges.
    """
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(k))
    nu = rng.dirichlet(np.ones(s), size=k)
    nu[rng.random((k, s)) < 0.35] = 0.0
    nu[np.arange(k), rng.integers(s, size=k)] += 0.5
    P = rng.dirichlet(np.ones(s), size=(k, s))
    P[(rng.random((k, s, s)) < 0.35) & ~np.eye(s, dtype=bool)] = 0.0
    P += 0.1 * np.eye(s)
    return MixtureParams(mu=mu, nu=nu / nu.sum(axis=1, keepdims=True),
                         P=P / P.sum(axis=2, keepdims=True))


def theory_models():
    rng = np.random.default_rng(401)
    models = [random_mixture_params(int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                                    seed=int(rng.integers(2**31)))
              for _ in range(80)]
    models += [random_sparse_params(int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                                    seed=int(rng.integers(2**31)))
               for _ in range(20)]
    return models + [sparse_support_params(), duplicate_component_params()]


class TestArraysMatchPairLoops:
    """The row-KL tensor arrays against the per-pair loops they replaced."""

    @pytest.mark.parametrize("horizon", [0, 1, 7, 30])
    def test_kl_report(self, horizon):
        for params in theory_models():
            pairwise, rates, bound = reference_kl_report(params, horizon)
            report = kl_report(params, horizon)
            assert_matches_reference(report.pairwise, pairwise)
            assert_matches_reference(report.rates, rates)
            assert report.bound == pytest.approx(bound, rel=1e-12, abs=0)

    @pytest.mark.parametrize("horizon", [0, 1, 7, 30])
    def test_pair_functions(self, horizon):
        models = theory_models()
        for params in models[::4] + models[-2:]:
            k = params.k
            divergence = np.array([[reference_kl_trajectory(params, i, j, horizon)
                                    for j in range(k)] for i in range(k)])
            assert_matches_reference(
                [[kl_trajectory(params, i, j, horizon) for j in range(k)] for i in range(k)],
                divergence)
            assert misclassification_bound(params, horizon) == pytest.approx(
                reference_bound(params.mu, divergence), rel=1e-12, abs=0)
            if horizon == 0:
                assert_matches_reference(
                    [[kl_rate(params, i, j) for j in range(k)] for i in range(k)],
                    [[reference_kl_rate(params, i, j) for j in range(k)] for i in range(k)])

    def test_sparse_model_infinities(self):
        params = sparse_support_params()
        at_0, at_1 = kl_report(params, 0), kl_report(params, 1)
        assert np.isfinite(at_0.pairwise[0, 1]) and np.isfinite(at_1.pairwise[0, 1])
        assert np.isfinite(at_0.pairwise[3, 1]) and at_1.pairwise[3, 1] == np.inf
        assert at_0.pairwise[1, 0] == np.inf  # nu_1 puts mass where nu_0 has none
