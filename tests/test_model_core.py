import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmix import (
    MixtureParams,
    Responsibilities,
    TrajectoryDataset,
    ValidationError,
    dirichlet_mean,
    dirichlet_variance,
    random_mixture_params,
    sample_mixture,
    sufficient_stats,
)
from chainmix.model_core import SufficientStats, log_mixture_weights, log_normalize_rows

from helpers import reference_log_mixture_weights, reference_log_normalize_rows


# Seeded sampler outputs: (k, s, params seed, labels, states, next random()).
# Each case samples 8 trajectories of 5 transitions from
# random_mixture_params(k, s, seed) with Generator(100 + seed) as the seed.
_SAMPLER_GOLDEN = [
    (4, 3, 11, [1, 1, 2, 2, 2, 0, 2, 2],
     [[1, 1, 2, 1, 1, 1], [1, 2, 2, 1, 2, 1], [1, 0, 1, 0, 1, 1], [2, 0, 0, 0, 1, 0],
      [0, 1, 0, 0, 0, 1], [1, 0, 1, 0, 1, 0], [1, 1, 1, 0, 1, 0], [2, 2, 0, 1, 0, 1]],
     0.6899897646317632),
    (4, 5, 2, [1, 3, 3, 2, 3, 2, 3, 3],
     [[4, 4, 3, 4, 3, 3], [3, 1, 1, 1, 1, 1], [2, 0, 1, 0, 0, 3], [1, 4, 0, 2, 1, 3],
      [4, 4, 3, 4, 2, 0], [2, 1, 4, 0, 2, 4], [4, 3, 2, 0, 3, 4], [4, 0, 4, 3, 4, 3]],
     0.8242522835792867),
    (2, 2, 3, [1, 1, 0, 1, 1, 0, 1, 1],
     [[1, 1, 1, 1, 1, 1], [0, 0, 1, 1, 1, 0], [1, 0, 0, 0, 0, 0], [1, 1, 0, 1, 0, 1],
      [0, 1, 0, 1, 0, 1], [1, 0, 0, 0, 1, 1], [0, 1, 1, 1, 1, 0], [0, 1, 1, 1, 1, 1]],
     0.16441914724668405),
    (3, 1, 4, [2, 2, 0, 0, 0, 2, 2, 0], [[0] * 6] * 8, 0.6488714001062404),
    (1, 4, 5, [0] * 8,
     [[1, 1, 1, 2, 1, 2], [0, 1, 0, 1, 0, 1], [1, 2, 2, 2, 2, 1], [1, 2, 1, 2, 2, 2],
      [0, 1, 1, 1, 2, 0], [0, 1, 2, 2, 0, 2], [1, 2, 0, 0, 0, 1], [1, 1, 2, 0, 0, 1]],
     0.7246424786617761),
]


class TestTrajectoryDataset:
    def test_basic_properties(self):
        ds = TrajectoryDataset(([0, 1, 1], [2], [1, 0]), s=3)
        assert ds.n == 3
        assert list(ds.lengths) == [2, 0, 1]
        assert ds.zero_transition_indices == (1,)

    def test_state_out_of_range(self):
        with pytest.raises(ValidationError):
            TrajectoryDataset(([0, 3],), s=3)
        with pytest.raises(ValidationError):
            TrajectoryDataset(([-1, 0],), s=2)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            TrajectoryDataset(([],), s=1)
        with pytest.raises(ValidationError):
            TrajectoryDataset((), s=1)

    @pytest.mark.parametrize("bad", [[0, 1.5, 2.7], [0.0, np.nan], [1.0, np.inf]])
    def test_values_that_are_not_whole_numbers_rejected(self, bad):
        text = "trajectory 1 must be a nonempty 1-D integer sequence"
        with pytest.raises(ValidationError, match=text):
            TrajectoryDataset(([0, 1], bad), s=3)
        with pytest.raises(ValidationError, match=text):
            TrajectoryDataset.from_flat(np.array([0.0, 1.0] + bad), [2, len(bad)], s=3)

    @pytest.mark.parametrize("bad", [["0", "2", "1"], [True, False], [0j, 1 + 0j],
                                     np.array([0, 1], dtype=object)])
    def test_states_that_are_not_numbers_rejected(self, bad):
        text = "trajectory 1 must be a nonempty 1-D integer sequence"
        with pytest.raises(ValidationError, match=text):
            TrajectoryDataset(([0, 1], bad), s=3)
        with pytest.raises(ValidationError, match=text.replace("1", "0", 1)):
            TrajectoryDataset.from_flat(np.asarray(bad), [len(bad)], s=3)

    def test_unsigned_states_accepted(self):
        ds = TrajectoryDataset.from_flat(np.array([2, 0, 1], dtype=np.uint8), [3], s=3)
        assert ds.states.dtype == np.int64 and ds.states.tolist() == [2, 0, 1]

    def test_whole_floats_and_int64_states_accepted(self):
        ds = TrajectoryDataset(([0.0, 2.0], np.array([1.0])), s=3)
        assert ds.states.dtype == np.int64 and ds.states.tolist() == [0, 2, 1]
        states = np.array([0, 1, 2, 1], dtype=np.int64)
        assert TrajectoryDataset.from_flat(states, [2, 2], s=3).states is states


class TestMixtureParams:
    def test_row_sum_enforced(self):
        with pytest.raises(ValidationError):
            MixtureParams(mu=[0.6, 0.6], nu=[[1, 0], [1, 0]],
                          P=[[[1, 0], [0, 1]]] * 2)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            MixtureParams(mu=[1.5, -0.5], nu=[[1, 0], [1, 0]],
                          P=[[[1, 0], [0, 1]]] * 2)

    def test_random_params_valid(self):
        p = random_mixture_params(4, 3, seed=11)
        assert p.k == 4 and p.s == 3
        assert abs(p.mu.sum() - 1) < 1e-12
        assert np.all(np.abs(p.nu.sum(axis=1) - 1) < 1e-12)
        assert np.all(np.abs(p.P.sum(axis=2) - 1) < 1e-12)


class TestSampleMixture:
    def test_single_state_chain(self):
        # only one state exists, so the trajectory is forced
        p = MixtureParams(mu=[1.0], nu=[[1.0]], P=[[[1.0]]])
        data, labels = sample_mixture(p, 1, 3, seed=0)
        assert np.array_equal(data.trajectories[0], [0, 0, 0, 0])
        assert labels[0] == 0

    def test_zero_probability_component_never_sampled(self):
        p = MixtureParams(mu=[1.0, 0.0],
                          nu=[[0.5, 0.5], [0.5, 0.5]],
                          P=[[[0.5, 0.5], [0.5, 0.5]]] * 2)
        _, labels = sample_mixture(p, 200, 2, seed=1)
        assert np.all(labels == 0)

    def test_deterministic_absorbing_chain(self):
        p = MixtureParams(mu=[0.5, 0.5],
                          nu=[[1.0, 0.0], [0.0, 1.0]],
                          P=[np.eye(2), np.eye(2)])
        data, labels = sample_mixture(p, 50, 4, seed=2)
        for traj, z in zip(data.trajectories, labels):
            expected = np.full(5, z)
            assert np.array_equal(traj, expected)

    def test_seed_reproducibility(self):
        p = random_mixture_params(3, 4, seed=5)
        d1, z1 = sample_mixture(p, 30, 10, seed=42)
        d2, z2 = sample_mixture(p, 30, 10, seed=42)
        assert np.array_equal(z1, z2)
        for a, b in zip(d1.trajectories, d2.trajectories):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k, s, seed, labels, states, next_draw", _SAMPLER_GOLDEN)
    def test_seeded_outputs_pinned(self, k, s, seed, labels, states, next_draw):
        rng = np.random.default_rng(100 + seed)
        data, z = sample_mixture(random_mixture_params(k, s, seed=seed), 8, 5, seed=rng)
        assert z.tolist() == labels
        assert data.states.reshape(8, 6).tolist() == states
        assert rng.random() == next_draw

    def test_seeded_outputs_pinned_with_exact_zeros(self):
        # zero entries make flat steps in the cumulative rows; a draw on a
        # step must never land on a state of probability 0
        p = MixtureParams(mu=[0.5, 0.0, 0.5],
                          nu=[[0.0, 1.0, 0.0], [1 / 3] * 3, [0.5, 0.0, 0.5]],
                          P=[[[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]],
                             [[1 / 3] * 3] * 3,
                             [[0.25, 0.0, 0.75], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]])
        rng = np.random.default_rng(106)
        data, z = sample_mixture(p, 8, 5, seed=rng)
        assert z.tolist() == [2, 0, 0, 0, 2, 0, 0, 0]
        assert data.states.reshape(8, 6).tolist() == [
            [0, 2, 0, 0, 2, 0], [1, 0, 1, 0, 1, 0], [1, 2, 2, 2, 2, 2], [1, 2, 2, 2, 2, 2],
            [2, 0, 2, 1, 1, 1], [1, 0, 1, 0, 1, 2], [1, 0, 1, 2, 2, 2], [1, 0, 1, 0, 1, 0]]
        assert rng.random() == 0.9669849304872099

    def test_large_sample_checksum_pinned(self):
        # recorded before the sampler reused its work arrays across steps
        rng = np.random.default_rng(2025)
        data, z = sample_mixture(random_mixture_params(4, 5, seed=2024), 20000, 100, seed=rng)
        assert data.states.dtype == np.int64 and z.dtype == np.int64
        assert hashlib.sha256(data.states.astype("<i8").tobytes()).hexdigest() == (
            "2b52942071cf5886cd2fb667f2a027004c8342054719121d396acefd593343e0")
        assert hashlib.sha256(z.astype("<i8").tobytes()).hexdigest() == (
            "b934c8bcbfecd8d3e6d7e4c128b90cd25be87d15b378f614903ceb946ee05255")
        assert rng.bit_generator.state["state"]["state"] == (
            33639191097067537054326667564781486490)

    def test_empirical_transition_frequencies(self):
        # single long chain: empirical row frequencies approach P
        rng = np.random.default_rng(7)
        raw = rng.random((3, 3))
        raw /= raw.sum(axis=1, keepdims=True)
        P = 0.05 + (1 - 3 * 0.05) * raw  # rows sum to 1 with every entry >= 0.05
        assert P.min() >= 0.05
        p = MixtureParams(mu=[1.0], nu=[[1 / 3] * 3], P=[P])
        data, _ = sample_mixture(p, 1, 10**5, seed=8)
        stats = sufficient_stats(data)
        V = stats.V[0]
        freq = V / V.sum(axis=1, keepdims=True)
        assert np.max(np.abs(freq - P)) < 0.02


class TestSufficientStats:
    def test_hand_counts(self):
        ds = TrajectoryDataset(([0, 0, 1],), s=2)
        stats = sufficient_stats(ds)
        assert np.array_equal(stats.U[0], [1, 0])
        assert np.array_equal(stats.V[0], [[1, 1], [0, 0]])

    def test_no_transitions(self):
        ds = TrajectoryDataset(([1],), s=2)
        stats = sufficient_stats(ds)
        assert np.array_equal(stats.U[0], [0, 1])
        assert np.all(stats.V[0] == 0)

    def test_alternating(self):
        ds = TrajectoryDataset(([0, 1, 0, 1],), s=2)
        stats = sufficient_stats(ds)
        assert np.array_equal(stats.V[0], [[0, 2], [1, 0]])

    def test_transition_totals_match_lengths(self):
        p = random_mixture_params(2, 3, seed=3)
        data, _ = sample_mixture(p, 25, 9, seed=4)
        stats = sufficient_stats(data)
        assert np.array_equal(stats.transition_counts, data.lengths)

    def test_concatenation_property(self):
        p = random_mixture_params(2, 3, seed=9)
        d1, _ = sample_mixture(p, 10, 5, seed=10)
        d2, _ = sample_mixture(p, 7, 8, seed=11)
        combined = TrajectoryDataset(d1.trajectories + d2.trajectories, s=3)
        s1, s2, sc = sufficient_stats(d1), sufficient_stats(d2), sufficient_stats(combined)
        assert np.array_equal(sc.U, np.vstack([s1.U, s2.U]))
        assert np.array_equal(sc.V, np.vstack([s1.V, s2.V]))

    def test_unequal_lengths_fallback_matches_fast_path(self):
        ds_eq = TrajectoryDataset(([0, 1, 2], [2, 1, 0]), s=3)
        ds_mixed = TrajectoryDataset(([0, 1, 2], [2, 1, 0], [1]), s=3)
        fast = sufficient_stats(ds_eq)
        slow = sufficient_stats(ds_mixed)
        assert np.array_equal(slow.U[:2], fast.U)
        assert np.array_equal(slow.V[:2], fast.V)

    def test_ragged_matches_per_trajectory_counts(self):
        rng = np.random.default_rng(5)
        trajs = tuple(rng.integers(0, 4, size=size) for size in (6, 1, 3, 1, 9, 2))
        stats = sufficient_stats(TrajectoryDataset(trajs, s=4))
        for n, traj in enumerate(trajs):
            V = np.zeros((4, 4))
            for a, b in zip(traj[:-1], traj[1:]):
                V[a, b] += 1
            assert stats.U[n, traj[0]] == 1 and stats.U[n].sum() == 1
            assert np.array_equal(stats.V[n], V)

    def test_one_hot_validation(self):
        with pytest.raises(ValidationError):
            SufficientStats(U=np.array([[1.0, 1.0]]), V=np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float64])
    def test_negative_counts_rejected(self, dtype):
        V = np.zeros((1, 2, 2), dtype=dtype)
        V[0, 1, 0] = -1
        with pytest.raises(ValidationError, match="nonnegative integer counts"):
            SufficientStats(U=np.array([[1.0, 0.0]]), V=V)

    def test_counts_must_be_whole_numbers(self):
        U = np.array([[1.0, 0.0]])
        with pytest.raises(ValidationError, match="nonnegative integer counts"):
            SufficientStats(U=U, V=np.array([[[0.5, 0.0], [0.0, 0.0]]]))
        for V in (np.array([[[2.0, 0.0], [1.0, 0.0]]]), np.array([[[2, 0], [1, 0]]], dtype=np.uint16),
                  np.array([[[True, False], [True, False]]])):
            assert SufficientStats(U=U, V=V).V.sum() == V.sum()

    def test_counts_stored_once_in_the_design_block(self):
        data = TrajectoryDataset(([0, 1, 1, 2], [2, 2, 0], [1]), s=3)
        built = sufficient_stats(data)
        given = SufficientStats(built.U.copy(), built.V.astype(np.int64))
        for stats in (built, given):
            assert stats.X.shape == (3, 12) and stats.X.flags.c_contiguous
            assert np.array_equal(stats.X, np.hstack([stats.U, stats.V.reshape(3, 9)]))
            assert np.shares_memory(stats.U, stats.X)
            assert np.shares_memory(stats.V, stats.X)
            for arr in (stats.X, stats.U, stats.V):
                assert not arr.flags.writeable
        assert np.array_equal(given.X, built.X) and given.X.dtype == np.float64


class TestDirichletMoments:
    def test_mean_symmetry(self):
        assert np.allclose(dirichlet_mean([1, 1]), [0.5, 0.5])

    def test_mean_ratio(self):
        assert np.allclose(dirichlet_mean([3, 1]), [0.75, 0.25])

    def test_mean_already_normalized(self):
        assert np.allclose(dirichlet_mean([0.1, 0.1, 0.1, 0.7]),
                           [0.1, 0.1, 0.1, 0.7])

    def test_zero_sum_rejected(self):
        with pytest.raises(ValidationError):
            dirichlet_mean([0.0, 0.0])
        with pytest.raises(ValidationError):
            dirichlet_variance([0.0, 0.0], 0)

    def test_variance_beta_case(self):
        # Dir(1,1) coordinate is Beta(1,1) = Uniform(0,1): variance 1/12
        assert dirichlet_variance([1, 1], 0) == pytest.approx(1 / 12, abs=1e-15)

    def test_variance_symmetry(self):
        for c in (0.3, 1.0, 7.5):
            assert dirichlet_variance([c, c], 0) == dirichlet_variance([c, c], 1)

    def test_variance_decreases_with_concentration(self):
        values = [dirichlet_variance([c, c], 0) for c in (1, 2, 4, 8, 16, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_mean_sums_to_one(self, counts):
        assert abs(dirichlet_mean(counts).sum() - 1.0) < 1e-12


class TestResponsibilities:
    def test_rows_must_normalize(self):
        with pytest.raises(ValidationError):
            Responsibilities(np.array([[0.5, 0.4]]))

    def test_valid(self):
        r = Responsibilities(np.array([[0.25, 0.75]]))
        assert r.n == 1 and r.k == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, value):
        with pytest.raises(ValidationError, match=r"gamma entries must lie in \[0, 1\]"):
            Responsibilities(np.full((2, 2), value))
        with pytest.raises(ValidationError, match=r"gamma entries must lie in \[0, 1\]"):
            Responsibilities(np.array([[value, 1.0], [0.5, 0.5]]))


class TestEStep:
    @pytest.fixture()
    def stats(self):
        data = TrajectoryDataset(([0, 1, 1, 2], [2, 2, 0], [1, 0]), s=3)
        return sufficient_stats(data)

    @staticmethod
    def _log_params(seed):
        rng = np.random.default_rng(seed)
        return (np.log(rng.dirichlet(np.ones(2))),
                np.log(rng.dirichlet(np.ones(3), size=2)),
                np.log(rng.dirichlet(np.ones(3), size=(2, 3))))

    def test_finite_parameters_plain_formula(self, stats):
        log_mu, log_nu, log_P = self._log_params(0)
        expected = (log_mu[None, :] + stats.U @ log_nu.T
                    + np.einsum("nab,kab->nk", stats.V, log_P))
        w = log_mixture_weights(log_mu, log_nu, log_P, stats)
        # one product with the design block sums in another order than einsum
        np.testing.assert_allclose(w, expected, rtol=1e-14, atol=0)

    def test_neg_inf_entry_hit_by_a_count(self, stats):
        log_mu, log_nu, log_P = self._log_params(1)
        log_P[1, 1, 1] = -np.inf  # only trajectory 0 makes the 1 -> 1 step
        w = log_mixture_weights(log_mu, log_nu, log_P, stats)
        assert w[0, 1] == -np.inf
        assert np.all(np.isfinite(w[1:])) and np.isfinite(w[0, 0])

    def test_neg_inf_entry_no_count_hits(self, stats):
        log_mu, log_nu, log_P = self._log_params(2)
        finite = log_mixture_weights(log_mu, log_nu, log_P, stats)
        log_P[0, 2, 1] = -np.inf  # no trajectory makes the 2 -> 1 step
        log_nu[1, 0] = -np.inf  # only trajectory 0 starts in state 0
        w = log_mixture_weights(log_mu, log_nu, log_P, stats)
        assert np.array_equal(w[:, 0], finite[:, 0])
        assert w[0, 1] == -np.inf and np.array_equal(w[1:, 1], finite[1:, 1])

    def test_normalize_rows_all_neg_inf_row(self):
        logw = np.array([[0.0, np.log(3.0)], [-np.inf, -np.inf], [-np.inf, 5.0]])
        gamma, log_norms = log_normalize_rows(logw)
        assert np.allclose(gamma[0], [0.25, 0.75])
        assert log_norms[0] == pytest.approx(np.log(4.0))
        assert np.all(np.isnan(gamma[1])) and log_norms[1] == -np.inf
        assert np.array_equal(gamma[2], [0.0, 1.0]) and log_norms[2] == 5.0


class TestEStepMatchesOutOfPlaceFormulas:
    """The in-place E-step against the out-of-place formulas it replaced,
    bit for bit (tests/helpers.py keeps those)."""

    @staticmethod
    def _problem(k, seed, n=60, s=3):
        rng = np.random.default_rng(seed)
        params = random_mixture_params(k, s, seed=rng)
        data, _ = sample_mixture(params, n, 12, seed=rng)
        return sufficient_stats(data), (np.log(params.mu), np.log(params.nu), np.log(params.P))

    @pytest.mark.parametrize("k", [2, 4, 10])
    @pytest.mark.parametrize("support", ["finite", "neg_inf", "nan"])
    def test_log_mixture_weights(self, k, support):
        stats, (log_mu, log_nu, log_P) = self._problem(k, k)
        if support == "neg_inf":
            log_P[0, 1, :2] = -np.inf
            log_nu[k - 1, 0] = -np.inf
        elif support == "nan":
            log_P[1, 0, 0] = np.nan
        expected = reference_log_mixture_weights(log_mu, log_nu, log_P, stats)
        w = log_mixture_weights(log_mu, log_nu, log_P, stats)
        assert w.flags.f_contiguous == expected.flags.f_contiguous
        assert np.array_equal(w, expected, equal_nan=True)

    @pytest.mark.parametrize("k", [2, 4, 10])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", ["finite", "masked"])
    def test_log_normalize_rows(self, k, order, rows):
        stats, params = self._problem(k, 10 + k)
        logw = np.array(log_mixture_weights(*params, stats), order=order)
        if rows == "masked":
            logw[3] = -np.inf
            logw[5, 0] = np.inf
            logw[7, k - 1] = np.nan
            logw[9, 1:] = -np.inf
        expected_gamma, expected_norms = reference_log_normalize_rows(logw)
        gamma, log_norms = log_normalize_rows(logw)
        assert np.array_equal(gamma, expected_gamma, equal_nan=True)
        assert np.array_equal(log_norms, expected_norms, equal_nan=True)
        assert np.shares_memory(gamma, logw)  # logw is consumed
