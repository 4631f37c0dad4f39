import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from chainmix import (
    EmConfig,
    GaussianKernel,
    MisaState,
    MixtureParams,
    Responsibilities,
    TrajectoryDataset,
    ValidationError,
    VemConfig,
    kl_rate,
    kl_report,
    kl_trajectory,
    kmeans,
    misa_mixture_experiment,
    misclassification_bound,
    multistart_fit,
    random_mixture_params,
    sample_mixture,
    sample_simplex_rows,
    spectral_fit,
    sufficient_stats,
)
from chainmix import MisaParams, cli, dataio, misa_simulate
from chainmix.experiments import run_fig2, run_fig3, run_fig8
from chainmix.model_core import (
    SufficientStats,
    as_rng,
    check_real,
    log_mixture_weights,
    log_normalize_rows,
    parameter_block,
)

from helpers import (
    reference_log_mixture_weights,
    reference_log_normalize_rows,
    reference_sample_mixture,
)


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
        for states, s, found in [
            ([0, 3], 3, "[0, 3]"), ([-1, 0], 2, "[-1, 0]"),
            ([1, -2**63, 0], np.int64(2), "[-9223372036854775808, 1]"),
            ([0, -5], 2**70, "[-5, 0]"),  # every int64 state is below s, but not above 0
        ]:
            text = re.escape(f"state indices must lie in [0, {s}); found range {found}")
            with pytest.raises(ValidationError, match=text):
                TrajectoryDataset((states,), s=s)
            # a strided int64 view takes the same check
            flat = np.repeat(np.array(states, dtype=np.int64), 2)[::2]
            with pytest.raises(ValidationError, match=text):
                TrajectoryDataset.from_flat(flat, [len(states)], s=s)

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

    @pytest.mark.parametrize("sizes, bad", [([2.7, 1], 0), ([2, 0.5], 1), ([True, True], 0)])
    def test_sizes_that_are_not_whole_numbers_rejected(self, sizes, bad):
        # a cast to int64 would truncate [2.7, 1] to [2, 1]
        with pytest.raises(ValidationError,
                           match=f"trajectory {bad} must be a nonempty 1-D integer sequence"):
            TrajectoryDataset.from_flat([0, 1, 1], sizes, s=2)

    def test_unsigned_states_accepted(self):
        ds = TrajectoryDataset.from_flat(np.array([2, 0, 1], dtype=np.uint8), [3], s=3)
        assert ds.states.dtype == np.int64 and ds.states.tolist() == [2, 0, 1]

    @pytest.mark.parametrize("build", [
        lambda: TrajectoryDataset(([0, 1, 2], [2], [1, 1]), s=3),
        lambda: TrajectoryDataset.from_flat(np.array([0, 1, 2, 2, 1, 1]), [3, 1, 2], s=3),
    ], ids=["sequence", "flat"])
    def test_trajectories_built_on_first_use(self, build):
        ds = build()
        assert "trajectories" not in vars(ds)
        views = ds.trajectories
        assert ds.trajectories is views
        assert [v.tolist() for v in views] == [[0, 1, 2], [2], [1, 1]]
        for view, (a, b) in zip(views, [(0, 3), (3, 4), (4, 6)]):
            assert np.array_equal(view, ds.states[a:b])
            assert np.shares_memory(view, ds.states) and not view.flags.writeable

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

    @pytest.mark.parametrize("k, s, n, t", [
        (3, 4, 7, 0),  # t=0: one state per trajectory
        (3, 4, 1, 9),  # n=1
        (1, 1, 6, 5),
        (1, 8, 40, 12),
        (1, 3, 25, 7),  # k=1: the label table is a (0, 1) block
        (10, 2, 60, 9),  # more components than states
        (9, 2, 50, 8),  # the label table is two full blocks of columns
        (2, 6, 80, 10),  # a full block of columns and a block of one
        (4, 3, 100, 30),  # the fig2 shape
        (4, 5, 20000, 100),  # the large-n-em shape
        (2, 256, 300, 20),  # the largest s whose states fit in uint8
        (2, 257, 300, 20),  # the time-major buffer widens to uint16
    ])
    def test_matches_column_major_reference(self, k, s, n, t):
        # the time-major sampler draws the column-major loop's states, sizes and labels
        params = random_mixture_params(k, s, seed=n + t)
        data, z = sample_mixture(params, n, t, seed=np.random.SeedSequence(n * t + s))
        states, sizes, labels = reference_sample_mixture(
            params, n, t, seed=np.random.SeedSequence(n * t + s))
        assert np.array_equal(data.states, states)
        assert np.array_equal(data.sizes, sizes)
        assert np.array_equal(z, labels)
        assert data.states.dtype == np.int64 and data.states.flags.c_contiguous

    @pytest.mark.parametrize("k, s, n, t, bound", [
        # the uint8 time-major buffer and the int64 states it is copied into
        # are the most that is live: about 1.22 times the states' bytes (2.06
        # with an int64 time-major buffer)
        (4, 5, 2000, 100, 1.3),
        # short trajectories over many states: the work buffers (about 80
        # bytes per trajectory, as they hold at most `_DRAW_BLOCK_COLUMNS`
        # columns) and the 0.5 MB cumulative tables weigh in, about 3.28
        # times (3.59 with the per-column loop, about 50 with a work block
        # of all 255 columns)
        (1, 256, 20000, 5, 3.5),
    ])
    def test_traced_peak_memory_bounded(self, k, s, n, t, bound):
        params = random_mixture_params(k, s, seed=7)
        sample_mixture(params, 20, 5, seed=8)  # warm-up
        tracemalloc.start()
        try:
            data, _ = sample_mixture(params, n, t, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * data.states.nbytes

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

    @pytest.mark.parametrize("n, t", [(1, 0), (1, 6), (9, 0), (9, 1), (40, 12)])
    @pytest.mark.parametrize("extra", [1, 3, 20])
    def test_equal_length_block_matches_ragged_path(self, n, t, extra):
        # one more trajectory of another length sends the same data down the
        # ragged path; its first n rows must be what the (n, L) block gave
        length = extra + (extra == t + 1)  # another length than the n trajectories'
        data, _ = sample_mixture(random_mixture_params(3, 4, seed=n + t), n, t, seed=extra)
        ragged = TrajectoryDataset(data.trajectories + (np.arange(length) % 4,), s=4)
        assert np.ptp(data.sizes) == 0 and np.ptp(ragged.sizes) > 0
        assert np.array_equal(sufficient_stats(ragged).X[:n], sufficient_stats(data).X)
        assert len(data.trajectories) == n
        for view, other in zip(data.trajectories, ragged.trajectories):
            assert np.array_equal(view, other)
            assert np.shares_memory(view, data.states) and not view.flags.writeable

    def test_traced_peak_memory_bounded(self):
        # the states, the (n, L - 1) pair codes and the counts are the most
        # that is live: about 2.29 times the states' bytes, the states
        # included (3.08 with a per-state offset array beside the codes)
        params = random_mixture_params(4, 5, seed=7)
        sufficient_stats(sample_mixture(params, 20, 5, seed=8)[0])  # warm-up
        tracemalloc.start()
        try:
            data, _ = sample_mixture(params, 2000, 100, seed=9)
            tracemalloc.reset_peak()
            sufficient_stats(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * data.states.nbytes

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

    @pytest.mark.parametrize("s", [0, 2])
    def test_zero_trajectories_rejected(self, s):
        with pytest.raises(ValidationError, match="^stats must contain at least one trajectory$"):
            SufficientStats(np.zeros((0, s)), np.zeros((0, s, s)))

    def test_one_hot_validation(self):
        for U in (np.array([[1.0, 1.0]]), np.array([["1", "0"]]), np.array([[1 + 0j, 0j]]),
                  np.array([[1, 0]], dtype=object)):
            with pytest.raises(ValidationError, match="each row of U must be one-hot"):
                SufficientStats(U=U, V=np.zeros((1, 2, 2)))

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
        with pytest.raises(ValidationError, match="nonnegative integer counts"):
            SufficientStats(U=U, V=np.array([[[np.inf, 0.0], [0.0, 0.0]]]))
        for V in (np.array([[["1", "0"], ["0", "0"]]]), np.array([[[1 + 0j, 0j], [0j, 0j]]]),
                  np.array([[[1, 0], [0, 0]]], dtype=object)):
            with pytest.raises(ValidationError, match="nonnegative integer counts"):
                SufficientStats(U=U, V=V)
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
        w = log_mixture_weights(log_mu, parameter_block(log_nu, log_P), stats)
        # one product with the design block sums in another order than einsum
        np.testing.assert_allclose(w, expected, rtol=1e-14, atol=0)

    def test_neg_inf_entry_hit_by_a_count(self, stats):
        log_mu, log_nu, log_P = self._log_params(1)
        log_P[1, 1, 1] = -np.inf  # only trajectory 0 makes the 1 -> 1 step
        w = log_mixture_weights(log_mu, parameter_block(log_nu, log_P), stats)
        assert w[0, 1] == -np.inf
        assert np.all(np.isfinite(w[1:])) and np.isfinite(w[0, 0])

    def test_neg_inf_entry_no_count_hits(self, stats):
        log_mu, log_nu, log_P = self._log_params(2)
        finite = log_mixture_weights(log_mu, parameter_block(log_nu, log_P), stats)
        log_P[0, 2, 1] = -np.inf  # no trajectory makes the 2 -> 1 step
        log_nu[1, 0] = -np.inf  # only trajectory 0 starts in state 0
        w = log_mixture_weights(log_mu, parameter_block(log_nu, log_P), stats)
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
        w = log_mixture_weights(log_mu, parameter_block(log_nu, log_P), stats)
        assert w.flags.f_contiguous == expected.flags.f_contiguous
        assert np.array_equal(w, expected, equal_nan=True)

    @pytest.mark.parametrize("k", [2, 4, 10])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", ["finite", "masked"])
    def test_log_normalize_rows(self, k, order, rows):
        stats, params = self._problem(k, 10 + k)
        logw = np.array(log_mixture_weights(params[0], parameter_block(*params[1:]), stats),
                        order=order)
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

    @pytest.mark.parametrize("support", ["finite", "neg_inf", "nan"])
    def test_log_mixture_weights_into_buffer(self, support):
        stats, (log_mu, log_nu, log_P) = self._problem(4, 20)
        if support == "neg_inf":
            log_P[0, 1, :2] = -np.inf
        elif support == "nan":
            log_P[1, 0, 0] = np.nan
        block = parameter_block(log_nu, log_P)
        out = np.full((4, stats.n), 7.0)  # stale values the call must overwrite
        w = log_mixture_weights(log_mu, block, stats, out)
        assert w.base is out and w.shape == (stats.n, 4) and w.flags.f_contiguous
        assert np.array_equal(w, log_mixture_weights(log_mu, block, stats), equal_nan=True)

    @pytest.mark.parametrize("rows", ["finite", "masked"])
    def test_log_normalize_rows_into_scratch(self, rows):
        stats, params = self._problem(4, 21)
        logw = log_mixture_weights(params[0], parameter_block(*params[1:]), stats)
        if rows == "masked":
            logw[3] = -np.inf  # a row with no finite weight
            logw[7, 1] = np.nan
        fresh = logw.copy(order="K")
        scratch = np.full((2, stats.n), 7.0)
        gamma, log_norms = log_normalize_rows(logw, scratch)
        expected_gamma, expected_norms = log_normalize_rows(fresh)
        assert gamma is logw and log_norms.base is scratch
        assert np.shares_memory(log_norms, scratch[1])
        assert np.array_equal(gamma, expected_gamma, equal_nan=True)
        assert np.array_equal(log_norms, expected_norms, equal_nan=True)


_BAD_SEEDS = [-1, np.int64(-2), 1.5, np.float64(2.0), "3", True, [1, 2]]


class TestSeedChecks:
    """Every seeded entry point rejects a seed that is negative or not an integer."""

    @pytest.mark.parametrize("seed", _BAD_SEEDS)
    def test_as_rng(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            as_rng(seed)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            random_mixture_params(2, 2, seed=seed)

    @pytest.mark.parametrize("seed", [*_BAD_SEEDS, np.random.default_rng(0)])
    def test_multistart_fit(self, seed):
        data, _ = sample_mixture(random_mixture_params(2, 2, seed=1), 6, 4, seed=2)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            multistart_fit(sufficient_stats(data), "vem", 2, VemConfig(k_max=2), seed=seed)

    @pytest.mark.parametrize("seed", [*_BAD_SEEDS, np.random.default_rng(0)])
    def test_experiment_cell_seeds(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            run_fig2(instances=1, n_traj=5, t_len=3, restarts=1, seed=seed)

    @pytest.mark.parametrize("seed", [*_BAD_SEEDS, np.random.SeedSequence(0)])
    def test_misa_mixture_experiment(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            misa_mixture_experiment(0.01, 0.25, n_per_group=2, t_len=3, seed=seed)

    def test_integer_seeds_keep_their_streams(self):
        for seed in (0, 7, np.int64(7), np.uint64(2**63 + 5)):
            assert as_rng(seed).random() == np.random.default_rng(int(seed)).random()
        generator = np.random.default_rng(3)
        assert as_rng(generator) is generator
        data, _ = sample_mixture(random_mixture_params(2, 2, seed=1), 6, 4, seed=2)
        stats = sufficient_stats(data)
        reports = [multistart_fit(stats, "vem", 2, VemConfig(k_max=2), seed=seed)
                   for seed in (5, np.int32(5), np.random.SeedSequence(5))]
        assert reports[0].master_seed == reports[1].master_seed == 5
        assert reports[0].seeds == reports[1].seeds
        assert reports[2].master_seed == int(
            np.random.SeedSequence(5).generate_state(1, np.uint64)[0])


def _run_cli(command, *flags, **values):
    """The `command` handler on the parsed flags with `values` set on top, so a
    value that no typed flag can give (True, an array) reaches the handler."""
    args = cli.build_parser().parse_args([command, *flags])
    for key, value in values.items():
        setattr(args, key, value)
    return cli._HANDLERS[command](args)


def _misa_cli(**values):
    return _run_cli("misa", "--f-r", "0.1", "--t-end", "2", "--burn-in", "1", "--out", "misa",
                    **values)


def _fit_cli(**values):
    dataio.write_trajectories("traj.txt", _DATA)
    return _run_cli("fit", "--input", "traj.txt", "--k-max", "2", "--restarts", "2",
                    "--out", "fit", **values)


def _cluster_cli(**values):
    dataio.write_points_csv("points.csv", _POINTS)
    return _run_cli("cluster", "--points", "points.csv", "--s", "2", "--out", "clust", **values)


_PARAMS = random_mixture_params(3, 2, seed=0)
_DATA = sample_mixture(_PARAMS, 6, 4, seed=1)[0]
_STATS = sufficient_stats(_DATA)
_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 0.0], [3.0, 1.0]])  # M = 4
_MISA = dict(n_per_group=1, t_len=2, restarts=1, n_states=2, k_max=2, burn_in=1.0, seed=0)

# (argument as its message names it, low, high or None, a value in range,
# the call with that argument set to the value)
_INTEGER_ARGUMENTS = {
    "EmConfig-k": ("k", 1, None, 2, lambda v: EmConfig(k=v)),
    "EmConfig-max_iters": ("max_iters", 1, None, 5, lambda v: EmConfig(k=2, max_iters=v)),
    "VemConfig-k_max": ("k_max", 1, None, 2, lambda v: VemConfig(k_max=v)),
    "VemConfig-max_iters": ("max_iters", 1, None, 5,
                            lambda v: VemConfig(k_max=2, max_iters=v)),
    "sample_mixture-n": ("n", 1, None, 3, lambda v: sample_mixture(_PARAMS, v, 2, seed=0)),
    "sample_mixture-t": ("t", 0, None, 2, lambda v: sample_mixture(_PARAMS, 3, v, seed=0)),
    "random_mixture_params-k": ("k", 1, None, 2, lambda v: random_mixture_params(v, 2)),
    "random_mixture_params-s": ("s", 1, None, 2, lambda v: random_mixture_params(2, v)),
    "TrajectoryDataset-s": ("state count s", 1, None, 3,
                            lambda v: TrajectoryDataset(([0, 1],), s=v)),
    "sample_simplex_rows-n": ("n", 1, None, 3, lambda v: sample_simplex_rows(v, 2)),
    "sample_simplex_rows-k": ("k", 1, None, 2, lambda v: sample_simplex_rows(3, v)),
    "multistart_fit-restarts": ("restarts", 1, None, 2, lambda v: multistart_fit(
        _STATS, "em", v, EmConfig(k=2, max_iters=3), seed=0)),
    "kl_report-horizon": ("horizon", 0, None, 3, lambda v: kl_report(_PARAMS, v)),
    "misclassification_bound-horizon": ("horizon", 0, None, 3,
                                        lambda v: misclassification_bound(_PARAMS, v)),
    "kl_trajectory-horizon": ("horizon", 0, None, 3,
                              lambda v: kl_trajectory(_PARAMS, 0, 1, v)),
    "kl_trajectory-i": ("i", 0, 2, 1, lambda v: kl_trajectory(_PARAMS, v, 0, 3)),
    "kl_trajectory-j": ("j", 0, 2, 1, lambda v: kl_trajectory(_PARAMS, 0, v, 3)),
    "kl_rate-i": ("i", 0, 2, 1, lambda v: kl_rate(_PARAMS, v, 0)),
    "kl_rate-j": ("j", 0, 2, 1, lambda v: kl_rate(_PARAMS, 0, v)),
    "kmeans-s": ("s", 1, 4, 2, lambda v: kmeans(_POINTS, v, seed=0)),
    "spectral_fit-s": ("s", 1, 4, 2, lambda v: spectral_fit(
        _POINTS, GaussianKernel(sigma=2.0), v, seed=0)),
    "misa_mixture_experiment-n_per_group": ("n_per_group", 1, None, 1, lambda v: (
        misa_mixture_experiment(0.01, 0.25, **{**_MISA, "n_per_group": v}))),
    "misa_mixture_experiment-t_len": ("t_len", 1, None, 2, lambda v: (
        misa_mixture_experiment(0.01, 0.25, **{**_MISA, "t_len": v}))),
    "misa_mixture_experiment-n_states": ("n_states", 1, None, 2, lambda v: (
        misa_mixture_experiment(0.01, 0.25, **{**_MISA, "n_states": v}))),
    "misa_mixture_experiment-restarts": ("restarts", 1, None, 1, lambda v: (
        misa_mixture_experiment(0.01, 0.25, **{**_MISA, "restarts": v}))),
    "MisaState-a": ("protein count a", 0, None, 3, lambda v: MisaState(
        gene_a=(0, 0), gene_b=(0, 0), a=v, b=0)),
    "MisaState-b": ("protein count b", 0, None, 3, lambda v: MisaState(
        gene_a=(0, 0), gene_b=(0, 0), a=0, b=v)),
    "cli-misa-n_traj": ("--n-traj", 1, None, 1, lambda v: _misa_cli(n_traj=v)),
    # a loop count of 0 is in range; the CLI then reports the empty sweep
    "run_fig2-instances": ("instances", 0, None, 0, lambda v: run_fig2(instances=v)),
    "run_fig3-trials": ("trials", 0, None, 0, lambda v: run_fig3(trials=v)),
    "run_fig8-reps": ("reps", 0, None, 0, lambda v: run_fig8(reps=v)),
}


class TestIntegerChecks:
    """Every count and index the library takes is an integer in its range."""

    @pytest.mark.parametrize("entry", sorted(_INTEGER_ARGUMENTS))
    def test_rejected(self, entry):
        name, low, high, _, call = _INTEGER_ARGUMENTS[entry]
        outside = [(low - 1, f"must be >= {low}")]
        if high is not None:
            outside.append((high + 1, f"must be <= {high}"))
        not_integers = [(v, f"must be an integer, not {v!r}")
                        for v in (2.5, np.float64(3.0), True)]
        for value, text in not_integers + outside:
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} {text}')}$"):
                call(value)

    @pytest.mark.parametrize("entry", sorted(_INTEGER_ARGUMENTS))
    def test_numpy_integer_accepted(self, entry, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the CLI writes its files here
        _, _, _, value, call = _INTEGER_ARGUMENTS[entry]
        call(np.int64(value))


def _misa_params(rate, value):
    return MisaParams(**{"f_r": 1.0, rate: value})


# (argument as its message names it, positive (else nonnegative), a value in
# range, the call with that argument set to the value)
_REAL_ARGUMENTS = {
    "EmConfig-tol_scale": ("tol_scale", False, 1, lambda v: EmConfig(k=2, tol_scale=v)),
    "VemConfig-tol_scale": ("tol_scale", False, 1, lambda v: VemConfig(k_max=2, tol_scale=v)),
    "GaussianKernel-sigma": ("sigma", True, 2, lambda v: GaussianKernel(sigma=v)),
    **{f"MisaParams-{rate}": (f"rate {rate}", True, 1, lambda v, rate=rate: _misa_params(rate, v))
       for rate in ("f_r", "g00", "g01", "g10", "g11", "d", "h_a", "f_a", "h_r")},
    "misa_simulate-t_end": ("t_end", True, 2, lambda v: misa_simulate(
        MisaParams(f_r=1.0), t_end=v, burn_in=1.0, seed=0)),
    "misa_simulate-sample_interval": ("sample_interval", True, 1, lambda v: misa_simulate(
        MisaParams(f_r=1.0), t_end=2.0, sample_interval=v, burn_in=1.0, seed=0)),
    "misa_simulate-burn_in": ("burn_in", False, 1, lambda v: misa_simulate(
        MisaParams(f_r=1.0), t_end=2.0, burn_in=v, seed=0)),
    "misa_mixture_experiment-f_r_1": ("f_r_1", True, 1, lambda v: (
        misa_mixture_experiment(v, 0.25, **_MISA))),
    "misa_mixture_experiment-f_r_2": ("f_r_2", True, 1, lambda v: (
        misa_mixture_experiment(0.01, v, **_MISA))),
    "misa_mixture_experiment-sigma": ("sigma", True, 50, lambda v: (
        misa_mixture_experiment(0.01, 0.25, **{**_MISA, "sigma": v}))),
    "misa_mixture_experiment-burn_in": ("burn_in", False, 1, lambda v: (
        misa_mixture_experiment(0.01, 0.25, **{**_MISA, "burn_in": v}))),
    # reps=0: the checks run, no cell does
    "run_fig8-fr1": ("fr1", True, 1, lambda v: run_fig8(fr1=v, reps=0)),
    "run_fig8-fr2_values": ("fr2_values[1]", True, 1,
                            lambda v: run_fig8(fr2_values=(0.25, v), reps=0)),
    "cli-fit-tol_scale": ("tol_scale", False, 1, lambda v: _fit_cli(tol_scale=v)),
    "cli-cluster-sigma": ("sigma", True, 2, lambda v: _cluster_cli(sigma=v)),
    "cli-misa-t_end": ("t_end", True, 2, lambda v: _misa_cli(t_end=v)),
}


class TestRealChecks:
    """Every real-valued setting the library takes is a finite number in its range."""

    @pytest.mark.parametrize("entry", sorted(_REAL_ARGUMENTS))
    def test_rejected(self, entry, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the CLI reads its input files here
        name, positive, _, call = _REAL_ARGUMENTS[entry]
        side = "positive" if positive else "nonnegative"
        outside = (0.0, -1.0) if positive else (-1.0,)
        cases = [(v, f"must be a number, not {v!r}") for v in (True, "1", np.array([1.0]))]
        cases += [(v, f"must be finite and {side}") for v in (np.nan, np.inf, -np.inf, *outside)]
        for value, text in cases:
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} {text}')}$"):
                call(value)

    @pytest.mark.parametrize("entry", sorted(_REAL_ARGUMENTS))
    def test_numpy_scalars_accepted(self, entry, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the CLI writes its files here
        _, _, value, call = _REAL_ARGUMENTS[entry]
        for scalar in (np.float32(value), np.int64(value)):
            call(scalar)

    def test_value_returned_unchanged(self):
        for value in (0, 2, 2.5, 5e-324, np.float32(2.5), np.int64(2), np.uint64(2**64 - 1),
                      2**1023):
            assert check_real(value, "x", False) is value
        assert check_real(0.0, "x", False) == 0.0

    def test_int_beyond_float64_rejected(self):
        # a Python int has no float64 value above the largest float64
        with pytest.raises(ValidationError, match="^x must be finite and positive$"):
            check_real(2**1024, "x", True)
