import numpy as np
import pytest

from chainmix import (
    MisaParams,
    MisaState,
    ValidationError,
    accuracy,
    gene_circuit,
    misa_mixture_experiment,
    misa_simulate,
    multistart,
)

from helpers import count_calls, reference_misa_simulate, reference_propensities


class TestPropensities:
    """The rate table of the reference loop, which TestMatchesReferenceLoop
    ties to the SSA event loop."""

    def test_zero_proteins_only_production_and_unbinding(self):
        p = MisaParams(f_r=1.0)
        props = reference_propensities(1, 1, 1, 1, 0, 0, p)
        # productions active
        assert props[0] == p.g11 and props[1] == p.g11
        # degradations and bindings vanish at zero counts
        assert props[2] == props[3] == 0.0
        assert props[4] == props[6] == props[8] == props[10] == 0.0
        # unbindings active because both genes are fully bound
        assert props[5] == props[7] == p.f_a
        assert props[9] == props[11] == p.f_r

    def test_single_protein_cannot_bind(self):
        p = MisaParams(f_r=1.0)
        props = reference_propensities(0, 0, 0, 0, 1, 0, p)
        assert props[4] == 0.0  # activator binding of gene A needs two proteins
        assert props[10] == 0.0  # repressor binding of gene B likewise

    def test_production_reads_own_gene_condition(self):
        p = MisaParams(f_r=1.0)
        assert reference_propensities(1, 0, 0, 0, 5, 5, p)[0] == p.g10 == 100.0
        assert reference_propensities(0, 1, 0, 0, 5, 5, p)[0] == p.g01
        assert reference_propensities(0, 0, 1, 0, 5, 5, p)[1] == p.g10

    def test_rates_must_be_positive(self):
        with pytest.raises(ValidationError):
            MisaParams(f_r=0.0)
        with pytest.raises(ValidationError):
            MisaParams(f_r=1.0, d=-1.0)
        with pytest.raises(ValidationError, match="rate g10 must be finite and positive"):
            MisaParams(f_r=1.0, g10=np.inf)

    @pytest.mark.parametrize("value", ["1.0", None, True, [1.0]])
    def test_rates_must_be_numbers(self, value):
        with pytest.raises(ValidationError, match="rate h_a must be a number"):
            MisaParams(f_r=1.0, h_a=value)


class TestStepSsa:
    def test_step_preserves_invariants(self):
        traj = misa_simulate(MisaParams(f_r=0.5), t_end=50.0, sample_interval=0.01,
                             seed=0, burn_in=0.0)
        assert traj.times.size == 5001 and np.all(np.diff(traj.times) > 0)
        assert np.all(traj.a >= 0) and np.all(traj.b >= 0)
        assert set(_conditions(traj.gene_a)) | set(_conditions(traj.gene_b)) <= {0, 1, 10, 11}

    def test_invalid_state_rejected(self):
        with pytest.raises(ValidationError):
            MisaState(gene_a=(2, 0), gene_b=(0, 0), a=0, b=0)
        with pytest.raises(ValidationError):
            MisaState(gene_a=(0, 0), gene_b=(0, 0), a=-1, b=0)


class TestSimulate:
    def test_reproducible(self):
        p = MisaParams(f_r=0.1)
        t1 = misa_simulate(p, t_end=50.0, seed=7)
        t2 = misa_simulate(p, t_end=50.0, seed=7)
        assert np.array_equal(t1.a, t2.a)
        assert np.array_equal(t1.b, t2.b)
        assert np.array_equal(t1.gene_a, t2.gene_a)

    def test_sample_grid(self):
        p = MisaParams(f_r=0.1)
        traj = misa_simulate(p, t_end=10.0, sample_interval=1.0, seed=8)
        assert traj.times.size == 11
        assert np.allclose(traj.times, np.arange(11.0))
        assert traj.ab.shape == (11, 2)

    def test_interval_larger_than_t_end_gives_single_sample(self):
        p = MisaParams(f_r=0.1)
        traj = misa_simulate(p, t_end=5.0, sample_interval=10.0, seed=9)
        assert traj.times.size == 1

    def test_birth_death_audit(self):
        # with bindings disabled both genes stay at condition 00, so each
        # protein count is an independent birth-death process with stationary
        # Poisson(g00/d) law; check the long-run mean within 3 standard errors
        p = MisaParams(f_r=1e-12, h_a=1e-12, h_r=1e-12, f_a=1e-12)
        traj = misa_simulate(p, t_end=4000.0, sample_interval=2.0, seed=10,
                             burn_in=50.0)
        samples = traj.a.astype(float)
        # thin to roughly independent samples (relaxation time 1/d = 1)
        thinned = samples[::3]
        mean = thinned.mean()
        stderr = thinned.std(ddof=1) / np.sqrt(thinned.size)
        expected = p.g00 / p.d
        assert abs(mean - expected) <= 3 * stderr + 0.05
        assert np.all(traj.gene_a == 0)

    def test_low_unbinding_rate_concentrates_counts(self):
        p = MisaParams(f_r=0.01)
        traj = misa_simulate(p, t_end=2000.0, seed=11)
        frac_low = np.mean(traj.a <= 20)
        assert frac_low >= 0.7
        assert np.median(traj.a) <= 20

    def test_high_unbinding_rate_boosts_counts_and_toggles(self):
        p = MisaParams(f_r=1.0)
        traj = misa_simulate(p, t_end=3000.0, seed=12)
        mean_a = traj.a.mean()
        assert 50.0 <= mean_a <= 150.0
        # competition: both orderings of the two protein counts persist
        frac_a_dominant = np.mean(traj.a > 2 * traj.b)
        frac_b_dominant = np.mean(traj.b > 2 * traj.a)
        assert frac_a_dominant >= 0.1
        assert frac_b_dominant >= 0.1

    def test_t_end_must_be_positive(self):
        with pytest.raises(ValidationError):
            misa_simulate(MisaParams(f_r=1.0), t_end=0.0, seed=1)

    @pytest.mark.parametrize("name,value,message", [
        ("t_end", np.inf, "t_end must be finite and positive"),
        ("t_end", np.nan, "t_end must be finite and positive"),
        ("sample_interval", 0.0, "sample_interval must be finite and positive"),
        ("sample_interval", np.inf, "sample_interval must be finite and positive"),
        ("sample_interval", np.nan, "sample_interval must be finite and positive"),
        ("burn_in", -10.0, "burn_in must be finite and nonnegative"),
        ("burn_in", np.inf, "burn_in must be finite and nonnegative"),
        ("burn_in", np.nan, "burn_in must be finite and nonnegative"),
    ])
    def test_time_arguments_must_be_finite(self, name, value, message):
        kwargs = dict(t_end=5.0, sample_interval=1.0, burn_in=10.0, seed=1)
        kwargs[name] = value
        with pytest.raises(ValidationError, match=message):
            misa_simulate(MisaParams(f_r=1.0), **kwargs)

    def test_sample_count_must_be_finite(self):
        # both times are finite, but their ratio overflows to inf
        with pytest.raises(ValidationError, match="t_end / sample_interval must be finite"):
            misa_simulate(MisaParams(f_r=1.0), t_end=1e300, sample_interval=1e-10, seed=1)


def _conditions(genes):
    """Gene conditions as two-digit codes: (1, 0) -> 10."""
    return [10 * int(i) + int(j) for i, j in genes]


class TestSeededContract:
    """Seeded SSA outputs pinned to the values the event loop has always drawn."""

    def test_low_unbinding_rate(self):
        traj = misa_simulate(MisaParams(f_r=0.01), t_end=12.0, seed=2024, burn_in=20.0)
        assert traj.a.tolist() == [3, 8, 15, 15, 14, 15, 12, 10, 13, 14, 16, 10, 6]
        assert traj.b.tolist() == [16, 7, 5, 8, 6, 9, 12, 11, 12, 11, 8, 12, 10]
        assert _conditions(traj.gene_a) == [11] * 13
        assert _conditions(traj.gene_b) == [1, 11, 11, 1, 11, 11, 11, 11, 11, 11, 1, 11, 11]

    def test_high_unbinding_rate(self):
        traj = misa_simulate(MisaParams(f_r=0.25), t_end=12.0, seed=2025, burn_in=20.0)
        assert traj.a.tolist() == [94, 92, 93, 92, 96, 112, 83, 89, 102, 98, 112, 101, 112]
        assert traj.b.tolist() == [13, 21, 18, 11, 11, 8, 7, 6, 7, 9, 3, 8, 12]
        assert _conditions(traj.gene_a) == [10] * 13
        assert _conditions(traj.gene_b) == [11] * 9 + [1] * 4

    def test_initial_state_and_half_unit_grid(self):
        init = MisaState(gene_a=(1, 0), gene_b=(0, 1), a=80, b=3)
        traj = misa_simulate(MisaParams(f_r=0.05), t_end=6.0, sample_interval=0.5,
                             seed=2026, burn_in=0.0, initial_state=init)
        assert traj.a.tolist() == [80, 85, 94, 104, 89, 102, 111, 105, 82, 52, 35, 24, 18]
        assert traj.b.tolist() == [3, 5, 7, 6, 9, 10, 12, 10, 10, 12, 15, 8, 13]
        assert _conditions(traj.gene_a) == [10] * 8 + [11] * 5
        assert _conditions(traj.gene_b) == [1, 1, 11, 11, 11, 1, 1, 11, 11, 11, 11, 11, 1]

    def test_generator_seed_draws_are_unchanged(self):
        rng = np.random.default_rng(2027)
        traj = misa_simulate(MisaParams(f_r=0.25), t_end=5.0, seed=rng, burn_in=3.0)
        assert traj.a.tolist() == [74, 99, 106, 64, 30, 19]
        assert traj.b.tolist() == [11, 12, 38, 18, 11, 5]
        assert _conditions(traj.gene_a) == [10, 10, 10, 11, 11, 11]
        assert _conditions(traj.gene_b) == [11] * 6
        # the generator's next draw shows how many draws the run consumed
        assert rng.random() == float.fromhex("0x1.028ff70f93437p-1")


class TestMatchesReferenceLoop:
    """The event loop against a sequential scan of the propensity table."""

    @pytest.mark.parametrize("f_r", [0.01, 0.05, 0.25, 1.0])
    def test_simulate(self, f_r):
        init = MisaState(gene_a=(0, 1), gene_b=(1, 0), a=3, b=40)
        cases = [
            dict(t_end=8.0, seed=seed, burn_in=30.0) for seed in range(5)
        ] + [
            dict(t_end=4.0, sample_interval=0.25, seed=9, burn_in=0.0,
                 initial_state=init),
            dict(t_end=3.0, sample_interval=7.0, seed=10, burn_in=2.5),
        ]
        for case in cases:
            traj = misa_simulate(MisaParams(f_r=f_r), **case)
            expected = reference_misa_simulate(MisaParams(f_r=f_r), **case)
            for got, want in zip((traj.a, traj.b, traj.gene_a, traj.gene_b), expected):
                assert np.array_equal(got, want), case

    def test_generator_left_in_the_same_state(self):
        params = MisaParams(f_r=0.25, g10=40.0)
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        misa_simulate(params, t_end=6.0, seed=rng, burn_in=5.0)
        reference_misa_simulate(params, t_end=6.0, seed=ref_rng, burn_in=5.0)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_steps_from_every_gene_condition(self):
        # small counts make zero and tied propensities common; the fine grid
        # records about 3,600 state changes, over half of all events
        rng = np.random.default_rng(12)
        conditions = [(0, 0), (0, 1), (1, 0), (1, 1)]
        params = MisaParams(f_r=0.3, h_a=0.7, h_r=0.2)
        grid = dict(t_end=0.2, sample_interval=0.01, burn_in=0.0)
        changes = 0
        for trial in range(400):
            state = MisaState(gene_a=conditions[trial % 4],
                              gene_b=conditions[(trial // 4) % 4],
                              a=int(rng.integers(0, 4)), b=int(rng.integers(0, 4)))
            seed = int(rng.integers(2**32))
            sim_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            traj = misa_simulate(params, seed=sim_rng, initial_state=state, **grid)
            expected = reference_misa_simulate(params, seed=ref_rng, initial_state=state,
                                               **grid)
            for got, want in zip((traj.a, traj.b, traj.gene_a, traj.gene_b), expected):
                assert np.array_equal(got, want), (state, seed)
            assert sim_rng.bit_generator.state == ref_rng.bit_generator.state
            rows = np.column_stack([traj.a, traj.b, traj.gene_a, traj.gene_b])
            changes += int(np.any(rows[1:] != rows[:-1], axis=1).sum())
        assert changes > 3000


def test_spectral_states_cover_metastable_regions():
    # intermediate unbinding rate: the circuit toggles between competing
    # regimes, and sigma=50 spectral clustering into 4 states should carve
    # out a low-low region plus both asymmetric high regions
    from chainmix import GaussianKernel, PointSet, spectral_fit

    traj = misa_simulate(MisaParams(f_r=0.1), t_end=600.0, seed=77)
    model = spectral_fit(PointSet(traj.ab), GaussianKernel(sigma=50.0), s=4,
                         seed=78)
    means = []
    for c in range(4):
        members = traj.ab[model.assignments == c]
        assert members.size > 0
        means.append(members.mean(axis=0))
    means = np.asarray(means)
    assert any(m[0] > m[1] + 20 for m in means)  # high-a / low-b region
    assert any(m[1] > m[0] + 20 for m in means)  # low-a / high-b region
    assert any(m[0] < 35 and m[1] < 35 for m in means)  # low-low region


class TestMixtureExperiment:
    def test_identical_rates_give_chance_accuracy(self):
        result = misa_mixture_experiment(0.05, 0.05, n_per_group=8, t_len=10,
                                         seed=13, restarts=5)
        assert 0.5 <= result.accuracy <= 0.85

    def test_separated_rates_beat_chance(self):
        result = misa_mixture_experiment(0.01, 1.0, n_per_group=10, t_len=25,
                                         seed=14, restarts=10)
        assert result.accuracy >= 0.85
        assert result.dataset.n == 20
        assert result.dataset.s == 4
        assert np.array_equal(result.true_labels,
                              np.repeat([0, 1], 10))

    def test_stage_times_are_reported(self):
        kwargs = dict(n_per_group=3, t_len=4, seed=15, restarts=2, burn_in=5.0)
        first = misa_mixture_experiment(0.01, 1.0, **kwargs)
        second = misa_mixture_experiment(0.01, 1.0, **kwargs)
        assert list(first.stage_s) == ["simulate", "cluster", "discretize", "fit", "score"]
        assert all(seconds >= 0.0 for seconds in first.stage_s.values())
        assert np.array_equal(first.dataset.states, second.dataset.states)
        assert first.accuracy == second.accuracy

    def test_best_restart_accuracy_is_not_solved_again(self, monkeypatch):
        # the score is the best restart's accuracy, which multistart_fit
        # already solved; only the restarts call accuracy
        restart_calls = count_calls(monkeypatch, multistart, "accuracy")
        score_calls = count_calls(monkeypatch, gene_circuit, "accuracy")
        result = misa_mixture_experiment(0.01, 1.0, n_per_group=3, t_len=4, seed=15,
                                         restarts=3, burn_in=5.0)
        assert restart_calls == {"accuracy": 3}
        assert score_calls == {"accuracy": 0}
        assert result.accuracy == accuracy(result.true_labels, result.report.best.labels)[0]
