import numpy as np
import pytest

from chainmix import (
    EmConfig,
    NumericalError,
    VemConfig,
    em_fit,
    random_mixture_params,
    sample_mixture,
    sample_simplex_rows,
    multistart_fit,
    sufficient_stats,
    vem_fit,
)
from chainmix.multistart import TIE_RTOL, restart_seed_sequence

from helpers import count_calls


@pytest.fixture(scope="module")
def small_problem():
    params = random_mixture_params(2, 3, seed=301)
    data, labels = sample_mixture(params, 25, 15, seed=302)
    return sufficient_stats(data), labels


class TestSampleSimplexRows:
    def test_single_column_is_ones(self):
        r = sample_simplex_rows(5, 1, seed=0)
        assert np.all(r.gamma == 1.0)

    def test_rows_sum_to_one(self):
        r = sample_simplex_rows(200, 7, seed=1)
        assert np.allclose(r.gamma.sum(axis=1), 1.0, atol=1e-12)

    def test_uniform_simplex_moments(self):
        # Monte Carlo check of the first moment of the flat simplex law
        r = sample_simplex_rows(10**5, 3, seed=2)
        means = r.gamma.mean(axis=0)
        assert np.all(np.abs(means - 1 / 3) < 0.005)

    def test_deterministic(self):
        a = sample_simplex_rows(10, 4, seed=3)
        b = sample_simplex_rows(10, 4, seed=3)
        assert np.array_equal(a.gamma, b.gamma)


class TestMultistart:
    def test_single_restart_matches_direct_call(self, small_problem):
        stats, _ = small_problem
        report = multistart_fit(stats, "em", restarts=1, config=EmConfig(k=2),
                                seed=77)
        init = sample_simplex_rows(stats.n, 2, restart_seed_sequence(77, 0))
        direct = em_fit(stats, init, EmConfig(k=2))
        assert report.best.objective == direct.objective
        assert np.array_equal(report.best.labels, direct.labels)
        assert report.best.posterior is None

        vreport = multistart_fit(stats, "vem", restarts=1,
                                 config=VemConfig(k_max=3), seed=78)
        vinit = sample_simplex_rows(stats.n, 3, restart_seed_sequence(78, 0))
        vdirect = vem_fit(stats, vinit, VemConfig(k_max=3))
        assert vreport.best.objective == vdirect.objective
        assert np.allclose(vreport.best.posterior.n_hat, vdirect.posterior.n_hat)

    def test_same_master_seed_bit_identical(self, small_problem):
        stats, labels = small_problem
        a = multistart_fit(stats, "vem", restarts=6, config=VemConfig(k_max=4),
                           seed=5, true_labels=labels)
        b = multistart_fit(stats, "vem", restarts=6, config=VemConfig(k_max=4),
                           seed=5, true_labels=labels)
        assert np.array_equal(a.all_objectives, b.all_objectives)
        assert np.array_equal(a.all_accuracies, b.all_accuracies)
        assert a.seeds == b.seeds
        assert a.best_index == b.best_index
        assert np.array_equal(a.best.responsibilities.gamma,
                              b.best.responsibilities.gamma)

    def test_prefix_property(self, small_problem):
        stats, _ = small_problem
        few = multistart_fit(stats, "vem", restarts=3, config=VemConfig(k_max=4),
                             seed=11)
        many = multistart_fit(stats, "vem", restarts=9, config=VemConfig(k_max=4),
                              seed=11)
        # nested seed sets: the first runs coincide, so the best can only improve
        assert np.array_equal(few.all_objectives, many.all_objectives[:3])
        assert many.best.objective >= few.best.objective

    def test_best_is_max_objective(self, small_problem):
        stats, labels = small_problem
        report = multistart_fit(stats, "vem", restarts=10,
                                config=VemConfig(k_max=4), seed=13,
                                true_labels=labels)
        objectives = report.all_objectives
        top = np.nanmax(objectives)
        tied = np.flatnonzero(objectives >= top - TIE_RTOL * max(1.0, abs(top)))
        assert report.best_index == tied[0]
        assert report.best.objective == objectives[report.best_index]
        assert len(report.all_objectives) == 10
        assert report.all_accuracies.shape == (10,)

    def test_tie_goes_to_lowest_index(self):
        # restarts 0 and 7 reach the same optimum about 1e-11 apart; the rounding
        # winner is restart 7, the tie rule keeps restart 0
        params = random_mixture_params(3, 3, seed=2)
        data, _ = sample_mixture(params, 40, 20, seed=102)
        report = multistart_fit(sufficient_stats(data), "vem", restarts=10,
                                config=VemConfig(k_max=4), seed=2)
        objectives = report.all_objectives
        assert 0 < np.nanmax(objectives) - objectives[0] < 1e-10
        assert report.best_index == 0
        assert report.best.objective == objectives[0]

    def test_tied_indices_are_the_restarts_within_tie_rtol(self):
        params = random_mixture_params(3, 3, seed=2)
        data, _ = sample_mixture(params, 40, 20, seed=102)
        report = multistart_fit(sufficient_stats(data), "vem", restarts=10,
                                config=VemConfig(k_max=4), seed=2)
        objectives = report.all_objectives
        best = np.nanmax(objectives)
        tied = np.flatnonzero(objectives >= best - TIE_RTOL * max(1.0, abs(best)))
        assert report.tied_indices == tuple(tied.tolist())
        assert {0, 7} <= set(report.tied_indices) and len(report.tied_indices) < 10
        assert report.tied_indices[0] == report.best_index

    def test_seeded_fits_pinned(self, small_problem):
        # values of the separate EM and VEM loops that coordinate_ascent
        # replaced: EM within the summation-order change of the design-block
        # matrix products, VEM within the scipy digamma tolerance
        stats, _ = small_problem
        fit = em_fit(stats, sample_simplex_rows(stats.n, 2, seed=7), EmConfig(k=2))
        assert fit.converged and fit.iterations == 26
        assert fit.objective_trace.tolist() == pytest.approx([
            -395.22116503496613, -392.617812238889, -388.9794717441032,
            -385.0263076699562, -383.2369288541869, -382.4395375290621,
            -381.8423108900974, -381.43483762271705, -381.13226084023864,
            -380.80398444373617, -380.44802822645727, -380.2114888425704,
            -380.1262417284298, -380.1043180986922, -380.0992659417756,
            -380.09813408073904, -380.0978821329351, -380.09782613042245,
            -380.0978136862135, -380.09781092120335, -380.0978103068483,
            -380.09781017034584, -380.09781014001663, -380.0978101332778,
            -380.09781013178053, -380.0978101314479,
        ], rel=1e-14)
        vfit = vem_fit(stats, sample_simplex_rows(stats.n, 4, seed=8),
                       VemConfig(k_max=4))
        assert vfit.objective == pytest.approx(-411.1272485863159, rel=1e-12)
        assert vfit.surviving_components == 3

    def test_per_restart_convergence_recorded(self, small_problem):
        stats, _ = small_problem
        config = EmConfig(k=2, max_iters=6)
        report = multistart_fit(stats, "em", restarts=4, config=config, seed=79)
        for r in range(4):
            init = sample_simplex_rows(stats.n, 2, restart_seed_sequence(79, r))
            fit = em_fit(stats, init, config)
            trace = fit.objective_trace
            assert report.all_converged[r] == fit.converged
            assert report.all_final_deltas[r] == abs(trace[-1] - trace[-2])
        single = multistart_fit(stats, "em", restarts=2,
                                config=EmConfig(k=2, max_iters=1), seed=79)
        assert not single.all_converged.any()
        assert np.isnan(single.all_final_deltas).all()

    def test_wall_times_recorded(self, small_problem, monkeypatch):
        from chainmix import multistart
        stats, _ = small_problem
        calls = []

        def fail_restart_1(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise NumericalError("injected failure")
            return em_fit(*args, **kwargs)

        monkeypatch.setattr(multistart, "em_fit", fail_restart_1)
        report = multistart_fit(stats, "em", restarts=3, config=EmConfig(k=2), seed=80)
        assert report.failures == ((1, "injected failure"),)
        assert np.isnan(report.all_wall_s[1])
        assert np.all(report.all_wall_s[[0, 2]] > 0)

    def test_unknown_algorithm_rejected(self, small_problem):
        stats, _ = small_problem
        from chainmix import ValidationError
        with pytest.raises(ValidationError):
            multistart_fit(stats, "gibbs", restarts=2, config=EmConfig(k=2), seed=1)
        with pytest.raises(ValidationError):
            multistart_fit(stats, "em", restarts=2, config=VemConfig(k_max=2), seed=1)

    @pytest.mark.parametrize("labels, text", [
        (np.zeros(24, dtype=np.int64), r"one label per trajectory \(25\), not 24"),
        (np.zeros((25, 1), dtype=np.int64), "nonempty 1-D integer array"),
        (np.r_[-1, np.zeros(24, dtype=np.int64)], "nonnegative integers"),
        (np.full(25, 0.9), "nonnegative integers"),
    ], ids=["wrong-length", "two-dimensional", "negative", "fractional"])
    def test_true_labels_checked_before_first_restart(self, small_problem, monkeypatch,
                                                      labels, text):
        import chainmix.multistart as multistart
        from chainmix import ValidationError

        stats, _ = small_problem
        calls = count_calls(monkeypatch, multistart, "vem_fit")
        with pytest.raises(ValidationError, match=text):
            multistart_fit(stats, "vem", restarts=2, config=VemConfig(k_max=2), seed=1,
                           true_labels=labels)
        assert calls == {"vem_fit": 0}

    @pytest.mark.parametrize("algorithm, config", [("em", EmConfig(k=10, max_iters=3)),
                                                   ("vem", VemConfig(k_max=10, max_iters=3))])
    def test_traced_peak_does_not_grow_with_restarts(self, algorithm, config):
        # each fit holds a (k, N) E-step buffer; only those that can still
        # tie with the best are kept, so 40 restarts hold about as much as 2
        import tracemalloc

        params = random_mixture_params(4, 5, seed=0)
        stats = sufficient_stats(sample_mixture(params, 4000, 5, seed=1)[0])
        peaks = []
        for restarts in (2, 40):
            tracemalloc.start()
            try:
                multistart_fit(stats, algorithm, restarts, config, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_all_failures_aggregate_error(self):
        # inf counts poison every restart; the error lists per-restart failures
        from chainmix.model_core import SufficientStats, Responsibilities
        U, V = np.array([[1.0, 0.0]]), np.array([[[np.inf, 0.0], [0.0, 0.0]]])
        stats = SufficientStats.__new__(SufficientStats)
        object.__setattr__(stats, "U", U)
        object.__setattr__(stats, "V", V)
        object.__setattr__(stats, "X", np.hstack([U, V.reshape(1, 4)]))
        with pytest.raises(NumericalError, match="all 3 restarts failed"):
            multistart_fit(stats, "em", restarts=3, config=EmConfig(k=1), seed=15)


def test_hard_instance_objective_accuracy_association():
    # many restarts on one deliberately hard instance: runs reaching higher
    # final objectives should classify at least as well on average
    params = random_mixture_params(10, 7, seed=401)
    data, labels = sample_mixture(params, 100, 50, seed=402)
    stats = sufficient_stats(data)
    report = multistart_fit(stats, "vem", restarts=60,
                            config=VemConfig(k_max=15), seed=403,
                            true_labels=labels)
    objectives = report.all_objectives
    accs = report.all_accuracies
    assert np.nanmax(objectives) > np.nanmin(objectives)
    order = np.argsort(objectives)
    bottom = accs[order[:15]]
    top = accs[order[-15:]]
    assert np.nanmean(top) >= np.nanmean(bottom)
