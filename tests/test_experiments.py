import pytest

from chainmix import experiments
from chainmix.errors import NumericalError, ValidationError


# The fig8 stage timings: result columns that two runs of a sweep do not
# share, so they stay out of every comparison between runs.
TIMING_COLUMNS = ("simulate_s", "cluster_s", "discretize_s", "fit_s", "score_s")

# Each sweep at a small size with three cells: its keyword arguments, the
# name in `experiments` whose call a cell's seed reaches, that seed's offset
# from the row seed, and the result columns of a row.
SWEEPS = {
    "fig2": (dict(instances=3, n_traj=20, t_len=8, restarts=2, seed=3),
             "multistart_fit", 2, ("surviving_components", "accuracy", "final_objective")),
    "fig3": (dict(t_values=(5,), n_values=(20,), trials=3, restarts=2, seed=4),
             "multistart_fit", 2, ("accuracy", "final_objective", "surviving_components")),
    "fig8": (dict(fr2_values=(0.25,), t_values=(5,), reps=3, n_per_group=4,
                  restarts=2, seed=6),
             "misa_mixture_experiment", 0,
             ("accuracy", "surviving_components", *TIMING_COLUMNS)),
}


def untimed(row):
    return {key: value for key, value in row.items() if key not in TIMING_COLUMNS}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_failing_cell_leaves_the_rest_of_the_sweep(monkeypatch, name):
    kwargs, target, offset, result_columns = SWEEPS[name]
    recipe = experiments.RECIPES[name]
    rows, failures = recipe(**kwargs)
    assert len(rows) == 3 and failures == []
    assert all(row["status"] == "ok" for row in rows)

    bad = rows[1]
    real = getattr(experiments, target)

    def failing(*args, **kw):
        if kw["seed"] == bad["seed"] + offset:
            raise NumericalError("injected failure")
        return real(*args, **kw)

    monkeypatch.setattr(experiments, target, failing)
    patched, failures = recipe(**kwargs)
    keys = {key: value for key, value in bad.items()
            if key not in (*result_columns, "status")}
    assert patched[1] == {**keys, **dict.fromkeys(result_columns, ""), "status": "failed"}
    assert list(patched[1]) == list(bad)
    assert untimed(patched[0]) == untimed(rows[0])
    assert untimed(patched[2]) == untimed(rows[2])
    assert failures == [{**keys, "error": "injected failure"}]


def test_fig8_rows_hold_stage_timings():
    kwargs = SWEEPS["fig8"][0]
    rows, _ = experiments.run_fig8(**{**kwargs, "reps": 1})
    (row,) = rows
    assert list(row)[-len(TIMING_COLUMNS) - 1:-1] == list(TIMING_COLUMNS)
    assert all(isinstance(row[col], float) and row[col] >= 0.0 for col in TIMING_COLUMNS)


@pytest.mark.parametrize("name, key", [("fig2", "instances"), ("fig3", "trials"),
                                       ("fig8", "reps")])
def test_fractional_loop_count_fails_before_the_sweep(monkeypatch, name, key):
    def sweep(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(experiments, "_sweep", sweep)
    with pytest.raises(ValidationError, match=f"^{key} must be an integer, not 2.5$"):
        experiments.RECIPES[name](**{key: 2.5})


def test_float_restarts_fail_each_cell():
    rows, failures = experiments.run_fig2(instances=2, restarts=1.0, n_traj=5, t_len=3)
    assert [(c["instance"], c["error"]) for c in failures] == [
        (0, "restarts must be an integer, not 1.0"),
        (1, "restarts must be an integer, not 1.0")]
    assert [row["status"] for row in rows] == ["failed", "failed"]


@pytest.mark.parametrize("name, grid", [("fig3", "t_values"), ("fig3", "n_values"),
                                        ("fig8", "t_values"), ("fig8", "fr2_values")])
def test_empty_grid_gives_no_rows(name, grid):
    assert experiments.RECIPES[name](**{grid: ()}) == ([], [])
