import argparse
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from chainmix import cli, dataio, experiments
from chainmix.cli import main
from chainmix.multistart import TIE_RTOL

from helpers import two_arm_spiral


def run_cli(*argv):
    return main([str(a) for a in argv])


def run_child(*argv):
    """Run this Python on `argv` in a fresh process that imports the same
    chainmix as this one, installed or not."""
    import os
    import subprocess
    import sys

    import chainmix
    src = str(Path(chainmix.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_script_entry_point(tmp_path):
    proc = run_child("-m", "chainmix.cli", "simulate", "--random-k", "2",
                     "--random-s", "2", "--n-traj", "3", "--t-len", "2",
                     "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "trajectories.txt").exists()


def test_cli_import_leaves_out_scipy_optimize():
    # accuracy solves its assignment in chainmix.metrics, so no command pays
    # for importing scipy.optimize
    proc = run_child("-c", "import sys, chainmix.cli; "
                           "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSimulate:
    def test_random_spec_round_trip(self, tmp_path):
        rc = run_cli("simulate", "--random-k", 4, "--random-s", 3,
                     "--n-traj", 12, "--t-len", 6, "--seed", 3,
                     "--out", tmp_path)
        assert rc == 0
        data = dataio.read_trajectories(tmp_path / "trajectories.txt")
        labels = dataio.read_labels(tmp_path / "labels.txt")
        params = dataio.read_params(tmp_path / "model.json")  # validates
        assert data.n == 12
        assert labels.size == 12
        assert params.k == 4 and params.s == 3
        assert np.all(data.lengths == 6)

    def test_fixed_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            rc = run_cli("simulate", "--random-k", 2, "--random-s", 2,
                         "--n-traj", 5, "--t-len", 4, "--seed", 9,
                         "--out", tmp_path / sub)
            assert rc == 0
        for name in ("trajectories.txt", "labels.txt", "model.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_trivial_single_state(self, tmp_path):
        rc = run_cli("simulate", "--random-k", 1, "--random-s", 1,
                     "--n-traj", 2, "--t-len", 2, "--out", tmp_path)
        assert rc == 0
        data = dataio.read_trajectories(tmp_path / "trajectories.txt")
        assert all(np.array_equal(t, [0, 0, 0]) for t in data.trajectories)

    def test_missing_model_spec_fails(self, tmp_path, capsys):
        rc = run_cli("simulate", "--n-traj", 2, "--t-len", 2, "--out", tmp_path)
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"


class TestFit:
    @pytest.fixture()
    def simulated(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "--random-k", 2, "--random-s", 2,
                "--n-traj", 40, "--t-len", 30, "--seed", 21, "--out", out)
        return out

    def test_vem_fit_outputs(self, simulated, tmp_path):
        out = tmp_path / "fit"
        rc = run_cli("fit", "--input", simulated / "trajectories.txt",
                     "--labels", simulated / "labels.txt",
                     "--algorithm", "vem", "--k-max", 5, "--restarts", 4,
                     "--seed", 22, "--out", out)
        assert rc == 0
        summary = json.loads((out / "fit.json").read_text())
        assert summary["algorithm"] == "vem"
        assert len(summary["labels"]) == 40
        assert "accuracy" in summary
        dataio.read_params(out / "params.json")
        _, gamma, trace = dataio.read_posterior(out / "posterior.json")
        assert trace.size == summary["iterations"]
        assert gamma.gamma.argmax(axis=1).tolist() == summary["labels"]
        with open(out / "restarts.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert list(rows[0]) == ["restart", "seed", "final_objective", "iterations",
                                 "accuracy", "converged", "final_abs_delta", "wall_s"]
        assert all(r["final_objective"] for r in rows)
        assert all(r["converged"] in ("0", "1") and float(r["final_abs_delta"]) >= 0
                   for r in rows)
        assert all(float(r["wall_s"]) > 0 for r in rows)
        assert (out / "confusion.csv").exists()

    def test_fit_json_lists_tied_restarts(self, simulated, tmp_path):
        out = tmp_path / "fit"
        rc = run_cli("fit", "--input", simulated / "trajectories.txt",
                     "--algorithm", "vem", "--k-max", 5, "--restarts", 4,
                     "--seed", 22, "--out", out)
        assert rc == 0
        summary = json.loads((out / "fit.json").read_text())
        with open(out / "restarts.csv") as fh:
            objectives = [float(r["final_objective"]) for r in csv.DictReader(fh)]
        best = max(objectives)
        tied = [r for r, value in enumerate(objectives)
                if value >= best - TIE_RTOL * max(1.0, abs(best))]
        assert summary["tied_restarts"] == tied
        assert summary["best_restart"] == tied[0]

    def test_summary_line_on_stderr(self, simulated, tmp_path, capsys):
        out = tmp_path / "fit"
        rc = run_cli("fit", "--input", simulated / "trajectories.txt",
                     "--algorithm", "em", "--k-max", 2, "--restarts", 3,
                     "--seed", 22, "--out", out)
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert sorted(summary) == ["converged", "failed", "restarts", "tied", "wall_s"]
        fit = json.loads((out / "fit.json").read_text())
        with open(out / "restarts.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert summary["restarts"] == 3 and summary["failed"] == 0
        assert summary["converged"] == sum(r["converged"] == "1" for r in rows)
        assert summary["tied"] == len(fit["tied_restarts"]) >= 1
        assert summary["wall_s"] >= sum(float(r["wall_s"]) for r in rows) > 0

    def test_malformed_header_is_an_error_exit(self, tmp_path, capsys):
        path = tmp_path / "trajectories.txt"
        path.write_text("# s=abc\n0 1\n1 0\n")
        rc = run_cli("fit", "--input", path, "--k-max", 2, "--restarts", 1,
                     "--out", tmp_path / "fit")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"

    def test_config_input_satisfies_required_flag(self, simulated, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(simulated / "trajectories.txt"),
                                      "one_based": False}))
        rc = run_cli("--config", config, "fit", "--algorithm", "em", "--k-max", 2,
                     "--restarts", 1, "--out", tmp_path / "fit")
        assert rc == 0
        assert (tmp_path / "fit" / "fit.json").exists()

    def test_threads_flag_is_gone(self, simulated, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--input", simulated / "trajectories.txt",
                    "--threads", 2, "--out", tmp_path / "fit")
        assert exc.value.code == 2

    def test_em_fit_deterministic(self, simulated, tmp_path):
        outs = []
        for sub in ("f1", "f2"):
            out = tmp_path / sub
            rc = run_cli("fit", "--input", simulated / "trajectories.txt",
                         "--algorithm", "em", "--k-max", 2, "--restarts", 2,
                         "--seed", 5, "--out", out)
            assert rc == 0
            outs.append(json.loads((out / "fit.json").read_text()))
        assert outs[0] == outs[1]

    def test_em_and_vem_agree_for_single_component_long_chain(self, tmp_path):
        # the +1 prior smoothing separates the two estimators by O(1/T)
        sim = tmp_path / "sim"
        run_cli("simulate", "--random-k", 1, "--random-s", 3,
                "--n-traj", 1, "--t-len", 10000, "--seed", 31, "--out", sim)
        em_out, vem_out = tmp_path / "em", tmp_path / "vem"
        run_cli("fit", "--input", sim / "trajectories.txt", "--algorithm", "em",
                "--k-max", 1, "--restarts", 1, "--seed", 32, "--out", em_out)
        run_cli("fit", "--input", sim / "trajectories.txt", "--algorithm", "vem",
                "--k-max", 1, "--restarts", 1, "--seed", 32, "--out", vem_out)
        p_em = dataio.read_params(em_out / "params.json")
        p_vem = dataio.read_params(vem_out / "params.json")
        gap = np.max(np.abs(p_em.P - p_vem.P))
        assert gap < 1e-2
        # closed-form count-ratio comparison on the same counts
        from chainmix import sufficient_stats
        data = dataio.read_trajectories(sim / "trajectories.txt")
        V = sufficient_stats(data).V.sum(axis=0)
        mle = V / V.sum(axis=1, keepdims=True)
        smoothed = (V + 1.0) / (V + 1.0).sum(axis=1, keepdims=True)
        assert np.allclose(p_em.P[0], mle, atol=1e-9)
        assert np.allclose(p_vem.P[0], smoothed, atol=1e-9)

    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        rc = run_cli("fit", "--input", tmp_path / "nope.txt", "--out", tmp_path)
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] in ("FileNotFoundError", "OSError")


class TestCluster:
    def test_spectral_spiral_vs_kmeans(self, tmp_path):
        points, arms = two_arm_spiral(m=100, seed=41)
        dataio.write_points_csv(tmp_path / "points.csv", points)

        out_s = tmp_path / "spectral"
        rc = run_cli("cluster", "--points", tmp_path / "points.csv",
                     "--method", "spectral", "--s", 2, "--sigma", 1.0,
                     "--seed", 42, "--out", out_s)
        assert rc == 0
        with open(out_s / "assignments.csv") as fh:
            spec_assign = np.array([int(r["cluster"]) for r in csv.DictReader(fh)])
        from chainmix import accuracy
        spec_acc, _ = accuracy(arms, spec_assign)
        assert spec_acc >= 0.95
        assert (out_s / "spectral_model.json").exists()

        out_k = tmp_path / "kmeans"
        rc = run_cli("cluster", "--points", tmp_path / "points.csv",
                     "--method", "kmeans", "--s", 2, "--seed", 42,
                     "--out", out_k)
        assert rc == 0
        with open(out_k / "assignments.csv") as fh:
            km_assign = np.array([int(r["cluster"]) for r in csv.DictReader(fh)])
        km_acc, _ = accuracy(arms, km_assign)
        assert km_acc <= 0.8

    def test_single_cluster(self, tmp_path):
        points = np.random.default_rng(43).standard_normal((10, 2))
        dataio.write_points_csv(tmp_path / "points.csv", points)
        rc = run_cli("cluster", "--points", tmp_path / "points.csv",
                     "--method", "kmeans", "--s", 1, "--out", tmp_path)
        assert rc == 0
        with open(tmp_path / "assignments.csv") as fh:
            assign = [int(r["cluster"]) for r in csv.DictReader(fh)]
        assert set(assign) == {0}

    def test_discretize_trajectories(self, tmp_path):
        rng = np.random.default_rng(44)
        t1 = rng.standard_normal((6, 2)) * 0.4
        t2 = rng.standard_normal((5, 2)) * 0.4 + np.array([8.0, 0.0])
        dataio.write_points_csv(tmp_path / "t1.csv", t1)
        dataio.write_points_csv(tmp_path / "t2.csv", t2)
        rc = run_cli("cluster", "--traj-files", tmp_path / "t1.csv",
                     tmp_path / "t2.csv", "--method", "spectral", "--s", 2,
                     "--sigma", 1.0, "--out", tmp_path)
        assert rc == 0
        ds = dataio.read_trajectories(tmp_path / "trajectories.txt")
        assert ds.n == 2
        assert list(ds.lengths) == [5, 4]

    @pytest.mark.parametrize("inputs, text", [
        (["--traj-files", "t1.csv", "--method", "kmeans"], "requires --method spectral"),
        ([], "provide --points or --traj-files"),
        (["--points", "t1.csv", "--traj-files", "t1.csv"], "exclude each other"),
    ], ids=["traj-files-with-kmeans", "no-input", "points-with-traj-files"])
    def test_unusable_inputs_fail_before_output(self, tmp_path, monkeypatch, capsys,
                                                inputs, text):
        monkeypatch.chdir(tmp_path)
        dataio.write_points_csv("t1.csv", np.zeros((3, 2)))
        rc = run_cli("cluster", *inputs, "--s", 2, "--out", tmp_path / "clust")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert text in err["error"]["message"]
        assert not (tmp_path / "clust").exists()


class TestBound:
    @pytest.mark.parametrize("command", ["bound", "simulate"])
    @pytest.mark.parametrize("content, text", [
        ('{"k": 1,', "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"k": 1, "s": 1, "mu": [1.0], "nu": [[1.0]], "P": "x"}',
         "field 'P' must be an array of numbers"),
    ])
    def test_unusable_model_file_fails(self, tmp_path, capsys, command, content, text):
        model = tmp_path / "model.json"
        model.write_text(content)
        extra = ("--n-traj", 2) if command == "simulate" else ()
        rc = run_cli(command, "--model", model, "--t-len", 3, *extra,
                     "--out", tmp_path / "out")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert f"model file {model}" in err["error"]["message"]
        assert text in err["error"]["message"]

    def test_duplicate_component_bound(self, tmp_path, capsys):
        from chainmix import MixtureParams
        params = MixtureParams(mu=[0.5, 0.5], nu=[[0.4, 0.6]] * 2,
                               P=[[[0.7, 0.3], [0.2, 0.8]]] * 2)
        dataio.write_params(tmp_path / "model.json", params)
        rc = run_cli("bound", "--model", tmp_path / "model.json",
                     "--t-len", 6, "--out", tmp_path)
        assert rc == 0
        payload = json.loads((tmp_path / "kl_report.json").read_text())
        assert payload["bound"] == pytest.approx(0.25, abs=1e-12)
        assert payload["pairwise"][0][0] == 0.0
        assert payload["pairwise"][1][1] == 0.0
        assert "0.25" in capsys.readouterr().out

    def test_bound_decreases_with_horizon_for_separated_chains(self, tmp_path):
        from helpers import strictly_positive_params
        params = strictly_positive_params(2, 3, seed=45)
        dataio.write_params(tmp_path / "model.json", params)
        bounds = []
        for t in (1, 5, 20):
            out = tmp_path / f"t{t}"
            rc = run_cli("bound", "--model", tmp_path / "model.json",
                         "--t-len", t, "--out", out)
            assert rc == 0
            bounds.append(json.loads((out / "kl_report.json").read_text())["bound"])
        assert bounds[0] >= bounds[1] >= bounds[2]


class TestMisa:
    def test_rate_flags_override(self, tmp_path):
        # disable binding so the count settles near g00/d = 4
        rc = run_cli("misa", "--f-r", 1e-9, "--h-a", 1e-9, "--h-r", 1e-9,
                     "--f-a", 1e-9, "--g00", 4.0, "--t-end", 400,
                     "--burn-in", 20, "--seed", 45, "--out", tmp_path)
        assert rc == 0
        with open(tmp_path / "traj_000.csv") as fh:
            rows = list(csv.DictReader(fh))
        mean_a = np.mean([int(r["a"]) for r in rows])
        assert 2.0 <= mean_a <= 6.0
        assert all(r["gene_a"] == "00" for r in rows)

    def test_params_json_flag_is_gone(self, tmp_path):
        params = tmp_path / "rates.json"
        params.write_text('{"g00": 4.0}')
        with pytest.raises(SystemExit) as exc:
            run_cli("misa", "--f-r", 0.1, "--t-end", 5, "--params-json", params,
                    "--out", tmp_path / "misa")
        assert exc.value.code == 2

    def test_rate_config_matches_rate_flags(self, tmp_path):
        rates = {"f_r": 1e-9, "h_a": 1e-9, "h_r": 1e-9, "f_a": 1e-9, "g00": 4.0}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(rates))
        common = ("--t-end", 20, "--burn-in", 5, "--seed", 45)
        assert run_cli("--config", config, "misa", *common,
                       "--out", tmp_path / "cfg") == 0
        flags = [a for key, value in rates.items()
                 for a in (f"--{key.replace('_', '-')}", value)]
        assert run_cli("misa", *flags, *common, "--out", tmp_path / "flags") == 0
        assert (tmp_path / "cfg" / "traj_000.csv").read_bytes() == \
            (tmp_path / "flags" / "traj_000.csv").read_bytes()

    def test_unknown_rate_config_key_fails(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"foo": 1, "g00": 4.0}')
        rc = run_cli("--config", config, "misa", "--f-r", 0.1, "--t-end", 5,
                     "--out", tmp_path / "misa")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert "name no option: ['foo']" in err["error"]["message"]
        assert not (tmp_path / "misa").exists()

    def test_non_numeric_rate_config_fails(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"g00": "fast"}')
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", config, "misa", "--f-r", 0.1, "--t-end", 5,
                    "--out", tmp_path / "misa")
        assert exc.value.code == 2
        assert "argument --g00: invalid float value: 'fast'" in capsys.readouterr().err
        assert not (tmp_path / "misa").exists()

    def test_trajectory_csv(self, tmp_path):
        rc = run_cli("misa", "--f-r", 0.1, "--t-end", 5, "--n-traj", 2,
                     "--burn-in", 5, "--seed", 46, "--out", tmp_path)
        assert rc == 0
        with open(tmp_path / "traj_000.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert set(rows[0]) == {"t", "a", "b", "gene_a", "gene_b"}
        assert rows[0]["gene_a"] in {"00", "01", "10", "11"}
        assert (tmp_path / "traj_001.csv").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--t-end", "inf", "t_end must be finite and positive"),
        ("--sample-interval", "inf", "sample_interval must be finite and positive"),
        ("--burn-in", "nan", "burn_in must be finite and nonnegative"),
        ("--burn-in", "-10", "burn_in must be finite and nonnegative"),
        ("--f-r", "inf", "rate f_r must be finite and positive"),
    ])
    def test_unusable_time_or_rate_fails(self, tmp_path, capsys, flag, value, message):
        args = {"--f-r": "0.1", "--t-end": "5", flag: value}
        rc = run_cli("misa", *(a for item in args.items() for a in item),
                     "--out", tmp_path / "misa")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ValidationError", "message": message}
        assert not (tmp_path / "misa").exists()

    def test_overflowing_sample_count_fails(self, tmp_path, capsys):
        rc = run_cli("misa", "--f-r", 0.1, "--t-end", 1e300, "--sample-interval", 1e-10,
                     "--out", tmp_path / "misa")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ValidationError",
                                "message": "t_end / sample_interval must be finite"}
        assert not (tmp_path / "misa").exists()

    @pytest.mark.parametrize("n_traj", [0, -1])
    def test_n_traj_must_be_positive(self, tmp_path, capsys, n_traj):
        rc = run_cli("misa", "--f-r", 0.1, "--t-end", 5, "--n-traj", n_traj,
                     "--out", tmp_path / "misa")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "ValidationError",
                                "message": "--n-traj must be >= 1"}
        assert not (tmp_path / "misa").exists()


class TestExperiment:
    def test_fig2_smoke(self, tmp_path):
        rc = run_cli("experiment", "--name", "fig2", "--instances", 2,
                     "--restarts", 5, "--seed", 47, "--out", tmp_path)
        assert rc == 0
        with open(tmp_path / "fig2_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {"instance", "surviving_components", "accuracy"} <= set(rows[0])

    def test_fig3_smoke_with_summary_json(self, tmp_path):
        rc = run_cli("experiment", "--name", "fig3", "--trials", 1,
                     "--restarts", 2, "--t-values", 5, 10,
                     "--n-values", 20, "--seed", 48, "--format", "json",
                     "--out", tmp_path)
        assert rc == 0
        rows = json.loads((tmp_path / "fig3_results.json").read_text())
        assert len(rows) == 2
        summary = json.loads((tmp_path / "fig3_summary.json").read_text())
        assert {(r["n"], r["t"]) for r in summary} == {(20, 5), (20, 10)}

    def test_fig4_smoke(self, tmp_path):
        rc = run_cli("experiment", "--name", "fig4", "--restarts", 3,
                     "--seed", 49, "--out", tmp_path)
        assert rc == 0
        with open(tmp_path / "fig4_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert {"restart", "seed", "final_objective", "accuracy"} <= set(rows[0])

    def test_fig8_smoke(self, tmp_path):
        rc = run_cli("experiment", "--name", "fig8", "--fr2-values", 1.0,
                     "--t-values", 5, "--reps", 1, "--restarts", 2,
                     "--spec", self._fig8_spec(tmp_path), "--seed", 52,
                     "--out", tmp_path)
        assert rc == 0
        with open(tmp_path / "fig8_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        assert {"f_r_2", "ratio", "t", "accuracy"} <= set(rows[0])

    @staticmethod
    def _fig8_spec(tmp_path):
        spec = tmp_path / "fig8_spec.json"
        spec.write_text(json.dumps({"n_per_group": 4}))
        return spec

    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 50, "out": str(tmp_path / "cfg")}))
        rc = run_cli("--config", config, "experiment", "--name", "fig2",
                     "--instances", 1, "--restarts", 2)
        assert rc == 0
        assert (tmp_path / "cfg" / "fig2_results.csv").exists()

    @pytest.mark.parametrize("content, named", [({"sed": 50}, "'sed'"),
                                                ([1, 2], "JSON object")])
    def test_unusable_config_fails(self, tmp_path, capsys, content, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        rc = run_cli("--config", config, "experiment", "--name", "fig2",
                     "--instances", 1, "--restarts", 2, "--out", tmp_path / "cfg")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert named in err["error"]["message"]
        assert not (tmp_path / "cfg").exists()

    def test_malformed_config_json_fails(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"seed": 1,')
        rc = run_cli("--config", config, "experiment", "--name", "fig2",
                     "--instances", 1, "--restarts", 2, "--out", tmp_path / "cfg")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert str(config) in err["error"]["message"]
        assert "not valid JSON" in err["error"]["message"]
        assert not (tmp_path / "cfg").exists()

    def test_spec_not_an_object_fails(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]")
        rc = run_cli("experiment", "--name", "fig2", "--spec", spec,
                     "--out", tmp_path / "exp")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert str(spec) in err["error"]["message"]
        assert "JSON object" in err["error"]["message"]

    def test_config_key_of_another_subcommand_allowed(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"f_r": 0.1, "k_max": 3}))
        rc = run_cli("--config", config, "simulate", "--random-k", 2,
                     "--random-s", 2, "--n-traj", 3, "--t-len", 2,
                     "--out", tmp_path)
        assert rc == 0

    def test_threads_spec_key_unsupported(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"instances": 1, "threads": 2}))
        rc = run_cli("experiment", "--name", "fig2", "--spec", spec,
                     "--out", tmp_path)
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["message"] == "unsupported overrides for fig2: ['threads']"

    def test_custom_name_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "--name", "custom", "--out", tmp_path / "exp")
        assert exc.value.code == 2
        assert not (tmp_path / "exp").exists()

    def test_spec_name_key_unsupported(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "fig3", "instances": 1}))
        rc = run_cli("experiment", "--name", "fig2", "--spec", spec,
                     "--out", tmp_path / "exp")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["message"] == "unsupported overrides for fig2: ['name']"
        assert not (tmp_path / "exp").exists()

    def test_custom_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"instances": 1, "restarts": 2, "k_true": 2,
                                    "s": 2, "n_traj": 20, "t_len": 10}))
        rc = run_cli("experiment", "--name", "fig2", "--spec", spec,
                     "--seed", 51, "--out", tmp_path)
        assert rc == 0
        assert (tmp_path / "fig2_results.csv").exists()

    @pytest.mark.parametrize("name, flags, spec", [
        ("fig2", ["--instances", 0], None),
        ("fig3", ["--trials", 0], None),
        ("fig8", ["--reps", 0], None),
        ("fig3", [], {"t_values": []}),
    ], ids=["instances-0", "trials-0", "reps-0", "empty-spec-grid"])
    def test_sweep_without_cells_fails(self, tmp_path, capsys, name, flags, spec):
        if spec is not None:
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            flags = [*flags, "--spec", tmp_path / "spec.json"]
        rc = run_cli("experiment", "--name", name, *flags, "--out", tmp_path / "exp")
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ValidationError"
        assert err["error"]["message"].startswith(f"{name}: the sweep has no cells")
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("content, text", [
        ({"format": "xml"}, "argument --format: invalid choice: 'xml'"),
        ({"seed": 1.5}, "argument --seed: invalid int value: '1.5'"),
        ({"instances": "two"}, "argument --instances: invalid int value: 'two'"),
    ], ids=["format", "seed", "instances"])
    def test_config_value_checked_like_a_flag(self, tmp_path, capsys, content, text):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", config, "experiment", "--name", "fig2",
                    "--instances", 1, "--restarts", 2, "--out", tmp_path / "cfg")
        assert exc.value.code == 2
        assert text in capsys.readouterr().err
        assert not (tmp_path / "cfg").exists()


def _subparser(command):
    return cli.build_parser()._subparsers._group_actions[0].choices[command]


class _Recording(argparse.Namespace):
    """A namespace that notes the name of every public attribute read from it
    in the set given as `_reads`."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def _smoke_invocations(tmp_path):
    """Invocations from the tests above, per subcommand, that together take
    every branch in which its handler reads a flag."""
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--random-k", 2, "--random-s", 2, "--n-traj", 6,
                   "--t-len", 5, "--seed", 21, "--out", sim) == 0
    dataio.write_points_csv(tmp_path / "points.csv",
                            np.random.default_rng(43).standard_normal((10, 2)))
    return {
        "simulate": [["--random-k", 2, "--random-s", 2, "--n-traj", 5, "--t-len", 4,
                      "--seed", 9],
                     ["--model", sim / "model.json", "--n-traj", 2, "--t-len", 2]],
        "fit": [["--input", sim / "trajectories.txt", "--labels", sim / "labels.txt",
                 "--algorithm", "vem", "--k-max", 5, "--restarts", 4, "--seed", 22]],
        "cluster": [["--points", tmp_path / "points.csv", "--method", "kmeans",
                     "--s", 1],
                    ["--traj-files", tmp_path / "points.csv", tmp_path / "points.csv",
                     "--method", "spectral", "--s", 2, "--sigma", 1.0]],
        "bound": [["--model", sim / "model.json", "--t-len", 6]],
        "misa": [["--f-r", 0.1, "--t-end", 5, "--n-traj", 2, "--burn-in", 5,
                  "--seed", 46]],
        "experiment": [["--name", "fig3", "--trials", 1, "--restarts", 2,
                        "--t-values", 5, 10, "--n-values", 20, "--seed", 48,
                        "--format", "json"]],
    }


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_every_flag_is_read(tmp_path, command):
    """A flag that a subcommand accepts but its handler never reads fails here."""
    parser = cli.build_parser()
    reads = set()
    for i, argv in enumerate(_smoke_invocations(tmp_path)[command]):
        argv = [command, *map(str, argv), "--out", str(tmp_path / f"{command}{i}")]
        args = parser.parse_args(argv, namespace=_Recording(_reads=set()))
        args._reads.clear()  # drop what the parser itself looked up
        assert cli._HANDLERS[command](args) == 0
        reads |= args._reads
    dests = {action.dest for action in _subparser(command)._actions} - {"help"}
    assert sorted(dests - reads) == []


# The required flags of each subcommand, with placeholder values.
_REQUIRED = {"simulate": ["--n-traj", "2", "--t-len", "2"], "fit": ["--input", "t.txt"],
             "cluster": ["--s", "2"], "bound": ["--model", "m.json", "--t-len", "3"],
             "misa": ["--f-r", "0.1", "--t-end", "5"], "experiment": ["--name", "fig2"]}


@pytest.mark.parametrize("command, flag", [
    ("simulate", ["--format", "json"]), ("simulate", ["--tol-scale", "1e-9"]),
    ("fit", ["--format", "json"]), ("cluster", ["--tol-scale", "1e-9"]),
    ("bound", ["--seed", "1"]), ("bound", ["--one-based"]),
    ("misa", ["--one-based"]), ("experiment", ["--tol-scale", "1e-9"]),
])
def test_flag_a_subcommand_does_not_read_is_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, *_REQUIRED[command], *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_preset_names_come_from_the_recipe_table():
    name = next(action for action in _subparser("experiment")._actions
                if action.dest == "name")
    assert tuple(name.choices) == tuple(experiments.RECIPES)


@pytest.fixture()
def received(monkeypatch):
    """Every handler replaced by one that keeps the namespace it is given."""
    seen = []
    for command in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, command, lambda args: seen.append(args) or 0)
    return seen


def _as_config(argv):
    """The flags of `argv` as a --config object: a flag with no value is
    `true`, one value a scalar, several a list; paths become strings."""
    config = {}
    for token in argv:
        if isinstance(token, str) and token.startswith("--"):
            values = config[token[2:].replace("-", "_")] = []
        else:
            values.append(str(token) if isinstance(token, Path) else token)
    return {key: True if not values else values[0] if len(values) == 1 else values
            for key, values in config.items()}


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_config_matches_flags(tmp_path, received, command):
    """Every flag of the smoke invocations, moved into a --config file, gives
    the handler the namespace that typing it gives."""
    for i, argv in enumerate(_smoke_invocations(tmp_path)[command]):
        argv = [*argv, "--out", tmp_path / f"{command}{i}"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_as_config(argv)))
        received.clear()
        assert run_cli(command, *argv) == 0
        assert run_cli("--config", config, command) == 0
        typed, from_config = received
        assert vars(typed) == {**vars(from_config), "config": None}


def test_explicit_flag_beats_config(tmp_path, received):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "t_values": [5, 10], "one_based": False}))
    assert run_cli("--config", config, "experiment", "--name", "fig3",
                   "--seed", 2, "--t-values", 30) == 0
    assert run_cli("--config", config, "simulate", "--n-traj", 2, "--t-len", 2,
                   "--one-based") == 0
    experiment, simulate = received
    assert experiment.seed == 2 and experiment.t_values == [30]
    assert simulate.seed == 1 and simulate.one_based is True


def test_config_switch_takes_only_true_or_false(tmp_path, received, capsys):
    config = tmp_path / "config.json"
    for value, one_based in ((True, True), (False, False), (None, False)):
        config.write_text(json.dumps({"one_based": value}))
        assert run_cli("--config", config, "simulate",
                       "--n-traj", 2, "--t-len", 2) == 0
        assert received.pop().one_based is one_based
    config.write_text(json.dumps({"one_based": "yes"}))
    with pytest.raises(SystemExit) as exc:
        run_cli("--config", config, "simulate", "--n-traj", 2, "--t-len", 2)
    assert exc.value.code == 2
    assert "argument --one-based: ignored explicit argument 'yes'" in capsys.readouterr().err


def test_spec_seed_beats_seed_default(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 7, "instances": 1}))
    args = cli.build_parser().parse_args(
        ["experiment", "--name", "fig2", "--spec", str(spec), "--instances", "3"])
    assert cli._experiment_kwargs(args) == {"seed": 7, "instances": 3}
