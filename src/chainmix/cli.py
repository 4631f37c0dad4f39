"""Command-line interface wiring the simulation / clustering / fitting pipeline.

All outputs are plot-ready CSV/JSON; no figures are rendered.  Every
subcommand that draws random numbers takes --seed for end-to-end
reproducibility, each takes only the flags it acts on, and a JSON config
file is one more way to type flags: its values are parsed and checked like
typed ones, and flags typed on the command line win.  The exit
code is 0 only if every requested run succeeded; failures produce a
machine-readable JSON summary on stderr.  A successful `fit` prints one JSON
line on stderr too: restarts, converged, failed and tied restart counts, and
the command's wall time in seconds.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import dataio, experiments
from .clustering import GaussianKernel, PointSet, discretize_trajectories, kmeans, spectral_fit
from .em import EmConfig
from .errors import NumericalError, ValidationError
from .gene_circuit import MisaParams, misa_simulate
from .metrics import accuracy, confusion
from .model_core import random_mixture_params, sample_mixture, sufficient_stats
from .multistart import multistart_fit
from .theory import kl_report
from .vem import VemConfig


# The MISA rates that the rate flags (typed or from --config) may override;
# f_r has its own required flag.
_MISA_RATES = tuple(rate.name for rate in fields(MisaParams) if rate.name != "f_r")


# The flags that several subcommands share, by dest.  Each subcommand takes
# --out and only those of the others that its handler reads.
_SHARED = {
    "seed": dict(type=int, default=0, help="master RNG seed"),
    "tol_scale": dict(type=float, default=1e-12,
                      help="convergence tolerance scale (times N * mean T)"),
    "format": dict(choices=("csv", "json"), default="csv",
                   help="format for result tables"),
    "one_based": dict(action="store_true",
                      help="read/write states and labels 1-based"),
    "out": dict(type=Path, default=Path("."), help="output directory"),
}


def _add_shared(parser, *names):
    for name in (*names, "out"):
        parser.add_argument(f"--{name.replace('_', '-')}", **_SHARED[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainmix",
        description="Fit mixtures of finite-state Markov chains and run the "
                    "supporting simulation, clustering, and bound pipeline.",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="sample trajectories from a mixture model")
    p_sim.add_argument("--model", type=Path, help="mixture parameter JSON file")
    p_sim.add_argument("--random-k", type=int,
                       help="draw a random model with this many components")
    p_sim.add_argument("--random-s", type=int,
                       help="state count for the random model")
    p_sim.add_argument("--n-traj", type=int, required=True, help="number of trajectories")
    p_sim.add_argument("--t-len", type=int, required=True, help="transitions per trajectory")
    _add_shared(p_sim, "seed", "one_based")

    p_fit = sub.add_parser("fit", help="fit a chain mixture with EM or variational EM")
    p_fit.add_argument("--input", type=Path, required=True, help="trajectory file")
    p_fit.add_argument("--labels", type=Path, help="optional true-label sidecar file")
    p_fit.add_argument("--algorithm", choices=("em", "vem"), default="vem")
    p_fit.add_argument("--k-max", type=int, default=10,
                       help="component budget (EM uses it as the fixed k)")
    p_fit.add_argument("--restarts", type=int, default=100,
                       help="independent random initializations")
    p_fit.add_argument("--max-iters", type=int, default=1000)
    _add_shared(p_fit, "seed", "tol_scale", "one_based")

    p_clu = sub.add_parser("cluster", help="cluster points / discretize trajectories")
    p_clu.add_argument("--points", type=Path, help="CSV of point vectors")
    p_clu.add_argument("--traj-files", type=Path, nargs="+",
                       help="CSVs of continuous trajectories (one point per line)")
    p_clu.add_argument("--method", choices=("kmeans", "spectral"), default="spectral")
    p_clu.add_argument("--s", type=int, required=True, help="number of clusters/states")
    p_clu.add_argument("--sigma", type=float, default=1.0,
                       help="Gaussian kernel bandwidth (spectral)")
    _add_shared(p_clu, "seed", "one_based")

    p_bound = sub.add_parser("bound", help="misclassification lower bound for a model")
    p_bound.add_argument("--model", type=Path, required=True)
    p_bound.add_argument("--t-len", type=int, required=True,
                         help="trajectory horizon for the divergences")
    _add_shared(p_bound)

    p_misa = sub.add_parser("misa", help="simulate the MISA gene circuit (SSA)")
    p_misa.add_argument("--f-r", type=float, required=True,
                        help="repressor unbinding rate")
    p_misa.add_argument("--t-end", type=float, required=True)
    p_misa.add_argument("--sample-interval", type=float, default=1.0)
    p_misa.add_argument("--burn-in", type=float, default=100.0)
    p_misa.add_argument("--n-traj", type=int, default=1)
    for rate in _MISA_RATES:
        p_misa.add_argument(f"--{rate.replace('_', '-')}", type=float, default=None,
                            help=f"override the {rate} rate")
    _add_shared(p_misa, "seed")

    p_exp = sub.add_parser("experiment", help="run a named experiment recipe")
    p_exp.add_argument("--name", choices=tuple(experiments.RECIPES), required=True)
    p_exp.add_argument("--spec", type=Path,
                       help="JSON object of the recipe's keyword overrides")
    p_exp.add_argument("--trials", type=int, help="trials per cell (fig3)")
    p_exp.add_argument("--instances", type=int, help="instance count (fig2)")
    p_exp.add_argument("--restarts", type=int, help="restarts per fit")
    p_exp.add_argument("--reps", type=int, help="repetitions per cell (fig8)")
    p_exp.add_argument("--k-max", type=int, help="component budget")
    p_exp.add_argument("--t-values", type=int, nargs="+", help="T grid (fig3/fig8)")
    p_exp.add_argument("--n-values", type=int, nargs="+", help="N grid (fig3)")
    p_exp.add_argument("--fr2-values", type=float, nargs="+",
                       help="second-population unbinding rates (fig8)")
    _add_shared(p_exp, "seed", "format")

    return parser


def _cmd_simulate(args) -> int:
    if args.model is not None:
        params = dataio.read_params(args.model)
    elif args.random_k and args.random_s:
        params = random_mixture_params(args.random_k, args.random_s, seed=args.seed)
    else:
        raise ValidationError("provide --model or both --random-k and --random-s")
    data, labels = sample_mixture(params, args.n_traj, args.t_len, seed=args.seed + 1)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_trajectories(out / "trajectories.txt", data, one_based=args.one_based)
    dataio.write_labels(out / "labels.txt", labels, one_based=args.one_based)
    dataio.write_params(out / "model.json", params)
    print(f"wrote {data.n} trajectories ({args.t_len} transitions each) to {out}")
    return 0


def _cmd_fit(args) -> int:
    start = time.perf_counter()
    data = dataio.read_trajectories(args.input, one_based=args.one_based)
    stats = sufficient_stats(data)
    true_labels = None
    if args.labels is not None:
        true_labels = dataio.read_labels(args.labels, one_based=args.one_based)
        if true_labels.size != data.n:
            raise ValidationError("label count does not match trajectory count")
    if args.algorithm == "em":
        config = EmConfig(k=args.k_max, max_iters=args.max_iters,
                          tol_scale=args.tol_scale)
    else:
        config = VemConfig(k_max=args.k_max, max_iters=args.max_iters,
                           tol_scale=args.tol_scale)
    report = multistart_fit(stats, args.algorithm, args.restarts, config,
                            seed=args.seed, true_labels=true_labels)
    best = report.best
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "algorithm": args.algorithm,
        "k_max": args.k_max,
        "restarts": args.restarts,
        "best_restart": report.best_index,
        "tied_restarts": list(report.tied_indices),
        "converged": best.converged,
        "iterations": best.iterations,
        "final_objective": best.objective,
        "surviving_components": best.surviving_components,
        "labels": best.labels.tolist(),
    }
    if true_labels is not None:
        acc, perm = accuracy(true_labels, best.labels)
        summary["accuracy"] = acc
        dataio.write_confusion_csv(out / "confusion.csv",
                                   confusion(true_labels, best.labels, perm))
    dataio.write_json(out / "fit.json", summary, indent=2)
    dataio.write_params(out / "params.json", best.params)
    dataio.write_restart_csv(out / "restarts.csv", report)
    if best.posterior is not None:
        dataio.write_posterior(out / "posterior.json", best)
    print(f"best of {args.restarts} restarts: objective {best.objective:.6f}, "
          f"{best.surviving_components} surviving components")
    print(json.dumps({
        "restarts": args.restarts,
        "converged": int(report.all_converged.sum()),
        "failed": len(report.failures),
        "tied": len(report.tied_indices),
        "wall_s": time.perf_counter() - start,
    }), file=sys.stderr)
    return 0


def _cmd_cluster(args) -> int:
    if args.points is None and not args.traj_files:
        raise ValidationError("provide --points or --traj-files")
    if args.points is not None and args.traj_files:
        raise ValidationError("--points and --traj-files exclude each other")
    if args.traj_files and args.method != "spectral":
        raise ValidationError("trajectory discretization requires --method spectral")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    if args.points is not None:
        points = dataio.read_points_csv(args.points)
        continuous = None
    else:
        continuous = [dataio.read_points_csv(p) for p in args.traj_files]
        points = np.vstack(continuous)

    if args.method == "kmeans":
        centers, assignments = kmeans(PointSet(points), args.s, seed=args.seed)
        dataio.write_points_csv(out / "centers.csv", centers)
        model = None
    else:
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=args.sigma),
                             s=args.s, seed=args.seed)
        assignments = model.assignments
        dataio.write_spectral_model(out / "spectral_model.json", model)
    dataio.write_assignments_csv(out / "assignments.csv", assignments)

    if continuous is not None:
        dataset = discretize_trajectories(model, continuous)
        dataio.write_trajectories(out / "trajectories.txt", dataset,
                                  one_based=args.one_based)
        print(f"discretized {dataset.n} trajectories into {dataset.s} states")
    else:
        print(f"clustered {points.shape[0]} points into {args.s} clusters")
    return 0


def _cmd_bound(args) -> int:
    params = dataio.read_params(args.model)
    report = kl_report(params, args.t_len)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_kl_report(out / "kl_report.json", report)
    with np.printoptions(precision=6, suppress=True):
        print(f"pairwise KL divergence at horizon {args.t_len}:")
        print(report.pairwise)
        print("per-step KL rates:")
        print(report.rates)
    print(f"misclassification lower bound: {report.bound:.6g}")
    return 0


def _cmd_misa(args) -> int:
    overrides = {rate: getattr(args, rate) for rate in _MISA_RATES
                 if getattr(args, rate) is not None}
    params = MisaParams(f_r=args.f_r, **overrides)
    if args.n_traj < 1:
        raise ValidationError("--n-traj must be >= 1")
    out = args.out
    master = np.random.SeedSequence(args.seed)
    children = master.spawn(args.n_traj)
    for i in range(args.n_traj):
        traj = misa_simulate(params, t_end=args.t_end,
                             sample_interval=args.sample_interval,
                             seed=children[i], burn_in=args.burn_in)
        # made only once misa_simulate has accepted the time arguments
        out.mkdir(parents=True, exist_ok=True)
        dataio.write_misa_csv(out / f"traj_{i:03d}.csv", traj)
    print(f"wrote {args.n_traj} circuit trajectories to {out}")
    return 0


def _experiment_kwargs(args):
    overrides = {}
    if args.spec is not None:
        overrides = dataio.read_json_object(args.spec, "spec file")
    flag_map = {
        "trials": args.trials,
        "instances": args.instances,
        "restarts": args.restarts,
        "reps": args.reps,
        "k_max": args.k_max,
        "t_values": tuple(args.t_values) if args.t_values else None,
        "n_values": tuple(args.n_values) if args.n_values else None,
        "fr2_values": tuple(args.fr2_values) if args.fr2_values else None,
    }
    for key, value in flag_map.items():
        if value is not None:
            overrides[key] = value
    overrides.setdefault("seed", args.seed)
    return overrides


def _cmd_experiment(args) -> int:
    name = args.name
    overrides = _experiment_kwargs(args)
    recipe = experiments.RECIPES[name]
    unknown = set(overrides) - set(inspect.signature(recipe).parameters)
    if unknown:
        raise ValidationError(f"unsupported overrides for {name}: {sorted(unknown)}")
    rows, failures = recipe(**overrides)
    if not rows:
        raise ValidationError(f"{name}: the sweep has no cells, so no table is written")

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    fmt = args.format
    header = list(rows[0].keys())
    dataio.write_table(out / f"{name}_results.{fmt}", header,
                       [[row[h] for h in header] for row in rows], fmt=fmt)
    if name == "fig3":
        summary = experiments.summarize_fig3(rows)
        s_header = list(summary[0].keys())
        dataio.write_table(out / f"{name}_summary.{fmt}", s_header,
                           [[row[h] for h in s_header] for row in summary],
                           fmt=fmt)
    print(f"{name}: wrote {len(rows)} result rows to {out}")
    if failures:
        print(json.dumps({"failed_cells": failures}), file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "cluster": _cmd_cluster,
    "bound": _cmd_bound,
    "misa": _cmd_misa,
    "experiment": _cmd_experiment,
}


def _with_config(parser, argv) -> list:
    """`argv` with the values of a --config file typed in as flags.

    Each key that is an option of the invoked subcommand becomes flag tokens
    right after the subcommand name, so argparse checks them as it checks
    typed flags, and a flag typed later wins.  A scalar becomes
    `--flag=value`, a list `--flag v1 v2 ...`; `true` on a switch becomes the
    bare switch, and `false` on a switch or `null` gives no token.  A key
    may belong to any subcommand; a key that names no option of any
    subcommand raises ValidationError.
    """
    probe = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    probe.add_argument("--config", type=Path, default=None)
    probe.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return argv
    config = dataio.read_json_object(known.config, "config file")
    subs = parser._subparsers._group_actions[0].choices
    options = {action.dest for sub in subs.values() for action in sub._actions} - {"help"}
    unknown = sorted(set(config) - options)
    if unknown:
        raise ValidationError(
            f"config file {known.config} has keys that name no option: {unknown}"
        )
    if not known.rest or known.rest[0] not in subs:
        return argv  # the parser reports the missing or unknown subcommand
    actions = {action.dest: action for action in subs[known.rest[0]]._actions}
    tokens = []
    for key, value in config.items():
        action = actions.get(key)
        if action is None or value is None:
            continue
        flag = action.option_strings[0]
        if action.nargs == 0 and isinstance(value, bool):  # a switch
            if value:
                tokens.append(flag)
        elif isinstance(value, list):
            tokens += [flag, *map(str, value)]
        else:
            tokens.append(f"{flag}={value}")
    cut = len(argv) - len(known.rest) + 1
    return [*argv[:cut], *tokens, *argv[cut:]]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return _HANDLERS[args.command](args)
    except (ValidationError, NumericalError, OSError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
              file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
