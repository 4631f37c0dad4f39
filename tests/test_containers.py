"""Frozen dataclasses that hold arrays compare by identity and hash; the
scalar-only settings keep value equality."""

import copy

import numpy as np
import pytest

from chainmix import (
    EmConfig,
    GaussianKernel,
    MisaParams,
    PointSet,
    Responsibilities,
    VemConfig,
    confusion,
    kl_report,
    misa_mixture_experiment,
    misa_simulate,
    multistart_fit,
    random_mixture_params,
    sample_mixture,
    spectral_fit,
    sufficient_stats,
)


@pytest.fixture(scope="module")
def containers():
    params = random_mixture_params(2, 3, seed=1)
    data, labels = sample_mixture(params, 12, 6, seed=2)
    stats = sufficient_stats(data)
    report = multistart_fit(stats, "vem", restarts=2, config=VemConfig(k_max=3), seed=3)
    misa = misa_mixture_experiment(0.01, 1.0, n_per_group=3, t_len=4, seed=15,
                                   restarts=2, burn_in=5.0)
    points = np.random.default_rng(4).normal(size=(10, 2))
    return {
        "TrajectoryDataset": data,
        "MixtureParams": params,
        "SufficientStats": stats,
        "Responsibilities": Responsibilities(np.full((2, 2), 0.5)),
        "FitResult": report.best,
        "DirichletPosterior": report.best.posterior,
        "MultistartReport": report,
        "ConfusionMatrix": confusion(labels, labels, [0, 1]),
        "PointSet": PointSet(points),
        "SpectralModel": spectral_fit(points, GaussianKernel(1.0), s=2, seed=5),
        "MisaTrajectory": misa_simulate(MisaParams(f_r=0.1), t_end=3.0, seed=6, burn_in=1.0),
        "MisaMixtureResult": misa,
        "KlReport": kl_report(params, 5),
    }


@pytest.mark.parametrize("name", [
    "TrajectoryDataset", "MixtureParams", "SufficientStats", "Responsibilities",
    "FitResult", "DirichletPosterior", "MultistartReport", "ConfusionMatrix",
    "PointSet", "SpectralModel", "MisaTrajectory", "MisaMixtureResult", "KlReport",
])
def test_array_containers_compare_by_identity(containers, name):
    a = containers[name]
    assert type(a).__name__ == name
    assert a == a
    assert a != copy.copy(a)
    hash(a)


def test_scalar_settings_keep_value_equality():
    assert EmConfig(k=2) == EmConfig(k=2) and EmConfig(k=2) != EmConfig(k=3)
    assert VemConfig(k_max=4) == VemConfig(k_max=4)
    assert MisaParams(f_r=0.1) == MisaParams(f_r=0.1)
    assert GaussianKernel(2.0) == GaussianKernel(2.0)
