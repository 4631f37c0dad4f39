"""chainmix: mixtures of finite-state Markov chains.

Fits collections of discrete trajectories with EM or variational EM
(automatically determining the number of chains), defines states from
continuous data via k-means or kernel spectral clustering, evaluates the
information-theoretic misclassification lower bound, and simulates the
MISA gene circuit as a benchmark data source.
"""

from .clustering import (
    GaussianKernel,
    PointSet,
    SpectralModel,
    discretize_trajectories,
    kmeans,
    spectral_assign,
    spectral_embed,
    spectral_fit,
)
from .em import EmConfig, em_fit
from .errors import NumericalError, ValidationError
from .gene_circuit import (
    MisaMixtureResult,
    MisaParams,
    MisaState,
    MisaTrajectory,
    misa_mixture_experiment,
    misa_simulate,
)
from .metrics import ConfusionMatrix, accuracy, confusion
from .model_core import (
    FitResult,
    MixtureParams,
    Responsibilities,
    SufficientStats,
    TrajectoryDataset,
    random_mixture_params,
    sample_mixture,
    sufficient_stats,
)
from .multistart import MultistartReport, multistart_fit, sample_simplex_rows
from .theory import KlReport, bayes_classify, kl_rate, kl_report, kl_trajectory, misclassification_bound
from .vem import DirichletPosterior, VemConfig, vem_fit

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix",
    "DirichletPosterior",
    "EmConfig",
    "FitResult",
    "GaussianKernel",
    "KlReport",
    "MisaMixtureResult",
    "MisaParams",
    "MisaState",
    "MisaTrajectory",
    "MixtureParams",
    "MultistartReport",
    "NumericalError",
    "PointSet",
    "Responsibilities",
    "SpectralModel",
    "SufficientStats",
    "TrajectoryDataset",
    "ValidationError",
    "VemConfig",
    "accuracy",
    "bayes_classify",
    "confusion",
    "discretize_trajectories",
    "em_fit",
    "kl_rate",
    "kl_report",
    "kl_trajectory",
    "kmeans",
    "misa_mixture_experiment",
    "misa_simulate",
    "multistart_fit",
    "random_mixture_params",
    "sample_mixture",
    "sample_simplex_rows",
    "spectral_assign",
    "spectral_embed",
    "spectral_fit",
    "sufficient_stats",
    "misclassification_bound",
    "vem_fit",
]
