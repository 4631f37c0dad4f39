"""Evaluation utilities: permutation-matched accuracy and confusion matrices.

Mixture component labels are identifiable only up to permutation, so raw
label agreement is meaningless.  Accuracy is therefore maximized over
bijective relabelings of the estimated components via an assignment-problem
solve, padding with empty classes when the label spaces differ in size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError


def _as_labels(x, name):
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValidationError(f"{name} must be a nonempty 1-D integer array")
    if arr.min() < 0:
        raise ValidationError(f"{name} must be nonnegative integers")
    return arr


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """counts[i, j] = number of trajectories with true label i and matched estimate j."""

    counts: np.ndarray
    row_labels: tuple
    col_labels: tuple

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accuracy(true_labels, est_labels):
    """Fraction of matching labels, maximized over relabelings of the estimate.

    Returns (value, permutation) where permutation[e] gives the true-label
    index assigned to estimated label e.  Both label spaces are padded to a
    common size so the matching is a bijection.
    """
    true = _as_labels(true_labels, "true_labels")
    est = _as_labels(est_labels, "est_labels")
    if true.size != est.size:
        raise ValidationError("label arrays must have equal length")
    size = int(max(true.max(), est.max())) + 1
    contingency = np.zeros((size, size), dtype=np.int64)
    np.add.at(contingency, (true, est), 1)
    rows, cols = linear_sum_assignment(-contingency)
    permutation = np.empty(size, dtype=np.int64)
    permutation[cols] = rows
    value = contingency[rows, cols].sum() / true.size
    return float(value), permutation


def confusion(true_labels, est_labels, permutation) -> ConfusionMatrix:
    """Tabulate true labels against permuted estimated labels.

    `permutation` maps estimated labels into the true-label space, as
    returned by accuracy().
    """
    true = _as_labels(true_labels, "true_labels")
    est = _as_labels(est_labels, "est_labels")
    if true.size != est.size:
        raise ValidationError("label arrays must have equal length")
    perm = np.asarray(permutation, dtype=np.int64)
    if perm.ndim != 1 or perm.size <= est.max():
        raise ValidationError("permutation does not cover the estimated label range")
    if np.unique(perm).size != perm.size or perm.min() < 0:
        raise ValidationError("permutation must be a bijection on label indices")
    mapped = perm[est]
    size = int(max(true.max(), mapped.max())) + 1
    counts = np.zeros((size, size), dtype=np.int64)
    np.add.at(counts, (true, mapped), 1)
    labels = tuple(range(size))
    return ConfusionMatrix(counts=counts, row_labels=labels, col_labels=labels)
