"""Evaluation utilities: permutation-matched accuracy and confusion matrices.

Mixture component labels are identifiable only up to permutation, so raw
label agreement is meaningless.  Accuracy is therefore maximized over
bijective relabelings of the estimated components via an assignment-problem
solve, padding with empty classes when the label spaces differ in size.

The assignment is solved in pure Python by Crouse's shortest augmenting path
(Crouse 2016, IEEE TAES 52:1679), the algorithm behind
`scipy.optimize.linear_sum_assignment`, so no process pays for importing
`scipy.optimize`.  It scans the columns in scipy's order: the list of
remaining columns starts in reverse, a tied minimum is replaced by any later
tied column that is still free, and a chosen column is removed by swapping
in the last one.  It therefore returns scipy's permutation, ties included.
The counts are integers, so the dual arithmetic is exact.  A padded size n
costs O(n³) in the worst case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    row4col = _max_weight_matching(contingency.tolist())
    permutation = np.array(row4col, dtype=np.int64)
    value = contingency[permutation, np.arange(size)].sum() / true.size
    return float(value), permutation


def _max_weight_matching(weight):
    """Row matched to each column by a maximum-weight perfect matching of the
    square integer matrix `weight` (a list of rows).

    Minimizes the cost -weight one row at a time: each row is joined by the
    shortest augmenting path over the reduced costs, and the duals u, v are
    updated from the path lengths.
    """
    n = len(weight)
    u = [0] * n
    v = [0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        visited_rows, scanned_cols = [], []
        remaining = list(range(n - 1, -1, -1))
        min_val = 0
        i = cur
        sink = -1
        while sink < 0:
            visited_rows.append(i)
            row, offset = weight[i], min_val - u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                dist = shortest[j]
                reduced = offset - row[j] - v[j]
                if reduced < dist:
                    path[j] = i
                    shortest[j] = dist = reduced
                if dist < lowest or (dist == lowest and row4col[j] < 0):
                    lowest, index = dist, it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            scanned_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()

        u[cur] += min_val
        for i in visited_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in scanned_cols:
            v[j] -= min_val - shortest[j]

        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return row4col


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
