"""State definition from continuous data: k-means and kernel spectral clustering.

Spectral clustering embeds the data through the dominant eigenvectors of
the symmetrically normalized kernel matrix and runs k-means in that
embedding; a linear solve against the kernel matrix extends the embedding
to unseen points, so fitted models can discretize fresh trajectories into
Markov states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError, ValidationError
from .model_core import TrajectoryDataset, as_rng

# Ridge scale for the embedding-coefficient solve; the kernel matrix is
# often numerically singular and this perturbs it negligibly.
_RIDGE_SCALE = 1e-10
# Assignment embeds points in row blocks whose kernel block against the
# training points holds at most this many entries (1 MB of float64): memory
# stays bounded for long inputs, and the block's temporaries stay in cache.
_ASSIGN_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class PointSet:
    """M points in D-dimensional real space, stored as an (M, D) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValidationError("points must form a nonempty (M, D) array")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _as_points(points) -> np.ndarray:
    if isinstance(points, PointSet):
        return points.points
    return PointSet(np.asarray(points)).points


@dataclass(frozen=True)
class GaussianKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)); the built-in similarity kernel."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValidationError("sigma must be positive")

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        sq = (
            (a * a).sum(axis=1)[:, None]
            + (b * b).sum(axis=1)[None, :]
            - 2.0 * a @ b.T
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * self.sigma**2))

    def to_spec(self) -> dict:
        return {"name": "gaussian", "sigma": self.sigma}


def kernel_from_spec(spec: dict):
    if spec.get("name") == "gaussian":
        return GaussianKernel(sigma=float(spec["sigma"]))
    raise ValidationError(f"unknown kernel spec {spec!r}")


def _squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=2)


def _kmeanspp_init(x: np.ndarray, s: int, rng) -> np.ndarray:
    """Distance-weighted seeding: each new center is drawn with probability
    proportional to the squared distance from the nearest chosen center."""
    m = x.shape[0]
    centers = np.empty((s, x.shape[1]))
    centers[0] = x[rng.integers(m)]
    d2 = _squared_distances(x, centers[:1]).ravel()
    for c in range(1, s):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=d2 / total))
        centers[c] = x[idx]
        d2 = np.minimum(d2, _squared_distances(x, centers[c:c + 1]).ravel())
    return centers


def kmeans(points, s: int, seed=None, max_iters: int = 300,
           init_centers=None):
    """Lloyd iterations from distance-weighted seeding.

    Returns (centers, assignments).  Iterates until the assignment reaches a
    fixed point or `max_iters`.  A center that loses all its points is
    reseeded at the point currently farthest from its assigned center.
    """
    x = _as_points(points)
    m = x.shape[0]
    if s < 1 or s > m:
        raise ValidationError("cluster count must satisfy 1 <= s <= M")
    rng = as_rng(seed)
    if init_centers is not None:
        centers = np.asarray(init_centers, dtype=np.float64).copy()
        if centers.shape != (s, x.shape[1]):
            raise ValidationError("init_centers must have shape (s, D)")
    else:
        centers = _kmeanspp_init(x, s, rng)

    labels = np.argmin(_squared_distances(x, centers), axis=1)
    for _ in range(max_iters):
        d2 = _squared_distances(x, centers)
        nearest = d2[np.arange(m), labels].copy()
        for c in range(s):
            members = labels == c
            if members.any():
                centers[c] = x[members].mean(axis=0)
            else:
                far = int(np.argmax(nearest))
                centers[c] = x[far]
                nearest[far] = 0.0
        new_labels = np.argmin(_squared_distances(x, centers), axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels.astype(np.int64)


def kmeans_objective(points, centers, assignments) -> float:
    """Sum of squared distances from each point to its assigned center."""
    x = _as_points(points)
    diff = x - np.asarray(centers)[np.asarray(assignments)]
    return float((diff * diff).sum())


@dataclass(frozen=True)
class SpectralModel:
    """Fitted spectral embedding and cluster centers.

    The embedding of a point x is f(x) = alpha @ k(x_train, x); training
    points embed (up to the ridge tolerance) onto the rescaled eigenvector
    rows used to fit the k-means centers.
    """

    kernel: GaussianKernel
    points: np.ndarray
    alpha: np.ndarray
    centers: np.ndarray
    embedding: np.ndarray
    assignments: np.ndarray

    @property
    def s(self) -> int:
        return self.centers.shape[0]

    @property
    def r(self) -> int:
        return self.centers.shape[1]

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_spec(),
            "alpha": self.alpha.tolist(),
            "centers": self.centers.tolist(),
            "training_points": self.points.tolist(),
            "r": self.r,
            "s": self.s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpectralModel":
        kernel = kernel_from_spec(payload["kernel"])
        points = np.asarray(payload["training_points"], dtype=np.float64)
        alpha = np.asarray(payload["alpha"], dtype=np.float64)
        centers = np.asarray(payload["centers"], dtype=np.float64)
        embedding = (alpha @ kernel(points, points)).T
        model = cls(
            kernel=kernel,
            points=points,
            alpha=alpha,
            centers=centers,
            embedding=embedding,
            assignments=np.zeros(points.shape[0], dtype=np.int64),
        )
        object.__setattr__(model, "assignments", spectral_assign(model, points))
        return model


def _canonical_signs(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip eigenvector signs so the first above-tolerance entry is positive."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        nz = np.flatnonzero(np.abs(out[:, col]) > tol)
        if nz.size and out[nz[0], col] < 0:
            out[:, col] = -out[:, col]
    return out


def spectral_fit(points, kernel, s: int, r: int = None, seed=None) -> SpectralModel:
    """Fit a spectral clustering model.

    Builds the kernel matrix K and its row-sum diagonal D, takes the top-r
    eigenvectors of D^(-1/2) K D^(-1/2), rescales them by D^(-1/2), solves
    (K + eps I) alpha^T = V for the out-of-sample embedding, and clusters the
    embedded training rows with k-means.  `r` defaults to `s`.
    """
    x = _as_points(points)
    m = x.shape[0]
    if s < 1 or s > m:
        raise ValidationError("cluster count must satisfy 1 <= s <= M")
    r = s if r is None else r
    if r < 1 or r > m:
        raise ValidationError("embedding dimension must satisfy 1 <= r <= M")

    K = kernel(x, x)
    K = 0.5 * (K + K.T)
    row_sums = K.sum(axis=1)
    if np.any(row_sums <= 0):
        bad = int(np.flatnonzero(row_sums <= 0)[0])
        raise ValidationError(
            f"point {bad} is isolated under the kernel (zero row sum)"
        )
    inv_sqrt = 1.0 / np.sqrt(row_sums)
    sym = inv_sqrt[:, None] * K * inv_sqrt[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        _, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    top = vecs[:, ::-1][:, :r]
    top = _canonical_signs(top)
    embedding = inv_sqrt[:, None] * top

    # Ridge-regularized solve plus two refinement sweeps against the
    # unregularized system; the sweeps reuse one factorization and push the
    # training-embedding residual toward solver precision.
    ridge = _RIDGE_SCALE * np.trace(K) / m
    regularized = K + ridge * np.eye(m)
    try:
        factor = cho_factor(regularized)
        solve = lambda rhs: cho_solve(factor, rhs)
    except np.linalg.LinAlgError:
        solve = lambda rhs: np.linalg.solve(regularized, rhs)
    alpha_t = solve(embedding)
    for _ in range(2):
        alpha_t = alpha_t + solve(embedding - K @ alpha_t)
    alpha = alpha_t.T

    # Seeding over canonically sorted rows keeps the fitted centers
    # independent of the input point order.
    order = np.lexsort(embedding.T[::-1])
    centers, _ = kmeans(embedding[order], s, seed=seed)
    assignments = np.argmin(_squared_distances(embedding, centers), axis=1)

    return SpectralModel(
        kernel=kernel,
        points=x.copy(),
        alpha=alpha,
        centers=centers,
        embedding=embedding,
        assignments=assignments.astype(np.int64),
    )


def _check_dimension(model: SpectralModel, x: np.ndarray):
    if x.shape[1] != model.points.shape[1]:
        raise ValidationError(
            f"point dimension {x.shape[1]} does not match training dimension "
            f"{model.points.shape[1]}"
        )


def spectral_embed(model: SpectralModel, points) -> np.ndarray:
    """Embed points with the fitted out-of-sample extension."""
    x = _as_points(points)
    _check_dimension(model, x)
    return (model.alpha @ model.kernel(model.points, x)).T


def spectral_assign(model: SpectralModel, points) -> np.ndarray:
    """Assign points to the nearest fitted center in embedding space.

    Ties resolve to the lowest cluster index.
    """
    emb = spectral_embed(model, points)
    return np.argmin(_squared_distances(emb, model.centers), axis=1).astype(np.int64)


def discretize_trajectories(model: SpectralModel, trajectories) -> TrajectoryDataset:
    """Map continuous trajectories (uniformly sampled in time) to state sequences.

    The points of all trajectories are assigned together, in row blocks
    whose kernel block against the training points has at most
    `_ASSIGN_BLOCK_ENTRIES` entries.
    """
    parts = [np.asarray(traj, dtype=np.float64) for traj in trajectories]
    for part in parts:
        if part.ndim != 2:
            raise ValidationError("each trajectory must be a (T+1, D) array")
        _check_dimension(model, part)
    sizes = np.array([part.shape[0] for part in parts], dtype=np.int64)
    states = np.empty(sizes.sum(), dtype=np.int64)
    if parts:
        stacked = np.concatenate(parts)
        rows = max(1, _ASSIGN_BLOCK_ENTRIES // model.points.shape[0])
        for start in range(0, stacked.shape[0], rows):
            states[start:start + rows] = spectral_assign(model, stacked[start:start + rows])
    return TrajectoryDataset.from_flat(states, sizes, model.s)
