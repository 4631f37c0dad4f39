"""State definition from continuous data: k-means and kernel spectral clustering.

Spectral clustering embeds the data through the dominant eigenvectors of
the symmetrically normalized kernel matrix and runs k-means in that
embedding; the Nystrom extension of those eigenvectors (Bengio et al.,
NIPS 2003; Fowlkes et al., IEEE TPAMI 26(2), 2004) embeds every point,
training points and unseen ones alike, so a fitted model labels fresh
trajectories into Markov states as it labels its training points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model_core import TrajectoryDataset, as_rng, check_int, check_real

# The Nystrom extension embeds points in row blocks whose kernel block against
# the training points holds at most this many entries (1 MB of float64): memory
# stays bounded for long inputs, and the block's temporaries stay in cache.
_ASSIGN_BLOCK_ENTRIES = 1 << 17

# k-means stops after this many Lloyd steps if the assignment is not yet fixed.
_LLOYD_MAX_ITERS = 300


@dataclass(frozen=True, eq=False)
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
        check_real(self.sigma, "sigma", True)
        # 2 sigma^2 divides in __call__; a float product overflows to inf where ** raises
        if not 0 < 2.0 * float(self.sigma) * float(self.sigma) < np.inf:
            raise ValidationError(f"sigma must be positive, with 0 < 2 sigma^2 < inf, not {self.sigma!r}")

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        # exp(-max(|a|^2 + |b|^2 - 2 a b^T, 0) / (2 sigma^2)), evaluated in
        # that order with every step after the matmul written into `sq`.
        sq = 2.0 * a @ b.T
        np.subtract((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :],
                    sq, out=sq)
        np.maximum(sq, 0.0, out=sq)
        np.negative(sq, out=sq)
        sq /= 2.0 * float(self.sigma) * float(self.sigma)  # the product __post_init__ checked
        return np.exp(sq, out=sq)


def _squared_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = x[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=2)


def _nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center to each row of x; ties go to the lowest."""
    return np.argmin(_squared_distances(x, centers), axis=1).astype(np.int64, copy=False)


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


def kmeans(points, s: int, seed=None):
    """Lloyd iterations from distance-weighted seeding.

    Returns (centers, assignments).  Iterates until the assignment reaches a
    fixed point or `_LLOYD_MAX_ITERS`.  A center that loses all its points is
    reseeded at the point currently farthest from its assigned center.
    """
    x = _as_points(points)
    m = x.shape[0]
    check_int(s, "s", 1, m)
    centers = _kmeanspp_init(x, s, as_rng(seed))
    # one distance block per step: it gives the assignment and, at the next
    # update, each point's distance to its assigned center
    d2 = _squared_distances(x, centers)
    labels = np.argmin(d2, axis=1)
    for _ in range(_LLOYD_MAX_ITERS):
        nearest = d2[np.arange(m), labels]
        for c in range(s):
            members = labels == c
            if members.any():
                centers[c] = x[members].mean(axis=0)
            else:
                far = int(np.argmax(nearest))
                centers[c] = x[far]
                nearest[far] = 0.0
        d2 = _squared_distances(x, centers)
        new_labels = np.argmin(d2, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Fitted spectral embedding and cluster centers: the M training points,
    the kernel, the Nystrom coefficients alpha (r, M) and the centers (s, r).

    The embedding of x is the Nystrom extension f(x) = alpha @ k(x_train, x)
    / d(x), with d(x) = sum_i k(x_i, x) and alpha = (e / lambda)^T, the
    rescaled eigenvectors e = D^(-1/2) u over their eigenvalues.  As
    D^(-1) K e = lambda e, training points embed (up to rounding) onto the
    rows of e that fit the k-means centers.  Every point, training points
    included, is labelled by `spectral_assign`.
    """

    kernel: GaussianKernel
    points: np.ndarray
    alpha: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        points = _as_points(self.points)
        alpha = np.asarray(self.alpha, dtype=np.float64)
        centers = np.asarray(self.centers, dtype=np.float64)
        m = points.shape[0]
        if alpha.ndim != 2 or alpha.shape[1] != m:
            raise ValidationError(f"nystrom_alpha must be (r, {m}) for {m} training points, not {alpha.shape}")
        r = alpha.shape[0]
        if centers.ndim != 2 or centers.shape[0] < 1 or centers.shape[1] != r:
            raise ValidationError(f"centers must be (s >= 1, {r}) for r = {r}, not {centers.shape}")
        for name, arr in (("nystrom_alpha", alpha), ("centers", centers)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
        for name, arr in (("points", points), ("alpha", alpha), ("centers", centers)):
            object.__setattr__(self, name, arr)

    @property
    def s(self) -> int:
        return self.centers.shape[0]

    @property
    def r(self) -> int:
        return self.centers.shape[1]


def _nystrom(kernel, points: np.ndarray, alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Nystrom extension alpha @ k(points, x) / d(x), d(x) = sum_i k(points_i, x),
    as a (len(x), r) array, taken in row blocks of x whose kernel block against
    `points` has at most `_ASSIGN_BLOCK_ENTRIES` entries.  A row with d(x) = 0
    raises ValidationError naming it."""
    out = np.empty((x.shape[0], alpha.shape[0]))
    rows = max(1, _ASSIGN_BLOCK_ENTRIES // points.shape[0])
    for start in range(0, x.shape[0], rows):
        block = kernel(points, x[start:start + rows])
        sums = block.sum(axis=0)
        if not np.all(sums > 0):
            bad = start + int(np.flatnonzero(~(sums > 0))[0])
            raise ValidationError(f"point {bad} is isolated from the training points (zero kernel sum)")
        embedding = alpha @ block
        embedding /= sums
        out[start:start + rows] = embedding.T
    return out


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the first entry above 1e-12 in magnitude is positive."""
    out = vectors.copy()
    for col in range(out.shape[1]):
        nz = np.flatnonzero(np.abs(out[:, col]) > 1e-12)
        if nz.size and out[nz[0], col] < 0:
            out[:, col] = -out[:, col]
    return out


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """Replace a square array by 0.5 * (a + a^T), in place."""
    np.add(a, a.T, out=a)
    a *= 0.5
    return a


def spectral_fit(points, kernel, s: int, seed=None) -> SpectralModel:
    """Fit a spectral clustering model.

    Builds the kernel matrix K and its row-sum diagonal D, takes the top-s
    eigenpairs (lambda, u) of D^(-1/2) K D^(-1/2), rescales the vectors to
    e = D^(-1/2) u, keeps alpha = (e / lambda)^T for the Nystrom extension
    (see `SpectralModel`), and clusters the rows of e with k-means into s
    clusters, so the embedding has as many dimensions as there are clusters.
    A top-s eigenvalue that is not positive has no extension and raises
    NumericalError.

    The m x m arrays are built in place; at most three are live at once: K
    and the squared-norm sum it is subtracted from, then sym = D^(-1/2) K
    D^(-1/2), built in K's buffer once its row sums are taken, and the 2 m^2
    workspace of LAPACK's `dsyevd`, which overwrites sym with the eigenvectors.
    """
    from scipy.linalg import eigh

    x = _as_points(points)
    check_int(s, "s", 1, x.shape[0])

    sym = _symmetrize(kernel(x, x))  # K, until it is normalized below
    row_sums = sym.sum(axis=1)
    if np.any(row_sums <= 0):
        bad = int(np.flatnonzero(row_sums <= 0)[0])
        raise ValidationError(
            f"point {bad} is isolated under the kernel (zero row sum)"
        )
    inv_sqrt = 1.0 / np.sqrt(row_sums)
    sym *= inv_sqrt[:, None]
    sym *= inv_sqrt[None, :]
    _symmetrize(sym)
    try:
        # sym is exactly symmetric, so sym.T is the same matrix in Fortran
        # order and the solver writes the eigenvectors into its buffer.
        vals, vecs = eigh(sym.T, driver="evd", overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    lam = vals[::-1][:s]
    if not np.all(lam > 0):
        raise NumericalError(f"the top {s} eigenvalues of the normalized kernel matrix "
                             f"must be positive for the Nystrom extension, not {lam.min():.3g}")
    top = _canonical_signs(vecs[:, ::-1][:, :s])
    del sym, vecs
    embedding = inv_sqrt[:, None] * top
    alpha = (embedding / lam).T

    # Seeding over canonically sorted rows keeps the fitted centers
    # independent of the input point order.
    order = np.lexsort(embedding.T[::-1])
    centers, _ = kmeans(embedding[order], s, seed=seed)

    return SpectralModel(kernel=kernel, points=x.copy(), alpha=alpha, centers=centers)


def _check_dimension(model: SpectralModel, x: np.ndarray):
    if x.shape[1] != model.points.shape[1]:
        raise ValidationError(
            f"point dimension {x.shape[1]} does not match training dimension "
            f"{model.points.shape[1]}"
        )


def spectral_embed(model: SpectralModel, points) -> np.ndarray:
    """Embed points with the fitted Nystrom extension; a point with zero kernel
    sum against the training points has none and raises ValidationError."""
    x = _as_points(points)
    _check_dimension(model, x)
    return _nystrom(model.kernel, model.points, model.alpha, x)


def spectral_assign(model: SpectralModel, points) -> np.ndarray:
    """Assign points to the nearest fitted center in embedding space.

    Ties resolve to the lowest cluster index.
    """
    return _nearest(spectral_embed(model, points), model.centers)


def discretize_trajectories(model: SpectralModel, trajectories) -> TrajectoryDataset:
    """Map continuous trajectories (uniformly sampled in time) to state sequences.

    Each trajectory is checked to be a (T+1, D) array, then the points of all
    trajectories are assigned together (`spectral_assign`), so an isolated
    point's ValidationError numbers the points in order across all
    trajectories.
    """
    parts = [np.asarray(traj, dtype=np.float64) for traj in trajectories]
    for part in parts:
        if part.ndim != 2:
            raise ValidationError("each trajectory must be a (T+1, D) array")
        _check_dimension(model, part)
    sizes = np.array([part.shape[0] for part in parts], dtype=np.int64)
    # with no points, TrajectoryDataset names the empty trajectory
    states = (spectral_assign(model, np.concatenate(parts)) if sizes.sum()
              else np.empty(0, dtype=np.int64))
    return TrajectoryDataset.from_flat(states, sizes, model.s)
