import numpy as np
import pytest

from chainmix import (
    GaussianKernel,
    PointSet,
    ValidationError,
    accuracy,
    discretize_trajectories,
    kmeans,
    spectral_assign,
    spectral_embed,
    spectral_fit,
)
from chainmix.clustering import SpectralModel, kmeans_objective

from helpers import two_arm_spiral


def two_blobs(n_per=20, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, 2)) * 0.3
    b = rng.standard_normal((n_per, 2)) * 0.3 + np.array([gap, 0.0])
    return np.vstack([a, b]), np.repeat([0, 1], n_per)


class TestKmeans:
    def test_two_separated_blobs(self):
        points, truth = two_blobs(seed=1)
        centers, assign = kmeans(points, 2, seed=2)
        acc, _ = accuracy(truth, assign)
        assert acc == 1.0
        # centers sit at the blob means
        for blob in range(2):
            members = points[truth == blob]
            cluster = assign[truth == blob][0]
            assert np.allclose(centers[cluster], members.mean(axis=0), atol=1e-9)

    def test_s_equals_m_zero_objective(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((8, 2))
        centers, assign = kmeans(points, 8, seed=4)
        assert kmeans_objective(points, centers, assign) == pytest.approx(0.0, abs=1e-20)
        assert np.unique(assign).size == 8

    def test_single_cluster_center_is_mean(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((30, 3))
        centers, assign = kmeans(points, 1, seed=6)
        assert np.allclose(centers[0], points.mean(axis=0), atol=1e-12)
        assert np.all(assign == 0)

    def test_objective_nonincreasing_over_iterations(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((120, 2))
        # track the objective by re-running with increasing iteration caps
        values = []
        for iters in (1, 2, 3, 5, 10, 50):
            centers, assign = kmeans(points, 4, seed=8, max_iters=iters)
            values.append(kmeans_objective(points, centers, assign))
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_fixed_point_of_assign_update(self):
        rng = np.random.default_rng(9)
        points = rng.standard_normal((60, 2))
        centers, assign = kmeans(points, 3, seed=10)
        # recompute centers from the assignment, then reassign: nothing moves
        for c in range(3):
            assert np.allclose(centers[c], points[assign == c].mean(axis=0))
        d2 = ((points[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assert np.array_equal(np.argmin(d2, axis=1), assign)

    def test_empty_cluster_reseeded_at_farthest_point(self):
        points = np.array([[0.0], [0.1], [0.2], [10.0]])
        # both initial centers on the left cluster: center 1 grabs everything
        # near it, the far point reseeds whichever center empties
        centers, assign = kmeans(points, 2, init_centers=np.array([[0.0], [0.15]]))
        assert np.unique(assign).size == 2
        assert np.any(np.isclose(centers, 10.0))

    def test_s_larger_than_m_rejected(self):
        with pytest.raises(ValidationError):
            kmeans(np.zeros((3, 2)), 4)


class TestSpectral:
    def test_block_diagonal_kernel_recovers_blocks(self):
        points, truth = two_blobs(gap=50.0, seed=11)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                             seed=12)
        acc, _ = accuracy(truth, model.assignments)
        assert acc == 1.0

    def test_training_embedding_matches_eigenvector_rows(self):
        rng = np.random.default_rng(13)
        points = np.vstack([
            rng.standard_normal((20, 2)) * 0.8,
            rng.standard_normal((20, 2)) * 0.8 + np.array([8.0, 0.0]),
        ])
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                             seed=14)
        emb = spectral_embed(model, points)
        residual = np.max(np.abs(emb - model.embedding))
        assert residual < 1e-8

    def test_spiral_embedding_residual_below_tolerance(self):
        points, _ = two_arm_spiral(m=100, seed=17)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                             seed=18)
        residual = np.max(np.abs(spectral_embed(model, points) - model.embedding))
        assert residual < 1e-8

    def test_training_points_keep_their_assignment(self):
        points, _ = two_blobs(gap=8.0, seed=15)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.5), s=2,
                             seed=16)
        again = spectral_assign(model, points)
        assert np.array_equal(again, model.assignments)

    def test_equidistant_point_takes_lower_index(self):
        points = np.array([[0.0, 0.0], [4.0, 0.0]])
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2)
        midpoint = np.array([[2.0, 0.0]])
        emb = spectral_embed(model, midpoint)
        d2 = ((emb[:, None, :] - model.centers[None]) ** 2).sum(axis=2)[0]
        if abs(d2[0] - d2[1]) < 1e-12:
            assert spectral_assign(model, midpoint)[0] == 0

    def test_spiral_spectral_beats_kmeans(self):
        points, arms = two_arm_spiral(m=100, seed=17)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                             seed=18)
        spec_acc, _ = accuracy(arms, model.assignments)
        _, km_assign = kmeans(points, 2, seed=19)
        km_acc, _ = accuracy(arms, km_assign)
        assert spec_acc >= 0.95
        assert km_acc <= 0.8

    def test_partition_invariant_under_point_permutation(self):
        points, _ = two_blobs(gap=8.0, seed=21)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.5), s=2,
                             seed=22)
        rng = np.random.default_rng(23)
        perm = rng.permutation(points.shape[0])
        model_p = spectral_fit(PointSet(points[perm]), GaussianKernel(sigma=1.5),
                               s=2, seed=22)
        acc, _ = accuracy(model.assignments[perm], model_p.assignments)
        assert acc == 1.0

    def test_isolated_point_reported(self):
        # a kernel without self-similarity can produce an all-zero row
        class TruncatedKernel:
            def __call__(self, a, b):
                sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
                k = np.exp(-sq / 2.0)
                k[sq > 4.0] = 0.0
                np.fill_diagonal(k, 0.0)
                return k

        points = np.array([[0.0, 0.0], [0.1, 0.0], [1e3, 1e3]])
        with pytest.raises(ValidationError, match="point 2"):
            spectral_fit(PointSet(points), TruncatedKernel(), s=2)

    def test_dimension_mismatch_rejected(self):
        points, _ = two_blobs(seed=25)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2)
        with pytest.raises(ValidationError):
            spectral_assign(model, np.zeros((4, 3)))

    def test_json_round_trip(self, tmp_path):
        points, _ = two_blobs(gap=8.0, seed=27)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.5), s=2,
                             seed=28)
        from chainmix.dataio import read_spectral_model, write_spectral_model
        path = tmp_path / "model.json"
        write_spectral_model(path, model)
        loaded = read_spectral_model(path)
        assert loaded.kernel.sigma == model.kernel.sigma
        assert np.allclose(loaded.alpha, model.alpha)
        assert np.allclose(loaded.centers, model.centers)
        fresh = np.array([[0.5, -0.2], [7.5, 0.3]])
        assert np.array_equal(spectral_assign(loaded, fresh),
                              spectral_assign(model, fresh))


class TestDiscretize:
    def _model(self):
        points, _ = two_blobs(gap=8.0, seed=31)
        return spectral_fit(PointSet(points), GaussianKernel(sigma=1.5), s=2,
                            seed=32), points

    def test_constant_trajectory(self):
        model, points = self._model()
        traj = np.tile(points[0], (5, 1))
        ds = discretize_trajectories(model, [traj])
        states = ds.trajectories[0]
        assert np.all(states == states[0])

    def test_alternating_trajectory(self):
        model, points = self._model()
        a, b = points[0], points[-1]
        traj = np.array([a, b, a, b])
        ds = discretize_trajectories(model, [traj])
        states = ds.trajectories[0]
        assert states[0] != states[1]
        assert np.array_equal(states[:2], states[2:])

    def test_matches_per_trajectory_assignment_across_blocks(self, monkeypatch):
        import chainmix.clustering as clustering

        model, points = self._model()
        rng = np.random.default_rng(33)
        trajs = [points[rng.integers(0, len(points), size=n)] + 0.1 * rng.standard_normal((n, 2))
                 for n in (1, 7, 3, 12, 5)]
        expected = np.concatenate([spectral_assign(model, t) for t in trajs])
        # 3 rows per block: blocks straddle the trajectory boundaries
        for entries in (3 * model.points.shape[0], 1 << 22):
            monkeypatch.setattr(clustering, "_ASSIGN_BLOCK_ENTRIES", entries)
            ds = discretize_trajectories(model, trajs)
            assert np.array_equal(ds.states, expected)
            assert list(ds.lengths) == [0, 6, 2, 11, 4]

    @pytest.mark.parametrize("traj, text", [
        (np.zeros(4), r"each trajectory must be a \(T\+1, D\) array"),
        (np.zeros((4, 3)), "point dimension 3 does not match training dimension 2"),
    ])
    def test_bad_trajectory_rejected(self, traj, text):
        model, points = self._model()
        with pytest.raises(ValidationError, match=text):
            discretize_trajectories(model, [points[:3], traj])

    def test_dataset_shape(self):
        model, points = self._model()
        ds = discretize_trajectories(model, [points[:4], points[-3:]])
        assert ds.n == 2
        assert ds.s == model.s
        assert list(ds.lengths) == [3, 2]
