import json
import tracemalloc

import numpy as np
import pytest

from chainmix import (
    GaussianKernel,
    NumericalError,
    PointSet,
    ValidationError,
    accuracy,
    discretize_trajectories,
    kmeans,
    spectral_assign,
    spectral_embed,
    spectral_fit,
)
from chainmix.clustering import SpectralModel, _nearest
from chainmix.gene_circuit import _MAX_FIT_POINTS, MisaParams, misa_simulate

from helpers import (
    kmeans_objective,
    reference_gaussian_kernel,
    reference_kmeans,
    reference_spectral_fit,
    ridge_spectral_assign,
    two_arm_spiral,
)


@pytest.fixture(scope="module")
def misa_sample():
    """The pooled protein counts of a misa-cell job, 2 x 15 trajectories of
    T=50, its fit subsample, kernel, and spectral model with 4 states."""
    seeds = np.random.SeedSequence(31).spawn(30)
    pooled = np.vstack([
        misa_simulate(MisaParams(f_r=0.01 if i < 15 else 0.25), t_end=50.0, seed=seq).ab
        for i, seq in enumerate(seeds)
    ])
    pick = np.random.default_rng(32).choice(pooled.shape[0], _MAX_FIT_POINTS, replace=False)
    points = PointSet(pooled[np.sort(pick)])
    kernel = GaussianKernel(sigma=50.0)
    return pooled, points, kernel, spectral_fit(points, kernel, s=4, seed=33)


@pytest.fixture(scope="module")
def misa_reference(misa_sample):
    """`reference_spectral_fit` of the misa sample: its model and eigenvector rows."""
    _, points, kernel, _ = misa_sample
    return reference_spectral_fit(points, kernel, s=4, seed=33)


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

    def test_objective_nonincreasing_over_iterations(self, monkeypatch):
        import chainmix.clustering as clustering

        rng = np.random.default_rng(7)
        points = rng.standard_normal((120, 2))
        # track the objective by re-running with increasing iteration caps
        values = []
        for iters in (1, 2, 3, 5, 10, 50):
            monkeypatch.setattr(clustering, "_LLOYD_MAX_ITERS", iters)
            centers, assign = kmeans(points, 4, seed=8)
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

    def test_empty_cluster_reseeded_at_farthest_point(self, monkeypatch):
        import chainmix.clustering as clustering

        points = np.array([[0.0], [0.1], [0.2], [10.0]])
        # both initial centers on the left cluster: center 1 grabs everything
        # near it, the far point reseeds whichever center empties
        monkeypatch.setattr(clustering, "_kmeanspp_init",
                            lambda x, s, rng: np.array([[0.0], [0.15]]))
        centers, assign = kmeans(points, 2)
        assert np.unique(assign).size == 2
        assert np.any(np.isclose(centers, 10.0))

    @pytest.mark.parametrize("case", range(40))
    def test_matches_two_block_reference(self, case):
        # one distance block per Lloyd step gives the centers and labels of
        # the loop that built it twice, on inputs with repeated points and
        # coordinate ties, and with clusters that empty
        rng = np.random.default_rng(100 + case)
        m = int(rng.integers(1, 60))
        s = int(rng.integers(1, min(m, 8) + 1))
        pool = rng.integers(-3, 4, size=(int(rng.integers(1, m + 1)), int(rng.integers(1, 4))))
        points = pool[rng.integers(0, pool.shape[0], size=m)].astype(np.float64)
        if case % 2:
            points += 0.01 * rng.standard_normal(points.shape)
        centers, labels = kmeans(points, s, seed=case)
        ref_centers, ref_labels = reference_kmeans(points, s, seed=case)
        assert np.array_equal(centers, ref_centers)
        assert np.array_equal(labels, ref_labels)
        assert labels.dtype == np.int64

    def test_s_larger_than_m_rejected(self):
        with pytest.raises(ValidationError):
            kmeans(np.zeros((3, 2)), 4)


class TestSpectral:
    def test_block_diagonal_kernel_recovers_blocks(self):
        points, truth = two_blobs(gap=50.0, seed=11)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                             seed=12)
        acc, _ = accuracy(truth, spectral_assign(model, points))
        assert acc == 1.0

    def test_training_embedding_matches_eigenvector_rows(self):
        rng = np.random.default_rng(13)
        points = np.vstack([
            rng.standard_normal((20, 2)) * 0.8,
            rng.standard_normal((20, 2)) * 0.8 + np.array([8.0, 0.0]),
        ])
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                             seed=14)
        _, rows = reference_spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                                         seed=14)
        emb = spectral_embed(model, points)
        residual = np.max(np.abs(emb - rows))
        assert residual < 1e-8

    def test_spiral_embedding_residual_below_tolerance(self):
        points, _ = two_arm_spiral(m=100, seed=17)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                             seed=18)
        _, rows = reference_spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                                         seed=18)
        residual = np.max(np.abs(spectral_embed(model, points) - rows))
        assert residual < 1e-8

    def test_training_points_keep_their_assignment(self):
        # the Nystrom labels of the training points are those of the
        # eigenvector rows that the centers were fitted on
        points, _ = two_blobs(gap=8.0, seed=15)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.5), s=2,
                             seed=16)
        _, rows = reference_spectral_fit(PointSet(points), GaussianKernel(sigma=1.5), s=2,
                                         seed=16)
        again = spectral_assign(model, points)
        assert np.array_equal(again, _nearest(rows, model.centers))

    def test_equidistant_point_takes_lower_index(self):
        points = np.array([[0.0, 0.0], [4.0, 0.0]])
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2)
        midpoint = np.array([[2.0, 0.0]])
        emb = spectral_embed(model, midpoint)
        d2 = ((emb[:, None, :] - model.centers[None]) ** 2).sum(axis=2)[0]
        if abs(d2[0] - d2[1]) < 1e-12:
            assert spectral_assign(model, midpoint)[0] == 0

    def test_matches_out_of_place_reference_on_spiral(self):
        points, _ = two_arm_spiral(m=200, seed=1)
        kernel = GaussianKernel(sigma=1.0)
        model = spectral_fit(PointSet(points), kernel, s=2, seed=2)
        reference, rows = reference_spectral_fit(PointSet(points), kernel, s=2, seed=2)
        for name in ("points", "alpha", "centers"):
            assert np.array_equal(getattr(model, name), getattr(reference, name)), name
        assert np.array_equal(spectral_assign(model, points), _nearest(rows, reference.centers))

    def test_matches_out_of_place_reference_on_misa_sample(self, misa_sample, misa_reference):
        pooled, points, kernel, model = misa_sample
        reference, rows = misa_reference
        for name in ("points", "alpha", "centers"):
            assert np.array_equal(getattr(model, name), getattr(reference, name)), name
        assert np.array_equal(spectral_assign(model, points), _nearest(rows, reference.centers))
        # the rectangular blocks that discretize_trajectories embeds
        for block in (pooled[:1], pooled[:87], pooled[1000:1530]):
            assert np.array_equal(kernel(points.points, block),
                                  reference_gaussian_kernel(points.points, block, 50.0))

    def test_states_match_ridge_solve_on_misa_pool(self, misa_sample, misa_reference):
        # the kernel-interpolant solve that the Nystrom extension replaced
        # gives the same states on every pooled point, the 30 outside the
        # training subsample among them
        pooled, _, _, model = misa_sample
        _, rows = misa_reference
        assert np.array_equal(spectral_assign(model, pooled),
                              ridge_spectral_assign(model, rows, pooled))

    def test_states_match_ridge_solve_on_spiral_holdout(self):
        points, _ = two_arm_spiral(m=600, seed=5)
        model = spectral_fit(PointSet(points[::3]), GaussianKernel(sigma=1.0), s=2, seed=6)
        _, rows = reference_spectral_fit(PointSet(points[::3]), GaussianKernel(sigma=1.0), s=2,
                                         seed=6)
        held_out = np.delete(points, np.s_[::3], axis=0)
        assert np.array_equal(spectral_assign(model, held_out),
                              ridge_spectral_assign(model, rows, held_out))

    def test_nonpositive_eigenvalue_raises(self):
        # without self-similarity the normalized kernel matrix of two points
        # is [[0, 1], [1, 0]], with eigenvalues 1 and -1
        class NoSelfKernel:
            def __call__(self, a, b):
                sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
                return np.where(sq > 0, np.exp(-sq / 2.0), 0.0)

        points = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert spectral_fit(points, NoSelfKernel(), s=1).r == 1
        with pytest.raises(NumericalError, match="top 2 eigenvalues .* not -1"):
            spectral_fit(points, NoSelfKernel(), s=2)

    def test_traced_peak_memory_bounded(self):
        # the normalized matrix, built in the kernel matrix's buffer, and the
        # eigensolver's 2 m^2 workspace are the most that is live at once:
        # about 3.0 m^2 float64 values (4.0 while K was kept through the
        # eigensolve, 5.1 out of place)
        points, _ = two_arm_spiral(m=600, seed=3)
        kernel = GaussianKernel(sigma=1.0)
        spectral_fit(PointSet(points[::20]), kernel, s=2, seed=4)  # warm-up
        tracemalloc.start()
        try:
            spectral_fit(PointSet(points), kernel, s=2, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * 600**2 * 8

    def test_spiral_spectral_beats_kmeans(self):
        points, arms = two_arm_spiral(m=100, seed=17)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2,
                             seed=18)
        spec_acc, _ = accuracy(arms, spectral_assign(model, points))
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
        acc, _ = accuracy(spectral_assign(model, points)[perm],
                          spectral_assign(model_p, points[perm]))
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

    def test_point_isolated_from_training_points_rejected(self):
        # the kernel sum of the far point against the training points is 0,
        # so it has no Nystrom embedding; nor does it get a state
        points, _ = two_blobs(n_per=10, gap=3.0, seed=24)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2, seed=25)
        far = np.array([[1e3, 1e3]])
        with pytest.raises(ValidationError, match="point 0 is isolated from the training points"):
            spectral_assign(model, far)
        with pytest.raises(ValidationError, match="point 2 is isolated from the training points"):
            spectral_embed(model, np.vstack([points[:2], far]))

    def test_isolated_point_in_later_row_block_named_globally(self, monkeypatch):
        import chainmix.clustering as clustering

        points, _ = two_blobs(n_per=10, gap=3.0, seed=24)
        model = spectral_fit(PointSet(points), GaussianKernel(sigma=1.0), s=2, seed=25)
        fresh = np.vstack([points[:5], [[1e3, 1e3]], points[5:8]])
        expected = spectral_assign(model, np.delete(fresh, 5, axis=0))
        # 3 rows per block: the far point is the last row of the second block
        monkeypatch.setattr(clustering, "_ASSIGN_BLOCK_ENTRIES", 3 * model.points.shape[0])
        with pytest.raises(ValidationError, match="point 5 is isolated from the training points"):
            spectral_assign(model, fresh)
        assert np.array_equal(spectral_assign(model, np.delete(fresh, 5, axis=0)), expected)

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
        assert set(json.loads(path.read_text())) == {
            "kernel", "nystrom_alpha", "centers", "training_points", "r", "s"}
        assert np.array_equal(loaded.alpha, model.alpha)
        assert np.array_equal(loaded.centers, model.centers)
        assert np.array_equal(loaded.points, model.points)
        embedding = spectral_embed(loaded, points)
        assert np.array_equal(embedding, spectral_embed(model, points))
        # the loaded model's extension of the training points reproduces the
        # eigenvector rows that the centers were fitted on
        _, rows = reference_spectral_fit(PointSet(points), GaussianKernel(sigma=1.5), s=2,
                                         seed=28)
        assert np.allclose(embedding, rows, rtol=0, atol=1e-12)
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

    def test_isolated_point_named_across_trajectories(self, monkeypatch):
        import chainmix.clustering as clustering

        model, points = self._model()
        trajs = [points[:3], np.vstack([points[:2], [[1e3, 1e3]], points[:1]])]
        # one row per block: the point is named by its place in all trajectories
        for entries in (model.points.shape[0], 1 << 22):
            monkeypatch.setattr(clustering, "_ASSIGN_BLOCK_ENTRIES", entries)
            with pytest.raises(ValidationError, match="point 5 is isolated from the training points"):
                discretize_trajectories(model, trajs)

    def test_nan_point_rejected_as_not_finite(self):
        model, points = self._model()
        with pytest.raises(ValidationError, match="points must be finite"):
            discretize_trajectories(model, [points[:3], np.vstack([points[:2], [[np.nan, 0.0]]])])

    def test_dataset_shape(self):
        model, points = self._model()
        ds = discretize_trajectories(model, [points[:4], points[-3:]])
        assert ds.n == 2
        assert ds.s == model.s
        assert list(ds.lengths) == [3, 2]
