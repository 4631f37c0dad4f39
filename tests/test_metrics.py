import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainmix import ValidationError, accuracy, confusion

from helpers import reference_accuracy


class TestAccuracy:
    def test_relabeling_recovers_full_accuracy(self):
        value, perm = accuracy([0, 0, 1, 1], [1, 1, 0, 0])
        assert value == 1.0
        assert perm[1] == 0 and perm[0] == 1

    def test_identity(self):
        value, perm = accuracy([0, 1, 2], [0, 1, 2])
        assert value == 1.0
        assert np.array_equal(perm, [0, 1, 2])

    def test_half_matching(self):
        # brute force over both permutations of a 2-label estimate gives 2/4
        value, _ = accuracy([0, 0, 1, 1], [0, 1, 0, 1])
        assert value == 0.5

    def test_more_estimated_than_true_classes(self):
        value, _ = accuracy([0, 0, 0, 0], [0, 1, 2, 3])
        assert value == 0.25

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            accuracy([0, 1], [0])

    @pytest.mark.parametrize("labels", [
        [0.5, 1.7, 1.2], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0], ["0", "1", "1"],
        [False, True, True],
    ], ids=["fractional", "nan", "inf", "strings", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        # a cast to int64 would truncate [0.5, 1.7, 1.2] to [0, 1, 1] and score 1.0
        with pytest.raises(ValidationError, match="true_labels must be nonnegative integers"):
            accuracy(labels, [0, 1, 1])
        with pytest.raises(ValidationError, match="est_labels must be nonnegative integers"):
            confusion([0, 1, 1], labels, [0, 1])

    def test_whole_float_labels_accepted(self):
        assert accuracy([0.0, 1.0, 1.0], [1, 0, 0])[0] == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_bijective_relabeling(self, labels):
        rng = np.random.default_rng(7)
        true = np.asarray(labels)
        est = rng.integers(0, 5, size=true.size)
        base, _ = accuracy(true, est)
        relabel = rng.permutation(5)
        assert accuracy(true, relabel[est])[0] == pytest.approx(base)
        assert accuracy(relabel[true], est)[0] == pytest.approx(base)

    def test_self_accuracy_one_and_maximality(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 4, size=30)
        assert accuracy(labels, labels)[0] == 1.0
        est = rng.integers(0, 4, size=30)
        best, _ = accuracy(labels, est)
        # the optimal matching is at least as good as any fixed permutation
        for trial in range(10):
            perm = rng.permutation(4)
            fixed = np.mean(labels == perm[est])
            assert best >= fixed - 1e-12

    def _assert_matches_reference(self, true, est):
        value, perm = accuracy(true, est)
        ref_value, ref_perm = reference_accuracy(true, est)
        assert value == ref_value
        assert perm.dtype == ref_perm.dtype
        assert perm.tolist() == ref_perm.tolist()

    def test_all_equal_labels_match_reference(self):
        # one label on each side leaves a single nonzero cell, and every
        # other cell ties at zero
        for size in (1, 2, 5, 30):
            self._assert_matches_reference(np.full(10, size - 1), np.full(10, size - 1))
            self._assert_matches_reference(np.zeros(10, dtype=int), np.full(10, size - 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_labels_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            n = int(rng.integers(1, 40))
            k_true, k_est = rng.integers(1, 6, size=2)
            true = rng.integers(0, k_true, size=n)
            est = rng.integers(0, k_est, size=n)
            if rng.random() < 0.3:  # gaps in the label values pad the table
                true = true * int(rng.integers(2, 6))
            if rng.random() < 0.3:
                est = est + int(rng.integers(1, 20))
            self._assert_matches_reference(true, est)

    def test_more_estimated_than_true_labels_match_reference(self):
        rng = np.random.default_rng(5)
        for n in (4, 17, 60):
            true = rng.integers(0, 2, size=n)
            est = rng.integers(0, 10, size=n)
            self._assert_matches_reference(true, est)

    def test_every_padded_size_matches_reference(self):
        rng = np.random.default_rng(6)
        for size in range(1, 31):
            for _ in range(5):
                n = int(rng.integers(1, 3 * size + 2))
                true = rng.integers(0, size, size=n)
                est = rng.integers(0, size, size=n)
                true[-1] = size - 1
                self._assert_matches_reference(true, est)

    @pytest.mark.parametrize("size", [100, 137, 200])
    def test_large_padded_tables_match_reference(self, size):
        rng = np.random.default_rng(size)
        true = rng.integers(0, size, size=400)
        est = np.where(rng.random(400) < 0.5, true, rng.integers(0, size, size=400))
        self._assert_matches_reference(true, est)
        self._assert_matches_reference(rng.integers(0, 4, size=50), np.full(50, size - 1))


class TestConfusion:
    def test_perfect_labels_give_diagonal(self):
        value, perm = accuracy([0, 1, 1, 2], [2, 0, 0, 1])
        assert value == 1.0
        matrix = confusion([0, 1, 1, 2], [2, 0, 0, 1], perm)
        assert np.array_equal(matrix.counts, np.diag([1, 2, 1]))
        assert matrix.total == 4

    def test_single_trajectory(self):
        matrix = confusion([1], [0], np.array([1, 0]))
        assert matrix.counts[1, 1] == 1
        assert matrix.counts.sum() == 1

    def test_row_sums_are_true_class_sizes(self):
        rng = np.random.default_rng(13)
        true = rng.integers(0, 3, size=50)
        est = rng.integers(0, 3, size=50)
        _, perm = accuracy(true, est)
        matrix = confusion(true, est, perm)
        for label in range(3):
            assert matrix.counts[label].sum() == np.sum(true == label)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValidationError):
            confusion([0, 1], [0, 1], np.array([0]))  # does not cover range
        with pytest.raises(ValidationError):
            confusion([0, 1], [0, 1], np.array([1, 1]))  # not bijective
        # a cast to int64 would truncate it to the bijection [1, 0]
        with pytest.raises(ValidationError, match="permutation must be nonnegative integers"):
            confusion([0, 1], [0, 1], np.array([1.5, 0.2]))
