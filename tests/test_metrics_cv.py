import numpy as np
import pytest

from qcb.errors import UsageError
from qcb.evalharness import classification_metrics, holdout_split, stratified_folds
from qcb.evalharness.cv import CvPlan


class TestClassificationMetrics:
    def test_perfect_predictions(self):
        y = np.array(["a", "b", "a", "c"])
        m = classification_metrics(y, y.copy())
        assert m.accuracy == 1.0
        assert m.precision_weighted == 1.0
        assert m.recall_weighted == 1.0
        assert m.f1_weighted == 1.0
        assert all(pc.f1 == 1.0 for pc in m.per_class.values())

    def test_binary_confusion_matrix_arithmetic(self):
        # positive class: TP=2, FP=1, FN=1, TN=1
        y_true = np.array([1, 1, 1, 0, 0])
        y_pred = np.array([1, 1, 0, 1, 0])
        m = classification_metrics(y_true, y_pred)
        pos = m.per_class[1]
        assert abs(pos.precision - 2 / 3) < 1e-12
        assert abs(pos.recall - 2 / 3) < 1e-12
        assert abs(pos.f1 - 2 / 3) < 1e-12
        assert m.accuracy == 0.6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        y_true = rng.integers(0, 4, size=60)
        y_pred = rng.integers(0, 4, size=60)
        base = classification_metrics(y_true, y_pred)
        perm = rng.permutation(60)
        shuffled = classification_metrics(y_true[perm], y_pred[perm])
        assert base.accuracy == shuffled.accuracy
        assert base.f1_weighted == shuffled.f1_weighted
        for label in base.per_class:
            assert base.per_class[label] == shuffled.per_class[label]

    def test_zero_division_conventions(self):
        y_true = np.array([0, 0, 1])
        y_pred = np.array([0, 0, 0])  # class 1 never predicted
        m = classification_metrics(y_true, y_pred)
        assert m.per_class[1].precision == 0.0
        assert m.per_class[1].recall == 0.0
        assert m.per_class[1].f1 == 0.0

    def test_weighted_average_uses_support(self):
        y_true = np.array([0] * 9 + [1])
        y_pred = np.array([0] * 9 + [0])
        m = classification_metrics(y_true, y_pred)
        # class 0: recall 1 (support 9); class 1: recall 0 (support 1)
        assert abs(m.recall_weighted - 0.9) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            classification_metrics([1, 2], [1])


class TestStratifiedFolds:
    def test_equal_classes_perfectly_balanced(self):
        y = np.repeat(np.arange(4), 25)
        folds = stratified_folds(y, 5, seed=0)
        for fold in range(5):
            members = y[folds == fold]
            assert len(members) == 20
            for label in range(4):
                assert np.sum(members == label) == 5

    def test_deterministic(self):
        y = np.repeat(["a", "b", "c"], 20)
        assert np.array_equal(stratified_folds(y, 5, 7), stratified_folds(y, 5, 7))

    def test_different_seeds_differ(self):
        y = np.repeat(["a", "b", "c"], 20)
        assert not np.array_equal(stratified_folds(y, 5, 1), stratified_folds(y, 5, 2))

    def test_small_class_error_names_class(self):
        y = np.array(["big"] * 20 + ["tiny"] * 3)
        with pytest.raises(UsageError, match="tiny"):
            stratified_folds(y, 5, 0)

    def test_every_sample_in_exactly_one_fold(self):
        rng = np.random.default_rng(3)
        y = rng.choice(["w", "x", "y", "z"], size=113, p=[0.4, 0.3, 0.2, 0.1])
        folds = stratified_folds(y, 5, 11)
        assert folds.shape == y.shape
        assert set(np.unique(folds)) == set(range(5))
        assert sum(int(np.sum(folds == f)) for f in range(5)) == len(y)

    def test_class_proportions_within_one_sample(self):
        rng = np.random.default_rng(4)
        y = rng.choice(["a", "b", "c", "d"], size=288, p=[0.2, 0.5, 0.2, 0.1])
        folds = stratified_folds(y, 5, 0)
        for label in np.unique(y):
            counts = [int(np.sum((folds == f) & (y == label))) for f in range(5)]
            assert max(counts) - min(counts) <= 1


class TestHoldoutSplit:
    def test_stratified_and_disjoint(self):
        y = np.repeat(np.arange(4), 25)
        train, test = holdout_split(y, 0.2, seed=0)
        assert len(set(train) & set(test)) == 0
        assert len(train) + len(test) == 100
        for label in range(4):
            assert np.sum(y[test] == label) == 5

    def test_bad_fraction(self):
        with pytest.raises(UsageError):
            holdout_split(np.arange(10) % 2, 1.5, seed=0)


class TestCvPlan:
    def test_defaults(self):
        plan = CvPlan()
        assert plan.n_folds == 5
        assert plan.seeds == (0, 1, 2, 3, 4)
        block, splits = plan.splits(np.repeat(np.arange(4), 10), master_seed=0)
        assert block["stratified"] is True
        assert len(splits) == 25

    def test_validation(self):
        with pytest.raises(UsageError):
            CvPlan(n_folds=1)
        with pytest.raises(UsageError):
            CvPlan(seeds=())
