import io
import pickle
import tracemalloc

import numpy as np
import pytest

from qcb.classical import (
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
    ScalerKind,
    SvmClassifier,
    apply_scaler,
    fit_pca,
    fit_scaler,
    mutual_information,
    pca_inverse_transform,
    pca_transform,
    trees,
)
from qcb.classical.svm import _BinarySmo, rbf_kernel
from qcb.classical.trees import PREDICT_BLOCK_ROWS, TABLE_MAX_NODES
from qcb.data import build_dataset, select_features, synthesize
from qcb.errors import UsageError
from qcb.evalharness.runner import state_checksum
from qcb.qmodels import QKernelClassifier
from qcb.qsim import cross_overlap_sq

from oracles import (
    SAME_BITS_ROWS,
    NumpyScalarSmo,
    RecursiveDecisionTree,
    RecursiveRandomForest,
    forest_vote_with_casts,
    logistic_regression_fit,
    logistic_regression_objective,
    ovo_votes_by_pair,
    two_pass_std,
)


def make_blobs(rng, centers, n_per, spread=0.5):
    X, y = [], []
    for label, center in enumerate(centers):
        X.append(rng.normal(loc=center, scale=spread, size=(n_per, len(center))))
        y.extend([label] * n_per)
    return np.vstack(X), np.array(y)


class TestPca:
    def test_full_rank_ratio_sums_to_one(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        t = fit_pca(X, 2)
        assert abs(t.explained_variance_ratio.sum() - 1.0) < 1e-12

    def test_rank_one_data(self):
        rng = np.random.default_rng(2)
        first = rng.normal(size=40)
        X = np.column_stack([first, 3.0 * first])
        t = fit_pca(X, 1)
        assert abs(t.explained_variance_ratio[0] - 1.0) < 1e-8

    def test_round_trip_through_all_components(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 5)) @ rng.normal(size=(5, 5)) + rng.normal(size=5)
        t = fit_pca(X, 5)
        back = pca_inverse_transform(t, pca_transform(t, X))
        assert np.allclose(back, X, atol=1e-8)

    def test_transform_of_mean_is_zero(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        t = fit_pca(X, 2)
        assert np.allclose(pca_transform(t, X.mean(axis=0, keepdims=True)), 0.0, atol=1e-12)

    def test_projection_contracts_norms(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 6))
        t = fit_pca(X, 3)
        Z = pca_transform(t, X)
        centered = X - t.mean
        assert np.all(
            np.linalg.norm(Z, axis=1) <= np.linalg.norm(centered, axis=1) + 1e-8
        )

    def test_matches_dense_multiply_oracle(self):
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0], [0.0, 1.0, -1.0]])
        t = fit_pca(X, 2)
        expected = (X - X.mean(axis=0)) @ t.components.T
        assert np.allclose(pca_transform(t, X), expected, atol=1e-12)

    def test_components_orthonormal_eigenvalues_sorted(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        t = fit_pca(X, 4)
        assert np.allclose(t.components @ t.components.T, np.eye(4), atol=1e-8)
        assert np.all(np.diff(t.eigenvalues) <= 1e-12)

    def test_rank_deficient_flag(self):
        first = np.arange(10.0)
        X = np.column_stack([first, 2 * first, -first])
        t = fit_pca(X, 3)
        assert t.rank_deficient
        assert t.n_components == 1

    def test_variance_target_flag(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(80, 4))  # isotropic: one component explains ~25%
        assert not fit_pca(X, 1).meets_variance_target
        assert fit_pca(X, 4).meets_variance_target

    def test_bad_component_count(self):
        with pytest.raises(UsageError):
            fit_pca(np.zeros((5, 3)), 4)


class TestScalers:
    def test_zscore_normalizes_training_data(self):
        rng = np.random.default_rng(8)
        X = rng.normal(loc=5.0, scale=3.0, size=(100, 4))
        s = fit_scaler(ScalerKind.ZSCORE, X)
        Z = apply_scaler(s, X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_angle_endpoints(self):
        X = np.array([[0.0], [2.0], [10.0]])
        s = fit_scaler(ScalerKind.ANGLE, X)
        Z = apply_scaler(s, X)
        assert Z[0, 0] == 0.0
        assert abs(Z[2, 0] - np.pi) < 1e-15

    def test_angle_clamps_out_of_range(self):
        s = fit_scaler(ScalerKind.ANGLE, np.array([[0.0], [1.0]]))
        Z = apply_scaler(s, np.array([[-5.0], [7.0]]))
        assert Z[0, 0] == 0.0
        assert abs(Z[1, 0] - np.pi) < 1e-15

    def test_constant_column_degenerate(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        z = fit_scaler(ScalerKind.ZSCORE, X)
        assert z.degenerate[0] and not z.degenerate[1]
        assert np.all(apply_scaler(z, X)[:, 0] == 0.0)
        a = fit_scaler(ScalerKind.ANGLE, X)
        assert np.all(apply_scaler(a, X)[:, 0] == np.pi / 2)


class TestMutualInformation:
    def test_constant_feature_is_zero(self):
        assert mutual_information(np.full(40, 2.0), np.arange(40) % 4) == 0.0

    def test_identity_mapping_hits_log4(self):
        labels = np.repeat(np.arange(4), 100)
        feature = labels.astype(float)
        assert abs(mutual_information(feature, labels) - np.log(4)) < 0.05

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            f = rng.normal(size=60)
            y = rng.integers(0, 3, size=60)
            assert mutual_information(f, y) >= 0.0

    def test_informative_beats_noise(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 2, size=400)
        informative = y + 0.1 * rng.normal(size=400)
        noise = rng.normal(size=400)
        assert mutual_information(informative, y) > mutual_information(noise, y)


class TestLogisticRegression:
    def test_separable_blobs_perfect_test_accuracy(self):
        rng = np.random.default_rng(11)
        X, y = make_blobs(rng, [(-3.0, -3.0), (3.0, 3.0)], 60, spread=0.4)
        holdout, yh = make_blobs(rng, [(-3.0, -3.0), (3.0, 3.0)], 20, spread=0.4)
        model = LogisticRegressionClassifier(C=1.0, max_iter=1000).fit(X, y)
        assert np.mean(model.predict(holdout) == yh) == 1.0

    def test_loss_never_rises_across_newton_steps(self):
        # the model keeps no trace; refits capped at 0, 1, 2, ... steps replay
        # the iterates, and the Armijo condition keeps each loss below the last
        rng = np.random.default_rng(12)
        X, y = make_blobs(rng, [(-1.0, 0.0), (1.0, 0.0), (0.0, 2.0)], 30)
        n_iter = LogisticRegressionClassifier().fit(X, y).n_iter_
        losses = []
        for cap in range(n_iter + 1):
            model = LogisticRegressionClassifier(max_iter=cap).fit(X, y)
            assert model.n_iter_ == cap
            losses.append(logistic_regression_objective(X, y, model.weights_, model.bias_)[0])
        assert 1 <= n_iter < 10
        assert np.all(np.diff(losses) < 0)

    def test_multinomial_four_classes(self):
        rng = np.random.default_rng(13)
        centers = [(-4, -4), (4, -4), (-4, 4), (4, 4)]
        X, y = make_blobs(rng, centers, 40, spread=0.6)
        model = LogisticRegressionClassifier().fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.97

    def test_single_class_constant_predictor(self):
        model = LogisticRegressionClassifier().fit(np.zeros((5, 2)), np.ones(5))
        assert model.constant_class_ == 1.0
        assert np.all(model.predict(np.random.normal(size=(3, 2))) == 1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        X, y = make_blobs(rng, [(-1.0, 0.0), (1.5, 0.5)], 25)
        a = LogisticRegressionClassifier().fit(X, y)
        b = LogisticRegressionClassifier().fit(X, y)
        assert np.array_equal(a.weights_, b.weights_)

    @pytest.mark.parametrize(
        "case",
        [
            # the inner head of a 6-qubit circuit: bounded features, 4 classes
            dict(seed=41, n=144, d=6, k=4, C=1.0),
            dict(seed=42, n=60, d=12, k=4, C=1.0),
            dict(seed=43, n=30, d=2, k=2, C=0.1),
            dict(seed=44, n=50, d=3, k=3, C=10.0),
            # a constant column, collinear with the bias column
            dict(seed=45, n=80, d=4, k=3, C=1.0, constant=2),
            # all-zero features, as QAOA gives at zero angles: only the biases move
            dict(seed=46, n=60, d=6, k=4, C=1.0, zero=True),
        ],
    )
    def test_converges_to_the_minimiser(self, case):
        rng = np.random.default_rng(case["seed"])
        X = np.clip(rng.normal(size=(case["n"], case["d"])), -1.0, 1.0)
        y = (X[:, 0] > 0).astype(int) + (X[:, 1 % case["d"]] > 0.3) * (case["k"] - 2)
        y[: case["k"]] = np.arange(case["k"])  # every class present
        if "constant" in case:
            X[:, case["constant"]] = 0.7
        if case.get("zero"):
            X[:] = 0.0
        model = LogisticRegressionClassifier(C=case["C"]).fit(X, y)
        again = LogisticRegressionClassifier(C=case["C"]).fit(X, y)
        assert np.array_equal(model.weights_, again.weights_)
        assert np.array_equal(model.bias_, again.bias_)
        assert model.n_iter_ == again.n_iter_

        # the loss is strictly convex, so a small gradient pins the minimiser
        loss, grad = logistic_regression_objective(X, y, model.weights_, model.bias_, case["C"])
        assert np.linalg.norm(grad) < model.tol
        assert 1 <= model.n_iter_ < model.max_iter

        # descent to the same tolerance lands no lower than convexity allows:
        # f(x) <= f(x_gd) + grad(x) . (x - x_gd)
        weights, bias, n_iter = logistic_regression_fit(X, y, C=case["C"], max_iter=100_000)
        oracle_loss, oracle_grad = logistic_regression_objective(X, y, weights, bias, case["C"])
        assert np.linalg.norm(oracle_grad) < model.tol and n_iter < 100_000
        gap = np.vstack([model.weights_, model.bias_]) - np.vstack([weights, bias])
        assert loss <= oracle_loss + float(np.sum(grad * gap)) + 1e-15

    def test_refit_after_one_class_matches_fresh_fit(self):
        rng = np.random.default_rng(15)
        X, y = make_blobs(rng, [(-1.0, 0.0), (1.5, 0.5)], 25)
        model = LogisticRegressionClassifier().fit(X, np.ones(len(y), dtype=int))
        assert model.constant_class_ == 1
        model.fit(X, y)
        fresh = LogisticRegressionClassifier().fit(X, y)
        assert model.constant_class_ is None
        assert model.n_iter_ == fresh.n_iter_
        assert np.array_equal(model.predict(X), fresh.predict(X))
        assert state_checksum(model.fitted_state()) == state_checksum(fresh.fitted_state())


class TestLogisticWarmStart:
    @pytest.fixture(params=[2, 4], ids=["binary", "four_classes"])
    def blobs(self, request):
        centers = [(-1.0, 0.0, 0.5), (1.0, 0.5, 0.0), (0.0, 2.0, -1.0), (0.5, -2.0, 1.0)]
        rng = np.random.default_rng(16 + request.param)
        return make_blobs(rng, centers[: request.param], 30, spread=0.8)

    def test_own_solution_is_a_fixed_point(self, blobs):
        X, y = blobs
        cold = LogisticRegressionClassifier().fit(X, y)
        warm = LogisticRegressionClassifier().fit(
            X, y, start=np.vstack([cold.weights_, cold.bias_])
        )
        assert cold.n_iter_ >= 1 and warm.n_iter_ == 0
        assert warm.weights_.tobytes() == cold.weights_.tobytes()
        assert warm.bias_.tobytes() == cold.bias_.tobytes()

    def test_zero_start_is_the_cold_fit(self, blobs):
        X, y = blobs
        cold = LogisticRegressionClassifier().fit(X, y)
        zero = LogisticRegressionClassifier().fit(X, y, start=np.zeros((4, len(np.unique(y)))))
        assert zero.n_iter_ == cold.n_iter_
        assert state_checksum(zero.fitted_state()) == state_checksum(cold.fitted_state())

    def test_perturbed_start_reaches_the_tolerance(self, blobs):
        X, y = blobs
        cold = LogisticRegressionClassifier().fit(X, y)
        solution = np.vstack([cold.weights_, cold.bias_])
        start = solution + np.random.default_rng(17).normal(scale=0.5, size=solution.shape)
        kept = start.copy()
        warm = LogisticRegressionClassifier().fit(X, y, start=start)
        _, grad = logistic_regression_objective(X, y, warm.weights_, warm.bias_)
        assert np.linalg.norm(grad) < warm.tol and 1 <= warm.n_iter_ < warm.max_iter
        assert np.array_equal(warm.predict(X), cold.predict(X))
        assert np.array_equal(start, kept)  # the caller's start is not written to

    def test_start_of_wrong_shape_rejected(self, blobs):
        X, y = blobs
        k = len(np.unique(y))
        for shape in [(3, k), (5, k), (4, k + 1), (4 * k,)]:
            with pytest.raises(UsageError):
                LogisticRegressionClassifier().fit(X, y, start=np.zeros(shape))


class TestDecisionTree:
    def test_xor_is_shattered(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        model = DecisionTreeClassifier(max_depth=15).fit(X, y)
        assert np.array_equal(model.predict(X), y)

    def test_beats_stump_on_training_data(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(80, 3))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        deep = DecisionTreeClassifier(max_depth=15).fit(X, y)
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        acc_deep = np.mean(deep.predict(X) == y)
        acc_stump = np.mean(stump.predict(X) == y)
        assert acc_deep >= acc_stump

    def test_depth_limit_respected(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 4, size=200)
        model = DecisionTreeClassifier(max_depth=5).fit(X, y)
        assert model.depth_ <= 5

    def test_no_feature_columns_give_one_leaf(self):
        X, y = np.zeros((6, 0)), np.array([0, 1, 1, 0, 1, 1])
        model = DecisionTreeClassifier().fit(X, y)
        assert len(model._nodes.right) == 1
        assert np.array_equal(model.predict(X), np.ones(6))
        assert np.array_equal(_assert_load_keeps_fit(model).predict(X), np.ones(6))

    def test_string_labels_supported(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array(["low", "low", "high", "high"])
        model = DecisionTreeClassifier().fit(X, y)
        assert list(model.predict(X)) == list(y)


class TestRandomForest:
    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(17)
        X, y = make_blobs(rng, [(-2.0, 0.0), (2.0, 0.0)], 40)
        holdout = rng.normal(size=(30, 2))
        a = RandomForestClassifier(n_trees=20, seed=5).fit(X, y)
        b = RandomForestClassifier(n_trees=20, seed=5).fit(X, y)
        assert np.array_equal(a.predict(holdout), b.predict(holdout))

    def test_different_seeds_differ_somewhere(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
        a = RandomForestClassifier(n_trees=5, seed=1).fit(X, y)
        b = RandomForestClassifier(n_trees=5, seed=2).fit(X, y)
        assert a.fitted_state()["trees"] != b.fitted_state()["trees"]

    def test_learns_separable_data(self):
        rng = np.random.default_rng(19)
        X, y = make_blobs(rng, [(-2.0, -2.0), (2.0, 2.0), (2.0, -2.0)], 40, spread=0.5)
        model = RandomForestClassifier(n_trees=30, seed=0).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.95

    def test_no_feature_columns_vote_the_bootstrap_majorities(self):
        # every tree is one leaf holding its bootstrap's majority class; the
        # forest's vote over those leaves is the same for every row
        labels = np.array([2, 0, 1, 1, 0, 2, 2, 1, 0])
        X = np.zeros((len(labels), 0))
        forest = RandomForestClassifier(n_trees=9, seed=3).fit(X, labels)
        leaves = []
        for stream in np.random.SeedSequence(3).spawn(9):
            sample = np.random.default_rng(stream).integers(0, len(labels), size=len(labels))
            leaves.append(np.argmax(np.bincount(labels[sample], minlength=3)))
        expected = np.argmax(np.bincount(leaves, minlength=3))
        assert len(set(leaves)) > 1  # the vote is not one tree's leaf
        assert np.array_equal(forest.predict(np.zeros((4, 0))), np.full(4, expected))

    def test_tree_count_matches_configuration(self):
        rng = np.random.default_rng(20)
        X, y = make_blobs(rng, [(-1.0,), (1.0,)], 15)
        forest = RandomForestClassifier(n_trees=7, seed=0).fit(X, y)
        assert len(forest.fitted_state()["trees"]) == 7

    def test_pickled_forest_holds_no_generator(self):
        rng = np.random.default_rng(21)
        X, y = make_blobs(rng, [(-1.0, 0.0, 1.0), (1.0, 0.0, -1.0)], 20)
        forest = RandomForestClassifier(n_trees=6, seed=3).fit(X, y)
        found = []

        class Probe(pickle.Pickler):
            def reducer_override(self, obj):
                if isinstance(obj, np.random.Generator):
                    found.append(obj)
                return NotImplemented

        Probe(io.BytesIO()).dump(forest)
        assert found == []


def _tree_cases():
    """Named (X, y, X_eval) problems for the array-backed vs recursive CART checks."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(120, 5))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int) + (X[:, 3] > 0.7)
    ties = np.round(rng.normal(size=(90, 6)), 1)
    ties[:, 2] = 3.0  # a constant column
    y_ties = rng.integers(0, 4, size=90)
    skewed = rng.normal(size=(40, 3))
    # one lone class-2 row, which many bootstrap samples miss
    y_skewed = np.where(np.arange(40) == 7, 2, (skewed[:, 0] > 0).astype(int))
    words = np.array(["low", "mid", "high"])[y_ties % 3]
    evaluate = lambda d: rng.normal(size=(25, d))  # noqa: E731
    return {
        "gaussian": (X, y, evaluate(5)),
        "rounded_ties_constant_column": (ties, y_ties, np.round(evaluate(6), 1)),
        "single_class": (X, np.full(120, 4), evaluate(5)),
        "one_row": (X[:1], y[:1], evaluate(5)),
        "two_rows": (X[:2], np.array([0, 1]), evaluate(5)),
        "string_labels": (ties, words, np.round(evaluate(6), 1)),
        "lone_class_row": (skewed, y_skewed, evaluate(3)),
    }


def _many_class_cases():
    """Named (X, y, X_eval) problems with 5 to 7 classes, for the class-sum order."""
    rng = np.random.default_rng(33)
    cases = {}
    for k, rounding in [(5, None), (6, 1), (7, None)]:
        X = rng.normal(size=(100, 4))
        y = np.digitize(X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=100), np.linspace(-1.5, 1.5, k - 1))
        X_eval = rng.normal(size=(25, 4))
        if rounding is not None:
            X, X_eval = np.round(X, rounding), np.round(X_eval, rounding)
        cases[f"{k}_classes"] = (X, y, X_eval)
    return cases


TREE_CASES = {**_tree_cases(), **_many_class_cases()}


def _assert_same_predictions(new, old, X, X_eval):
    for rows in (X, X_eval):
        assert np.array_equal(new.predict(rows), old.predict(rows))
    for row in X_eval[:6]:
        assert np.array_equal(new.predict(row[None, :]), old.predict(row[None, :]))


class TestTreesMatchRecursiveOracle:
    """The array-backed trees reproduce the recursive linked-node CART in
    ``tests/oracles.py``: the same fitted-state text, byte for byte, and the
    same batch and single-record predictions."""

    @pytest.mark.parametrize("max_depth", [1, 3, 15])
    @pytest.mark.parametrize("case", sorted(TREE_CASES))
    def test_tree(self, case, max_depth):
        X, y, X_eval = TREE_CASES[case]
        new = DecisionTreeClassifier(max_depth=max_depth).fit(X, y)
        old = RecursiveDecisionTree(max_depth=max_depth).fit(X, y)
        new_state, old_state = new.fitted_state(), old.fitted_state()
        assert new_state["tree"] == old_state["tree"]
        assert np.array_equal(new_state["classes"], old_state["classes"])
        assert new.depth_ == old.depth_
        _assert_same_predictions(new, old, X, X_eval)

    @pytest.mark.parametrize("max_depth", [1, 3, 15])
    @pytest.mark.parametrize("case", sorted(TREE_CASES))
    def test_forest_with_feature_subsets(self, case, max_depth):
        X, y, X_eval = TREE_CASES[case]
        new = RandomForestClassifier(n_trees=12, max_depth=max_depth, seed=9).fit(X, y)
        old = RecursiveRandomForest(n_trees=12, max_depth=max_depth, seed=9).fit(X, y)
        new_state, old_state = new.fitted_state(), old.fitted_state()
        assert new_state["trees"] == old_state["trees"]
        assert np.array_equal(new_state["classes"], old_state["classes"])
        _assert_same_predictions(new, old, X, X_eval)

    @pytest.mark.parametrize("case", sorted(TREE_CASES))
    def test_forest_of_one_tree(self, case):
        X, y, X_eval = TREE_CASES[case]
        new = RandomForestClassifier(n_trees=1, seed=4).fit(X, y)
        old = RecursiveRandomForest(n_trees=1, seed=4).fit(X, y)
        assert new.fitted_state()["trees"] == old.fitted_state()["trees"]
        _assert_same_predictions(new, old, X, X_eval)

    @pytest.mark.parametrize("n_classes, seed", [(5, 261), (6, 226), (7, 1394), (9, 63)])
    def test_class_sum_order(self, n_classes, seed):
        # small integer values tie many cuts in exact arithmetic, so the rounding
        # of the Gini's class sum picks among them: np.sum adds the classes in
        # sequence below 8 and pairwise from 8 up; these seeds tell the orders apart
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(100, 3)).astype(float)
        y = rng.integers(0, n_classes, size=100)
        X_eval = rng.integers(0, 4, size=(25, 3)).astype(float)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.fitted_state()["tree"] == RecursiveDecisionTree().fit(X, y).fitted_state()["tree"]
        new = RandomForestClassifier(n_trees=12, seed=9).fit(X, y)
        old = RecursiveRandomForest(n_trees=12, seed=9).fit(X, y)
        assert new.fitted_state()["trees"] == old.fitted_state()["trees"]
        _assert_same_predictions(new, old, X, X_eval)

    def test_registry_forest(self, registry_forest):
        new, X_all = registry_forest
        X, y = _registry_rows()
        old = RecursiveRandomForest(n_trees=150, seed=0).fit(X[::2], y[::2])
        assert new.fitted_state()["trees"] == old.fitted_state()["trees"]
        _assert_same_predictions(new, old, X[::2], X_all)

    def test_bootstrap_missing_a_class(self):
        X, y, X_eval = TREE_CASES["lone_class_row"]
        new = RandomForestClassifier(n_trees=12, seed=9).fit(X, y)
        old = RecursiveRandomForest(n_trees=12, seed=9).fit(X, y)
        # some bootstrap misses the lone row's class, so that tree's class codes
        # are not the forest's and its leaf codes are remapped
        assert any(len(t.classes_) < len(old.classes_) for t in old.trees_)
        assert any(len(t.classes_) == len(old.classes_) for t in old.trees_)
        assert new.fitted_state()["trees"] == old.fitted_state()["trees"]
        _assert_same_predictions(new, old, X, X_eval)


@pytest.mark.parametrize("seed", range(20))
def test_candidate_sets_are_the_sets_choice_draws(seed):
    # node by node, over two blocks, after a bootstrap-like draw, for the
    # forest's k and both ends of the range
    for d in range(2, 65):
        for k in sorted({1, int(np.ceil(np.sqrt(d))), d - 1} - {d}):
            blocked, plain = np.random.default_rng(seed), np.random.default_rng(seed)
            blocked.integers(0, 37, size=37)
            plain.integers(0, 37, size=37)
            sets = np.vstack([trees._candidate_sets(blocked, d, k, n) for n in (3, 4)])
            expected = [np.sort(plain.choice(d, size=k, replace=False)) for _ in range(7)]
            assert np.sort(sets, axis=1).tolist() == np.array(expected).tolist(), (d, k)


def _registry_rows():
    """The 288 records of the synthetic set on the registry's 10 features, and their labels."""
    dataset = select_features(build_dataset(synthesize(seed=0)), k=10)
    return dataset.X, dataset.y


def _assert_same_arrays(arrays, others) -> None:
    assert len(arrays) == len(others)
    for array, other in zip(arrays, others):
        assert other.dtype == array.dtype
        assert other.shape == array.shape
        assert other.tobytes() == array.tobytes()


def _assert_load_keeps_fit(model):
    """A loaded tree or forest has the fitted node arrays, roots, held classes
    and fitted state, bit for bit and dtype for dtype; returns it."""
    loaded = pickle.loads(pickle.dumps(model))
    _assert_same_arrays(model._nodes, loaded._nodes)
    if isinstance(model, RandomForestClassifier):
        _assert_same_arrays((model._roots, model._held), (loaded._roots, loaded._held))
    assert state_checksum(loaded.fitted_state()) == state_checksum(model.fitted_state())
    return loaded


def _threshold_index(nodes) -> np.ndarray:
    """The per-feature threshold indices a pickle of ``nodes`` stores."""
    return nodes.__reduce__()[1][3]


def _wide_rows():
    """60 rows of 300 columns, whose tree needs uint16 feature ids and a uint8 value."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 300))
    return X, (X[:, 299] > 0).astype(int)


@pytest.fixture(scope="module")
def registry_forest():
    """The registry forest, fitted on 144 records of the synthetic set, and all 288 rows."""
    X, y = _registry_rows()
    return RandomForestClassifier(n_trees=150, seed=0).fit(X[::2], y[::2]), X


class TestTreeStorage:
    def test_deep_tree_needs_no_recursion(self):
        # alternating labels on distinct values: each split peels off one row
        X = np.arange(2400.0)[:, None]
        y = np.arange(2400) % 2
        model = DecisionTreeClassifier(max_depth=5000).fit(X, y)
        assert model.depth_ > 1000
        assert np.array_equal(model.predict(X), y)
        assert np.array_equal(model.predict(X[-1:]), y[-1:])
        text = model.fitted_state()["tree"]
        n_nodes = len(model._nodes.right)
        assert text.count("('split', np.int64(0), ") == n_nodes // 2
        assert text.count("('leaf', ") == n_nodes // 2 + 1
        assert text.count("(") == text.count(")")
        assert np.array_equal(_assert_load_keeps_fit(model).predict(X), y)

    def test_pickled_forest_is_compact(self, registry_forest):
        # 12.7 KiB when measured: a leaf bit per node, features at splits,
        # classes at leaves, one threshold index per split into its feature's
        # distinct thresholds, and no links or tree roots
        forest, _ = registry_forest
        assert len(pickle.dumps(forest)) < 14 * 1024

    @pytest.mark.parametrize("kind", ["registry_forest", "tree", "wide_tree"])
    def test_loaded_model_pickles_to_the_same_bytes(self, registry_forest, kind):
        # the loader builds every array in numpy's own dtypes, which a pickle
        # memoizes as the fitted model's arrays share them
        if kind == "registry_forest":
            model = registry_forest[0]
        else:
            model = DecisionTreeClassifier().fit(*(_registry_rows() if kind == "tree" else _wide_rows()))
        pickled = pickle.dumps(model)
        assert pickle.dumps(pickle.loads(pickled)) == pickled

    def test_leaves_hold_feature_zero_and_splits_value_zero(self, registry_forest):
        # a pickle keeps features at splits and classes at leaves; loading fills the rest with 0
        X, y = _registry_rows()
        for model in (registry_forest[0], DecisionTreeClassifier().fit(X, y)):
            nodes = model._nodes
            leaf = nodes.right == np.arange(len(nodes.right))
            assert leaf.any() and not leaf.all()
            assert np.all(np.isnan(nodes.threshold) == leaf)
            assert not nodes.feature[leaf].any()
            assert not nodes.value[~leaf].any()

    @pytest.mark.parametrize("case", sorted(TREE_CASES))
    def test_pickle_round_trip_keeps_node_arrays(self, case):
        X, y, _ = TREE_CASES[case]
        for model in (DecisionTreeClassifier(), RandomForestClassifier(n_trees=5, seed=1)):
            _assert_load_keeps_fit(model.fit(X, y))

    def test_pickle_round_trip_keeps_node_dtypes_that_differ(self):
        # 300 columns need uint16 feature ids, 2 classes a uint8 value
        model = DecisionTreeClassifier().fit(*_wide_rows())
        nodes = model._nodes
        assert (nodes.feature.dtype, nodes.value.dtype) == (np.uint16, np.uint8)
        assert nodes.feature.max() > 255
        _assert_load_keeps_fit(model)

    def test_more_than_255_thresholds_on_one_feature(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(400, 2))
        y = rng.integers(0, 3, size=400)
        forest = RandomForestClassifier(n_trees=8, seed=2).fit(X, y)
        nodes = forest._nodes
        split = nodes.right != np.arange(len(nodes.right))
        distinct = [len(np.unique(nodes.threshold[split & (nodes.feature == f)])) for f in (0, 1)]
        assert max(distinct) > 255
        assert _threshold_index(nodes).dtype == np.uint16
        loaded = _assert_load_keeps_fit(forest)
        assert np.array_equal(loaded.predict(X), forest.predict(X))

    def test_negative_and_positive_zero_thresholds(self):
        # feature 1 is cut at -0.0 in one subtree and at +0.0 in the other
        tiny = 5e-324
        X = np.column_stack([[1.0, 1, 1, 0, 1, 0, 0], np.array([1, 2, 2, -2, -1, -2, 1]) * tiny])
        y = np.array([2, 2, 2, 0, 1, 2, 0])
        model = DecisionTreeClassifier().fit(X, y)
        nodes = model._nodes
        on_one = nodes.feature[nodes.right != np.arange(len(nodes.right))] == 1
        assert np.signbit(nodes.threshold[nodes.feature == 1]).tolist() == [True, False]
        assert sorted(_threshold_index(nodes)[on_one].tolist()) == [0, 1]  # two distinct patterns
        _assert_load_keeps_fit(model)

    def test_fit_memory_is_bounded(self):
        # every tree grows at once: the trees' tables and one step's search
        # temporaries, about 1.2 MiB when measured
        X, y = _registry_rows()
        tracemalloc.start()
        try:
            RandomForestClassifier(n_trees=150, seed=0).fit(X[::2], y[::2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_predict_memory_is_bounded_by_row_blocks(self, registry_forest):
        forest, X = registry_forest
        tiled = np.tile(X, (70, 1))  # 20,160 rows
        tracemalloc.start()
        try:
            predicted = forest.predict(tiled)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024
        assert np.array_equal(predicted, np.tile(forest.predict(X), 70))
        block = PREDICT_BLOCK_ROWS
        for lo, hi in [(0, block), (block - 5, block + 5), (2 * block - 1, 3 * block + 1)]:
            assert np.array_equal(predicted[lo:hi], forest.predict(tiled[lo:hi]))
        # one record is scored through a next-node table: its features,
        # comparisons and links, about 9.4 bytes a node when measured
        assert len(forest._nodes.right) <= TABLE_MAX_NODES
        assert _predict_peak(forest, X[:1]) < 24 * TABLE_MAX_NODES + 64 * 1024


def _predict_peak(forest, X_rows) -> int:
    """The peak bytes traced while ``forest`` predicts ``X_rows``, its links already cast."""
    forest.predict(X_rows)
    tracemalloc.start()
    try:
        forest.predict(X_rows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestForestVoteMatchesCastingVote:
    """The vote on links cast once per fitted forest equals casting on every call."""

    @pytest.mark.parametrize("rows", SAME_BITS_ROWS)
    def test_registry_forest(self, registry_forest, rows):
        forest, X = registry_forest
        X_rows = np.vstack([X, -X])[:rows]
        got = forest.predict(X_rows)
        assert got.tobytes() == forest_vote_with_casts(forest, X_rows).tobytes()
        assert all(a.dtype == np.intp for a in forest._walk)

    def test_table_node_budget_edges(self, registry_forest, monkeypatch):
        # one record takes the next-node table, whose (nodes,) arrays show in
        # its peak, while the forest has at most TABLE_MAX_NODES nodes; two
        # records, or one more node, descend level by level on (trees, rows) arrays
        forest, X = registry_forest
        n_nodes = len(forest._nodes.right)
        X_rows = np.vstack([X, -X])
        assert forest.predict(X[:0]).tobytes() == forest_vote_with_casts(forest, X[:0]).tobytes()
        for budget in (n_nodes, n_nodes - 1):
            monkeypatch.setattr(trees, "TABLE_MAX_NODES", budget)
            for n_rows in (1, 2):
                table = n_rows == 1 and budget == n_nodes
                assert (_predict_peak(forest, X_rows[:n_rows]) > 8 * n_nodes) == table
                for start in range(0, len(X_rows) - n_rows + 1, 37):
                    block = X_rows[start : start + n_rows]
                    got = forest.predict(block)
                    assert got.tobytes() == forest_vote_with_casts(forest, block).tobytes()

    def test_rows_with_nan_and_infinite_features(self, registry_forest):
        # NaN <= threshold is false, so a NaN goes right at every split, as +inf does
        forest, X = registry_forest
        odd = np.tile(X[:12], (3, 1))
        for i, row in enumerate(odd):
            row[i % X.shape[1]] = (np.nan, np.inf, -np.inf)[i // 12]
        odd[-1] = np.nan
        for n_rows in (1, 2, len(odd)):
            for start in range(0, len(odd) - n_rows + 1):
                block = odd[start : start + n_rows]
                got = forest.predict(block)
                assert got.tobytes() == forest_vote_with_casts(forest, block).tobytes()

    def test_loaded_forest(self, registry_forest):
        forest, X = registry_forest
        loaded = pickle.loads(pickle.dumps(forest))
        assert loaded._walk is None
        for n_rows in (1, 2, 144):
            for block in (X[:n_rows], X[-n_rows:]):
                got = loaded.predict(block)
                assert got.tobytes() == forest_vote_with_casts(forest, block).tobytes()

    def test_one_record_without_feature_columns(self):
        # every tree is one leaf, so there is no feature to build a table from
        labels = np.array([2, 0, 1, 1, 0, 2, 2, 1, 0])
        forest = RandomForestClassifier(n_trees=9, seed=3).fit(np.zeros((9, 0)), labels)
        record = np.zeros((1, 0))
        assert forest.predict(record).tobytes() == forest_vote_with_casts(forest, record).tobytes()
        assert np.array_equal(forest._roots, np.arange(9))
        loaded = _assert_load_keeps_fit(forest)
        assert loaded.predict(record).tobytes() == forest.predict(record).tobytes()

    def test_refit_casts_the_new_links(self):
        X, y = _registry_rows()
        forest = RandomForestClassifier(n_trees=20, seed=3).fit(X[::2], y[::2])
        forest.predict(X)
        forest.fit(X[1::2], y[1::2])
        assert forest._walk is None
        fresh = RandomForestClassifier(n_trees=20, seed=3).fit(X[1::2], y[1::2])
        assert np.array_equal(forest.predict(X), fresh.predict(X))
        assert pickle.dumps(forest) == pickle.dumps(fresh)


class TestSvm:
    def test_separable_blobs(self):
        rng = np.random.default_rng(21)
        X, y = make_blobs(rng, [(-2.0, -2.0), (2.0, 2.0)], 50, spread=0.5)
        model = SvmClassifier(C=1.0).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_multiclass_voting(self):
        rng = np.random.default_rng(22)
        centers = [(-4, -4), (4, -4), (0, 4), (8, 8)]
        X, y = make_blobs(rng, centers, 30, spread=0.6)
        model = SvmClassifier().fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.97

    def test_alpha_bounds_and_kkt(self):
        rng = np.random.default_rng(23)
        X, y = make_blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], 40, spread=0.8)
        model = SvmClassifier(C=1.0).fit(X, y)
        for pair in model._pairs:
            assert np.all(np.abs(pair["coef"]) <= model.C + 1e-9)
        gram = rbf_kernel(X, X, model.gamma_)
        assert model.max_kkt_violation(gram, y) < 1e-2

    def test_precomputed_kernel_matches_rbf_path(self):
        rng = np.random.default_rng(24)
        X, y = make_blobs(rng, [(-2.0, 1.0), (2.0, -1.0)], 35, spread=0.7)
        direct = SvmClassifier(kernel="rbf").fit(X, y)
        gram = rbf_kernel(X, X, direct.gamma_)
        pre = SvmClassifier(kernel="precomputed").fit(gram, y)
        test = rng.normal(size=(25, 2))
        cross = rbf_kernel(test, X, direct.gamma_)
        assert np.array_equal(direct.predict(test), pre.predict(cross))

    def test_same_matrix_same_predictions(self):
        # the solver is kernel-agnostic: an identical Gram matrix gives
        # identical support sets and predictions regardless of provenance
        rng = np.random.default_rng(25)
        X, y = make_blobs(rng, [(-1.5, 0.0), (1.5, 0.0)], 30)
        gram = rbf_kernel(X, X, 0.3)
        a = SvmClassifier(kernel="precomputed").fit(gram.copy(), y)
        b = SvmClassifier(kernel="precomputed").fit(gram.copy(), y)
        cross = rbf_kernel(rng.normal(size=(12, 2)), X, 0.3)
        assert np.array_equal(a.predict(cross), b.predict(cross))
        sa = a.fitted_state()
        sb = b.fitted_state()
        assert all(np.array_equal(pa["indices"], pb["indices"]) for pa, pb in zip(sa["pairs"], sb["pairs"]))

    def test_single_class_constant(self):
        model = SvmClassifier().fit(np.zeros((4, 2)), np.zeros(4))
        assert np.all(model.predict(np.ones((3, 2))) == 0.0)

    @pytest.mark.parametrize("kernel", ["rbf", "precomputed"])
    @pytest.mark.parametrize("order", ["one_class_first", "two_class_first"])
    def test_refit_across_class_counts_matches_fresh_fit(self, kernel, order):
        rng = np.random.default_rng(27)
        X, y = make_blobs(rng, [(-1.0, 0.0), (1.5, 0.5)], 20)
        inputs = X if kernel == "rbf" else rbf_kernel(X, X, 0.5)
        one_class = np.ones(len(y), dtype=int)
        labels = [one_class, y] if order == "one_class_first" else [y, one_class]
        model = SvmClassifier(kernel=kernel)
        for fit_labels in labels:
            model.fit(inputs, fit_labels)
        fresh = SvmClassifier(kernel=kernel).fit(inputs, labels[-1])
        assert np.array_equal(model.predict(inputs), fresh.predict(inputs))
        assert state_checksum(model.fitted_state()) == state_checksum(fresh.fitted_state())

    def test_gamma_scale_convention(self):
        rng = np.random.default_rng(26)
        X, y = make_blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], 20)
        model = SvmClassifier(gamma="scale").fit(X, y)
        assert abs(model.gamma_ - 1.0 / (X.shape[1] * X.var())) < 1e-12


def _zscored_registry_rows():
    X, y = _registry_rows()
    return (X - X.mean(axis=0)) / X.std(axis=0), y


def _pair_problem(K, y, a, b):
    """The binary sub-problem of the a-th (+1) and b-th (-1) class, as the voter builds it."""
    _, codes = np.unique(y, return_inverse=True)
    subset = np.nonzero((codes == a) | (codes == b))[0]
    y_pair = np.where(codes[subset] == a, 1.0, -1.0)
    assert 0 < np.sum(y_pair > 0) < len(y_pair)
    return K[np.ix_(subset, subset)], y_pair


def _assert_smo_matches_oracle(K, y_pair, C, tol=1e-3):
    alpha, bias = _BinarySmo(C, tol).solve(K, y_pair)
    want_alpha, want_bias = NumpyScalarSmo(C, tol).solve(K, y_pair)
    assert np.any(want_alpha > 0)
    assert type(bias) is float
    assert alpha.dtype == want_alpha.dtype
    assert alpha.tobytes() == want_alpha.tobytes()
    assert np.float64(bias).tobytes() == np.float64(want_bias).tobytes()
    return alpha


@pytest.fixture(scope="module")
def synthetic_rbf_gram():
    """The RBF Gram of all 288 z-scored synthetic records (gamma 'scale'), and their labels."""
    X, y = _zscored_registry_rows()
    return rbf_kernel(X, X, 1.0 / (X.shape[1] * X.var())), y


class TestSmoMatchesNumpyScalarSolver:
    """The Python-float solver returns the numpy-scalar solver's alpha and bias bit for bit."""

    @pytest.mark.parametrize("C", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("pair", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    def test_rbf_gram_of_every_class_pair(self, synthetic_rbf_gram, pair, C):
        K, y = synthetic_rbf_gram
        assert len(np.unique(y)) == 4
        _assert_smo_matches_oracle(*_pair_problem(K, y, *pair), C)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 3)])
    def test_fidelity_kernel_gram(self, pair):
        X, y = _registry_rows()
        states = QKernelClassifier(4).fit(X, y).train_states_
        _assert_smo_matches_oracle(*_pair_problem(cross_overlap_sq(states, states), y, *pair), 1.0)

    @pytest.mark.parametrize("labels", [(1.0, -1.0), (-1.0, 1.0)])
    def test_two_rows(self, labels):
        K = rbf_kernel(np.array([[0.0, 1.0], [1.0, 0.5]]), np.array([[0.0, 1.0], [1.0, 0.5]]), 0.7)
        alpha = _assert_smo_matches_oracle(K, np.array(labels), 1.0)
        assert np.all(alpha > 0)

    def test_every_alpha_ends_at_a_bound(self, synthetic_rbf_gram):
        K, y = synthetic_rbf_gram
        C = 0.01
        alpha = _assert_smo_matches_oracle(*_pair_problem(K, y, 1, 2), C)
        assert np.any(alpha > 0)
        assert np.all((alpha <= 1e-12) | (alpha >= C - 1e-12))

    def test_duplicated_rows_take_the_flat_direction(self):
        X, y = _zscored_registry_rows()
        classes = np.unique(y)
        rows = np.nonzero((y == classes[0]) | (y == classes[1]))[0][:40]
        # the first ten rows again, with the other label: eta is 0 between twins
        X_pair = np.vstack([X[rows], X[rows[:10]]])
        y_rows = np.where(y[rows] == classes[0], 1.0, -1.0)
        y_pair = np.concatenate([y_rows, -y_rows[:10]])
        K = rbf_kernel(X_pair, X_pair, 0.1)
        flat_moves = []

        class CountingSmo(NumpyScalarSmo):
            def _step(self, i1, i2):
                eta = self._K[i1, i1] + self._K[i2, i2] - 2.0 * self._K[i1, i2]
                moved = super()._step(i1, i2)
                if moved and i1 != i2 and eta <= 1e-12:
                    flat_moves.append((i1, i2))
                return moved

        for C in (1.0, 100.0):
            flat_moves.clear()
            want_alpha, want_bias = CountingSmo(C, 1e-3).solve(K, y_pair)
            assert flat_moves, "the flat-direction branch was not taken"
            alpha, bias = _BinarySmo(C, 1e-3).solve(K, y_pair)
            assert alpha.tobytes() == want_alpha.tobytes()
            assert np.float64(bias).tobytes() == np.float64(want_bias).tobytes()


@pytest.fixture(scope="module")
def four_class_svms():
    """RBF and precomputed SVMs fitted on 144 z-scored synthetic records, with their inputs."""
    X, y = _zscored_registry_rows()
    X_train, y_train = X[::2], y[::2]
    rbf = SvmClassifier().fit(X_train, y_train)
    gram = rbf_kernel(X_train, X_train, rbf.gamma_)
    pre = SvmClassifier(kernel="precomputed").fit(gram, y_train)
    cross = rbf_kernel(X, X_train, rbf.gamma_)
    return {"rbf": (rbf, X, cross), "precomputed": (pre, cross, cross)}, X_train, y_train


class TestOneVsOneDecision:
    """The decision arrays vote as the per-pair loop does, and stay out of pickles."""

    @pytest.mark.parametrize("kernel", ["rbf", "precomputed"])
    def test_votes_match_the_per_pair_loop(self, four_class_svms, kernel):
        models, _, _ = four_class_svms
        model, inputs, cross = models[kernel]
        assert len(model.classes_) == 4 and len(model._pairs) == 6
        want = ovo_votes_by_pair(cross, model._pairs, 4)
        votes = model.decision_votes(inputs)
        assert votes.dtype == want.dtype
        assert np.array_equal(votes, want)
        for i in range(0, len(inputs), 7):
            assert np.array_equal(model.decision_votes(inputs[i : i + 1]), want[i : i + 1])

    @pytest.mark.parametrize("kernel", ["rbf", "precomputed"])
    def test_pickle_leaves_the_decision_arrays_out(self, four_class_svms, kernel):
        models, _, _ = four_class_svms
        model, inputs, _ = models[kernel]
        before = pickle.dumps(model)
        votes = model.decision_votes(inputs)
        labels = model.predict(inputs)
        after = pickle.dumps(model)
        assert after == before
        assert b"_decision" not in after
        loaded = pickle.loads(after)
        assert np.array_equal(loaded.decision_votes(inputs), votes)
        assert np.array_equal(loaded.predict(inputs), labels)
        assert state_checksum(loaded.fitted_state()) == state_checksum(model.fitted_state())

    def test_rbf_model_keeps_only_its_support_rows(self, four_class_svms):
        models, X_train, _ = four_class_svms
        model = models["rbf"][0]
        support = np.unique(np.concatenate([pair["indices"] for pair in model._pairs]))
        assert 0 < len(support) < len(X_train)
        assert model._X_train.tobytes() == X_train[support].tobytes()

    @pytest.mark.parametrize("kernel", ["rbf", "precomputed"])
    def test_refit_across_one_and_four_classes_rebuilds_the_arrays(self, four_class_svms, kernel):
        models, X_train, y_train = four_class_svms
        test = models[kernel][1]
        inputs = X_train if kernel == "rbf" else rbf_kernel(X_train, X_train, models["rbf"][0].gamma_)
        one_class = np.full(len(y_train), "High")
        model = SvmClassifier(kernel=kernel).fit(inputs, one_class)
        assert model._decision is None
        assert np.all(model.predict(test) == "High")
        assert np.all(pickle.loads(pickle.dumps(model)).predict(test) == "High")
        model.fit(inputs, y_train)
        fresh = SvmClassifier(kernel=kernel).fit(inputs, y_train)
        assert np.array_equal(model.decision_votes(test), fresh.decision_votes(test))
        assert pickle.dumps(model) == pickle.dumps(fresh)
        model.fit(inputs, one_class)
        assert model._decision is None and model._X_train is None
        assert np.all(model.predict(test) == "High")


class TestStdOracle:
    def test_population_std_matches_two_pass(self):
        rng = np.random.default_rng(28)
        values = rng.integers(0, 500, size=16).astype(float)
        assert abs(np.std(values) - two_pass_std(values)) < 1e-10
