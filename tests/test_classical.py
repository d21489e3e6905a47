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
)
from qcb.classical.svm import rbf_kernel
from qcb.errors import UsageError

from oracles import two_pass_std


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

    def test_loss_trace_non_increasing(self):
        rng = np.random.default_rng(12)
        X, y = make_blobs(rng, [(-1.0, 0.0), (1.0, 0.0), (0.0, 2.0)], 30)
        model = LogisticRegressionClassifier().fit(X, y)
        trace = np.array(model.loss_trace_)
        assert np.all(np.diff(trace) <= 1e-12)

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

    def test_tree_count_matches_configuration(self):
        rng = np.random.default_rng(20)
        X, y = make_blobs(rng, [(-1.0,), (1.0,)], 15)
        assert len(RandomForestClassifier(n_trees=7, seed=0).fit(X, y).trees_) == 7


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

    def test_gamma_scale_convention(self):
        rng = np.random.default_rng(26)
        X, y = make_blobs(rng, [(-1.0, 0.0), (1.0, 0.0)], 20)
        model = SvmClassifier(gamma="scale").fit(X, y)
        assert abs(model.gamma_ - 1.0 / (X.shape[1] * X.var())) < 1e-12


class TestStdOracle:
    def test_population_std_matches_two_pass(self):
        rng = np.random.default_rng(28)
        values = rng.integers(0, 500, size=16).astype(float)
        assert abs(np.std(values) - two_pass_std(values)) < 1e-10
