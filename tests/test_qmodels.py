import numpy as np
import pytest

from qcb.circuits import (
    CircuitConfig,
    CircuitFamily,
    CostHamiltonian,
    build_qaoa_circuit,
    build_vqc_circuit,
)
from qcb.errors import UsageError
from qcb.optimize import OptBudget
from qcb.qmodels import (
    HybridCqPipeline,
    HybridQcPipeline,
    QKernelClassifier,
    QaoaClassifier,
    VqcClassifier,
    feature_map_states,
    qaoa_features,
    quantum_kernel_matrix,
    vqc_features,
)
from qcb.qsim import QuantumState, apply_circuit, expectation_x, expectation_z, init_plus, init_zero

from oracles import dense_simulate


def separable_data(rng, n_samples=60, n_features=2):
    X = rng.uniform(-1.0, 1.0, size=(n_samples, n_features))
    y = (X[:, 0] > 0).astype(int)
    # guarantee both classes appear
    X[0, 0], X[1, 0] = -0.9, 0.9
    y[0], y[1] = 0, 1
    return X, y


class TestVqcFeatures:
    def test_single_qubit_identity_angles(self):
        config = CircuitConfig(CircuitFamily.VQC, 1, 1)
        feats = vqc_features(config, [0.0], np.array([[0.0]]))
        assert feats.shape == (1, 1)
        assert feats[0, 0] == 1.0

    def test_single_qubit_equals_cosine(self):
        config = CircuitConfig(CircuitFamily.VQC, 1, 1)
        xs = np.linspace(0.0, np.pi, 25)
        feats = vqc_features(config, [0.0], xs[:, None])
        assert np.allclose(feats[:, 0], np.cos(xs), atol=1e-10)
        assert abs(vqc_features(config, [0.0], [[np.pi / 2]])[0, 0]) < 1e-10

    def test_matches_dense_oracle_with_entanglement(self):
        rng = np.random.default_rng(1)
        config = CircuitConfig(CircuitFamily.VQC, 2, 2)
        theta = rng.uniform(0, 2 * np.pi, size=4)
        X = rng.uniform(0, np.pi, size=(5, 2))
        feats = vqc_features(config, theta, X)
        for row in range(5):
            gates = build_vqc_circuit(config, X[row], theta)
            amps = dense_simulate(gates, 2)
            probs = np.abs(amps) ** 2
            expected0 = probs[0] + probs[2] - probs[1] - probs[3]
            expected1 = probs[0] + probs[1] - probs[2] - probs[3]
            assert abs(feats[row, 0] - expected0) < 1e-10
            assert abs(feats[row, 1] - expected1) < 1e-10

    def test_batch_equals_per_sample_circuit_path(self):
        rng = np.random.default_rng(2)
        config = CircuitConfig(CircuitFamily.VQC, 3, 2)
        theta = rng.uniform(0, 2 * np.pi, size=6)
        X = rng.uniform(0, np.pi, size=(8, 3))
        feats = vqc_features(config, theta, X)
        for row in range(8):
            state = apply_circuit(init_zero(3), build_vqc_circuit(config, X[row], theta))
            expected = [expectation_z(state, q) for q in range(3)]
            assert np.allclose(feats[row], expected, atol=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        config = CircuitConfig(CircuitFamily.VQC, 4, 2)
        feats = vqc_features(
            config, rng.uniform(0, 2 * np.pi, 8), rng.uniform(0, np.pi, size=(30, 4))
        )
        assert np.all(feats >= -1.0) and np.all(feats <= 1.0)

    def test_column_mismatch(self):
        config = CircuitConfig(CircuitFamily.VQC, 2, 1)
        with pytest.raises(UsageError):
            vqc_features(config, [0.0, 0.0], np.zeros((3, 3)))


class TestQaoaFeatures:
    def test_zero_angles_give_plus_state_features(self):
        config = CircuitConfig(CircuitFamily.QAOA, 4, 2)
        h = CostHamiltonian(
            zz_terms=((0, 1, 0.8),), z_terms=tuple((q, 0.3) for q in range(4))
        )
        X = np.random.default_rng(4).uniform(0, np.pi, size=(6, 4))
        feats = qaoa_features(config, h, np.zeros(8), np.zeros(8), X)
        assert feats.shape == (6, 8)
        assert np.all(feats[:, :4] == 0.0)
        assert np.all(feats[:, 4:] == 1.0)

    def test_single_qubit_matches_dense_oracle(self):
        config = CircuitConfig(CircuitFamily.QAOA, 1, 1)
        h = CostHamiltonian(zz_terms=(), z_terms=((0, 0.0),))
        x_value = 0.8
        gamma, beta = np.array([0.6]), np.array([0.4])
        feats = qaoa_features(config, h, gamma, beta, np.array([[x_value]]))
        sample_h = CostHamiltonian(zz_terms=(), z_terms=((0, x_value),))
        gates = build_qaoa_circuit(config, sample_h, gamma, beta)
        state = apply_circuit(init_plus(1), gates)
        assert abs(feats[0, 0] - expectation_z(state, 0)) < 1e-12
        assert abs(feats[0, 1] - expectation_x(state, 0)) < 1e-12

    def test_batch_equals_per_sample_circuit_path(self):
        rng = np.random.default_rng(5)
        config = CircuitConfig(CircuitFamily.QAOA, 3, 2)
        h = CostHamiltonian(
            zz_terms=((0, 2, 0.7), (1, 2, -0.6)),
            z_terms=tuple((q, 0.0) for q in range(3)),
        )
        gamma = rng.uniform(0, 2 * np.pi, 6)
        beta = rng.uniform(0, 2 * np.pi, 6)
        X = rng.uniform(0, np.pi, size=(7, 3))
        feats = qaoa_features(config, h, gamma, beta, X)
        for row in range(7):
            sample_h = CostHamiltonian(
                zz_terms=h.zz_terms,
                z_terms=tuple((q, float(X[row, q])) for q in range(3)),
            )
            state = apply_circuit(
                init_plus(3), build_qaoa_circuit(config, sample_h, gamma, beta)
            )
            expected = [expectation_z(state, q) for q in range(3)] + [
                expectation_x(state, q) for q in range(3)
            ]
            assert np.allclose(feats[row], expected, atol=1e-12)

    def test_features_within_bounds(self):
        rng = np.random.default_rng(6)
        config = CircuitConfig(CircuitFamily.QAOA, 4, 2)
        h = CostHamiltonian(
            zz_terms=((0, 1, 0.9), (2, 3, -0.8)),
            z_terms=tuple((q, 0.1) for q in range(4)),
        )
        feats = qaoa_features(
            config,
            h,
            rng.uniform(0, 2 * np.pi, 8),
            rng.uniform(0, 2 * np.pi, 8),
            rng.uniform(0, np.pi, size=(25, 4)),
        )
        assert np.all(feats >= -1.0) and np.all(feats <= 1.0)


class TestQuantumKernel:
    def test_self_kernel_unit_diagonal(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, np.pi, size=(12, 4))
        K = quantum_kernel_matrix(X, X)
        assert np.allclose(np.diag(K), 1.0, atol=1e-10)

    def test_single_feature_closed_form(self):
        xs = np.array([[0.3], [1.1], [2.0]])
        K = quantum_kernel_matrix(xs, xs)
        for i in range(3):
            for j in range(3):
                expected = np.cos(xs[i, 0] - xs[j, 0]) ** 2
                assert abs(K[i, j] - expected) < 1e-12
        assert abs(K[0, 1] - np.cos(0.8) ** 2) < 1e-12

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, np.pi, size=(20, 4))
        K = quantum_kernel_matrix(X, X)
        assert np.allclose(K, K.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh((K + K.T) / 2)) >= -1e-8

    def test_cross_kernel_shape(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(0, np.pi, size=(5, 3))
        B = rng.uniform(0, np.pi, size=(7, 3))
        assert quantum_kernel_matrix(A, B).shape == (5, 7)

    def test_width_mismatch(self):
        with pytest.raises(UsageError):
            quantum_kernel_matrix(np.zeros((2, 3)), np.zeros((2, 4)))


class TestVqcTraining:
    def test_separable_reaches_high_training_accuracy(self):
        rng = np.random.default_rng(10)
        X, y = separable_data(rng)
        model = VqcClassifier(2, 1, budget=OptBudget(max_evals=150), seed=0).fit(X, y)
        assert np.mean(model.predict(X) == y) >= 0.9

    def test_budget_one_keeps_initial_parameters(self):
        rng = np.random.default_rng(11)
        X, y = separable_data(rng, 30)
        model = VqcClassifier(2, 1, budget=OptBudget(max_evals=1), seed=7).fit(X, y)
        from qcb.optimize import random_init

        assert np.array_equal(model.theta_, random_init(2, 7))
        assert model.head_ is not None

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(12)
        X, y = separable_data(rng, 40)
        a = VqcClassifier(2, 2, budget=OptBudget(max_evals=40), seed=3).fit(X, y)
        b = VqcClassifier(2, 2, budget=OptBudget(max_evals=40), seed=3).fit(X, y)
        assert np.array_equal(a.theta_, b.theta_)
        holdout = rng.uniform(-1, 1, size=(20, 2))
        assert np.array_equal(a.predict(holdout), b.predict(holdout))

    def test_objective_trace_best_accuracy_non_decreasing(self):
        rng = np.random.default_rng(13)
        X, y = separable_data(rng, 50)
        model = VqcClassifier(2, 2, budget=OptBudget(max_evals=60), seed=1).fit(X, y)
        losses = [value for _, value in model.opt_result_.trace]
        best_acc = np.maximum.accumulate([-v for v in losses])
        assert np.all(np.diff(best_acc) >= 0)

    def test_single_class_constant(self):
        X = np.random.default_rng(14).uniform(size=(10, 2))
        model = VqcClassifier(2, 1, budget=OptBudget(max_evals=5)).fit(X, np.zeros(10))
        assert np.all(model.predict(X) == 0.0)

    def test_theta_holds_one_angle_per_qubit_and_layer(self):
        rng = np.random.default_rng(15)
        X, y = separable_data(rng, 30)
        model = VqcClassifier(2, 2, budget=OptBudget(max_evals=20), seed=2).fit(X, y)
        assert model.theta_.shape == (4,)
        assert model.metadata()["param_count"] == 4


class TestQaoaTraining:
    def test_param_vector_length_for_registry_shapes(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, size=(60, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = QaoaClassifier(4, 2, budget=OptBudget(max_evals=10), seed=0).fit(X, y)
        assert len(model.gamma_) + len(model.beta_) == 16

    def test_separable_reaches_high_training_accuracy(self):
        rng = np.random.default_rng(17)
        X, y = separable_data(rng)
        model = QaoaClassifier(2, 1, budget=OptBudget(max_evals=150), seed=0).fit(X, y)
        assert np.mean(model.predict(X) == y) >= 0.9

    def test_uncorrelated_features_yield_z_only_hamiltonian(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] > 0).astype(int)
        model = QaoaClassifier(3, 1, budget=OptBudget(max_evals=15), seed=0).fit(X, y)
        assert model.hamiltonian_.zz_terms == ()
        assert len(model.hamiltonian_.z_terms) == 3
        model.predict(X)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(19)
        X, y = separable_data(rng, 40)
        a = QaoaClassifier(2, 2, budget=OptBudget(max_evals=25), seed=5).fit(X, y)
        b = QaoaClassifier(2, 2, budget=OptBudget(max_evals=25), seed=5).fit(X, y)
        assert np.array_equal(a.gamma_, b.gamma_)
        assert np.array_equal(a.beta_, b.beta_)


class TestQKernelTraining:
    def test_separable_single_feature(self):
        rng = np.random.default_rng(20)
        x = np.concatenate([rng.uniform(-1, -0.3, 30), rng.uniform(0.3, 1.0, 30)])
        y = (x > 0).astype(int)
        model = QKernelClassifier(1).fit(x[:, None], y)
        assert np.mean(model.predict(x[:, None]) == y) >= 0.9

    def test_single_class_flagged(self):
        model = QKernelClassifier(2).fit(np.random.default_rng(21).uniform(size=(8, 2)), np.ones(8))
        assert model.constant_class_ == 1.0
        assert np.all(model.predict(np.zeros((3, 2))) == 1.0)

    def test_deterministic_support_set(self):
        rng = np.random.default_rng(22)
        X = rng.uniform(-1, 1, size=(40, 4))
        y = (X[:, 0] + X[:, 3] > 0).astype(int)
        a = QKernelClassifier(4).fit(X, y)
        b = QKernelClassifier(4).fit(X, y)
        for pa, pb in zip(a.fitted_state()["svm"]["pairs"], b.fitted_state()["svm"]["pairs"]):
            assert np.array_equal(pa["indices"], pb["indices"])
            assert np.array_equal(pa["coef"], pb["coef"])


class TestHybridQc:
    def test_head_composition_identity(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(-1, 1, size=(50, 8))
        y = (X[:, 0] + X[:, 5] > 0).astype(int)
        pipeline = HybridQcPipeline(
            "logistic_regression", seed=0, budget=OptBudget(max_evals=10)
        ).fit(X, y)
        holdout = rng.uniform(-1, 1, size=(15, 8))
        direct = pipeline.head_.predict(pipeline.features(holdout))
        assert np.array_equal(pipeline.predict(holdout), direct)

    def test_all_four_heads_construct(self):
        rng = np.random.default_rng(24)
        X = rng.uniform(-1, 1, size=(40, 7))
        y = (X[:, 1] > 0).astype(int)
        for head in ("random_forest", "svm_rbf", "logistic_regression", "decision_tree"):
            pipeline = HybridQcPipeline(head, seed=1, budget=OptBudget(max_evals=5)).fit(X, y)
            assert pipeline.metadata()["intermediate_features"] == 6
            pipeline.predict(X[:5])

    def test_forest_head_uses_hundred_trees(self):
        rng = np.random.default_rng(25)
        X = rng.uniform(-1, 1, size=(40, 6))
        y = (X[:, 0] > 0).astype(int)
        pipeline = HybridQcPipeline(
            "random_forest", seed=0, budget=OptBudget(max_evals=3)
        ).fit(X, y)
        assert len(pipeline.head_.trees_) == 100

    def test_deterministic(self):
        rng = np.random.default_rng(26)
        X = rng.uniform(-1, 1, size=(30, 6))
        y = (X[:, 2] > 0).astype(int)
        a = HybridQcPipeline("decision_tree", seed=4, budget=OptBudget(max_evals=5)).fit(X, y)
        b = HybridQcPipeline("decision_tree", seed=4, budget=OptBudget(max_evals=5)).fit(X, y)
        holdout = rng.uniform(-1, 1, size=(10, 6))
        assert np.array_equal(a.predict(holdout), b.predict(holdout))

    def test_rejects_narrow_input(self):
        with pytest.raises(UsageError):
            HybridQcPipeline("svm_rbf", budget=OptBudget(max_evals=2)).fit(
                np.zeros((10, 3)), np.arange(10) % 2
            )


class TestHybridCq:
    def test_projection_has_four_columns(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(60, 9))
        y = (X[:, 0] > 0).astype(int)
        pipeline = HybridCqPipeline("vqc", seed=0, budget=OptBudget(max_evals=5)).fit(X, y)
        assert pipeline.project(X).shape == (60, 4)
        assert pipeline.metadata()["pca_components"] == 4

    def test_all_three_quantum_kinds(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(50, 6))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        for kind in ("vqc", "qaoa", "qkernel"):
            pipeline = HybridCqPipeline(kind, seed=2, budget=OptBudget(max_evals=5)).fit(X, y)
            assert pipeline.predict(X[:6]).shape == (6,)

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(40, 5))
        y = (X[:, 1] > 0).astype(int)
        a = HybridCqPipeline("qaoa", seed=3, budget=OptBudget(max_evals=8)).fit(X, y)
        b = HybridCqPipeline("qaoa", seed=3, budget=OptBudget(max_evals=8)).fit(X, y)
        holdout = rng.normal(size=(12, 5))
        assert np.array_equal(a.predict(holdout), b.predict(holdout))

    def test_needs_enough_features(self):
        with pytest.raises(UsageError):
            HybridCqPipeline("vqc").fit(np.zeros((10, 3)), np.arange(10) % 2)


class TestTrainedCircuitState:
    def test_family_keys_of_fitted_state(self):
        rng = np.random.default_rng(31)
        X, y = separable_data(rng, 30)
        shared = {"kind", "scalers", "constant_class", "head"}
        vqc = VqcClassifier(2, 1, budget=OptBudget(max_evals=5)).fit(X, y)
        assert set(vqc.fitted_state()) == shared | {"theta", "correlation_pairs"}
        qaoa = QaoaClassifier(2, 1, budget=OptBudget(max_evals=5)).fit(X, y)
        assert set(qaoa.fitted_state()) == shared | {"gamma", "beta", "zz_terms", "z_offsets"}
        assert np.array_equal(np.concatenate([qaoa.gamma_, qaoa.beta_]), qaoa.params_)

    def test_single_class_qaoa_keeps_zero_angles(self):
        X = np.random.default_rng(32).uniform(size=(10, 2))
        model = QaoaClassifier(2, 2, budget=OptBudget(max_evals=5)).fit(X, np.ones(10))
        assert np.array_equal(model.gamma_, np.zeros(4))
        assert np.array_equal(model.beta_, np.zeros(4))
        assert model.opt_result_ is None
        assert "head" not in model.fitted_state()
        assert np.all(model.predict(X) == 1.0)

    def test_predict_before_fit_rejected(self):
        for model in (VqcClassifier(2, 1), QaoaClassifier(2, 1)):
            with pytest.raises(UsageError):
                model.predict(np.zeros((2, 2)))


class TestNoLeakageIntoFittedState:
    def test_fitted_state_ignores_unseen_rows(self):
        rng = np.random.default_rng(30)
        X, y = separable_data(rng, 40)
        model = VqcClassifier(2, 1, budget=OptBudget(max_evals=10), seed=0).fit(X, y)
        state_before = repr(model.fitted_state())
        model.predict(rng.uniform(-1, 1, size=(25, 2)))
        assert repr(model.fitted_state()) == state_before
