import hashlib
import lzma
import os
import pickle
import struct
import subprocess
import sys
import zlib
from enum import Enum
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from qcb.circuits import (
    CircuitConfig,
    CircuitFamily,
    CorrelationGraph,
    CostHamiltonian,
    apply_vqc_layers,
    build_feature_map,
    build_qaoa_circuit,
    build_vqc_circuit,
    vqc_trainable_gates,
)
import qcb
from qcb import modelbytes, optimize, qmodels, qsim
from qcb.classical import (
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
    ScalerKind,
    ScalerState,
    SvmClassifier,
)
from qcb.data import build_dataset, select_features, synthesize
from qcb.errors import ConfigurationError, UsageError
from qcb.evalharness.registry import default_registry
from qcb.evalharness.runner import state_checksum
from qcb.qmodels import (
    TRAINING_EVALS,
    HybridCqPipeline,
    HybridQcPipeline,
    QKernelClassifier,
    QaoaClassifier,
    VqcClassifier,
    feature_map_states,
    qaoa_features,
    quantum_kernel_matrix,
    split_extractor,
    vqc_features,
    vqc_operator,
)

from oracles import (
    SAME_BITS_ROWS,
    apply_scaler_with_where,
    clip_z_expectations,
    dense_gate_matrix,
    dense_simulate,
    doubling_z_phase_rows,
    pauli_x,
    per_layer_qaoa_amplitudes,
    plus_state,
)


def _accuracy(model, X, y) -> float:
    return float(np.mean(model.predict(X) == y))


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
            state = dense_simulate(build_vqc_circuit(config, X[row], theta), 3)
            expected, _ = _dense_expectations(state, 3)
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

    def test_term_outside_the_register_rejected(self):
        config = CircuitConfig(CircuitFamily.QAOA, 2, 1)
        X = np.zeros((3, 2))
        for h in (
            CostHamiltonian(zz_terms=((0, 2, 0.5),), z_terms=((0, 0.0),)),
            CostHamiltonian(zz_terms=(), z_terms=((2, 0.0),)),
        ):
            with pytest.raises(UsageError):
                qaoa_features(config, h, np.zeros(2), np.zeros(2), X)
            with pytest.raises(UsageError):
                qmodels.compile_qaoa(config, h, X)

    def test_single_qubit_matches_dense_oracle(self):
        config = CircuitConfig(CircuitFamily.QAOA, 1, 1)
        h = CostHamiltonian(zz_terms=(), z_terms=((0, 0.0),))
        x_value = 0.8
        gamma, beta = np.array([0.6]), np.array([0.4])
        feats = qaoa_features(config, h, gamma, beta, np.array([[x_value]]))
        sample_h = CostHamiltonian(zz_terms=(), z_terms=((0, x_value),))
        gates = build_qaoa_circuit(config, sample_h, gamma, beta)
        z, x = _dense_expectations(dense_simulate(gates, 1, plus_state(1)), 1)
        assert abs(feats[0, 0] - z[0]) < 1e-12
        assert abs(feats[0, 1] - x[0]) < 1e-12

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
            gates = build_qaoa_circuit(config, sample_h, gamma, beta)
            z, x = _dense_expectations(dense_simulate(gates, 3, plus_state(3)), 3)
            assert np.allclose(feats[row], np.concatenate([z, x]), atol=1e-12)

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


def _pair_graph(n_features, pairs):
    rho = np.eye(n_features)
    for i, j, w in pairs:
        rho[i, j] = rho[j, i] = w
    return CorrelationGraph(n_features=n_features, rho=rho, pairs=tuple(pairs))


def _non_ladder_graph(n_qubits):
    """Pairs that skip qubits wherever the register is wide enough."""
    if n_qubits == 1:
        return None
    pairs = [(0, n_qubits - 1, 0.9)]
    if n_qubits >= 4:
        pairs.append((1, 3, -0.7))
    return _pair_graph(n_qubits, pairs)


def _dense_expectations(amps, n_qubits):
    """<Z_q> and <X_q> of one dense state, from explicit sums and matrices."""
    probs = np.abs(amps) ** 2
    z = [sum(p * (1 - 2 * ((b >> q) & 1)) for b, p in enumerate(probs)) for q in range(n_qubits)]
    x = [
        float(np.real(np.vdot(amps, dense_gate_matrix(pauli_x(q), n_qubits) @ amps)))
        for q in range(n_qubits)
    ]
    return np.array(z), np.array(x)


_SHAPES = [(n, layers) for n in range(1, 7) for layers in (1, 2, 3)]


class TestCompiledFeaturesMatchDenseOracle:
    """The compiled feature paths against dense matrices of the gate lists."""

    @pytest.mark.parametrize("n_qubits,layers", _SHAPES)
    @pytest.mark.parametrize("with_graph", [True, False])
    def test_vqc(self, n_qubits, layers, with_graph):
        rng = np.random.default_rng(100 * n_qubits + 10 * layers + with_graph)
        graph = _non_ladder_graph(n_qubits) if with_graph else None
        config = CircuitConfig(CircuitFamily.VQC, n_qubits, layers, graph)
        theta = rng.uniform(0, 2 * np.pi, n_qubits * layers)
        X = rng.uniform(0, np.pi, size=(50, n_qubits))
        batch = vqc_features(config, theta, X)
        for row in range(50):
            amps = dense_simulate(build_vqc_circuit(config, X[row], theta), n_qubits)
            z, _ = _dense_expectations(amps, n_qubits)
            assert np.max(np.abs(batch[row] - z)) < 1e-12
        assert np.max(np.abs(vqc_features(config, theta, X[7:8])[0] - batch[7])) < 1e-12

    @pytest.mark.parametrize("n_qubits,layers", _SHAPES)
    @pytest.mark.parametrize("with_graph", [True, False])
    def test_vqc_operator(self, n_qubits, layers, with_graph):
        # column b of the folded layers is the trainable gate list run from |b>
        rng = np.random.default_rng(400 * n_qubits + 10 * layers + with_graph)
        graph = _non_ladder_graph(n_qubits) if with_graph else None
        config = CircuitConfig(CircuitFamily.VQC, n_qubits, layers, graph)
        theta = rng.uniform(0, 2 * np.pi, n_qubits * layers)
        U = vqc_operator(config, theta)
        gates = vqc_trainable_gates(config, theta)
        dim = 1 << n_qubits
        assert U.shape == (dim, dim) and U.dtype == np.float64
        for b in range(dim):
            expected = dense_simulate(gates, n_qubits, np.eye(dim)[b])
            assert np.max(np.abs(U[:, b] - expected)) < 1e-12
        assert np.max(np.abs(U.T @ U - np.eye(dim))) < 1e-12
        # the product of Kronecker layers against the layers applied gate by gate
        assert np.max(np.abs(U - apply_vqc_layers(config, np.eye(dim), theta))) <= 1e-14

    @pytest.mark.parametrize("n_qubits,layers", _SHAPES)
    @pytest.mark.parametrize("with_zz", [True, False])
    def test_qaoa(self, n_qubits, layers, with_zz):
        rng = np.random.default_rng(200 * n_qubits + 10 * layers + with_zz)
        graph = _non_ladder_graph(n_qubits) if with_zz else None
        config = CircuitConfig(CircuitFamily.QAOA, n_qubits, layers, graph)
        if graph is not None:
            h = CostHamiltonian(
                zz_terms=graph.pairs, z_terms=tuple((q, 0.5) for q in range(n_qubits))
            )
        else:
            # no couplings, and Z terms on the even qubits only
            h = CostHamiltonian(zz_terms=(), z_terms=tuple((q, 0.5) for q in range(0, n_qubits, 2)))
        gamma = rng.uniform(0, 1, n_qubits * layers)
        beta = rng.uniform(0, 2 * np.pi, n_qubits * layers)
        X = rng.uniform(0, np.pi, size=(50, n_qubits))
        batch = qaoa_features(config, h, gamma, beta, X)
        plus = np.full(1 << n_qubits, 2.0 ** (-n_qubits / 2))
        for row in range(50):
            sample_h = CostHamiltonian(
                zz_terms=h.zz_terms, z_terms=tuple((q, float(X[row, q])) for q, _ in h.z_terms)
            )
            gates = build_qaoa_circuit(config, sample_h, gamma, beta)
            z, x = _dense_expectations(dense_simulate(gates, n_qubits, plus), n_qubits)
            assert np.max(np.abs(batch[row] - np.concatenate([z, x]))) < 1e-12
        single = qaoa_features(config, h, gamma, beta, X[7:8])
        assert np.max(np.abs(single[0] - batch[7])) < 1e-12

    @pytest.mark.parametrize("n_qubits", range(1, 7))
    def test_feature_map(self, n_qubits):
        rng = np.random.default_rng(300 + n_qubits)
        X = rng.uniform(0, np.pi, size=(50, n_qubits))
        batch = feature_map_states(X)
        for row in range(50):
            expected = dense_simulate(build_feature_map(X[row]), n_qubits)
            assert np.max(np.abs(batch[row] - expected)) < 1e-12
        assert np.max(np.abs(feature_map_states(X[7:8])[0] - batch[7])) < 1e-12


def _all_pairs_graph(n_qubits, rng):
    if n_qubits == 1:
        return None
    pairs = [
        (i, j, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.55, 0.95)))
        for i, j in combinations(range(n_qubits), 2)
    ]
    return _pair_graph(n_qubits, pairs)


class TestSameBitsAsReferencePaths:
    """Features and scaled rows equal the bits of their reference forms at each shape.

    A one-row matmul and the same row of a batch matmul may take different
    BLAS paths, so each case compares the two paths on the same rows.
    """

    @pytest.mark.parametrize("rows", SAME_BITS_ROWS)
    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("n_qubits", range(1, 9))
    def test_qaoa_features_equal_the_per_layer_loop(self, n_qubits, layers, rows):
        rng = np.random.default_rng(500 + 10 * n_qubits + layers)
        graph = _all_pairs_graph(n_qubits, rng)
        config = CircuitConfig(CircuitFamily.QAOA, n_qubits, layers, graph)
        h = CostHamiltonian(
            zz_terms=graph.pairs if graph else (),
            z_terms=tuple((q, 0.5) for q in range(n_qubits)),
        )
        gamma = rng.uniform(0, 1, n_qubits * layers)
        beta = rng.uniform(0, 2 * np.pi, n_qubits * layers)
        X = rng.uniform(0, np.pi, size=(rows, n_qubits))
        operators = qmodels.qaoa_operators(config, h, gamma, beta)
        amps = per_layer_qaoa_amplitudes(
            X * operators.z_weights, gamma, operators.zz_phases, operators.mixers
        )
        want = np.hstack([
            clip_z_expectations(amps, n_qubits),
            clip_z_expectations(amps @ qsim.hadamard_product(n_qubits), n_qubits),
        ])
        got = qaoa_features(config, h, gamma, beta, X)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", SAME_BITS_ROWS)
    @pytest.mark.parametrize("n_qubits", range(1, 9))
    def test_feature_map_equals_the_uncached_form(self, n_qubits, rows):
        X = np.random.default_rng(600 + n_qubits).uniform(0, np.pi, size=(rows, n_qubits))
        pairs = tuple(combinations(range(n_qubits), 2))
        i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
        zz_angle = (X[:, i] * X[:, j]) @ qsim.zz_signs(n_qubits, pairs)
        want = (1 << n_qubits) ** -0.5 * doubling_z_phase_rows(X) * np.exp(-1j * zz_angle)
        assert feature_map_states(X).tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", SAME_BITS_ROWS)
    @pytest.mark.parametrize("chain_kind", ["fitted", "constant_column", "unit"])
    def test_scale_chain_equals_two_checked_scalers(self, chain_kind, rows):
        rng = np.random.default_rng(700 + rows)
        X_train = rng.normal(size=(40, 6))
        if chain_kind == "constant_column":
            X_train[:, 1] = 2.5
        chain, _ = qmodels._fit_scale_chain(X_train, 4)
        if chain_kind == "unit":
            # zero offsets and unit scales: a -0.0 input reaches the ANGLE clamp as -0.0
            def unit(kind):
                return ScalerState(kind, np.zeros(4), np.ones(4), np.zeros(4, dtype=bool))

            chain = qmodels._ScaleChain(4, unit(ScalerKind.ZSCORE), unit(ScalerKind.ANGLE))
        assert bool(chain.zscore.degenerate.any()) == (chain_kind == "constant_column")
        X = rng.normal(scale=3.0, size=(rows, 6))  # beyond the training range, so the clamp acts
        X[0, 0] = -0.0
        if rows > 1:
            X[1, 2] = np.nan
        want = apply_scaler_with_where(chain.angle, apply_scaler_with_where(chain.zscore, X[:, :4]))
        got = chain.transform(X)
        assert got.tobytes() == want.tobytes()
        if chain_kind == "unit":
            assert np.signbit(got[0, 0]) and got[0, 0] == 0.0  # np.clip keeps -0.0
        if rows > 1:
            assert np.isnan(got[1, 2])


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

    def test_register_wider_than_the_simulator_rejected(self):
        with pytest.raises(ConfigurationError):
            feature_map_states(np.zeros((2, 13)))


class TestVqcTraining:
    def test_separable_reaches_high_training_accuracy(self):
        rng = np.random.default_rng(10)
        X, y = separable_data(rng)
        model = VqcClassifier(2, 1, max_evals=150, seed=0).fit(X, y)
        assert np.mean(model.predict(X) == y) >= 0.9

    def test_budget_one_keeps_initial_parameters(self):
        rng = np.random.default_rng(11)
        X, y = separable_data(rng, 30)
        model = VqcClassifier(2, 1, max_evals=1, seed=7).fit(X, y)
        from qcb.optimize import random_init

        assert np.array_equal(model.theta_, random_init(2, 7))
        assert model.head_ is not None

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(12)
        X, y = separable_data(rng, 40)
        a = VqcClassifier(2, 2, max_evals=40, seed=3).fit(X, y)
        b = VqcClassifier(2, 2, max_evals=40, seed=3).fit(X, y)
        assert np.array_equal(a.theta_, b.theta_)
        holdout = rng.uniform(-1, 1, size=(20, 2))
        assert np.array_equal(a.predict(holdout), b.predict(holdout))

    def test_best_params_are_first_argmin_of_evaluated_losses(self, monkeypatch):
        recorded = []

        def recording_minimize(loss, x0, max_evals):
            def recording_loss(params):
                value = loss(params)
                recorded.append((params.copy(), value))
                return value

            return optimize.minimize(recording_loss, x0, max_evals)

        monkeypatch.setattr(qmodels, "minimize", recording_minimize)
        rng = np.random.default_rng(13)
        X, y = separable_data(rng, 50)
        model = VqcClassifier(2, 2, max_evals=60, seed=1).fit(X, y)
        losses = [value for _, value in recorded]
        assert len(recorded) == model.opt_result_.n_evals == 60
        assert model.opt_result_.best_loss == min(losses)
        assert np.array_equal(model.params_, recorded[losses.index(min(losses))][0])

    def test_single_class_constant(self):
        X = np.random.default_rng(14).uniform(size=(10, 2))
        model = VqcClassifier(2, 1, max_evals=5).fit(X, np.zeros(10))
        assert np.all(model.predict(X) == 0.0)

    def test_theta_holds_one_angle_per_qubit_and_layer(self):
        rng = np.random.default_rng(15)
        X, y = separable_data(rng, 30)
        model = VqcClassifier(2, 2, max_evals=20, seed=2).fit(X, y)
        assert model.theta_.shape == (4,)
        assert model.metadata()["param_count"] == 4


class TestQaoaTraining:
    def test_param_vector_length_for_registry_shapes(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, size=(60, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = QaoaClassifier(4, 2, max_evals=10, seed=0).fit(X, y)
        assert len(model.gamma_) + len(model.beta_) == 16

    def test_separable_reaches_high_training_accuracy(self):
        rng = np.random.default_rng(17)
        X, y = separable_data(rng)
        model = QaoaClassifier(2, 1, max_evals=150, seed=0).fit(X, y)
        assert np.mean(model.predict(X) == y) >= 0.9

    def test_uncorrelated_features_yield_z_only_hamiltonian(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] > 0).astype(int)
        model = QaoaClassifier(3, 1, max_evals=15, seed=0).fit(X, y)
        assert model.hamiltonian_.zz_terms == ()
        assert len(model.hamiltonian_.z_terms) == 3
        model.predict(X)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(19)
        X, y = separable_data(rng, 40)
        a = QaoaClassifier(2, 2, max_evals=25, seed=5).fit(X, y)
        b = QaoaClassifier(2, 2, max_evals=25, seed=5).fit(X, y)
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
        for pa, pb in zip(a.svm_._pairs, b.svm_._pairs):
            assert np.array_equal(pa["indices"], pb["indices"])
            assert np.array_equal(pa["coef"], pb["coef"])


class TestHybridQc:
    def test_head_composition_identity(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(-1, 1, size=(50, 8))
        y = (X[:, 0] + X[:, 5] > 0).astype(int)
        pipeline = HybridQcPipeline("logistic_regression", seed=0, max_evals=10).fit(X, y)
        holdout = rng.uniform(-1, 1, size=(15, 8))
        direct = pipeline.head_.predict(pipeline.features(holdout))
        assert np.array_equal(pipeline.predict(holdout), direct)

    def test_all_four_heads_construct(self):
        rng = np.random.default_rng(24)
        X = rng.uniform(-1, 1, size=(40, 7))
        y = (X[:, 1] > 0).astype(int)
        for head in ("random_forest", "svm_rbf", "logistic_regression", "decision_tree"):
            pipeline = HybridQcPipeline(head, seed=1, max_evals=5).fit(X, y)
            assert pipeline.metadata()["intermediate_features"] == 6
            pipeline.predict(X[:5])

    def test_forest_head_uses_hundred_trees(self):
        rng = np.random.default_rng(25)
        X = rng.uniform(-1, 1, size=(40, 6))
        y = (X[:, 0] > 0).astype(int)
        pipeline = HybridQcPipeline("random_forest", seed=0, max_evals=3).fit(X, y)
        assert len(pipeline.head_._roots) == 100

    def test_deterministic(self):
        rng = np.random.default_rng(26)
        X = rng.uniform(-1, 1, size=(30, 6))
        y = (X[:, 2] > 0).astype(int)
        a = HybridQcPipeline("decision_tree", seed=4, max_evals=5).fit(X, y)
        qmodels.clear_extractor_memo()  # b trains its own extractor
        b = HybridQcPipeline("decision_tree", seed=4, max_evals=5).fit(X, y)
        assert a.extractor_ is not b.extractor_
        holdout = rng.uniform(-1, 1, size=(10, 6))
        assert np.array_equal(a.predict(holdout), b.predict(holdout))
        assert state_checksum(a.fitted_state()) == state_checksum(b.fitted_state())

    def test_rejects_narrow_input(self):
        with pytest.raises(UsageError):
            HybridQcPipeline("svm_rbf", max_evals=2).fit(np.zeros((10, 3)), np.arange(10) % 2)

    def test_logistic_head_is_the_extractors_own(self, synthetic_half):
        X, y = synthetic_half
        pipeline = HybridQcPipeline("logistic_regression", seed=0, max_evals=20).fit(X, y)
        assert pipeline.head_ is pipeline.extractor_.head_
        refit = LogisticRegressionClassifier().fit(pipeline.features(X), y)
        assert state_checksum(refit.fitted_state()) == state_checksum(pipeline.head_.fitted_state())

    def test_logistic_head_of_one_class_is_fitted(self):
        X = np.random.default_rng(27).uniform(-1, 1, size=(12, 6))
        pipeline = HybridQcPipeline("logistic_regression", max_evals=2).fit(X, np.full(12, 3))
        assert pipeline.extractor_.head_ is None
        assert np.all(pipeline.predict(X) == 3)


class TestSharedExtractor:
    """``split_extractor``: one extractor per training split, seeded from it."""

    def test_four_heads_read_one_extractor(self, synthetic_half):
        X, y = synthetic_half
        pipelines = [
            HybridQcPipeline(head, seed=seed, max_evals=20).fit(X, y)
            for seed, head in enumerate(("random_forest", "svm_rbf", "logistic_regression", "decision_tree"))
        ]
        extractor = pipelines[0].extractor_
        assert all(p.extractor_ is extractor for p in pipelines)
        assert {p.metadata()["extractor_seed"] for p in pipelines} == {extractor.seed}
        assert extractor.max_evals == 20 and (extractor.n_qubits, extractor.layers) == (6, 3)

    def test_memo_hit_equals_a_fresh_fit(self, synthetic_half):
        X, y = synthetic_half
        memoised = split_extractor(X, y, 20)
        assert split_extractor(X, y, 20) is memoised
        qmodels.clear_extractor_memo()
        fresh = split_extractor(X, y, 20)
        assert fresh is not memoised
        assert state_checksum(fresh.fitted_state()) == state_checksum(memoised.fitted_state())
        assert fresh.seed == memoised.seed

    def test_seed_follows_the_split(self, synthetic_half):
        X, y = synthetic_half
        first = split_extractor(X[:72], y[:72], 5)
        other_rows = split_extractor(X[72:], y[72:], 5)
        other_labels = split_extractor(X[:72], np.roll(y[:72], 1), 5)
        assert len({first.seed, other_rows.seed, other_labels.seed}) == 3
        # the memo holds one split: the first is trained again, to the same state
        again = split_extractor(X[:72], y[:72], 5)
        assert again is not first
        assert state_checksum(again.fitted_state()) == state_checksum(first.fitted_state())

    def test_budget_is_part_of_the_key(self, synthetic_half):
        X, y = synthetic_half
        assert split_extractor(X, y, 5).opt_result_.n_evals == 5
        assert split_extractor(X, y, 8).opt_result_.n_evals == 8


class TestHybridCq:
    def test_projection_has_four_columns(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(60, 9))
        y = (X[:, 0] > 0).astype(int)
        pipeline = HybridCqPipeline("vqc", seed=0, max_evals=5).fit(X, y)
        assert pipeline.project(X).shape == (60, 4)
        assert pipeline.metadata()["pca_components"] == 4

    def test_all_three_quantum_kinds(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(50, 6))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        for kind in ("vqc", "qaoa", "qkernel"):
            pipeline = HybridCqPipeline(kind, seed=2, max_evals=5).fit(X, y)
            assert pipeline.predict(X[:6]).shape == (6,)

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(40, 5))
        y = (X[:, 1] > 0).astype(int)
        a = HybridCqPipeline("qaoa", seed=3, max_evals=8).fit(X, y)
        b = HybridCqPipeline("qaoa", seed=3, max_evals=8).fit(X, y)
        holdout = rng.normal(size=(12, 5))
        assert np.array_equal(a.predict(holdout), b.predict(holdout))

    def test_needs_enough_features(self):
        with pytest.raises(UsageError):
            HybridCqPipeline("vqc").fit(np.zeros((10, 3)), np.arange(10) % 2)


class TestSingleRecordPredict:
    @pytest.mark.parametrize("name", list(default_registry()))
    def test_registry_model_scores_each_record_as_in_the_batch(self, name, registry_round_trip):
        model, _, _ = registry_round_trip[name]
        X_all = select_features(build_dataset(synthesize(seed=0)), k=10).X
        assert len(X_all) == 288
        batch = model.predict(X_all)
        singles = [model.predict(X_all[i : i + 1])[0] for i in range(len(X_all))]
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: VqcClassifier(6, 3, max_evals=20, seed=1),
            lambda: QaoaClassifier(6, 3, max_evals=20, seed=1),
            lambda: HybridQcPipeline("logistic_regression", seed=1, max_evals=20),
            lambda: HybridCqPipeline("vqc", seed=1, max_evals=20),
            lambda: HybridCqPipeline("qaoa", seed=1, max_evals=20),
        ],
        ids=["vqc", "qaoa", "hybrid_qc", "hybrid_cq_vqc", "hybrid_cq_qaoa"],
    )
    def test_single_record_equals_batch(self, build):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(80, 7))
        y = (X[:, 0] + 0.5 * X[:, 2] > 0).astype(int) + (X[:, 1] > 0.8)
        model = build().fit(X[:60], y[:60])
        batch = model.predict(X)
        singles = [model.predict(X[i : i + 1])[0] for i in range(len(X))]
        assert np.array_equal(batch, singles)


@pytest.fixture(scope="module")
def synthetic_half():
    """144 records of the synthetic set with its 10 selected features."""
    dataset = select_features(build_dataset(synthesize(seed=0)), k=10)
    return dataset.X[::2], dataset.y[::2]


class TestFittedFootprint:
    @pytest.mark.parametrize("circuit", [VqcClassifier, QaoaClassifier])
    def test_six_qubit_model_pickles_small(self, circuit):
        # the compiled training plan holds per-row states (about 72 KiB for
        # 144 rows on 6 qubits) and must not be kept on the fitted model
        rng = np.random.default_rng(34)
        X = rng.normal(size=(144, 8))
        y = rng.integers(0, 4, 144)
        model = circuit(6, 3, max_evals=5, seed=0).fit(X, y)
        assert len(pickle.dumps(model)) < 16 * 1024

    @pytest.mark.parametrize("circuit", [VqcClassifier, QaoaClassifier])
    def test_six_qubit_model_at_registry_budget_pickles_under_4kib(self, circuit, synthetic_half):
        # the fitted model keeps no per-evaluation history of its search
        X, y = synthetic_half
        model = circuit(6, 3, max_evals=TRAINING_EVALS, seed=0).fit(X, y)
        assert model.opt_result_.n_evals == TRAINING_EVALS
        assert len(pickle.dumps(model)) < 4 * 1024

    def test_logistic_regression_pickles_under_2kib(self, synthetic_half):
        X, y = synthetic_half
        model = LogisticRegressionClassifier().fit(X, y)
        assert model.n_iter_ > 0
        assert len(pickle.dumps(model)) < 2 * 1024

    @pytest.mark.parametrize("name", list(default_registry()))
    def test_loaded_registry_model_predicts_the_same(self, name, registry_round_trip):
        model, loaded, _ = registry_round_trip[name]
        X_all = select_features(build_dataset(synthesize(seed=0)), k=10).X
        assert np.array_equal(loaded.predict(X_all), model.predict(X_all))
        assert state_checksum(loaded.fitted_state()) == state_checksum(model.fitted_state())

    @pytest.mark.parametrize("name", ["qkernel_svm", "pca_qkernel"])
    def test_loaded_qkernel_rebuilds_its_training_states(self, name, registry_round_trip, synthetic_half):
        model, loaded, _ = registry_round_trip[name]
        [inner] = _parts(model, QKernelClassifier)
        [loaded_inner] = _parts(loaded, QKernelClassifier)
        assert loaded_inner.train_states_.tobytes() == inner.train_states_.tobytes()
        # the rows a reader of the training states gets, in training order
        X, _ = synthetic_half
        if isinstance(loaded, HybridCqPipeline):
            X = loaded.project(X)
        angles = loaded_inner.scale_chain_.transform(X[:4])
        assert np.array_equal(loaded_inner.train_states_[:4], feature_map_states(angles))

    @pytest.mark.parametrize("name", ["random_forest", "decision_tree", "q_rf", "q_dectree"])
    def test_loaded_trees_keep_every_node_array(self, name, registry_round_trip):
        model, loaded, _ = registry_round_trip[name]
        trees = _parts(model, (RandomForestClassifier, DecisionTreeClassifier))
        loaded_trees = _parts(loaded, (RandomForestClassifier, DecisionTreeClassifier))
        assert len(trees) == len(loaded_trees) == 1
        for array, loaded_array in zip(trees[0]._nodes, loaded_trees[0]._nodes):
            assert loaded_array.dtype == array.dtype
            assert loaded_array.tobytes() == array.tobytes()  # the leaves' NaN included
        assert np.isnan(loaded_trees[0]._nodes.threshold).any()

    def test_pickled_qkernel_holds_no_complex_array(self, synthetic_half, monkeypatch):
        X, y = synthetic_half
        model = QKernelClassifier(4).fit(X, y)
        written = []
        write_array = modelbytes._Writer.array

        def probe(writer, tag, array):
            written.append(array.dtype)
            write_array(writer, tag, array)

        monkeypatch.setattr(modelbytes._Writer, "array", probe)
        blob = pickle.dumps(model)
        assert np.dtype(float) in written
        assert not any(dtype.kind == "c" for dtype in written)
        assert len(blob) < 12 * 1024


def _parts(model, kind) -> list:
    """The models of ``kind`` among ``model`` and the models it holds, at any depth."""
    found = [model] if isinstance(model, kind) else []
    for value in vars(model).values():
        if hasattr(value, "predict"):
            found += _parts(value, kind)
    return found


@pytest.fixture(scope="module")
def registry_round_trip(synthetic_half):
    """Each registry model fitted on 144 records, the same model loaded from its
    pickle, and the pickle, taken before any predict."""
    X, y = synthetic_half
    fitted = {}
    for name, spec in default_registry().items():
        model = spec.build(1).fit(X, y)
        blob = pickle.dumps(model)
        fitted[name] = model, pickle.loads(blob), blob
    return fitted


# the models the benchmark's baselines_cv workload fits and scores
_BASELINES = (
    "random_forest", "svm_rbf", "logistic_regression", "decision_tree",
    "qkernel_svm", "pca_qkernel", "majority_class",
)

# every registry model fitted on synthetic_half with seed 1, each model's
# bytes hashed; the same fits as the registry_round_trip fixture
_FIT_REGISTRY = """
import hashlib, pickle
from qcb.data import build_dataset, select_features, synthesize
from qcb.evalharness.registry import default_registry
dataset = select_features(build_dataset(synthesize(seed=0)), k=10)
X, y = dataset.X[::2], dataset.y[::2]
for name, spec in default_registry().items():
    print(name, hashlib.sha256(pickle.dumps(spec.build(1).fit(X, y))).hexdigest())
"""

def _assert_same_fit(fitted, loaded, path: str = "model") -> None:
    """``loaded`` holds what ``fitted`` holds, type for type and bit for bit,
    but for the predict caches; every loaded array is C-contiguous, aligned
    and writeable."""
    assert type(loaded) is type(fitted), path
    if isinstance(fitted, np.ndarray):
        assert (loaded.dtype, loaded.shape) == (fitted.dtype, fitted.shape), path
        assert loaded.tobytes() == fitted.tobytes(), path
        assert all(loaded.flags[flag] for flag in ("C_CONTIGUOUS", "ALIGNED", "WRITEABLE")), path
    elif isinstance(fitted, (float, np.generic)):
        assert np.asarray(loaded).dtype == np.asarray(fitted).dtype, path
        assert np.asarray(loaded).tobytes() == np.asarray(fitted).tobytes(), path
    elif isinstance(fitted, (tuple, list)):
        assert len(loaded) == len(fitted), path
        for i, (item, loaded_item) in enumerate(zip(fitted, loaded)):
            _assert_same_fit(item, loaded_item, f"{path}[{i}]")
    elif isinstance(fitted, dict):
        assert list(loaded) == list(fitted), path
        for key, item in fitted.items():
            _assert_same_fit(item, loaded[key], f"{path}[{key!r}]")
    elif hasattr(fitted, "__dict__") and not isinstance(fitted, Enum):
        caches = {attribute for _, attribute in _CACHE_ATTRIBUTES}
        names = vars(fitted).keys() - caches
        assert vars(loaded).keys() - caches == names, path
        for name in sorted(names):
            _assert_same_fit(getattr(fitted, name), getattr(loaded, name), f"{path}.{name}")
    else:
        assert loaded == fitted, path


class TestPackedBytes:
    """A registry model's bytes are a function of its fitted values."""

    @pytest.mark.parametrize("name", list(default_registry()))
    def test_loaded_model_pickles_to_the_same_bytes(self, name, registry_round_trip):
        _, loaded, blob = registry_round_trip[name]
        assert pickle.dumps(loaded) == blob

    @pytest.mark.parametrize("name", list(default_registry()))
    def test_loaded_model_holds_every_fitted_value(self, name, registry_round_trip):
        model, _, blob = registry_round_trip[name]
        _assert_same_fit(model, pickle.loads(blob))

    def test_fresh_interpreters_pack_the_same_bytes(self, registry_round_trip):
        src = str(Path(qcb.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _FIT_REGISTRY], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, env=env,
            )
            for _ in range(2)
        ]
        want = "".join(
            f"{name} {hashlib.sha256(blob).hexdigest()}\n"
            for name, (_, _, blob) in registry_round_trip.items()
        )
        for run in runs:
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            assert out == want

    def test_registry_footprint_budget(self, registry_round_trip):
        # 55,612 B when measured (60,570 B in a zlib container, 100,938 B as
        # pickled attribute dicts); the per-model ceilings above stay as they are
        total = sum(len(blob) for _, _, blob in registry_round_trip.values())
        assert total < 55_612 * 1.05

    def test_baselines_footprint_budget(self, registry_round_trip):
        # the models of the benchmark's baselines_cv workload: 29,542 B when
        # measured (32,371 B in a zlib container)
        total = sum(len(registry_round_trip[name][2]) for name in _BASELINES)
        assert total < 29_542 * 1.05

    def test_writer_rejects_a_value_outside_the_format(self, synthetic_half):
        X, y = synthetic_half
        model = LogisticRegressionClassifier().fit(X, y)
        for attribute, value in [("tol", object()), ("classes_", y.astype(object)), ("extra", 1)]:
            kept = getattr(model, attribute, None)
            setattr(model, attribute, value)
            with pytest.raises(TypeError, match="packed format holds no"):
                pickle.dumps(model)
            setattr(model, attribute, kept)
        del model.extra
        assert pickle.loads(pickle.dumps(model)).predict(X).tolist() == model.predict(X).tolist()


class TestLoadRejects:
    """``load`` raises ValueError for any blob it cannot read."""

    @pytest.fixture
    def packed(self, registry_round_trip):
        """A fitted ``q_logreg``, its stream and its blob, which loads."""
        model = registry_round_trip["q_logreg"][0]
        blob = modelbytes.dumps(model)
        assert modelbytes.stream(modelbytes.load(blob)) == modelbytes.stream(model)
        return model, modelbytes.stream(model), blob

    def test_truncated_blob(self, packed):
        _, _, blob = packed
        for end in range(len(blob)):
            with pytest.raises(ValueError):
                modelbytes.load(blob[:end])

    def test_bytes_after_the_blob(self, packed):
        _, _, blob = packed
        for extra in (b"\0", b"\0" * 4, blob):
            with pytest.raises(ValueError):
                modelbytes.load(blob + extra)

    def test_flipped_payload_byte(self, packed):
        _, _, blob = packed
        for at in range(len(blob) - 4):
            damaged = bytearray(blob)
            damaged[at] ^= 0x10
            with pytest.raises(ValueError):
                modelbytes.load(bytes(damaged))

    def test_crc_mismatch(self, packed):
        _, _, blob = packed
        (crc,) = struct.unpack("<I", blob[-4:])
        with pytest.raises(ValueError, match="CRC-32"):
            modelbytes.load(blob[:-4] + struct.pack("<I", crc ^ 1))

    def test_zlib_era_blob(self, packed):
        _, data, _ = packed
        with pytest.raises(ValueError):
            modelbytes.load(zlib.compress(data, 9))

    def test_stream_that_ends_inside_a_value(self, packed):
        # a well-formed container with a good CRC around a cut stream
        _, data, _ = packed
        for cut in (data[:0], data[:1], data[:-1]):
            blob = lzma.compress(cut, format=lzma.FORMAT_RAW, filters=modelbytes._FILTERS)
            with pytest.raises(ValueError):
                modelbytes.load(blob + struct.pack("<I", zlib.crc32(cut)))


def _float_arrays(value, path: str):
    """(path, array) for each float array among the packed fields of
    ``value``, the models and state objects it holds included."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            yield path, value
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _float_arrays(item, f"{path}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _float_arrays(item, f"{path}[{key!r}]")
    elif hasattr(value, "__dict__") and not isinstance(value, Enum):
        names = value._packed_fields if isinstance(value, modelbytes.Packed) else sorted(vars(value))
        for name in names:
            yield from _float_arrays(getattr(value, name), f"{path}.{name}")


class TestChecksum:
    """A cell's checksum is the SHA-256 of the model's uncompressed packed
    stream, so it covers every value the model's bytes hold."""

    @pytest.mark.parametrize("name", list(default_registry()))
    def test_one_ulp_in_any_packed_float_array_moves_the_checksum(self, name, registry_round_trip):
        model, _, blob = registry_round_trip[name]
        want = state_checksum(model.fitted_state())
        paths = [path for path, _ in _float_arrays(pickle.loads(blob), name)]
        assert paths or name == "majority_class"
        unmoved = []
        for i, path in enumerate(paths):
            moved = pickle.loads(blob)
            _, array = list(_float_arrays(moved, name))[i]
            finite = np.flatnonzero(np.isfinite(array))
            if finite.size:
                array.flat[finite[0]] = np.nextafter(array.flat[finite[0]], np.inf)
                if state_checksum(moved.fitted_state()) == want:
                    unmoved.append(path)
        assert unmoved == []

    @pytest.mark.parametrize("name", list(default_registry()))
    def test_checksum_is_the_digest_of_the_stream(self, name, registry_round_trip, synthetic_half):
        # what a benchmark's check of a refitted model against a report's cell relies on
        model, _, _ = registry_round_trip[name]
        checksum = state_checksum(model.fitted_state())
        assert checksum == hashlib.sha256(modelbytes.stream(model)).hexdigest()
        model.predict(synthetic_half[0])
        model.predict(synthetic_half[0][:1])
        assert state_checksum(model.fitted_state()) == checksum
        assert state_checksum(pickle.loads(pickle.dumps(model)).fitted_state()) == checksum


# each model kind's cache for predict, a fixed function of what its pickle holds
_CACHE_ATTRIBUTES = [
    ((VqcClassifier, QaoaClassifier), "_operators"),
    (RandomForestClassifier, "_walk"),
    (SvmClassifier, "_decision"),
    (QKernelClassifier, "train_states_"),
]


def _cache_bytes(model) -> list:
    """The bytes of every predict cache held by ``model`` or the models it holds."""

    def flat(value):
        if isinstance(value, np.ndarray):
            return [value.dtype.str.encode(), value.tobytes()]
        return [b for item in value for b in flat(item)]

    found = []
    for kind, attribute in _CACHE_ATTRIBUTES:
        for part in _parts(model, kind):
            cache = getattr(part, attribute)
            assert cache is not None, f"{type(part).__name__}.{attribute} was not built"
            found.append(flat(cache))
    return found


_CACHING_MODELS = [
    lambda: VqcClassifier(6, 3, max_evals=20, seed=0),
    lambda: QaoaClassifier(6, 3, max_evals=20, seed=0),
    lambda: HybridQcPipeline("svm_rbf", seed=0, max_evals=20),
    lambda: HybridCqPipeline("qaoa", seed=0, max_evals=20),
]
_CACHING_IDS = ["vqc", "qaoa", "hybrid_qc", "hybrid_cq_qaoa"]


def _circuit_features(model, X):
    """The trained circuit's features of X, through the model's own path."""
    if isinstance(model, HybridCqPipeline):
        return model.model_.features(model.project(X))
    return model.features(X)


class TestOperatorCache:
    """A fitted circuit caches the operators of its trained angles for predict."""

    @pytest.mark.parametrize("build", _CACHING_MODELS, ids=_CACHING_IDS)
    def test_refit_matches_fresh_fit(self, build, synthetic_half):
        X, y = synthetic_half
        X_a, y_a, X_b, y_b = X[:72], y[:72], X[72:], y[72:]
        model = build().fit(X_a, y_a)
        model.predict(X)
        model.fit(X_b, y_b)
        qmodels.clear_extractor_memo()  # the fresh hybrid trains its own extractor
        fresh = build().fit(X_b, y_b)
        assert np.array_equal(model.predict(X), fresh.predict(X))
        assert np.array_equal(_circuit_features(model, X), _circuit_features(fresh, X))
        assert state_checksum(model.fitted_state()) == state_checksum(fresh.fitted_state())

    @pytest.mark.parametrize("build", _CACHING_MODELS, ids=_CACHING_IDS)
    def test_pickle_leaves_the_cache_out(self, build, synthetic_half):
        X, y = synthetic_half
        model = build().fit(X, y)
        before = pickle.dumps(model)
        labels = model.predict(X)
        after = pickle.dumps(model)
        assert after == before
        qmodels.clear_extractor_memo()  # the fresh hybrid trains its own extractor
        assert after == pickle.dumps(build().fit(X, y))
        assert np.array_equal(pickle.loads(after).predict(X), labels)

    @pytest.mark.parametrize("name", list(default_registry()))
    def test_registry_model_pickle_leaves_every_cache_out(self, name, registry_round_trip):
        model, _, blob = registry_round_trip[name]
        X_all = select_features(build_dataset(synthesize(seed=0)), k=10).X
        labels = model.predict(X_all)
        model.predict(X_all[:1])
        assert pickle.dumps(model) == blob
        loaded = pickle.loads(blob)
        assert np.array_equal(loaded.predict(X_all), labels)
        assert _cache_bytes(loaded) == _cache_bytes(model)

    def test_qaoa_terms_are_checked_once_per_fitted_model(self, synthetic_half, monkeypatch):
        X, y = synthetic_half
        model = QaoaClassifier(4, 2, max_evals=10, seed=0).fit(X, y)
        first = model.features(X[:1])
        h = model.hamiltonian_
        assert np.array_equal(
            model._operators.z_weights, np.bincount([q for q, _ in h.z_terms], minlength=4)
        )

        def recheck(*args):
            raise AssertionError("the Hamiltonian's terms were checked again")

        monkeypatch.setattr(qmodels, "_z_weights", recheck)
        features = model.features(X)
        monkeypatch.undo()
        angles = model.scale_chain_.transform(X)
        for rows, got in [(angles[:1], first), (angles, features)]:
            assert np.array_equal(got, qaoa_features(model.config_, h, model.gamma_, model.beta_, rows))

    def test_cache_holds_the_operators_of_the_trained_angles(self, synthetic_half):
        X, y = synthetic_half
        model = VqcClassifier(4, 2, max_evals=10, seed=0).fit(X, y)
        assert model._operators is None
        model.predict(X[:1])
        assert np.array_equal(model._operators, vqc_operator(model.config_, model.theta_))


class TestTrainedCircuitState:
    def test_family_terms_move_the_checksum(self):
        # the correlation graph and the cost terms hold tuples of floats, which
        # the float-array probe of TestChecksum does not move
        rng = np.random.default_rng(31)
        X, y = separable_data(rng, 30)
        vqc = VqcClassifier(2, 1, max_evals=5).fit(X, y)
        qaoa = QaoaClassifier(2, 1, max_evals=5).fit(X, y)
        assert np.array_equal(np.concatenate([qaoa.gamma_, qaoa.beta_]), qaoa.params_)
        before = [state_checksum(model.fitted_state()) for model in (vqc, qaoa)]
        assert vqc.config_.correlation is not None
        vqc.config_ = CircuitConfig(CircuitFamily.VQC, 2, 1)
        h = qaoa.hamiltonian_
        qaoa.hamiltonian_ = CostHamiltonian(h.zz_terms, ((0, h.z_terms[0][1] + 0.5), *h.z_terms[1:]))
        after = [state_checksum(model.fitted_state()) for model in (vqc, qaoa)]
        assert after[0] != before[0] and after[1] != before[1]

    def test_single_class_qaoa_keeps_zero_angles(self):
        X = np.random.default_rng(32).uniform(size=(10, 2))
        model = QaoaClassifier(2, 2, max_evals=5).fit(X, np.ones(10))
        assert np.array_equal(model.gamma_, np.zeros(4))
        assert np.array_equal(model.beta_, np.zeros(4))
        assert model.opt_result_ is None
        assert model.head_ is None
        assert np.all(model.predict(X) == 1.0)

    @pytest.mark.parametrize("circuit", [VqcClassifier, QaoaClassifier])
    def test_kept_head_is_a_cold_refit_on_the_stored_angles(self, circuit, synthetic_half):
        # the search heads start warm; after it the kept head is refitted from
        # zero on the best evaluation's features, so a fresh fit on the
        # features of the stored angles reproduces it
        X, y = synthetic_half
        model = circuit(4, 2, max_evals=30, seed=0).fit(X, y)
        fresh = LogisticRegressionClassifier().fit(model.features(X), y)
        assert state_checksum(model.head_.fitted_state()) == state_checksum(fresh.fitted_state())
        assert -_accuracy(model, X, y) == model.opt_result_.best_loss

    @pytest.mark.parametrize(
        "build",
        [
            lambda: VqcClassifier(2, 1, max_evals=10, seed=0),
            lambda: QaoaClassifier(2, 1, max_evals=10, seed=0),
            lambda: QKernelClassifier(2),
        ],
        ids=["vqc", "qaoa", "qkernel"],
    )
    def test_refit_after_one_class_matches_fresh_fit(self, build):
        rng = np.random.default_rng(33)
        X, y = separable_data(rng, 40)
        model = build().fit(X, np.ones(len(y), dtype=int))
        assert model.constant_class_ == 1
        model.fit(X, y)
        fresh = build().fit(X, y)
        assert model.constant_class_ is None
        assert np.array_equal(model.predict(X), fresh.predict(X))
        assert state_checksum(model.fitted_state()) == state_checksum(fresh.fitted_state())

    def test_predict_before_fit_rejected(self):
        for model in (VqcClassifier(2, 1), QaoaClassifier(2, 1)):
            with pytest.raises(UsageError):
                model.predict(np.zeros((2, 2)))


class TestNoLeakageIntoFittedState:
    def test_stream_is_unchanged_by_predict(self):
        rng = np.random.default_rng(30)
        X, y = separable_data(rng, 40)
        model = VqcClassifier(2, 1, max_evals=10, seed=0).fit(X, y)
        before = modelbytes.stream(model)
        model.predict(rng.uniform(-1, 1, size=(25, 2)))
        assert modelbytes.stream(model) == before
