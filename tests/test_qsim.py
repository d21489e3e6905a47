import numpy as np
import pytest

from qcb import qsim
from qcb.errors import ConfigurationError, UsageError
from qcb.qsim import (
    GateKind,
    GateOp,
    QuantumState,
    apply_circuit,
    apply_gate,
    cnot,
    expectation_x,
    expectation_z,
    hadamard,
    init_plus,
    init_zero,
    overlap_sq,
    ry,
    rz,
    x_mixer,
    zz_phase,
)

from oracles import (
    dense_gate_matrix,
    dense_simulate,
    random_circuit,
    states_match_up_to_phase,
)


def random_state(rng, n_qubits):
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    amps /= np.linalg.norm(amps)
    return QuantumState(n_qubits, amps)


class TestInit:
    def test_zero_single_qubit(self):
        assert np.array_equal(init_zero(1).amplitudes, [1, 0])

    def test_zero_two_qubits(self):
        assert np.array_equal(init_zero(2).amplitudes, [1, 0, 0, 0])

    def test_zero_four_qubits(self):
        state = init_zero(4)
        assert state.amplitudes.shape == (16,)
        assert state.amplitudes[0] == 1.0
        assert not state.amplitudes[1:].any()

    def test_plus_values(self):
        assert np.allclose(init_plus(1).amplitudes, [2**-0.5, 2**-0.5])
        assert np.allclose(init_plus(2).amplitudes, [0.5] * 4)
        assert np.allclose(init_plus(3).amplitudes, [8**-0.5] * 8, atol=1e-15)

    @pytest.mark.parametrize("n", [0, 13, -1])
    def test_qubit_count_bounds(self, n):
        with pytest.raises(ConfigurationError):
            init_zero(n)
        with pytest.raises(ConfigurationError):
            init_plus(n)


class TestGateOpValidation:
    def test_arity_checks(self):
        with pytest.raises(UsageError):
            GateOp(GateKind.CNOT, (0,))
        with pytest.raises(UsageError):
            GateOp(GateKind.RY, (0, 1), 0.3)

    def test_distinct_targets(self):
        with pytest.raises(UsageError):
            GateOp(GateKind.CNOT, (1, 1))

    def test_angle_presence(self):
        with pytest.raises(UsageError):
            GateOp(GateKind.RY, (0,))
        with pytest.raises(UsageError):
            GateOp(GateKind.H, (0,), 0.1)

    def test_out_of_range_target_rejected_at_application(self):
        with pytest.raises(UsageError):
            apply_gate(init_zero(2), ry(2, 0.1))

    @pytest.mark.parametrize("gate", [cnot(0, 1), rz(0, 0.3), zz_phase(0, 1, 0.3)])
    def test_amplitude_axis_must_be_a_power_of_two(self, gate):
        with pytest.raises(UsageError):
            qsim.apply_gate_amplitudes(np.ones(6, dtype=complex), gate)


class TestSingleGates:
    def test_ry_pi_flips_zero(self):
        state = apply_gate(init_zero(1), ry(0, np.pi))
        assert np.allclose(state.amplitudes, [0, 1], atol=1e-15)

    def test_cnot_truth_table(self):
        # qubit 0 = 1 controls a flip of qubit 1: |01> -> |11>
        state = QuantumState(2, [0, 1, 0, 0])
        out = apply_gate(state, cnot(0, 1))
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    def test_rz_on_plus_matches_dense_product(self):
        out = apply_gate(init_plus(1), rz(0, np.pi / 2))
        expected = dense_simulate([rz(0, np.pi / 2)], 1, init_plus(1).amplitudes)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)
        assert np.allclose(
            out.amplitudes,
            [np.exp(-1j * np.pi / 4) / np.sqrt(2), np.exp(1j * np.pi / 4) / np.sqrt(2)],
        )

    def test_hadamard_makes_plus(self):
        out = apply_gate(init_zero(1), hadamard(0))
        assert np.allclose(out.amplitudes, init_plus(1).amplitudes)

    def test_x_flips_bit_on_three_qubits(self):
        out = apply_gate(init_zero(3), qsim.pauli_x(1))
        expected = np.zeros(8)
        expected[2] = 1.0
        assert np.allclose(out.amplitudes, expected)

    def test_zz_phase_signs(self):
        # |00> and |11> agree -> exp(-i a); |01>, |10> -> exp(+i a)
        amps = np.full(4, 0.5, dtype=complex)
        out = apply_gate(QuantumState(2, amps), zz_phase(0, 1, 0.7))
        assert np.allclose(
            out.amplitudes,
            0.5 * np.array(
                [np.exp(-0.7j), np.exp(0.7j), np.exp(0.7j), np.exp(-0.7j)]
            ),
        )

    def test_x_mixer_matches_dense(self):
        state = apply_gate(init_zero(1), qsim.pauli_x(0))
        out = apply_gate(state, x_mixer(0, np.pi / 4))
        expected = dense_simulate([x_mixer(0, np.pi / 4)], 1, state.amplitudes)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)


class TestExpectations:
    def test_z_on_computational_states(self):
        assert expectation_z(init_zero(1), 0) == 1.0
        one = apply_gate(init_zero(1), qsim.pauli_x(0))
        assert expectation_z(one, 0) == -1.0

    def test_z_on_plus_is_zero(self):
        assert abs(expectation_z(init_plus(1), 0)) < 1e-15

    def test_z_equals_cos_after_ry(self):
        x = np.pi / 3
        state = apply_gate(init_zero(1), ry(0, x))
        assert abs(expectation_z(state, 0) - np.cos(x)) < 1e-12
        # cross-check against the dense oracle
        dense = dense_simulate([ry(0, x)], 1)
        probs = np.abs(dense) ** 2
        assert abs(expectation_z(state, 0) - (probs[0] - probs[1])) < 1e-12

    def test_x_on_plus_and_zero(self):
        assert abs(expectation_x(init_plus(1), 0) - 1.0) < 1e-15
        assert abs(expectation_x(init_zero(1), 0)) < 1e-15

    def test_x_matches_h_then_z_identity(self):
        one = apply_gate(init_zero(1), qsim.pauli_x(0))
        state = apply_gate(one, x_mixer(0, np.pi / 4))
        rotated = apply_gate(state, hadamard(0))
        assert abs(expectation_x(state, 0) - expectation_z(rotated, 0)) < 1e-12

    def test_x_two_ways_agreement_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            for q in range(n):
                via_h = expectation_z(apply_gate(state, hadamard(q)), q)
                assert abs(expectation_x(state, q) - via_h) < 1e-12

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            state = random_state(rng, n)
            for q in range(n):
                assert -1.0 <= expectation_z(state, q) <= 1.0
                assert -1.0 <= expectation_x(state, q) <= 1.0

    def test_invalid_qubit_index(self):
        with pytest.raises(UsageError):
            expectation_z(init_zero(2), 2)
        with pytest.raises(UsageError):
            expectation_x(init_zero(2), -1)


class TestOverlap:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(3)
        psi = random_state(rng, 3)
        assert abs(overlap_sq(psi, psi) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        one = apply_gate(init_zero(1), qsim.pauli_x(0))
        assert overlap_sq(init_zero(1), one) == 0.0

    def test_matches_dense_inner_product(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = random_state(rng, 3)
            b = random_state(rng, 3)
            expected = abs(np.sum(np.conj(a.amplitudes) * b.amplitudes)) ** 2
            assert abs(overlap_sq(a, b) - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            overlap_sq(init_zero(2), init_zero(3))


class TestInvariants:
    def test_norm_preserved_under_long_random_circuits(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            state = init_zero(n)
            state = apply_circuit(state, random_circuit(rng, n, 100))
            norm_sq = float(np.sum(np.abs(state.amplitudes) ** 2))
            assert abs(norm_sq - 1.0) < 1e-9

    def test_gate_then_inverse_restores_state(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            state = random_state(rng, n)
            gate = random_circuit(rng, n, 1)[0]
            if gate.kind in (GateKind.H, GateKind.X, GateKind.CNOT):
                inverse = gate
            else:
                inverse = GateOp(gate.kind, gate.targets, -gate.angle)
            back = apply_gate(apply_gate(state, gate), inverse)
            assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-10)

    def test_simulator_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            depth = int(rng.integers(1, 11))
            gates = random_circuit(rng, 3, depth)
            ours = apply_circuit(init_zero(3), gates).amplitudes
            dense = dense_simulate(gates, 3)
            assert states_match_up_to_phase(ours, dense, atol=1e-10)

    def test_gate_matrices_are_unitary(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            gate = random_circuit(rng, 3, 1)[0]
            mat = dense_gate_matrix(gate, 3)
            assert np.allclose(mat.conj().T @ mat, np.eye(8), atol=1e-12)


class TestImmutability:
    def test_apply_gate_leaves_input_untouched(self):
        state = init_zero(1)
        before = state.amplitudes.copy()
        apply_gate(state, ry(0, 1.0))
        assert np.array_equal(state.amplitudes, before)

    def test_amplitudes_are_read_only(self):
        state = init_zero(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_norm_validated_on_construction(self):
        with pytest.raises(UsageError):
            QuantumState(1, [1.0, 1.0])
        with pytest.raises(UsageError):
            QuantumState(2, [1.0, 0.0])


class TestBatchKernels:
    def test_batch_matches_per_state_loop(self):
        rng = np.random.default_rng(41)
        n = 3
        xs = rng.uniform(0, np.pi, size=(10, n))
        amps = qsim.zero_amplitudes(n, batch=10)
        for q in range(n):
            amps = qsim.ry_rows(amps, q, xs[:, q])
        amps = qsim.apply_gate_amplitudes(amps, cnot(0, 1))
        amps = qsim.zz_phase_rows(amps, 1, 2, xs[:, 1] * xs[:, 2])
        amps = qsim.rz_rows(amps, 0, 2 * xs[:, 0])
        for row in range(10):
            state = init_zero(n)
            gates = [ry(q, xs[row, q]) for q in range(n)]
            gates += [
                cnot(0, 1),
                zz_phase(1, 2, xs[row, 1] * xs[row, 2]),
                rz(0, 2 * xs[row, 0]),
            ]
            single = apply_circuit(state, gates).amplitudes
            assert np.allclose(amps[row], single, atol=1e-12)

    def test_batch_expectations_match_state_api(self):
        rng = np.random.default_rng(43)
        n = 3
        amps = np.stack([random_state(rng, n).amplitudes for _ in range(6)])
        z = qsim.z_expectations(amps, n)
        x = qsim.x_expectations(amps, n)
        for row in range(6):
            state = QuantumState(n, amps[row])
            for q in range(n):
                assert abs(z[row, q] - expectation_z(state, q)) < 1e-12
                assert abs(x[row, q] - expectation_x(state, q)) < 1e-12

    def test_cross_overlap_matches_pairwise(self):
        rng = np.random.default_rng(47)
        a = np.stack([random_state(rng, 2).amplitudes for _ in range(4)])
        b = np.stack([random_state(rng, 2).amplitudes for _ in range(3)])
        grid = qsim.cross_overlap_sq(a, b)
        for i in range(4):
            for j in range(3):
                expected = overlap_sq(QuantumState(2, a[i]), QuantumState(2, b[j]))
                assert abs(grid[i, j] - expected) < 1e-12


class TestCompiledKernels:
    def test_cnot_permutation_equals_dense_sequence(self):
        rng = np.random.default_rng(53)
        for n in (2, 3, 5):
            pairs = tuple(tuple(int(q) for q in rng.choice(n, 2, replace=False)) for _ in range(4))
            state = rng.normal(size=1 << n)
            dense = dense_simulate([cnot(c, t) for c, t in pairs], n, state).real
            assert np.array_equal(state[qsim.cnot_permutation(n, pairs)], dense)

    def test_cnot_permutation_rejects_bad_pairs(self):
        for pairs in (((0, 0),), ((0, 3),), ((-1, 1),)):
            with pytest.raises(UsageError):
                qsim.cnot_permutation(3, pairs)

    def test_ry_kernels_equal_dense_matrices(self):
        rng = np.random.default_rng(59)
        angles = rng.uniform(0, 2 * np.pi, size=(4, 3))
        cols = qsim.ry_product_columns(angles)
        for row, x in enumerate(angles):
            expected = dense_simulate([ry(q, x[q]) for q in range(3)], 3).real
            assert np.allclose(cols[:, row], expected, atol=1e-14)
        turned = qsim.ry_columns(cols, 1, np.cos(0.35), np.sin(0.35))
        mat = dense_gate_matrix(ry(1, 0.7), 3).real
        assert np.allclose(turned, mat @ cols, atol=1e-14)
        per_column = rng.uniform(0, 2 * np.pi, size=4)
        for q in range(3):
            turned = qsim.ry_columns(cols, q, np.cos(per_column / 2), np.sin(per_column / 2))
            for row, a in enumerate(per_column):
                mat = dense_gate_matrix(ry(q, a), 3).real
                assert np.allclose(turned[:, row], mat @ cols[:, row], atol=1e-14)

    def test_phase_and_mixer_products_equal_dense_matrices(self):
        rng = np.random.default_rng(61)
        angles = rng.uniform(-2, 2, size=(2, 3))
        diag = qsim.z_phase_rows(angles)
        for row, a in enumerate(angles):
            # exp(-i a Z) is RZ(2 a)
            dense = dense_simulate([rz(q, 2 * a[q]) for q in range(3)], 3, np.ones(8))
            assert np.allclose(diag[row], dense, atol=1e-14)
        beta = rng.uniform(0, 2 * np.pi, 3)
        mixer = np.eye(8, dtype=complex)
        for q in range(3):
            mixer = dense_gate_matrix(x_mixer(q, beta[q]), 3) @ mixer
        assert np.allclose(qsim.x_mixer_product(beta), mixer, atol=1e-14)
