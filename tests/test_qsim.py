from functools import reduce

import numpy as np
import pytest

from qcb import qsim
from qcb.errors import ConfigurationError, UsageError
from qcb.qsim import (
    GateKind,
    GateOp,
    cnot,
    hadamard,
    ry,
    rz,
    x_mixer,
    zz_phase,
)

from oracles import (
    SAME_BITS_ROWS,
    clip_cross_overlap_sq,
    clip_z_expectations,
    dense_gate_matrix,
    dense_simulate,
    doubling_ry_product_columns,
    doubling_z_phase_rows,
    kron_chain,
    pauli_x,
    plus_state,
    random_circuit,
    states_match_up_to_phase,
    x_expectations_by_pairing,
    zero_state,
)


def simulate(gates, amps):
    """The simulator under test: apply_gate_amplitudes folded over a gate list."""
    return reduce(qsim.apply_gate_amplitudes, gates, amps)


def z_of(amps, qubit):
    return qsim.z_expectations(amps, amps.shape[-1].bit_length() - 1)[qubit]


def x_of(amps, qubit):
    return qsim.x_expectations(amps, amps.shape[-1].bit_length() - 1)[qubit]


def overlap(a, b):
    return qsim.cross_overlap_sq(a[None], b[None])[0, 0]


def random_state(rng, n_qubits):
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return amps / np.linalg.norm(amps)


class TestInit:
    """The initial states every simulator test starts from, and register bounds."""

    def test_zero_single_qubit(self):
        assert np.array_equal(zero_state(1), [1, 0])

    def test_zero_two_qubits(self):
        assert np.array_equal(zero_state(2), [1, 0, 0, 0])

    def test_zero_four_qubits(self):
        state = zero_state(4)
        assert state.shape == (16,)
        assert state[0] == 1.0
        assert not state[1:].any()

    def test_plus_values(self):
        assert np.allclose(plus_state(1), [2**-0.5, 2**-0.5])
        assert np.allclose(plus_state(2), [0.5] * 4)
        assert np.allclose(plus_state(3), [8**-0.5] * 8, atol=1e-15)

    @pytest.mark.parametrize("n", [0, 13, -1])
    def test_qubit_count_bounds(self, n):
        with pytest.raises(ConfigurationError):
            qsim.z_signs(n)
        with pytest.raises(ConfigurationError):
            qsim.cnot_permutation(n, ())


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
            qsim.apply_gate_amplitudes(zero_state(2), ry(2, 0.1))

    @pytest.mark.parametrize("gate", [cnot(0, 1), rz(0, 0.3), zz_phase(0, 1, 0.3)])
    def test_amplitude_axis_must_be_a_power_of_two(self, gate):
        with pytest.raises(UsageError):
            qsim.apply_gate_amplitudes(np.ones(6, dtype=complex), gate)


class TestSingleGates:
    def test_ry_pi_flips_zero(self):
        state = qsim.apply_gate_amplitudes(zero_state(1), ry(0, np.pi))
        assert np.allclose(state, [0, 1], atol=1e-15)

    def test_cnot_truth_table(self):
        # qubit 0 = 1 controls a flip of qubit 1: |01> -> |11>
        state = np.array([0, 1, 0, 0], dtype=complex)
        out = qsim.apply_gate_amplitudes(state, cnot(0, 1))
        assert np.allclose(out, [0, 0, 0, 1])

    def test_rz_on_plus_matches_dense_product(self):
        out = qsim.apply_gate_amplitudes(plus_state(1), rz(0, np.pi / 2))
        expected = dense_simulate([rz(0, np.pi / 2)], 1, plus_state(1))
        assert np.allclose(out, expected, atol=1e-12)
        assert np.allclose(
            out,
            [np.exp(-1j * np.pi / 4) / np.sqrt(2), np.exp(1j * np.pi / 4) / np.sqrt(2)],
        )

    def test_hadamard_makes_plus(self):
        out = qsim.apply_gate_amplitudes(zero_state(1), hadamard(0))
        assert np.allclose(out, plus_state(1))

    def test_x_flips_bit_on_three_qubits(self):
        out = qsim.apply_gate_amplitudes(zero_state(3), pauli_x(1))
        expected = np.zeros(8)
        expected[2] = 1.0
        assert np.allclose(out, expected)

    def test_zz_phase_signs(self):
        # |00> and |11> agree -> exp(-i a); |01>, |10> -> exp(+i a)
        amps = np.full(4, 0.5, dtype=complex)
        out = qsim.apply_gate_amplitudes(amps, zz_phase(0, 1, 0.7))
        assert np.allclose(
            out,
            0.5 * np.array(
                [np.exp(-0.7j), np.exp(0.7j), np.exp(0.7j), np.exp(-0.7j)]
            ),
        )

    def test_x_mixer_matches_dense(self):
        state = qsim.apply_gate_amplitudes(zero_state(1), pauli_x(0))
        out = qsim.apply_gate_amplitudes(state, x_mixer(0, np.pi / 4))
        expected = dense_simulate([x_mixer(0, np.pi / 4)], 1, state)
        assert np.allclose(out, expected, atol=1e-12)


class TestExpectations:
    def test_z_on_computational_states(self):
        assert z_of(zero_state(1), 0) == 1.0
        one = qsim.apply_gate_amplitudes(zero_state(1), pauli_x(0))
        assert z_of(one, 0) == -1.0

    def test_z_on_plus_is_zero(self):
        assert abs(z_of(plus_state(1), 0)) < 1e-15

    def test_z_equals_cos_after_ry(self):
        x = np.pi / 3
        state = qsim.apply_gate_amplitudes(zero_state(1), ry(0, x))
        assert abs(z_of(state, 0) - np.cos(x)) < 1e-12
        # cross-check against the dense oracle
        dense = dense_simulate([ry(0, x)], 1)
        probs = np.abs(dense) ** 2
        assert abs(z_of(state, 0) - (probs[0] - probs[1])) < 1e-12

    def test_x_on_plus_and_zero(self):
        assert abs(x_of(plus_state(1), 0) - 1.0) < 1e-15
        assert abs(x_of(zero_state(1), 0)) < 1e-15

    def test_x_matches_h_then_z_identity(self):
        state = simulate([pauli_x(0), x_mixer(0, np.pi / 4)], zero_state(1))
        rotated = qsim.apply_gate_amplitudes(state, hadamard(0))
        assert abs(x_of(state, 0) - z_of(rotated, 0)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_x_matches_amplitude_pairing(self, n):
        rng = np.random.default_rng(70 + n)
        batch = np.stack([random_state(rng, n) for _ in range(12)])
        expected = x_expectations_by_pairing(batch, n)
        assert np.max(np.abs(qsim.x_expectations(batch, n) - expected)) <= 1e-13
        for row in (0, 11):
            single = qsim.x_expectations(batch[row], n)
            assert single.shape == (n,)
            assert np.max(np.abs(single - expected[row])) <= 1e-13

    def test_x_two_ways_agreement_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            state = random_state(rng, n)
            for q in range(n):
                via_h = z_of(qsim.apply_gate_amplitudes(state, hadamard(q)), q)
                assert abs(x_of(state, q) - via_h) < 1e-12

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            state = random_state(rng, n)
            for readout in (qsim.z_expectations, qsim.x_expectations):
                values = readout(state, n)
                assert np.all(values >= -1.0) and np.all(values <= 1.0)


class TestOverlap:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(3)
        psi = random_state(rng, 3)
        assert abs(overlap(psi, psi) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        one = qsim.apply_gate_amplitudes(zero_state(1), pauli_x(0))
        assert overlap(zero_state(1), one) == 0.0

    def test_matches_dense_inner_product(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = random_state(rng, 3)
            b = random_state(rng, 3)
            expected = abs(np.sum(np.conj(a) * b)) ** 2
            assert abs(overlap(a, b) - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            overlap(zero_state(2), zero_state(3))


class TestInvariants:
    def test_norm_preserved_under_long_random_circuits(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            state = simulate(random_circuit(rng, n, 100), zero_state(n))
            norm_sq = float(np.sum(np.abs(state) ** 2))
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
            back = simulate([gate, inverse], state)
            assert np.allclose(back, state, atol=1e-10)

    def test_simulator_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            depth = int(rng.integers(1, 11))
            gates = random_circuit(rng, 3, depth)
            ours = simulate(gates, zero_state(3))
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
        state = random_state(np.random.default_rng(13), 2)
        before = state.copy()
        gates = [
            ry(0, 1.0),
            rz(1, 0.4),
            hadamard(0),
            pauli_x(1),
            cnot(0, 1),
            zz_phase(0, 1, 0.3),
            x_mixer(1, 0.2),
        ]
        for gate in gates:
            qsim.apply_gate_amplitudes(state, gate)
            assert np.array_equal(state, before)


class TestBatchKernels:
    def test_batch_matches_per_state_loop(self):
        rng = np.random.default_rng(41)
        n = 3
        xs = rng.uniform(0, np.pi, size=(10, n))
        amps = np.tile(zero_state(n), (10, 1))
        for q in range(n):
            amps = qsim.ry_rows(amps, q, xs[:, q])
        amps = qsim.apply_gate_amplitudes(amps, cnot(0, 1))
        amps = qsim.zz_phase_rows(amps, 1, 2, xs[:, 1] * xs[:, 2])
        amps = qsim.rz_rows(amps, 0, 2 * xs[:, 0])
        for row in range(10):
            gates = [ry(q, xs[row, q]) for q in range(n)]
            gates += [
                cnot(0, 1),
                zz_phase(1, 2, xs[row, 1] * xs[row, 2]),
                rz(0, 2 * xs[row, 0]),
            ]
            assert np.allclose(amps[row], dense_simulate(gates, n), atol=1e-12)

    def test_cross_overlap_matches_pairwise(self):
        rng = np.random.default_rng(47)
        a = np.stack([random_state(rng, 2) for _ in range(4)])
        b = np.stack([random_state(rng, 2) for _ in range(3)])
        grid = qsim.cross_overlap_sq(a, b)
        for i in range(4):
            for j in range(3):
                expected = abs(np.vdot(a[i], b[j])) ** 2
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

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_qubit_products_are_kronecker_chains(self, n):
        rng = np.random.default_rng(67 + n)
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=n)
        mixer = qsim.x_mixer_product(angles)
        # the kernel multiplies each factor into the product as np.kron does,
        # so the mixer keeps the bytes of the per-qubit Kronecker loop
        assert mixer.tobytes() == kron_chain(list(qsim._x_mixer_matrix(angles))).tobytes()
        assert np.array_equal(
            mixer, kron_chain([dense_gate_matrix(x_mixer(0, a), 1) for a in angles])
        )
        rotations = qsim.ry_product(angles)
        dense = kron_chain([dense_gate_matrix(ry(0, a), 1).real for a in angles])
        assert rotations.dtype == np.float64
        assert np.max(np.abs(rotations - dense)) <= 1e-15
        walsh = qsim.hadamard_product(n)
        assert walsh is qsim.hadamard_product(n) and not walsh.flags.writeable
        h = dense_gate_matrix(hadamard(0), 1)
        assert np.max(np.abs(walsh - kron_chain([h] * n))) <= 1e-15


def _rows_with_special_values(rng, rows, cols, scale):
    """Random values with -0.0 and NaN planted in the first row (when there is one)."""
    values = rng.uniform(-scale, scale, size=(rows, cols))
    values[0, 0] = -0.0
    if rows > 1:
        values[1, -1] = np.nan
    return values


class TestSameBitsAsReferenceKernels:
    """The kernels return the bits of their straightforward reference forms, at each shape."""

    @pytest.mark.parametrize("rows", SAME_BITS_ROWS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_ry_product_columns(self, n, rows):
        angles = np.random.default_rng(100 + n).uniform(-7.0, 7.0, size=(rows, n))
        got = qsim.ry_product_columns(angles)
        assert got.shape == (1 << n, rows)
        assert got.tobytes() == doubling_ry_product_columns(angles).tobytes()

    # 432 rows: the three-layer QAOA stack of 144 rows
    @pytest.mark.parametrize("rows", [*SAME_BITS_ROWS, 432])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_z_phase_rows(self, n, rows):
        angles = np.random.default_rng(110 + n).uniform(-4.0, 4.0, size=(rows, n))
        got = qsim.z_phase_rows(angles)
        assert got.flags.c_contiguous
        assert got.tobytes() == doubling_z_phase_rows(angles).tobytes()

    @pytest.mark.parametrize("rows", SAME_BITS_ROWS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_readouts(self, n, rows):
        # unnormalised rows, so the clamp acts; -0.0 and NaN amplitudes included
        rng = np.random.default_rng(120 + n)
        dim = 1 << n
        real = _rows_with_special_values(rng, rows, dim, 1.5)
        amps = real + 1j * _rows_with_special_values(rng, rows, dim, 1.5)
        for state in (real, amps):
            want = clip_z_expectations(state, n)
            assert qsim.z_expectations(state, n).tobytes() == want.tobytes()
        hadamard = amps @ qsim.hadamard_product(n)
        assert qsim.x_expectations(amps, n).tobytes() == clip_z_expectations(hadamard, n).tobytes()
        if rows > 1:
            assert np.isnan(qsim.z_expectations(amps, n)[1]).all()
        assert np.abs(qsim.z_expectations(amps, n)[2:]).max(initial=0.0) <= 1.0

    @pytest.mark.parametrize("rows", SAME_BITS_ROWS)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cross_overlap_sq(self, n, rows):
        rng = np.random.default_rng(130 + n)
        dim = 1 << n
        amps = _rows_with_special_values(rng, rows, dim, 1.0) + 1j * rng.uniform(size=(rows, dim))
        amps[-1] = -0.0  # a state of signed zeros: its overlaps are +0.0
        others = amps[: min(rows, 7)]
        got = qsim.cross_overlap_sq(amps, others)
        assert got.tobytes() == clip_cross_overlap_sq(amps, others).tobytes()
        assert np.signbit(got[-1]).sum() == 0
        if rows > 2 and n > 1:
            assert got[0, 0] == 1.0  # an unnormalised state hits the clamp
