"""Dense reference for the circuits qcb simulates.

Every gate is written out as a full 2**n x 2**n matrix built with Kronecker
products, a circuit is the product of its gate matrices, and expectations
are quadratic forms with dense Pauli operators.  Nothing here imports qcb's
simulator, so the workload checks can hold the program's batched kernels
against an independent computation.

Qubit q is bit q of the basis-state index, so the operator of a one-qubit
gate U on q is I(2**(n-1-q)) (x) U (x) I(2**q).
"""
from __future__ import annotations

import numpy as np

_I2 = np.eye(2, dtype=complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)


def on_qubit(u: np.ndarray, q: int, n: int) -> np.ndarray:
    """Embed a 2x2 matrix acting on qubit ``q`` of an ``n``-qubit register."""
    return np.kron(np.eye(1 << (n - 1 - q)), np.kron(u, np.eye(1 << q)))


def ry(angle: float) -> np.ndarray:
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(angle: float) -> np.ndarray:
    """exp(-i angle Z / 2)."""
    return np.cos(angle / 2.0) * _I2 - 1j * np.sin(angle / 2.0) * _Z


def x_mixer(angle: float) -> np.ndarray:
    """exp(-i angle X)."""
    return np.cos(angle) * _I2 - 1j * np.sin(angle) * _X


def cnot(control: int, target: int, n: int) -> np.ndarray:
    return on_qubit(_P0, control, n) + on_qubit(_P1, control, n) @ on_qubit(_X, target, n)


def zz_phase(a: int, b: int, angle: float, n: int) -> np.ndarray:
    """exp(-i angle Z_a Z_b); (Z_a Z_b)**2 = I gives the closed form."""
    zz = on_qubit(_Z, a, n) @ on_qubit(_Z, b, n)
    return np.cos(angle) * np.eye(1 << n) - 1j * np.sin(angle) * zz


def circuit_matrix(gates: list[np.ndarray], n: int) -> np.ndarray:
    """Product of dense gate matrices, the first gate applied first."""
    u = np.eye(1 << n, dtype=complex)
    for g in gates:
        u = g @ u
    return u


def _basis_zero(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def _expect(psi: np.ndarray, pauli: np.ndarray, n: int) -> np.ndarray:
    return np.array(
        [np.real(np.vdot(psi, on_qubit(pauli, q, n) @ psi)) for q in range(n)]
    )


def entangling_pairs(correlation_pairs, n: int) -> list[tuple[int, int]]:
    """First-layer CNOT pairs: in-range correlation pairs, else the ladder."""
    pairs = [(i, j) for i, j, _ in correlation_pairs if i < n and j < n]
    return pairs or [(k, k + 1) for k in range(n - 1)]


def vqc_features(x_angle: np.ndarray, theta: np.ndarray, correlation_pairs, layers: int) -> np.ndarray:
    """<Z_q> per row after RY encoding and ``layers`` RY+CNOT layers."""
    rows = np.atleast_2d(x_angle)
    n = rows.shape[1]
    trainable = []
    for layer in range(layers):
        trainable += [on_qubit(ry(theta[layer * n + j]), j, n) for j in range(n)]
        pairs = entangling_pairs(correlation_pairs, n) if layer == 0 else [
            (k, k + 1) for k in range(n - 1)
        ]
        trainable += [cnot(i, j, n) for i, j in pairs]
    out = []
    for x in rows:
        encode = [on_qubit(ry(x[q]), q, n) for q in range(n)]
        psi = circuit_matrix(encode + trainable, n) @ _basis_zero(n)
        out.append(_expect(psi, _Z, n))
    return np.array(out)


def qaoa_features(
    x_angle: np.ndarray, gamma: np.ndarray, beta: np.ndarray, zz_terms, z_qubits, layers: int
) -> np.ndarray:
    """[<Z_q>, <X_q>] per row of the cost/mixer ansatz started in |+...+>.

    Layer l applies exp(-i gamma[l, min(i,j)] w_ij Z_i Z_j) per coupling,
    RZ(2 gamma[l, q] x_q) per Z qubit, then exp(-i beta[l, q] X_q).
    """
    rows = np.atleast_2d(x_angle)
    n = rows.shape[1]
    plus = circuit_matrix([on_qubit(_H, q, n) for q in range(n)], n) @ _basis_zero(n)
    out = []
    for x in rows:
        gates = []
        for layer in range(layers):
            base = layer * n
            gates += [zz_phase(i, j, gamma[base + min(i, j)] * w, n) for i, j, w in zz_terms]
            gates += [on_qubit(rz(2.0 * gamma[base + q] * x[q]), q, n) for q in z_qubits]
            gates += [on_qubit(x_mixer(beta[base + q]), q, n) for q in range(n)]
        psi = circuit_matrix(gates, n) @ plus
        out.append(np.concatenate([_expect(psi, _Z, n), _expect(psi, _X, n)]))
    return np.array(out)


def feature_map_state(x: np.ndarray) -> np.ndarray:
    """H on every qubit, RZ(2 x_q), then exp(-i x_i x_j Z_i Z_j) for i < j."""
    n = len(x)
    gates = [on_qubit(_H, q, n) for q in range(n)]
    gates += [on_qubit(rz(2.0 * x[q]), q, n) for q in range(n)]
    gates += [zz_phase(i, j, x[i] * x[j], n) for i in range(n) for j in range(i + 1, n)]
    return circuit_matrix(gates, n) @ _basis_zero(n)


def fidelity_kernel(a_angle: np.ndarray, b_angle: np.ndarray) -> np.ndarray:
    """K[i, j] = |<phi(a_i)|phi(b_j)>|**2."""
    A = [feature_map_state(x) for x in np.atleast_2d(a_angle)]
    B = [feature_map_state(x) for x in np.atleast_2d(b_angle)]
    return np.array([[abs(np.vdot(a, b)) ** 2 for b in B] for a in A])
