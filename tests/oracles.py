"""Independent oracles used to cross-check the production code paths.

Everything here is deliberately written the "slow but obvious" way: explicit
dense matrices built by basis-state enumeration, rank-then-Pearson Spearman,
two-pass variance, and so on.  None of it shares code with src/qcb.
"""
from __future__ import annotations

import numpy as np

from qcb.qsim import GateKind, GateOp


def dense_gate_matrix(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n unitary for one gate, built by basis enumeration."""
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    kind = gate.kind
    if kind in (GateKind.RY, GateKind.RZ, GateKind.H, GateKind.X, GateKind.XMIXER):
        q = gate.targets[0]
        a = gate.angle
        if kind is GateKind.RY:
            u = np.array(
                [[np.cos(a / 2), -np.sin(a / 2)], [np.sin(a / 2), np.cos(a / 2)]],
                dtype=complex,
            )
        elif kind is GateKind.RZ:
            u = np.array([[np.exp(-1j * a / 2), 0], [0, np.exp(1j * a / 2)]])
        elif kind is GateKind.H:
            u = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        elif kind is GateKind.X:
            u = np.array([[0, 1], [1, 0]], dtype=complex)
        else:  # XMixer = exp(-i a X)
            u = np.array(
                [[np.cos(a), -1j * np.sin(a)], [-1j * np.sin(a), np.cos(a)]]
            )
        for col in range(dim):
            bit = (col >> q) & 1
            for new_bit in (0, 1):
                row = (col & ~(1 << q)) | (new_bit << q)
                mat[row, col] = u[new_bit, bit]
        return mat
    if kind is GateKind.CNOT:
        control, target = gate.targets
        for col in range(dim):
            if (col >> control) & 1:
                mat[col ^ (1 << target), col] = 1.0
            else:
                mat[col, col] = 1.0
        return mat
    if kind is GateKind.ZZPHASE:
        qa, qb = gate.targets
        a = gate.angle
        for col in range(dim):
            z = 1 if ((col >> qa) & 1) == ((col >> qb) & 1) else -1
            mat[col, col] = np.exp(-1j * a * z)
        return mat
    raise AssertionError(f"oracle has no matrix for {kind}")


def dense_simulate(gates, n_qubits: int, initial: np.ndarray | None = None) -> np.ndarray:
    """Multiply explicit gate matrices onto an initial vector."""
    dim = 2**n_qubits
    if initial is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial, dtype=complex).copy()
    for gate in gates:
        state = dense_gate_matrix(gate, n_qubits) @ state
    return state


def states_match_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """Elementwise equality after removing one global phase."""
    k = int(np.argmax(np.abs(a)))
    if abs(a[k]) < 1e-12 and abs(b[k]) < 1e-12:
        return bool(np.allclose(a, b, atol=atol))
    if abs(b[k]) < 1e-12:
        return False
    phase = (a[k] / abs(a[k])) / (b[k] / abs(b[k]))
    return bool(np.allclose(a, phase * b, atol=atol))


def random_gate(rng: np.random.Generator, n_qubits: int) -> GateOp:
    kinds = list(GateKind)
    kind = kinds[rng.integers(len(kinds))]
    if kind in (GateKind.CNOT, GateKind.ZZPHASE):
        qa, qb = rng.choice(n_qubits, size=2, replace=False)
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
        if kind is GateKind.CNOT:
            return GateOp(kind, (int(qa), int(qb)))
        return GateOp(kind, (int(qa), int(qb)), angle)
    q = int(rng.integers(n_qubits))
    if kind in (GateKind.H, GateKind.X):
        return GateOp(kind, (q,))
    return GateOp(kind, (q,), float(rng.uniform(-2 * np.pi, 2 * np.pi)))


def random_circuit(rng: np.random.Generator, n_qubits: int, depth: int):
    return [random_gate(rng, n_qubits) for _ in range(depth)]


def rank_then_pearson(x, y) -> float:
    """Spearman oracle: average ranks, then a direct Pearson on the ranks."""

    def avg_ranks(v):
        v = np.asarray(v, dtype=float)
        ranks = np.empty(len(v))
        for i, value in enumerate(v):
            less = np.sum(v < value)
            equal = np.sum(v == value)
            # average of the rank positions occupied by this tie group
            ranks[i] = less + (equal + 1) / 2.0
        return ranks

    ra, rb = avg_ranks(x), avg_ranks(y)
    da, db = ra - ra.mean(), rb - rb.mean()
    denom = np.sqrt(np.sum(da**2) * np.sum(db**2))
    if denom == 0:
        return 0.0
    return float(np.sum(da * db) / denom)


def two_pass_std(values) -> float:
    """Population standard deviation computed the textbook two-pass way."""
    values = np.asarray(values, dtype=float)
    mean = values.sum() / len(values)
    return float(np.sqrt(np.sum((values - mean) ** 2) / len(values)))


def logistic_regression_fit(X, y, C: float = 1.0, max_iter: int = 1000, tol: float = 1e-5):
    """Softmax-regression gradient descent in its textbook form.

    A verbatim copy of ``LogisticRegressionClassifier.fit`` before its inner
    loop was tuned; the tuned loop must reproduce it bit for bit.  Returns
    ``(weights, bias, loss_trace, n_iter)`` for two or more classes.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    classes, codes = np.unique(y, return_inverse=True)
    n, d = X.shape
    k = len(classes)
    n_iter = 0

    design = np.hstack([X, np.ones((n, 1))])
    onehot = np.zeros((n, k))
    onehot[np.arange(n), codes] = 1.0
    rows = np.arange(n)
    reg = 1.0 / (C * n)

    def loss_and_probs(params):
        Z = design @ params
        shift = Z.max(axis=1, keepdims=True)
        probs = np.exp(Z - shift)
        norm = probs.sum(axis=1, keepdims=True)
        log_norm = np.log(norm[:, 0]) + shift[:, 0]
        data_term = float(np.mean(log_norm - Z[rows, codes]))
        penalty = 0.5 * reg * float(np.sum(params[:d] ** 2))
        return data_term + penalty, probs / norm

    def grad_from_probs(params, probs):
        grad = design.T @ ((probs - onehot) / n)
        grad[:d] += reg * params[:d]
        return grad

    params = np.zeros((d + 1, k))
    loss, probs = loss_and_probs(params)
    grad = grad_from_probs(params, probs)
    loss_trace = [loss]
    step = 1.0
    for iteration in range(max_iter):
        grad_norm_sq = float(np.sum(grad**2))
        if np.sqrt(grad_norm_sq) < tol:
            break
        accepted = False
        for _ in range(40):
            candidate = params - step * grad
            candidate_loss, candidate_probs = loss_and_probs(candidate)
            if candidate_loss <= loss - 1e-4 * step * grad_norm_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        params, loss = candidate, candidate_loss
        grad = grad_from_probs(params, candidate_probs)
        loss_trace.append(loss)
        step = min(step * 1.5, 64.0)
        n_iter = iteration + 1
    return params[:d], params[d], loss_trace, n_iter
