"""Dense statevector simulation for registers of up to 12 qubits.

Amplitude ordering is little-endian: qubit ``k`` corresponds to bit ``k`` of
the basis-state index, so for two qubits the basis order is
``|00>, |01>, |10>, |11>`` with the rightmost digit being qubit 0.

The module has one API: functions over plain complex (or, for the compiled
RY/CNOT family, real) amplitude arrays.  ``GateOp`` describes one gate;
``apply_gate_amplitudes`` applies it, ``z_expectations`` and
``x_expectations`` read out every qubit (X in the Hadamard basis, through a
cached H on every qubit), and ``cross_overlap_sq`` compares two batches of
states.  Callers build their own initial arrays.

Gate application is matrix-free (the test suite checks the simulator against
an explicit dense matrix-chain oracle, which keeps the two code paths
independent).  Each gate kind has one kernel: a diagonal gate (RZ, ZZPhase)
multiplies by one phase built from a cached sign table, CNOT is a cached
permutation of basis states, and every other gate is a 2x2 matrix applied
through bit-indexed pairing.  Every kernel operates on the last axis of its
input array, so the same code serves a single state vector of shape
``(2**n,)`` and a batch of shape ``(batch, 2**n)``, with one angle or one
angle per row.  The compiled-circuit kernels at the end of the module run
the model circuits, which are evaluated many times on the same rows; a
layer with one 2x2 gate on every qubit becomes one matrix, the Kronecker
product of the gates.  An RY product state is one gather of each qubit's
(cos, sin) pair through a cached bit table and one product over the qubit
axis, in qubit order.

Same bits.  The tests hold these kernels' output bits to straightforward
reference forms (a doubling loop per qubit, ``np.clip`` clamps) at each
shape, and a faster form must keep them:

* Complex products are not commutative bit for bit: NumPy's complex
  multiply may use fused multiply-adds, so ``a * b`` and ``b * a`` can
  differ in the last bit.  Keep each product's operand order.
* NumPy may write ``x * y`` into a temporary operand of 256 KiB or more,
  swapping the operands to do so.  Name a complex factor rather than pass a
  temporary as the right operand.
* A one-row matmul and the same row of a batch matmul can take different
  BLAS paths, so compare a new form with the old one at the same shape.
* The readout clamps with ``np.maximum`` then ``np.minimum``, and the
  overlap, a sum of squares never below +0.0, with ``np.minimum`` alone:
  both keep -0.0 and NaN as ``np.clip`` does, without its Python wrapper.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, UsageError

MAX_QUBITS = 12

_SQRT1_2 = 2.0 ** -0.5


@unique
class GateKind(Enum):
    RY = "RY"
    RZ = "RZ"
    H = "H"
    X = "X"
    CNOT = "CNOT"
    ZZPHASE = "ZZPhase"
    XMIXER = "XMixer"


_ARITY = {
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.H: 1,
    GateKind.X: 1,
    GateKind.CNOT: 2,
    GateKind.ZZPHASE: 2,
    GateKind.XMIXER: 1,
}
_ANGLED = frozenset({GateKind.RY, GateKind.RZ, GateKind.ZZPHASE, GateKind.XMIXER})


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, target qubit indices, optional angle.

    Conventions (unitaries acting on the target qubits):

    * ``RY(a)  = [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]]``
    * ``RZ(a)  = diag(exp(-i a/2), exp(+i a/2))``
    * ``ZZPhase(a) = exp(-i a Z@Z)`` -- phase ``exp(-i a)`` where the two
      bits agree, ``exp(+i a)`` where they differ.
    * ``XMixer(a) = exp(-i a X)``
    * ``CNOT`` targets are ``(control, target)``.
    """

    kind: GateKind
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        arity = _ARITY[self.kind]
        if len(targets) != arity:
            raise UsageError(
                f"{self.kind.value} expects {arity} target(s), got {targets!r}"
            )
        if len(set(targets)) != len(targets):
            raise UsageError(f"{self.kind.value} targets must be distinct: {targets!r}")
        if any(t < 0 for t in targets):
            raise UsageError(f"negative qubit index in {targets!r}")
        if self.kind in _ANGLED:
            if self.angle is None:
                raise UsageError(f"{self.kind.value} requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise UsageError(f"{self.kind.value} takes no angle")


def ry(qubit: int, angle: float) -> GateOp:
    return GateOp(GateKind.RY, (qubit,), angle)


def rz(qubit: int, angle: float) -> GateOp:
    return GateOp(GateKind.RZ, (qubit,), angle)


def hadamard(qubit: int) -> GateOp:
    return GateOp(GateKind.H, (qubit,))


def cnot(control: int, target: int) -> GateOp:
    return GateOp(GateKind.CNOT, (control, target))


def zz_phase(qubit_a: int, qubit_b: int, angle: float) -> GateOp:
    return GateOp(GateKind.ZZPHASE, (qubit_a, qubit_b), angle)


def x_mixer(qubit: int, angle: float) -> GateOp:
    return GateOp(GateKind.XMIXER, (qubit,), angle)


# ---------------------------------------------------------------------------
# cached sign tables for diagonal gates and expectations


def _check_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")


@lru_cache(maxsize=None)
def z_signs(n_qubits: int) -> np.ndarray:
    """<b|Z_q|b> for every basis state b and qubit q, shape (2**n, n)."""
    _check_count(n_qubits)
    dim = 1 << n_qubits
    idx = np.arange(dim)
    signs = np.empty((dim, n_qubits))
    for q in range(n_qubits):
        signs[:, q] = 1.0 - 2.0 * ((idx >> q) & 1)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=64)
def zz_signs(n_qubits: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """<b|Z_i Z_j|b> for each pair (i, j) and basis state b, shape (pairs, 2**n)."""
    signs = z_signs(n_qubits).T
    for i, j in pairs:
        if not (0 <= i < n_qubits and 0 <= j < n_qubits):
            raise UsageError(f"ZZ pair ({i}, {j}) out of range for {n_qubits} qubits")
    table = np.array([signs[i] * signs[j] for i, j in pairs]).reshape(-1, 1 << n_qubits)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# amplitude-array kernels (batch-aware: amps has shape (..., dim))
#
# A 2x2 gate reshapes the last axis so the qubit's bit becomes its own axis;
# slicing that axis yields views, avoiding gather/scatter index arithmetic.
# A diagonal gate is one phase over the sign table, and CNOT one gather.


def _split1(arr: np.ndarray, q: int) -> np.ndarray:
    dim = arr.shape[-1]
    return arr.reshape(arr.shape[:-1] + (dim >> (q + 1), 2, 1 << q))


def _apply_1q_matrix(amps: np.ndarray, q: int, u: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix on one qubit; ``u`` may carry leading batch axes.

    The amplitude axis is reshaped to expose the qubit bit as a length-2
    axis and the matrix is applied with a broadcast matmul, which keeps the
    inner loops in compiled code for every qubit position.
    """
    shape = amps.shape
    v = _split1(amps, q)
    if u.ndim > 2:
        # one matrix per batch row: (batch, 1, 2, 2) against (batch, G, 2, S)
        u = u[..., None, :, :]
    return np.matmul(u, v).reshape(shape)


def _ry_matrix(angle, dtype=np.complex128) -> np.ndarray:
    half = 0.5 * np.asarray(angle, dtype=float)
    c = np.cos(half)
    s = np.sin(half)
    u = np.empty(np.shape(half) + (2, 2), dtype=dtype)
    u[..., 0, 0] = c
    u[..., 0, 1] = -s
    u[..., 1, 0] = s
    u[..., 1, 1] = c
    return u


def _x_mixer_matrix(angle) -> np.ndarray:
    ang = np.asarray(angle, dtype=float)
    c = np.cos(ang)
    js = 1j * np.sin(ang)
    u = np.empty(np.shape(ang) + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = c
    u[..., 0, 1] = -js
    u[..., 1, 0] = -js
    u[..., 1, 1] = c
    return u


_H_MATRIX = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=np.complex128)
_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def _width(amps: np.ndarray) -> int:
    dim = amps.shape[-1]
    if dim & (dim - 1):
        raise UsageError(f"amplitude axis of length {dim} is not a power of two")
    return dim.bit_length() - 1


def _phase(amps: np.ndarray, angle, signs: np.ndarray) -> np.ndarray:
    """amps times exp(-i angle signs): one angle, or one per row of amps."""
    angle = np.asarray(angle, dtype=float)[..., None]
    return amps * np.exp(-1j * angle * signs)


def _apply_rz(amps, q, angle):
    # RZ(a) = exp(-i (a/2) Z_q)
    return _phase(amps, 0.5 * np.asarray(angle, dtype=float), z_signs(_width(amps))[:, q])


def _apply_zz_phase(amps, qa, qb, angle):
    return _phase(amps, angle, zz_signs(_width(amps), ((qa, qb),))[0])


def _check_targets(gate: GateOp, dim: int) -> None:
    for t in gate.targets:
        if (1 << t) >= dim:
            raise UsageError(
                f"{gate.kind.value} target {t} out of range for dimension {dim}"
            )


def apply_gate_amplitudes(amps: np.ndarray, gate: GateOp) -> np.ndarray:
    """Apply one gate to an amplitude array of shape ``(..., 2**n)``."""
    _check_targets(gate, amps.shape[-1])
    kind, targets = gate.kind, gate.targets
    if kind is GateKind.CNOT:
        return amps[..., cnot_permutation(_width(amps), (targets,))]
    if kind is GateKind.RZ:
        return _apply_rz(amps, targets[0], gate.angle)
    if kind is GateKind.ZZPHASE:
        return _apply_zz_phase(amps, targets[0], targets[1], gate.angle)
    if kind is GateKind.RY:
        u = _ry_matrix(gate.angle)
    elif kind is GateKind.XMIXER:
        u = _x_mixer_matrix(gate.angle)
    elif kind is GateKind.H:
        u = _H_MATRIX
    elif kind is GateKind.X:
        u = _X_MATRIX
    else:
        raise UsageError(f"unsupported gate kind {kind!r}")
    return _apply_1q_matrix(amps, targets[0], u)


def ry_rows(amps: np.ndarray, qubit: int, angles: np.ndarray) -> np.ndarray:
    """RY on one qubit with a separate angle per batch row."""
    if (1 << qubit) >= amps.shape[-1]:
        raise UsageError(f"qubit {qubit} out of range")
    return _apply_1q_matrix(amps, qubit, _ry_matrix(np.asarray(angles, dtype=float)))


def rz_rows(amps: np.ndarray, qubit: int, angles: np.ndarray) -> np.ndarray:
    """RZ on one qubit with a separate angle per batch row."""
    if (1 << qubit) >= amps.shape[-1]:
        raise UsageError(f"qubit {qubit} out of range")
    return _apply_rz(amps, qubit, angles)


def zz_phase_rows(amps: np.ndarray, qubit_a: int, qubit_b: int, angles) -> np.ndarray:
    """ZZPhase on a qubit pair with a separate angle per batch row."""
    if (1 << qubit_a) >= amps.shape[-1] or (1 << qubit_b) >= amps.shape[-1]:
        raise UsageError("qubit index out of range")
    return _apply_zz_phase(amps, qubit_a, qubit_b, angles)


def _z_readout(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    probs = amps.real**2 + amps.imag**2 if amps.dtype.kind == "c" else amps * amps
    # np.clip's bits (-0.0 and NaN kept) without its Python wrapper
    out = probs @ z_signs(n_qubits)
    np.maximum(out, -1.0, out=out)
    return np.minimum(out, 1.0, out=out)


def z_expectations(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """<Z_q> for every qubit of real or complex amplitudes; shape ``(..., n_qubits)``."""
    return _z_readout(amps, n_qubits)


def x_expectations(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """<X_q> for every qubit; shape ``(..., n_qubits)``.

    X_q = H Z_q H, so <X_q> is <Z_q> after a Hadamard on every qubit: one
    matmul by the cached, symmetric H (x) ... (x) H, then the Z readout.
    """
    # _z_readout, not z_expectations: a traced run times this as one readout
    return _z_readout(amps @ hadamard_product(n_qubits), n_qubits)


def cross_overlap_sq(amps_a: np.ndarray, amps_b: np.ndarray) -> np.ndarray:
    """|<a_i|b_j>|**2 for two batches of states; returns shape (len_a, len_b)."""
    if amps_a.shape[-1] != amps_b.shape[-1]:
        raise UsageError("state dimensions differ")
    inner = np.conj(amps_a) @ amps_b.T
    # a sum of squares is never below +0.0, so only the upper clamp can act
    sq = inner.real**2 + inner.imag**2
    return np.minimum(sq, 1.0, out=sq)


# ---------------------------------------------------------------------------
# compiled-circuit kernels
#
# A trained circuit is evaluated many times on the same rows, so the work
# that depends only on the data is done once and these kernels run the
# part that depends on the trained angles.  RY and CNOT started from
# |0...0> keep every amplitude real, so that family runs in float64 on
# columns: shape (2**n, batch), amplitude axis first, which makes the two
# halves of a qubit's bit contiguous blocks instead of strided columns.


@lru_cache(maxsize=None)
def _trig_index(n_qubits: int) -> np.ndarray:
    """(n, 2**n) rows of the stacked (cos, sin) table: q, or n + q where bit q is set."""
    _check_count(n_qubits)
    bits = (np.arange(1 << n_qubits) >> np.arange(n_qubits)[:, None]) & 1
    index = np.arange(n_qubits)[:, None] + n_qubits * bits
    index.setflags(write=False)
    return index


def ry_product_columns(angles: np.ndarray) -> np.ndarray:
    """RY(angles[r, q]) on each qubit q of |0...0>, as real columns (2**n, batch).

    The state is a product: qubit q contributes cos(a/2) where its bit is 0
    and sin(a/2) where it is 1.  One gather lays out every qubit's factor
    per basis state, and one reduce over the qubit axis multiplies them in
    qubit order, the order of a state built one qubit at a time.
    """
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[1]
    half = 0.5 * angles.T
    trig = np.concatenate([np.cos(half), np.sin(half)])  # (2n, batch)
    return np.multiply.reduce(trig[_trig_index(n)], axis=0)


def ry_columns(cols: np.ndarray, qubit: int, cos_half, sin_half) -> np.ndarray:
    """RY on one qubit of real state columns, given cos and sin of half its angle.

    ``cos_half`` and ``sin_half`` are scalars, or hold one value per column.
    """
    v = cols.reshape(cols.shape[0] >> (qubit + 1), 2, 1 << qubit, -1)
    out = np.empty_like(v)
    a0, a1 = v[:, 0], v[:, 1]
    np.multiply(a0, cos_half, out=out[:, 0])
    out[:, 0] -= sin_half * a1
    np.multiply(a1, cos_half, out=out[:, 1])
    out[:, 1] += sin_half * a0
    return out.reshape(cols.shape)


@lru_cache(maxsize=64)
def cnot_permutation(n_qubits: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Basis-state gather equal to CNOT(control, target) for each pair in order.

    ``cols[perm]`` (or ``amps[..., perm]``) is the state after the whole
    sequence: each CNOT is a self-inverse permutation of basis states, and a
    sequence of them composes into one.
    """
    _check_count(n_qubits)
    idx = np.arange(1 << n_qubits)
    perm = idx
    for control, target in pairs:
        if not (0 <= control < n_qubits and 0 <= target < n_qubits) or control == target:
            raise UsageError(f"invalid CNOT pair ({control}, {target}) for {n_qubits} qubits")
        perm = perm[idx ^ (((idx >> control) & 1) << target)]
    perm.setflags(write=False)
    return perm


def z_phase_rows(angles: np.ndarray) -> np.ndarray:
    """Diagonal of prod_q exp(-i angles[r, q] Z_q) for each row r, shape (rows, 2**n).

    The diagonal is a product over qubits, so it needs one exp per row and
    qubit rather than one per row and basis state.  It doubles in place in
    one preallocated ``(2**n, rows)`` array, over contiguous rows: a fresh
    array per qubit costs about twice as much past a few hundred KiB.
    """
    angles = np.asarray(angles, dtype=float)
    rows, n = angles.shape
    _check_count(n)
    factor = np.exp(-1j * angles.T)
    conj = np.conj(factor)
    diag = np.empty((1 << n, rows), dtype=np.complex128)
    diag[0] = 1.0
    for q in range(n):
        # qubit q is the new most significant bit: Z_q is +1 below, -1 above
        low, high = diag[: 1 << q], diag[1 << q : 2 << q]
        np.multiply(low, conj[q], out=high)
        np.multiply(low, factor[q], out=low)
    return np.ascontiguousarray(diag.T)


def _qubit_product(factors: np.ndarray) -> np.ndarray:
    """factors[n-1] (x) ... (x) factors[0]: 2x2 factor q acts on qubit q.

    One 2**n x 2**n matrix in the dtype of ``factors`` (shape (n, 2, 2)).
    """
    _check_count(len(factors))
    m = np.ones((1, 1), dtype=factors.dtype)
    for u in factors:
        # Kronecker product u (x) m: the factor's qubit is the new most significant bit
        k = len(m)
        m = (u[:, None, :, None] * m[None, :, None, :]).reshape(2 * k, 2 * k)
    return m


def ry_product(angles) -> np.ndarray:
    """RY(angles[q]) on every qubit q as one real 2**n x 2**n matrix.

    ``m @ cols`` applies it to real state columns.
    """
    return _qubit_product(_ry_matrix(np.asarray(angles, dtype=float), np.float64))


def x_mixer_product(angles) -> np.ndarray:
    """exp(-i angles[q] X_q) on every qubit q as one 2**n x 2**n matrix.

    The matrix is symmetric, so ``amps @ m`` applies it to a batch of rows.
    """
    return _qubit_product(_x_mixer_matrix(np.asarray(angles, dtype=float)))


@lru_cache(maxsize=None)
def hadamard_product(n_qubits: int) -> np.ndarray:
    """H on every qubit as one symmetric 2**n x 2**n matrix (read-only).

    It is complex, with zero imaginary parts, so a complex batch multiplies
    it without a cast on every call.
    """
    m = _qubit_product(np.broadcast_to(_H_MATRIX, (n_qubits, 2, 2)))
    m.setflags(write=False)
    return m
