"""Correlation analysis and construction of the three circuit families.

Builds the correlation-aware variational ansatz, the alternating cost/mixer
ansatz, and the kernel feature map as plain gate lists for :mod:`qcb.qsim`,
plus circuit resource metrics and a sampling-based expressibility estimator.
The variational layers also run directly on real state columns
(:func:`apply_vqc_layers`), the loop behind the expressibility estimate; the
trained features fold the same layers into one matrix
(``qmodels.vqc_operator``).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import NamedTuple, Sequence

import numpy as np

from . import qsim
from .errors import ConfigurationError, UsageError
from .qsim import GateOp, cnot, hadamard, ry, rz, x_mixer, zz_phase

DEFAULT_CORRELATION_THRESHOLD = 0.5
EXPRESSIBILITY_BINS = 75
MIN_PRECISE_PAIRS = 100
# parameter-vector pairs whose states expressibility holds at once: 512
# state columns, 16 MiB each of the few column arrays at 12 qubits
EXPRESSIBILITY_BLOCK_PAIRS = 256


class SpearmanResult(NamedTuple):
    rho: float
    degenerate: bool


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the mean of their ranks.

    Equal values tie, -0.0 with 0.0; each NaN ranks alone, last, in order of
    appearance (``return_index`` makes ``np.unique`` sort stably).  The ``c``
    ties ending at rank ``r`` share ``r - (c - 1) / 2``, exact in float64.
    """
    _, _, group, counts = np.unique(
        values, return_index=True, return_inverse=True, return_counts=True, equal_nan=False
    )
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def _rank_correlation(rx: np.ndarray, ry: np.ndarray) -> SpearmanResult:
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom_sq = float(np.sum(dx**2) * np.sum(dy**2))
    if denom_sq == 0.0:
        return SpearmanResult(0.0, True)
    rho = float(np.sum(dx * dy) / np.sqrt(denom_sq))
    return SpearmanResult(float(np.clip(rho, -1.0, 1.0)), False)


def spearman_detailed(x: Sequence[float], y: Sequence[float]) -> SpearmanResult:
    """Spearman rank correlation with a degeneracy flag.

    Ties receive fractional (average) ranks and the coefficient is the
    Pearson correlation of the two rank vectors; without ties this reduces
    to the classic 1 - 6*sum(d^2)/(n(n^2-1)) form.  A zero-variance input
    yields rho 0 with ``degenerate=True`` instead of NaN so that constant
    columns never enter the high-correlation pair set.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise UsageError(f"inputs must be equal-length vectors, got {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise UsageError("need at least 2 observations")
    return _rank_correlation(_average_ranks(x), _average_ranks(y))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation in [-1, 1]; 0 for degenerate inputs."""
    return spearman_detailed(x, y).rho


@dataclass(frozen=True)
class CorrelationGraph:
    """Pairwise Spearman matrix plus the pair set above the threshold.

    ``pairs`` holds ``(i, j, rho_ij)`` with ``i < j`` and ``|rho_ij|`` strictly
    above ``threshold``, sorted by descending ``|rho_ij|``.
    """

    n_features: int
    rho: np.ndarray
    pairs: tuple[tuple[int, int, float], ...]
    threshold: float = DEFAULT_CORRELATION_THRESHOLD
    degenerate_features: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=float)
        if rho.shape != (self.n_features, self.n_features):
            raise UsageError("rho must be square with one row per feature")
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise UsageError("rho must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-12):
            raise UsageError("rho must have a unit diagonal")
        for i, j, value in self.pairs:
            if not (0 <= i < j < self.n_features):
                raise UsageError(f"bad pair indices ({i}, {j})")
            if abs(value) <= self.threshold:
                raise UsageError(f"pair ({i}, {j}) below threshold")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "pairs", tuple(self.pairs))


def build_correlation_graph(
    features: np.ndarray, threshold: float = DEFAULT_CORRELATION_THRESHOLD
) -> CorrelationGraph:
    """Pairwise Spearman matrix of feature columns and the |rho|>threshold pairs.

    Each column is ranked once; the constant columns are the degenerate ones.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 2:
        raise UsageError("need a 2-D matrix with >= 2 samples and >= 2 features")
    d = X.shape[1]
    ranks = [_average_ranks(X[:, i]) for i in range(d)]
    rho = np.eye(d)
    pairs: list[tuple[int, int, float]] = []
    for i in range(d):
        for j in range(i + 1, d):
            rho[i, j] = rho[j, i] = value = _rank_correlation(ranks[i], ranks[j]).rho
            if abs(value) > threshold:
                pairs.append((i, j, value))
    pairs.sort(key=lambda p: (-abs(p[2]), p[0], p[1]))
    return CorrelationGraph(
        n_features=d,
        rho=rho,
        pairs=tuple(pairs),
        threshold=threshold,
        degenerate_features=tuple(np.flatnonzero(np.all(X == X[0], axis=0)).tolist()),
    )


@unique
class CircuitFamily(Enum):
    VQC = "VQC"
    QAOA = "QAOA"
    FEATURE_MAP = "FEATURE_MAP"


@dataclass(frozen=True)
class CircuitConfig:
    """Ansatz family, register width, layer count, optional correlation graph.

    ``layers=0`` is permitted for the VQC family only; it produces a circuit
    with no trainable parameters (the degenerate baseline used when probing
    expressibility).  Model training always uses ``layers >= 1``.
    """

    family: CircuitFamily
    n_qubits: int
    layers: int
    correlation: CorrelationGraph | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= qsim.MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in 1..{qsim.MAX_QUBITS}, got {self.n_qubits}"
            )
        min_layers = 0 if self.family is CircuitFamily.VQC else 1
        if self.layers < min_layers:
            raise ConfigurationError(f"layers must be >= {min_layers}, got {self.layers}")
        if self.correlation is not None and self.n_qubits < 2:
            raise ConfigurationError(
                "correlation-driven entanglement needs at least 2 qubits"
            )


@dataclass(frozen=True)
class CostHamiltonian:
    """Diagonal cost operator: weighted ZZ couplings plus per-qubit Z terms.

    ZZ weights mirror the correlation-graph pair set; Z weights default to
    per-feature means (feature extraction substitutes per-sample values and
    keeps the means as recorded offsets).
    """

    zz_terms: tuple[tuple[int, int, float], ...]
    z_terms: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "zz_terms", tuple(self.zz_terms))
        object.__setattr__(self, "z_terms", tuple(self.z_terms))


def build_cost_hamiltonian(
    graph: CorrelationGraph, feature_means: Sequence[float]
) -> CostHamiltonian:
    """Cost operator whose ZZ weights are the graph's correlation pairs."""
    means = np.asarray(feature_means, dtype=float)
    if len(means) != graph.n_features:
        raise UsageError("one mean per feature expected")
    zz = tuple((i, j, w) for i, j, w in graph.pairs)
    z = tuple((i, float(means[i])) for i in range(graph.n_features))
    return CostHamiltonian(zz_terms=zz, z_terms=z)


def coerce_params(params, expected_len: int, what: str) -> np.ndarray:
    """Angles as a flat float vector of the expected length."""
    values = np.asarray(params, dtype=float).ravel()
    if len(values) != expected_len:
        raise UsageError(f"{what}: expected {expected_len} values, got {len(values)}")
    return values


def entanglement_pairs(config: CircuitConfig) -> list[tuple[int, int]]:
    """Qubit pairs for the correlation-aware entanglement layer.

    Correlation pairs are mapped feature-to-qubit by index; pairs touching a
    feature index >= n_qubits are dropped.  When nothing survives (or no
    graph is attached) the linear ladder (k, k+1) is used so the ansatz never
    silently degrades to a product circuit.
    """
    n = config.n_qubits
    pairs: list[tuple[int, int]] = []
    if config.correlation is not None:
        pairs = [(i, j) for i, j, _ in config.correlation.pairs if i < n and j < n]
    if not pairs:
        pairs = [(k, k + 1) for k in range(n - 1)]
    return pairs


def _ladder(n_qubits: int) -> list[tuple[int, int]]:
    return [(k, k + 1) for k in range(n_qubits - 1)]


def vqc_layer_pairs(config: CircuitConfig) -> list[list[tuple[int, int]]]:
    """CNOT pairs of each variational layer, in order.

    Layer 0 entangles the correlation pairs; later layers use the ladder.
    """
    return [
        entanglement_pairs(config) if layer == 0 else _ladder(config.n_qubits)
        for layer in range(config.layers)
    ]


def apply_vqc_layers(config: CircuitConfig, cols: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The trainable layers on real state columns of shape (2**n, batch).

    ``theta`` is one angle vector of length n * layers, or an array of shape
    (n * layers, batch) with one angle vector per column.  RY and CNOT keep
    real amplitudes real, and each layer's CNOTs are one cached gather.
    """
    n = config.n_qubits
    half = 0.5 * theta
    cos, sin = np.cos(half), np.sin(half)
    for layer, pairs in enumerate(vqc_layer_pairs(config)):
        for q in range(n):
            cols = qsim.ry_columns(cols, q, cos[layer * n + q], sin[layer * n + q])
        if pairs:
            cols = cols[qsim.cnot_permutation(n, tuple(pairs))]
    return cols


def vqc_trainable_gates(config: CircuitConfig, theta) -> list[GateOp]:
    """Per-layer RY rotations plus entanglement (everything after encoding)."""
    if config.family is not CircuitFamily.VQC:
        raise UsageError("config.family must be VQC")
    n = config.n_qubits
    values = coerce_params(theta, n * config.layers, "theta")
    gates: list[GateOp] = []
    for layer, pairs in enumerate(vqc_layer_pairs(config)):
        gates.extend(ry(j, values[layer * n + j]) for j in range(n))
        gates.extend(cnot(i, j) for i, j in pairs)
    return gates


def build_vqc_circuit(config: CircuitConfig, x: Sequence[float], theta) -> list[GateOp]:
    """Full variational circuit: encoding, then rotation/entanglement layers."""
    if len(x) != config.n_qubits:
        raise UsageError(f"expected {config.n_qubits} inputs, got {len(x)}")
    encoding = [ry(j, float(v)) for j, v in enumerate(x)]
    return encoding + vqc_trainable_gates(config, theta)


def build_qaoa_circuit(
    config: CircuitConfig, h: CostHamiltonian, gamma, beta
) -> list[GateOp]:
    """Alternating cost/mixer layers applied to the |+...+> start state.

    The returned list excludes state preparation.  Within layer ``l`` the
    cost step applies ZZPhase(gamma[l, min(i,j)] * w_ij) per ZZ term and
    RZ(2 * gamma[l, i] * w_i) per Z term, then the mixer applies
    XMixer(beta[l, i]) on every qubit.  Angles are per-qubit: gamma and beta
    each hold n_qubits * layers values indexed ``layer * n_qubits + qubit``.
    """
    if config.family is not CircuitFamily.QAOA:
        raise UsageError("config.family must be QAOA")
    n = config.n_qubits
    expected = n * config.layers
    g = coerce_params(gamma, expected, "gamma")
    b = coerce_params(beta, expected, "beta")
    for i, j, _ in h.zz_terms:
        if i >= n or j >= n:
            raise UsageError(f"zz term ({i}, {j}) out of range for {n} qubits")
    for i, _ in h.z_terms:
        if i >= n:
            raise UsageError(f"z term {i} out of range for {n} qubits")
    gates: list[GateOp] = []
    for layer in range(config.layers):
        base = layer * n
        for i, j, w in h.zz_terms:
            gates.append(zz_phase(i, j, g[base + min(i, j)] * w))
        for i, w in h.z_terms:
            gates.append(rz(i, 2.0 * g[base + i] * w))
        gates.extend(x_mixer(i, b[base + i]) for i in range(n))
    return gates


def build_feature_map(x: Sequence[float]) -> list[GateOp]:
    """Kernel feature map: H on every qubit, RZ(2 x_i), then pairwise ZZPhase.

    The Hadamard layer makes the diagonal phase encoding act on a
    superposition; without it the map would leave |0...0> unchanged up to
    phase and every kernel entry would equal 1.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < 1:
        raise UsageError("x must be a non-empty vector")
    n = len(x)
    gates = [hadamard(q) for q in range(n)]
    gates.extend(rz(q, 2.0 * x[q]) for q in range(n))
    gates.extend(
        zz_phase(i, j, x[i] * x[j]) for i in range(n) for j in range(i + 1, n)
    )
    return gates


def circuit_depth(config: CircuitConfig, h: CostHamiltonian | None = None) -> int:
    """Total gate count (the resource metric used throughout the reports).

    Counted from the configuration and, for QAOA, its cost Hamiltonian
    ``h``; it equals the length of the family builder's gate list.
    """
    n = config.n_qubits
    if config.family is CircuitFamily.VQC:
        return n + sum(n + len(pairs) for pairs in vqc_layer_pairs(config))
    if config.family is CircuitFamily.QAOA:
        if h is None:
            raise UsageError("the QAOA gate count needs its cost Hamiltonian")
        return config.layers * (len(h.zz_terms) + len(h.z_terms) + n)
    return 2 * n + n * (n - 1) // 2


def param_count(config: CircuitConfig) -> int:
    """Trainable parameter count for a configuration."""
    if config.family is CircuitFamily.VQC:
        return config.n_qubits * config.layers
    if config.family is CircuitFamily.QAOA:
        return 2 * config.n_qubits * config.layers
    return 0


@dataclass(frozen=True)
class ExpressibilityResult:
    score: float
    kl_divergence: float
    n_pairs: int
    low_precision: bool


def expressibility(config: CircuitConfig, n_pairs: int, seed: int) -> ExpressibilityResult:
    """How uniformly the ansatz covers state space, in (0, 1].

    Samples ``n_pairs`` pairs of parameter vectors from U[0, 2pi), evaluates
    the circuit at zero encoding input, histograms the pairwise state
    fidelities into 75 uniform bins, and compares against the fidelity
    distribution of Haar-random states via a KL divergence mapped through
    ``1 / (1 + KL)``.  Fewer than 100 pairs sets ``low_precision``.
    """
    if config.family is not CircuitFamily.VQC:
        raise UsageError("expressibility is defined for the VQC family")
    if n_pairs < 1:
        raise UsageError("n_pairs must be >= 1")
    n = config.n_qubits
    n_params = param_count(config)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(2 * n_pairs, max(n_params, 1)))

    inner = np.empty(n_pairs)
    for start in range(0, n_pairs, EXPRESSIBILITY_BLOCK_PAIRS):
        block = thetas[2 * start : 2 * (start + EXPRESSIBILITY_BLOCK_PAIRS)]
        # the encoding of a zero input is |0...0>, so evolution starts at the layers
        cols = np.zeros((1 << n, len(block)))
        cols[0] = 1.0
        cols = apply_vqc_layers(config, cols, block.T)
        inner[start : start + len(block) // 2] = np.sum(cols[:, 0::2] * cols[:, 1::2], axis=0)
    fidelities = np.clip(inner * inner, 0.0, 1.0)

    counts, edges = np.histogram(fidelities, bins=EXPRESSIBILITY_BINS, range=(0.0, 1.0))
    observed = counts / float(n_pairs)
    dim = 1 << n
    # exact Haar mass per bin: integral of (dim-1)(1-F)^(dim-2)
    haar = (1.0 - edges[:-1]) ** (dim - 1) - (1.0 - edges[1:]) ** (dim - 1)
    mask = observed > 0
    kl = float(np.sum(observed[mask] * np.log(observed[mask] / haar[mask])))
    kl = max(kl, 0.0)
    return ExpressibilityResult(
        score=1.0 / (1.0 + kl),
        kl_divergence=kl,
        n_pairs=n_pairs,
        low_precision=n_pairs < MIN_PRECISE_PAIRS,
    )
