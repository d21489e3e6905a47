"""Quantum classifiers and the two hybrid pipelines.

Three model families: expectation-value features from the trained
variational circuit, cost/mixer expectation features from the alternating
ansatz, and a fidelity-kernel SVM.  Feature extraction runs batched (one
amplitude matrix for all samples).  A trained family evaluates in two
parts: a data part that depends only on the rows (the RY encodings; each
row's Z weights) and an angle part that depends only on the trained
parameters (the RY/CNOT layers folded into one real matrix, each layer the
Kronecker product of its RY rotations with its rows gathered by its CNOTs;
each cost/mixer layer's ZZ phase vector and mixer matrix).  The cost/mixer
angle part also carries the Hamiltonian's checked Z weights, so its data
part of new rows is one multiply.  A layer's Z phase depends only on the
rows and that layer's gamma, so one ``qsim.z_phase_rows`` call on the
stacked (layers * rows, n) angles gives every layer's diagonal, and the
layer loop keeps the running amplitudes as the left operand of each
complex product (the same-bits rules of ``qsim``).  The training plan is
the data part, built once per fit and never stored; a fitted model builds
the angle part once, caches it for every predict and never packs it.
During training each candidate's logistic head starts from the best head
so far, and the kept head is refitted from zero.  The feature map is one
merged phase on |+...+>, with its qubit pairs and ZZ sign table cached
per register width.  The tests pin batched output to the dense oracle of
the per-sample gate lists, and the QAOA features' bits to a loop with one
Z phase call per layer.

Each classifier owns its preprocessing: features are truncated to the
register width (feature k -> qubit k), standardized, then min-max mapped to
[0, pi] rotation angles, with every statistic fitted on the training split
only.

Every classifier and pipeline here pickles as its ``qcb.modelbytes`` blob:
the fitted fields in a fixed order, the models it holds inline, and no
cache for predict.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import circuits, qsim
from .circuits import (
    CircuitConfig,
    CircuitFamily,
    CorrelationGraph,
    CostHamiltonian,
    build_cost_hamiltonian,
    build_correlation_graph,
    # the three builders below go unused here; perfbench's tracer wraps them by these names
    build_feature_map,
    build_qaoa_circuit,
    build_vqc_circuit,
    coerce_params,
    param_count,
)
from .classical import (
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
    ScalerKind,
    SvmClassifier,
    apply_scaler,
    fit_pca,
    fit_scaler,
    pca_transform,
    scale_rows,
)
from .errors import TrainingError, UsageError
from .modelbytes import Packed
from .optimize import OptResult, minimize, random_init

# loss evaluations per trained-circuit fit, the initial simplex included
TRAINING_EVALS = 150

HYBRID_QC_QUBITS = 6
HYBRID_QC_LAYERS = 3
HYBRID_QC_FOREST_TREES = 100
HYBRID_CQ_COMPONENTS = 4
HYBRID_CQ_LAYERS = 2


# ---------------------------------------------------------------------------
# feature extraction (spec-level operations, batched over samples)
#
# Each trained-circuit family evaluates in two parts.  The plan is the part
# that depends only on the rows: it is built once per fit and holds training
# rows, so it lives only inside ``fit`` and a model never stores or packs
# one.  The operators are the part that depends only on the angles (and, for
# the cost/mixer family, the Hamiltonian's Z weights, checked where they are
# built): training builds them once per evaluated angle vector, and a fitted
# model builds them once from its trained angles, caches them for every
# ``predict`` and never packs them.  Both parts are optional arguments of
# the one feature function per family, so training and predict run the same
# path.


class VqcPlan(NamedTuple):
    """Data-only part of the variational circuit on a fixed set of rows."""

    encoded: np.ndarray  # (2**n, rows) real RY encodings of the rows


class QaoaPlan(NamedTuple):
    """Data-only part of the cost/mixer circuit on a fixed set of rows."""

    x_z: np.ndarray  # (rows, n) each row's Z weight per qubit (0 without a Z term)


class QaoaOperators(NamedTuple):
    """Angle-only part of the cost/mixer circuit, one entry per layer, and the
    Hamiltonian's checked Z weights, which turn rows into a plan."""

    zz_phases: tuple[np.ndarray, ...]  # (2**n,) exp(-i * ZZ angle) per basis state
    mixers: tuple[np.ndarray, ...]  # (2**n, 2**n) exp(-i beta_q X_q) over the register
    z_weights: np.ndarray  # (n,) Z terms per qubit


def _checked_rows(X_scaled, n_qubits: int) -> np.ndarray:
    X = np.asarray(X_scaled, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_qubits:
        raise UsageError(f"expected {n_qubits} columns, got {X.shape}")
    return X


def compile_vqc(config: CircuitConfig, X_scaled: np.ndarray) -> VqcPlan:
    """Encode the rows once, as real state columns."""
    if config.family is not CircuitFamily.VQC:
        raise UsageError("config.family must be VQC")
    X = _checked_rows(X_scaled, config.n_qubits)
    return VqcPlan(encoded=qsim.ry_product_columns(X))


def vqc_operator(config: CircuitConfig, theta) -> np.ndarray:
    """The trainable RY/CNOT layers folded into one real 2**n x 2**n matrix.

    Column b is the layers applied to basis state |b>, so ``U @ cols``
    applies them to real state columns.  Each layer is the Kronecker product
    of its RY rotations with its rows gathered by the layer's CNOT
    permutation, and the layers multiply in order.
    """
    n = config.n_qubits
    theta = coerce_params(theta, n * config.layers, "theta")
    operator = None
    for layer, pairs in enumerate(circuits.vqc_layer_pairs(config)):
        m = qsim.ry_product(theta[layer * n : (layer + 1) * n])
        if pairs:
            m = m[qsim.cnot_permutation(n, tuple(pairs))]
        operator = m if operator is None else m @ operator
    return operator


def vqc_features(
    config: CircuitConfig,
    theta,
    X_scaled: np.ndarray,
    plan: VqcPlan | None = None,
    operator: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample <Z_q> features of the variational circuit, shape (n, n_qubits).

    ``plan`` is ``compile_vqc(config, X_scaled)``, passed by callers that
    evaluate many angle vectors on the same rows; ``operator`` is
    ``vqc_operator(config, theta)``, passed by callers that evaluate one
    angle vector on many row sets.
    """
    if plan is None:
        plan = compile_vqc(config, X_scaled)
    if operator is None:
        operator = vqc_operator(config, theta)
    return qsim.z_expectations((operator @ plan.encoded).T, config.n_qubits)


def _z_weights(config: CircuitConfig, h: CostHamiltonian) -> np.ndarray:
    """Each qubit's number of Z terms, once every term is checked against the register."""
    if config.family is not CircuitFamily.QAOA:
        raise UsageError("config.family must be QAOA")
    n = config.n_qubits
    qubits = [q for i, j, _ in h.zz_terms for q in (i, j)] + [q for q, _ in h.z_terms]
    if any(not 0 <= q < n for q in qubits):
        raise UsageError(f"Hamiltonian term out of range for {n} qubits")
    return np.bincount([q for q, _ in h.z_terms], minlength=n)


def compile_qaoa(config: CircuitConfig, h: CostHamiltonian, X_scaled: np.ndarray) -> QaoaPlan:
    """The rows' Z-term values: each row's feature on every qubit with a Z term."""
    return QaoaPlan(x_z=_checked_rows(X_scaled, config.n_qubits) * _z_weights(config, h))


def _qaoa_angles(config: CircuitConfig, gamma, beta) -> tuple[np.ndarray, np.ndarray]:
    expected = config.n_qubits * config.layers
    g = np.asarray(gamma, dtype=float).ravel()
    b = np.asarray(beta, dtype=float).ravel()
    if len(g) != expected or len(b) != expected:
        raise UsageError(f"gamma and beta must each hold {expected} angles")
    return g, b


def qaoa_operators(config: CircuitConfig, h: CostHamiltonian, gamma, beta) -> QaoaOperators:
    """Each layer's ZZ phase vector and mixer matrix for one angle vector, and
    the checked Z weights.

    ZZPhase(g w) is exp(-i g w Z Z): a coupling (i, j) of weight w uses the
    gamma of qubit min(i, j).
    """
    n = config.n_qubits
    z_weights = _z_weights(config, h)
    g, b = _qaoa_angles(config, gamma, beta)
    slots = np.array([min(i, j) for i, j, _ in h.zz_terms], dtype=int)
    weights = np.array([w for _, _, w in h.zz_terms], dtype=float)
    signs = qsim.zz_signs(n, tuple((i, j) for i, j, _ in h.zz_terms))
    layers = [slice(layer * n, (layer + 1) * n) for layer in range(config.layers)]
    return QaoaOperators(
        zz_phases=tuple(np.exp(-1j * ((g[s][slots] * weights) @ signs)) for s in layers),
        mixers=tuple(qsim.x_mixer_product(b[s]) for s in layers),
        z_weights=z_weights,
    )


def qaoa_features(
    config: CircuitConfig,
    h: CostHamiltonian,
    gamma,
    beta,
    X_scaled: np.ndarray,
    plan: QaoaPlan | None = None,
    operators: QaoaOperators | None = None,
) -> np.ndarray:
    """Cost-basis then mixer-basis expectations, shape (n, 2 * n_qubits).

    The ZZ couplings of ``h`` are shared across samples; the per-qubit Z
    weight is each sample's own scaled feature value (the weights stored in
    ``h`` are the training means, kept as recorded offsets).  Each layer's
    cost step is diagonal, so its ZZ and Z terms merge into one phase per
    row and basis state; its mixer is one matrix over the register.  ``plan``
    is ``compile_qaoa(config, h, X_scaled)``, passed by callers that
    evaluate many angle vectors on the same rows; ``operators`` is
    ``qaoa_operators(config, h, gamma, beta)``, passed by callers that
    evaluate one angle vector on many row sets; their checked Z weights make
    the plan of ``X_scaled`` one multiply.
    """
    n = config.n_qubits
    g, b = _qaoa_angles(config, gamma, beta)
    if operators is None:
        operators = qaoa_operators(config, h, g, b)
    if plan is None:
        plan = QaoaPlan(x_z=_checked_rows(X_scaled, n) * operators.z_weights)
    # RZ(2 g x) is exp(-i g x Z); a layer's Z phase depends only on the rows
    # and its gamma, so every layer's diagonal comes from one call
    z_phases = qsim.z_phase_rows(
        (plan.x_z[None] * g.reshape(config.layers, 1, n)).reshape(-1, n)
    ).reshape(config.layers, len(plan.x_z), 1 << n)
    amps = (1 << n) ** -0.5  # |+...+>: every amplitude is 2**(-n/2)
    for z_phase, zz_phase, mixer in zip(z_phases, operators.zz_phases, operators.mixers):
        # a named phase, with the amplitudes on the left: a temporary right
        # operand of 256 KiB or more may be reused with the factors swapped,
        # and a complex a*b and b*a can differ in the last bit
        phase = z_phase * zz_phase
        amps = (amps * phase) @ mixer
    return np.hstack([qsim.z_expectations(amps, n), qsim.x_expectations(amps, n)])


def feature_map_states(X_scaled: np.ndarray) -> np.ndarray:
    """Feature-mapped statevectors for every row, shape (n, 2**n_qubits).

    The map is diagonal after its Hadamard layer, so each state is |+...+>
    times one phase per basis state: RZ(2 x_q) is exp(-i x_q Z_q) and
    ZZPhase(x_i x_j) is exp(-i x_i x_j Z_i Z_j).
    """
    X = np.asarray(X_scaled, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise UsageError("X must be a non-empty 2-D matrix")
    n = X.shape[1]
    i, j, signs = _feature_map_pairs(n)
    zz_angle = (X[:, i] * X[:, j]) @ signs
    return (1 << n) ** -0.5 * qsim.z_phase_rows(X) * np.exp(-1j * zz_angle)


@lru_cache(maxsize=None)
def _feature_map_pairs(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The feature map's qubit pairs (i < j) as two index arrays, and their ZZ signs."""
    pairs = tuple(combinations(range(n_qubits), 2))
    i, j = np.array(pairs, dtype=int).reshape(-1, 2).T
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j, qsim.zz_signs(n_qubits, pairs)


def quantum_kernel_matrix(X_a: np.ndarray, X_b: np.ndarray) -> np.ndarray:
    """Fidelity kernel K[i, j] = |<phi(a_i)|phi(b_j)>|**2 on scaled features."""
    A = np.asarray(X_a, dtype=float)
    B = np.asarray(X_b, dtype=float)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise UsageError(f"feature widths differ: {A.shape} vs {B.shape}")
    return qsim.cross_overlap_sq(feature_map_states(A), feature_map_states(B))


# ---------------------------------------------------------------------------
# shared preprocessing


@dataclass(frozen=True)
class _ScaleChain:
    """Truncate-to-register + z-score + angle scalers fitted on one split."""

    n_qubits: int
    zscore: object
    angle: object

    def transform(self, X: np.ndarray) -> np.ndarray:
        # the rows are checked once; both scalers fit the register's width
        truncated = _register_columns(X, self.n_qubits)
        return scale_rows(self.angle, scale_rows(self.zscore, truncated))


def _register_columns(X, n_qubits: int) -> np.ndarray:
    """The first ``n_qubits`` columns of X, one per qubit of the register."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < n_qubits:
        raise UsageError(f"need at least {n_qubits} feature columns, got {X.shape}")
    return X[:, :n_qubits]


def _fit_scale_chain(X: np.ndarray, n_qubits: int) -> tuple[_ScaleChain, np.ndarray]:
    """Fit the chain on X and return it with X transformed by it."""
    truncated = _register_columns(X, n_qubits)
    zscore = fit_scaler(ScalerKind.ZSCORE, truncated)
    angle = fit_scaler(ScalerKind.ANGLE, apply_scaler(zscore, truncated))
    chain = _ScaleChain(n_qubits=n_qubits, zscore=zscore, angle=angle)
    return chain, chain.transform(X)


def _correlation_or_none(X_scaled: np.ndarray) -> CorrelationGraph | None:
    if X_scaled.shape[1] < 2:
        return None
    return build_correlation_graph(X_scaled)


# ---------------------------------------------------------------------------
# classifiers


class _TrainedCircuitClassifier(Packed):
    """Trained-circuit features read out by a logistic-regression head.

    Training is bilevel: one Nelder-Mead simplex, started from seeded
    U[0, 2pi) angles and capped at ``max_evals`` loss evaluations, minimizes
    the negative training accuracy of a converged head fitted on the
    training features of each candidate parameter vector.  These search
    heads fit and score integer codes of the labels, made once per fit;
    each starts from the best one so far (the first from zero), and
    ``search_head_iters_`` sums their Newton iterations.  The stored model
    keeps the best parameters and a head refitted from zero on their
    features, one more head fit per training, so the head is a function of
    the stored angles alone; on a near-tie its training accuracy can differ
    from the search's best loss.  The circuit's data-only part is compiled
    once per fit and dropped when ``fit`` returns.  The angle-only part of
    the trained parameters is built on the first ``features`` call and
    cached until the next ``fit``; the packed bytes leave it out.
    Subclasses supply the circuit family, its plan compiler, operator
    builder and feature function, the start scale and the fields they add
    to the packed ones.
    """

    family: CircuitFamily
    hamiltonian_: CostHamiltonian | None = None  # the cost operator; QAOA only
    _operators = None  # operators of params_, built on first use
    _packed_fields = (
        "n_qubits", "layers", "max_evals", "seed", "config_", "scale_chain_", "params_", "head_",
        "opt_result_", "search_head_iters_", "constant_class_", "classes_", "circuit_depth_",
    )
    _derived_fields = ("_operators",)

    def __init__(
        self,
        n_qubits: int,
        layers: int,
        max_evals: int = TRAINING_EVALS,
        seed: int = 0,
    ):
        if layers < 1:
            raise UsageError("layers must be >= 1 for training")
        self.n_qubits = int(n_qubits)
        self.layers = int(layers)
        self.max_evals = int(max_evals)
        self.seed = int(seed)
        self.config_: CircuitConfig | None = None
        self.scale_chain_: _ScaleChain | None = None
        self.params_: np.ndarray | None = None
        self.head_ = None
        self.opt_result_: OptResult | None = None
        self.search_head_iters_ = 0
        self.constant_class_ = None
        self.classes_: np.ndarray | None = None
        self.circuit_depth_ = 0

    def fit(self, X, y):
        y = np.asarray(y)
        self.constant_class_ = None
        self.head_ = None
        self.opt_result_ = None
        self.search_head_iters_ = 0
        self._operators = None
        self.classes_, codes = np.unique(y, return_inverse=True)
        self.scale_chain_, X_angle = _fit_scale_chain(X, self.n_qubits)
        graph = _correlation_or_none(X_angle)
        self.config_ = CircuitConfig(self.family, self.n_qubits, self.layers, graph)
        self._fit_circuit(X_angle)
        n_params = param_count(self.config_)
        self.circuit_depth_ = circuits.circuit_depth(self.config_, self.hamiltonian_)
        if len(self.classes_) == 1:
            self.constant_class_ = self.classes_[0]
            self.params_ = np.zeros(n_params)
            return self

        plan = self._compile(X_angle)
        # (loss, features, head weights over its bias row) of the first
        # strictly best evaluation
        best = []

        def loss(params):
            features = self._features(params, X_angle, plan)
            warm = best[2] if best else None
            head = LogisticRegressionClassifier().fit(features, codes, start=warm)
            self.search_head_iters_ += head.n_iter_
            value = -float(np.mean(head.predict(features) == codes))
            # the tie rule of minimize's best_params: the first point evaluated wins
            if not best or value < best[0]:
                best[:] = [value, features, np.vstack([head.weights_, head.bias_])]
            return value

        start = random_init(n_params, self.seed) * self._start_scale(n_params)
        result = minimize(loss, start, self.max_evals)
        if not result.ok:
            raise TrainingError("every objective evaluation was non-finite")
        self.opt_result_ = result
        self.params_ = result.best_params
        # a cold fit, so the kept head is a function of params_ alone
        self.head_ = LogisticRegressionClassifier().fit(best[1], y)
        return self

    def _fit_circuit(self, X_angle: np.ndarray) -> None:
        """Fit circuit parts other than the trained angles (none by default)."""

    def _start_scale(self, n_params: int) -> np.ndarray | float:
        """Elementwise factor on the U[0, 2pi) start, for narrower angle ranges."""
        return 1.0

    def features(self, X) -> np.ndarray:
        self._check_fitted()
        if self._operators is None:
            self._operators = self._build_operators(self.params_)
        return self._features(
            self.params_, self.scale_chain_.transform(X), operators=self._operators
        )

    def predict(self, X):
        self._check_fitted()
        if self.constant_class_ is not None:
            return np.full(len(X), self.constant_class_, dtype=self.classes_.dtype)
        return self.head_.predict(self.features(X))

    def _check_fitted(self):
        if self.params_ is None:
            raise UsageError("model is not fitted")

    def metadata(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "layers": self.layers,
            "param_count": param_count(CircuitConfig(self.family, self.n_qubits, self.layers)),
            "circuit_depth": self.circuit_depth_,
            "loss_evals": self.opt_result_.n_evals if self.opt_result_ else 0,
            "head_iters": self.head_.n_iter_ if self.head_ else 0,
            "search_head_iters": self.search_head_iters_,
        }


class VqcClassifier(_TrainedCircuitClassifier):
    """Variational circuit <Z_q> features; trains one RY angle per qubit and layer."""

    family = CircuitFamily.VQC

    @property
    def theta_(self) -> np.ndarray | None:
        return self.params_

    def _compile(self, X_angle):
        return compile_vqc(self.config_, X_angle)

    def _build_operators(self, theta):
        return vqc_operator(self.config_, theta)

    def _features(self, theta, X_angle, plan=None, operators=None):
        return vqc_features(self.config_, theta, X_angle, plan, operators)


class QaoaClassifier(_TrainedCircuitClassifier):
    """Alternating-ansatz features read out by a logistic-regression head.

    ZZ couplings come from the training-fold correlation graph, per-qubit Z
    weights are each sample's scaled feature value, and both per-qubit angle
    banks (gamma, beta) are optimized jointly against training accuracy.
    """

    family = CircuitFamily.QAOA
    _packed_fields = (*_TrainedCircuitClassifier._packed_fields, "hamiltonian_")

    @property
    def gamma_(self) -> np.ndarray | None:
        return None if self.params_ is None else self.params_[: len(self.params_) // 2]

    @property
    def beta_(self) -> np.ndarray | None:
        return None if self.params_ is None else self.params_[len(self.params_) // 2 :]

    def _fit_circuit(self, X_angle: np.ndarray) -> None:
        means = X_angle.mean(axis=0)
        graph = self.config_.correlation
        if graph is not None:
            self.hamiltonian_ = build_cost_hamiltonian(graph, means)
        else:
            self.hamiltonian_ = CostHamiltonian(
                zz_terms=(), z_terms=tuple((q, float(means[q])) for q in range(self.n_qubits))
            )

    def _start_scale(self, n_params: int) -> np.ndarray:
        # gamma multiplies phases of up to pi-ranged features: starting in
        # [0, 1) keeps the encoding alias-free; beta is a genuine angle
        half = n_params // 2
        return np.concatenate([np.full(half, 1.0 / (2.0 * np.pi)), np.ones(half)])

    def _compile(self, X_angle):
        return compile_qaoa(self.config_, self.hamiltonian_, X_angle)

    def _build_operators(self, params):
        half = len(params) // 2
        return qaoa_operators(self.config_, self.hamiltonian_, params[:half], params[half:])

    def _features(self, params, X_angle, plan=None, operators=None):
        half = len(params) // 2
        return qaoa_features(
            self.config_, self.hamiltonian_, params[:half], params[half:], X_angle, plan, operators
        )


class QKernelClassifier(Packed):
    """Fidelity-kernel SVM: the classical solver consumes the quantum Gram matrix.

    The model keeps the angles of every training row and their feature-mapped
    states.  Its packed bytes hold the angles only; loading rebuilds the
    states with the call ``fit`` made, so they are the same bits.
    """

    _packed_fields = (
        "n_qubits", "C", "scale_chain_", "svm_", "train_angles_", "classes_", "constant_class_",
        "circuit_depth_",
    )
    _derived_fields = ("train_states_",)  # a fixed function of train_angles_

    def __init__(self, n_qubits: int = 4, C: float = 1.0):
        self.n_qubits = int(n_qubits)
        self.C = float(C)
        self.scale_chain_: _ScaleChain | None = None
        self.svm_: SvmClassifier | None = None
        self.train_angles_: np.ndarray | None = None
        self.train_states_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None
        self.constant_class_ = None
        self.circuit_depth_ = 0

    def fit(self, X, y):
        y = np.asarray(y)
        self.constant_class_ = None
        self.svm_ = None
        self.classes_ = np.unique(y)
        self.scale_chain_, X_angle = _fit_scale_chain(X, self.n_qubits)
        self.circuit_depth_ = circuits.circuit_depth(
            CircuitConfig(CircuitFamily.FEATURE_MAP, self.n_qubits, 1)
        )
        self.train_angles_ = X_angle
        self.train_states_ = feature_map_states(X_angle)
        if len(self.classes_) == 1:
            self.constant_class_ = self.classes_[0]
            return self
        gram = qsim.cross_overlap_sq(self.train_states_, self.train_states_)
        self.svm_ = SvmClassifier(C=self.C, kernel="precomputed").fit(gram, y)
        return self

    def predict(self, X):
        if self.train_states_ is None:
            raise UsageError("model is not fitted")
        if self.constant_class_ is not None:
            return np.full(len(X), self.constant_class_, dtype=self.classes_.dtype)
        test_states = feature_map_states(self.scale_chain_.transform(X))
        cross = qsim.cross_overlap_sq(test_states, self.train_states_)
        return self.svm_.predict(cross)

    def _restore(self) -> None:
        angles = self.train_angles_
        self.train_states_ = None if angles is None else feature_map_states(angles)

    def metadata(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "layers": 1,
            "param_count": 0,
            "circuit_depth": self.circuit_depth_,
        }


# ---------------------------------------------------------------------------
# hybrid pipelines


_QC_HEADS = ("random_forest", "svm_rbf", "logistic_regression", "decision_tree")

# the extractor of the split fitted last, under the key of that split; one
# entry, so a process holds the extractor of the split it is working on
_extractor_memo: dict[tuple, VqcClassifier] = {}


def _extractor_key(X, y, max_evals: int) -> tuple:
    """(digest of the rows and labels, qubits, layers, evaluation budget)."""
    X = np.ascontiguousarray(X, dtype=float)
    digest = hashlib.sha256(f"{X.shape}".encode())
    digest.update(X.tobytes())
    digest.update(repr(np.asarray(y).tolist()).encode())
    return digest.hexdigest(), HYBRID_QC_QUBITS, HYBRID_QC_LAYERS, int(max_evals)


def split_extractor(X, y, max_evals: int = TRAINING_EVALS) -> VqcClassifier:
    """The 6-qubit, 3-layer extractor of one training split, fitted once.

    Its seed is drawn from a digest of the split's rows and labels, so every
    hybrid fitted on the same split gets the same extractor, whichever model
    asks first.  The memo keeps the extractor of the split fitted last, so a
    hit returns the object that a fresh fit built.  The benchmark runner
    runs a split's hybrid cells as one unit in one process, so all but the
    first of them hit.
    """
    key = _extractor_key(X, y, max_evals)
    extractor = _extractor_memo.get(key)
    if extractor is None:
        extractor = VqcClassifier(
            HYBRID_QC_QUBITS, HYBRID_QC_LAYERS, max_evals=max_evals, seed=int(key[0][:8], 16)
        ).fit(X, y)
        _extractor_memo.clear()
        _extractor_memo[key] = extractor
    return extractor


def clear_extractor_memo() -> None:
    """Forget the memoised extractor, so the next hybrid fit trains its own."""
    _extractor_memo.clear()


class HybridQcPipeline(Packed):
    """Quantum-to-classical: trained circuit features feed a classical head.

    The feature extractor is the 6-qubit, 3-layer variational classifier
    trained with its usual accuracy objective; its logistic head is then
    replaced by the configured classical model fitted on the extracted
    features.  The extractor comes from ``split_extractor``: it is seeded
    from the training split, not from ``seed``, so the four heads fitted on
    one split read identical features.  ``seed`` seeds only the head (the
    forest's).  A logistic-regression head is the extractor's own, which a
    refit on those features would reproduce bit for bit.
    """

    _packed_fields = ("head_kind", "seed", "max_evals", "extractor_", "head_")

    def __init__(self, head_kind: str, seed: int = 0, max_evals: int = TRAINING_EVALS):
        if head_kind not in _QC_HEADS:
            raise UsageError(f"head_kind must be one of {_QC_HEADS}, got {head_kind!r}")
        self.head_kind = head_kind
        self.seed = int(seed)
        self.max_evals = int(max_evals)
        self.extractor_: VqcClassifier | None = None
        self.head_ = None

    def _build_head(self, seed: int):
        if self.head_kind == "random_forest":
            return RandomForestClassifier(
                n_trees=HYBRID_QC_FOREST_TREES, max_depth=15, seed=seed
            )
        if self.head_kind == "svm_rbf":
            return SvmClassifier(C=1.0, gamma="scale")
        if self.head_kind == "logistic_regression":
            return LogisticRegressionClassifier()
        return DecisionTreeClassifier(max_depth=15)

    def fit(self, X, y):
        self.head_ = None
        self.extractor_ = split_extractor(X, y, self.max_evals)
        if self.head_kind == "logistic_regression" and self.extractor_.head_ is not None:
            # the extractor's own head: the same solver on the same features
            self.head_ = self.extractor_.head_
            return self
        features = self.extractor_.features(X)
        self.head_ = self._build_head(self.seed)
        self.head_.fit(features, np.asarray(y))
        return self

    def features(self, X) -> np.ndarray:
        if self.extractor_ is None:
            raise UsageError("pipeline is not fitted")
        return self.extractor_.features(X)

    def predict(self, X):
        if self.head_ is None:
            raise UsageError("pipeline is not fitted")
        return self.head_.predict(self.extractor_.features(X))

    def metadata(self) -> dict:
        if self.extractor_ is None:
            meta = {
                "n_qubits": HYBRID_QC_QUBITS,
                "layers": HYBRID_QC_LAYERS,
                "param_count": HYBRID_QC_QUBITS * HYBRID_QC_LAYERS,
            }
        else:
            meta = {**self.extractor_.metadata(), "extractor_seed": self.extractor_.seed}
        meta["intermediate_features"] = HYBRID_QC_QUBITS
        meta["head_kind"] = self.head_kind
        return meta


_CQ_KINDS = ("vqc", "qaoa", "qkernel")


class HybridCqPipeline(Packed):
    """Classical-to-quantum: standardize, project to 4 components, train a
    4-qubit quantum model on the projected features."""

    _packed_fields = ("quantum_kind", "seed", "max_evals", "zscore_", "pca_", "model_")

    def __init__(self, quantum_kind: str, seed: int = 0, max_evals: int = TRAINING_EVALS):
        if quantum_kind not in _CQ_KINDS:
            raise UsageError(f"quantum_kind must be one of {_CQ_KINDS}, got {quantum_kind!r}")
        self.quantum_kind = quantum_kind
        self.seed = int(seed)
        self.max_evals = int(max_evals)
        self.zscore_ = None
        self.pca_ = None
        self.model_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        if X.shape[1] < HYBRID_CQ_COMPONENTS:
            raise UsageError(
                f"need at least {HYBRID_CQ_COMPONENTS} input features, got {X.shape[1]}"
            )
        self.zscore_ = fit_scaler(ScalerKind.ZSCORE, X)
        standardized = apply_scaler(self.zscore_, X)
        self.pca_ = fit_pca(standardized, HYBRID_CQ_COMPONENTS)
        projected = pca_transform(self.pca_, standardized)
        if self.quantum_kind == "qkernel":
            self.model_ = QKernelClassifier(HYBRID_CQ_COMPONENTS)
        else:
            circuit = VqcClassifier if self.quantum_kind == "vqc" else QaoaClassifier
            self.model_ = circuit(
                HYBRID_CQ_COMPONENTS, HYBRID_CQ_LAYERS, max_evals=self.max_evals, seed=self.seed
            )
        self.model_.fit(projected, np.asarray(y))
        return self

    def project(self, X) -> np.ndarray:
        if self.pca_ is None:
            raise UsageError("pipeline is not fitted")
        return pca_transform(self.pca_, apply_scaler(self.zscore_, np.asarray(X, dtype=float)))

    def predict(self, X):
        if self.model_ is None:
            raise UsageError("pipeline is not fitted")
        return self.model_.predict(self.project(X))

    def metadata(self) -> dict:
        meta = dict(self.model_.metadata()) if self.model_ else {}
        meta["pca_components"] = HYBRID_CQ_COMPONENTS
        meta["quantum_kind"] = self.quantum_kind
        if self.pca_ is not None:
            meta["pca_meets_variance_target"] = bool(self.pca_.meets_variance_target)
        return meta
