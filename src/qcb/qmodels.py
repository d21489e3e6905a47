"""Quantum classifiers and the two hybrid pipelines.

Three model families: expectation-value features from the trained
variational circuit, cost/mixer expectation features from the alternating
ansatz, and a fidelity-kernel SVM.  Feature extraction runs batched (one
amplitude matrix for all samples) through the same kernels the single-state
simulator uses; the tests pin batched output to the per-sample gate-list
path.

Each classifier owns its preprocessing: features are truncated to the
register width (feature k -> qubit k), standardized, then min-max mapped to
[0, pi] rotation angles, with every statistic fitted on the training split
only.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import circuits, qsim
from .circuits import (
    CircuitConfig,
    CircuitFamily,
    CorrelationGraph,
    CostHamiltonian,
    build_cost_hamiltonian,
    build_correlation_graph,
    build_feature_map,
    build_qaoa_circuit,
    build_vqc_circuit,
    param_count,
)
from .classical import (
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
    ScalerKind,
    SvmClassifier,
    apply_scaler,
    fit_scaler,
)
from .errors import TrainingError, UsageError
from .optimize import OptBudget, OptResult, minimize, random_init

INNER_HEAD_MAX_ITER = 100
FINAL_HEAD_MAX_ITER = 1000

HYBRID_QC_QUBITS = 6
HYBRID_QC_LAYERS = 3
HYBRID_QC_FOREST_TREES = 100
HYBRID_CQ_COMPONENTS = 4
HYBRID_CQ_LAYERS = 2


# ---------------------------------------------------------------------------
# feature extraction (spec-level operations, batched over samples)


def vqc_features(config: CircuitConfig, theta, X_scaled: np.ndarray) -> np.ndarray:
    """Per-sample <Z_q> features of the variational circuit, shape (n, n_qubits)."""
    X = np.asarray(X_scaled, dtype=float)
    if X.ndim != 2 or X.shape[1] != config.n_qubits:
        raise UsageError(f"expected {config.n_qubits} columns, got {X.shape}")
    n = config.n_qubits
    amps = qsim.zero_amplitudes(n, batch=len(X))
    for q in range(n):
        amps = qsim.ry_rows(amps, q, X[:, q])
    for gate in circuits.vqc_trainable_gates(config, theta):
        amps = qsim.apply_gate_amplitudes(amps, gate)
    return qsim.z_expectations(amps, n)


def qaoa_features(
    config: CircuitConfig, h: CostHamiltonian, gamma, beta, X_scaled: np.ndarray
) -> np.ndarray:
    """Cost-basis then mixer-basis expectations, shape (n, 2 * n_qubits).

    The ZZ couplings of ``h`` are shared across samples; the per-qubit Z
    weight is each sample's own scaled feature value (the weights stored in
    ``h`` are the training means, kept as recorded offsets).
    """
    X = np.asarray(X_scaled, dtype=float)
    n = config.n_qubits
    if X.ndim != 2 or X.shape[1] != n:
        raise UsageError(f"expected {n} columns, got {X.shape}")
    expected = n * config.layers
    g = np.asarray(gamma, dtype=float).ravel()
    b = np.asarray(beta, dtype=float).ravel()
    if len(g) != expected or len(b) != expected:
        raise UsageError(f"gamma and beta must each hold {expected} angles")
    z_qubits = [q for q, _ in h.z_terms]
    amps = qsim.plus_amplitudes(n, batch=len(X))
    for layer in range(config.layers):
        base = layer * n
        for i, j, w in h.zz_terms:
            amps = qsim.apply_gate_amplitudes(
                amps, qsim.zz_phase(i, j, g[base + min(i, j)] * w)
            )
        for q in z_qubits:
            amps = qsim.rz_rows(amps, q, 2.0 * g[base + q] * X[:, q])
        for q in range(n):
            amps = qsim.apply_gate_amplitudes(amps, qsim.x_mixer(q, b[base + q]))
    return np.hstack([qsim.z_expectations(amps, n), qsim.x_expectations(amps, n)])


def feature_map_states(X_scaled: np.ndarray) -> np.ndarray:
    """Feature-mapped statevectors for every row, shape (n, 2**n_qubits)."""
    X = np.asarray(X_scaled, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise UsageError("X must be a non-empty 2-D matrix")
    n = X.shape[1]
    amps = qsim.zero_amplitudes(n, batch=len(X))
    for q in range(n):
        amps = qsim.apply_gate_amplitudes(amps, qsim.hadamard(q))
    for q in range(n):
        amps = qsim.rz_rows(amps, q, 2.0 * X[:, q])
    for i in range(n):
        for j in range(i + 1, n):
            amps = qsim.zz_phase_rows(amps, i, j, X[:, i] * X[:, j])
    return amps


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
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] < self.n_qubits:
            raise UsageError(
                f"need at least {self.n_qubits} feature columns, got {X.shape}"
            )
        truncated = X[:, : self.n_qubits]
        return apply_scaler(self.angle, apply_scaler(self.zscore, truncated))

    def state(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "zscore_offset": self.zscore.offset,
            "zscore_scale": self.zscore.scale,
            "angle_offset": self.angle.offset,
            "angle_scale": self.angle.scale,
        }


def _fit_scale_chain(X: np.ndarray, n_qubits: int) -> tuple[_ScaleChain, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < n_qubits:
        raise UsageError(f"need at least {n_qubits} feature columns, got {X.shape}")
    truncated = X[:, :n_qubits]
    zscore = fit_scaler(ScalerKind.ZSCORE, truncated)
    standardized = apply_scaler(zscore, truncated)
    angle = fit_scaler(ScalerKind.ANGLE, standardized)
    chain = _ScaleChain(n_qubits=n_qubits, zscore=zscore, angle=angle)
    return chain, apply_scaler(angle, standardized)


def _training_accuracy(head, features: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(head.predict(features) == y))


def _fit_head(features: np.ndarray, y: np.ndarray, max_iter: int):
    return LogisticRegressionClassifier(C=1.0, max_iter=max_iter).fit(features, y)


def _correlation_or_none(X_scaled: np.ndarray) -> CorrelationGraph | None:
    if X_scaled.shape[1] < 2:
        return None
    return build_correlation_graph(X_scaled)


def _budgeted_search(
    loss, n_params: int, budget: OptBudget, seed: int, start_scale: np.ndarray | None = None
) -> OptResult:
    """Simplex search with deterministic random restarts inside one budget.

    Accuracy objectives are piecewise constant, so a single simplex often
    converges onto a plateau well before the evaluation budget is spent;
    leftover evaluations go to fresh random starts and the best point over
    all starts wins (ties keep the earliest start).  ``start_scale``
    rescales the U[0, 2pi) draws elementwise, for parameters whose useful
    range is narrower than a full turn.
    """
    remaining = budget.max_evals
    evals_total = 0
    merged_trace: list[tuple[int, float]] = []
    best: OptResult | None = None
    attempt = 0
    while remaining > 0:
        if attempt == 0:
            start = random_init(n_params, seed)
        else:
            child = int(np.random.SeedSequence([seed, attempt]).generate_state(1)[0])
            start = random_init(n_params, child)
        if start_scale is not None:
            start = start * start_scale
        result = minimize(loss, start, replace(budget, max_evals=remaining))
        merged_trace.extend((evals_total + i, v) for i, v in result.trace)
        evals_total += result.n_evals
        remaining -= result.n_evals
        if best is None or result.best_loss < best.best_loss:
            best = result
        attempt += 1
        if remaining < n_params + 2:
            break
    return OptResult(
        best_params=best.best_params,
        best_loss=best.best_loss,
        n_evals=evals_total,
        trace=merged_trace,
    )


# ---------------------------------------------------------------------------
# classifiers


class _TrainedCircuitClassifier:
    """Trained-circuit features read out by a logistic-regression head.

    Training is bilevel: for each candidate parameter vector the head is
    refit on the training features (reduced iteration cap) and the negative
    training accuracy is minimized; the stored model keeps the best
    parameters with a fully trained head.  Subclasses supply the circuit
    family, its feature function, the zero-angle gate list that sets
    ``circuit_depth_``, the start scale and the family part of the fitted
    state.
    """

    kind: str
    family: CircuitFamily

    def __init__(
        self,
        n_qubits: int,
        layers: int,
        budget: OptBudget | None = None,
        seed: int = 0,
    ):
        if layers < 1:
            raise UsageError("layers must be >= 1 for training")
        self.n_qubits = int(n_qubits)
        self.layers = int(layers)
        self.budget = budget if budget is not None else OptBudget()
        self.seed = int(seed)
        self.config_: CircuitConfig | None = None
        self.scale_chain_: _ScaleChain | None = None
        self.params_: np.ndarray | None = None
        self.head_ = None
        self.opt_result_: OptResult | None = None
        self.constant_class_ = None
        self.classes_: np.ndarray | None = None
        self.circuit_depth_ = 0

    def fit(self, X, y):
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        self.scale_chain_, X_angle = _fit_scale_chain(X, self.n_qubits)
        graph = _correlation_or_none(X_angle)
        self.config_ = CircuitConfig(self.family, self.n_qubits, self.layers, graph)
        self._fit_circuit(X_angle)
        n_params = param_count(self.config_)
        self.circuit_depth_ = circuits.circuit_depth(self._zero_angle_gates(n_params))
        if len(self.classes_) == 1:
            self.constant_class_ = self.classes_[0]
            self.params_ = np.zeros(n_params)
            return self

        def loss(params):
            features = self._features(params, X_angle)
            head = _fit_head(features, y, INNER_HEAD_MAX_ITER)
            return -_training_accuracy(head, features, y)

        result = _budgeted_search(
            loss, n_params, self.budget, self.seed, start_scale=self._start_scale(n_params)
        )
        if not result.ok:
            raise TrainingError("every objective evaluation was non-finite")
        self.opt_result_ = result
        self.params_ = result.best_params
        final_features = self._features(self.params_, X_angle)
        self.head_ = _fit_head(final_features, y, FINAL_HEAD_MAX_ITER)
        return self

    def _fit_circuit(self, X_angle: np.ndarray) -> None:
        """Fit circuit parts other than the trained angles (none by default)."""

    def _start_scale(self, n_params: int) -> np.ndarray | None:
        return None

    def features(self, X) -> np.ndarray:
        self._check_fitted()
        return self._features(self.params_, self.scale_chain_.transform(X))

    def predict(self, X):
        self._check_fitted()
        if self.constant_class_ is not None:
            return np.full(len(X), self.constant_class_, dtype=self.classes_.dtype)
        return self.head_.predict(self.features(X))

    def _check_fitted(self):
        if self.params_ is None:
            raise UsageError("model is not fitted")

    def fitted_state(self) -> dict:
        self._check_fitted()
        state = {
            "kind": self.kind,
            **self._family_state(),
            "scalers": self.scale_chain_.state(),
            "constant_class": self.constant_class_,
        }
        if self.head_ is not None:
            state["head"] = self.head_.fitted_state()
        return state

    def metadata(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "layers": self.layers,
            "param_count": param_count(CircuitConfig(self.family, self.n_qubits, self.layers)),
            "circuit_depth": self.circuit_depth_,
        }


class VqcClassifier(_TrainedCircuitClassifier):
    """Variational circuit <Z_q> features; trains one RY angle per qubit and layer."""

    kind = "vqc"
    family = CircuitFamily.VQC

    @property
    def theta_(self) -> np.ndarray | None:
        return self.params_

    def _features(self, theta, X_angle):
        return vqc_features(self.config_, theta, X_angle)

    def _zero_angle_gates(self, n_params: int):
        return build_vqc_circuit(self.config_, np.zeros(self.n_qubits), np.zeros(n_params))

    def _family_state(self) -> dict:
        graph = self.config_.correlation
        return {"theta": self.theta_, "correlation_pairs": graph.pairs if graph else ()}


class QaoaClassifier(_TrainedCircuitClassifier):
    """Alternating-ansatz features read out by a logistic-regression head.

    ZZ couplings come from the training-fold correlation graph, per-qubit Z
    weights are each sample's scaled feature value, and both per-qubit angle
    banks (gamma, beta) are optimized jointly against training accuracy.
    """

    kind = "qaoa"
    family = CircuitFamily.QAOA

    hamiltonian_: CostHamiltonian | None = None

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

    def _features(self, params, X_angle):
        half = len(params) // 2
        return qaoa_features(
            self.config_, self.hamiltonian_, params[:half], params[half:], X_angle
        )

    def _zero_angle_gates(self, n_params: int):
        half = n_params // 2
        return build_qaoa_circuit(
            self.config_, self.hamiltonian_, np.zeros(half), np.zeros(half)
        )

    def _family_state(self) -> dict:
        return {
            "gamma": self.gamma_,
            "beta": self.beta_,
            "zz_terms": self.hamiltonian_.zz_terms,
            "z_offsets": self.hamiltonian_.z_terms,
        }


class QKernelClassifier:
    """Fidelity-kernel SVM: the classical solver consumes the quantum Gram matrix."""

    kind = "qkernel"

    def __init__(self, n_qubits: int = 4, C: float = 1.0):
        self.n_qubits = int(n_qubits)
        self.C = float(C)
        self.scale_chain_: _ScaleChain | None = None
        self.svm_: SvmClassifier | None = None
        self.train_states_: np.ndarray | None = None
        self.classes_: np.ndarray | None = None
        self.constant_class_ = None
        self.circuit_depth_ = 0

    def fit(self, X, y):
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        self.scale_chain_, X_angle = _fit_scale_chain(X, self.n_qubits)
        self.circuit_depth_ = circuits.circuit_depth(
            build_feature_map(np.zeros(self.n_qubits))
        )
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

    def fitted_state(self) -> dict:
        if self.train_states_ is None:
            raise UsageError("model is not fitted")
        state = {
            "kind": self.kind,
            "scalers": self.scale_chain_.state(),
            "constant_class": self.constant_class_,
        }
        if self.svm_ is not None:
            state["svm"] = self.svm_.fitted_state()
        return state

    def metadata(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "layers": 1,
            "param_count": 0,
            "circuit_depth": self.circuit_depth_,
        }


# ---------------------------------------------------------------------------
# hybrid pipelines


def _spawn_seeds(seed: int, count: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


_QC_HEADS = ("random_forest", "svm_rbf", "logistic_regression", "decision_tree")


class HybridQcPipeline:
    """Quantum-to-classical: trained circuit features feed a classical head.

    The feature extractor is the 6-qubit, 3-layer variational classifier
    trained with its usual accuracy objective; its logistic head is then
    replaced by the configured classical model fitted on the extracted
    features.
    """

    kind = "hybrid_qc"

    def __init__(self, head_kind: str, seed: int = 0, budget: OptBudget | None = None):
        if head_kind not in _QC_HEADS:
            raise UsageError(f"head_kind must be one of {_QC_HEADS}, got {head_kind!r}")
        self.head_kind = head_kind
        self.seed = int(seed)
        self.budget = budget if budget is not None else OptBudget()
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
            return LogisticRegressionClassifier(C=1.0, max_iter=FINAL_HEAD_MAX_ITER)
        return DecisionTreeClassifier(max_depth=15)

    def fit(self, X, y):
        vqc_seed, head_seed = _spawn_seeds(self.seed, 2)
        self.extractor_ = VqcClassifier(
            HYBRID_QC_QUBITS, HYBRID_QC_LAYERS, budget=self.budget, seed=vqc_seed
        ).fit(X, y)
        features = self.extractor_.features(X)
        self.head_ = self._build_head(head_seed)
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

    def fitted_state(self) -> dict:
        if self.head_ is None:
            raise UsageError("pipeline is not fitted")
        return {
            "kind": self.kind,
            "head_kind": self.head_kind,
            "extractor": self.extractor_.fitted_state(),
            "head": self.head_.fitted_state(),
        }

    def metadata(self) -> dict:
        meta = self.extractor_.metadata() if self.extractor_ else {
            "n_qubits": HYBRID_QC_QUBITS,
            "layers": HYBRID_QC_LAYERS,
            "param_count": HYBRID_QC_QUBITS * HYBRID_QC_LAYERS,
        }
        meta = dict(meta)
        meta["intermediate_features"] = HYBRID_QC_QUBITS
        meta["head_kind"] = self.head_kind
        return meta


_CQ_KINDS = ("vqc", "qaoa", "qkernel")


class HybridCqPipeline:
    """Classical-to-quantum: standardize, project to 4 components, train a
    4-qubit quantum model on the projected features."""

    kind = "hybrid_cq"

    def __init__(self, quantum_kind: str, seed: int = 0, budget: OptBudget | None = None):
        if quantum_kind not in _CQ_KINDS:
            raise UsageError(f"quantum_kind must be one of {_CQ_KINDS}, got {quantum_kind!r}")
        self.quantum_kind = quantum_kind
        self.seed = int(seed)
        self.budget = budget if budget is not None else OptBudget()
        self.zscore_ = None
        self.pca_ = None
        self.model_ = None

    def fit(self, X, y):
        from .classical import fit_pca, pca_transform

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
                HYBRID_CQ_COMPONENTS, HYBRID_CQ_LAYERS, budget=self.budget, seed=self.seed
            )
        self.model_.fit(projected, np.asarray(y))
        return self

    def project(self, X) -> np.ndarray:
        from .classical import pca_transform

        if self.pca_ is None:
            raise UsageError("pipeline is not fitted")
        return pca_transform(self.pca_, apply_scaler(self.zscore_, np.asarray(X, dtype=float)))

    def predict(self, X):
        if self.model_ is None:
            raise UsageError("pipeline is not fitted")
        return self.model_.predict(self.project(X))

    def fitted_state(self) -> dict:
        if self.model_ is None:
            raise UsageError("pipeline is not fitted")
        return {
            "kind": self.kind,
            "quantum_kind": self.quantum_kind,
            "zscore_offset": self.zscore_.offset,
            "zscore_scale": self.zscore_.scale,
            "pca_components": self.pca_.components,
            "pca_mean": self.pca_.mean,
            "model": self.model_.fitted_state(),
        }

    def metadata(self) -> dict:
        meta = dict(self.model_.metadata()) if self.model_ else {}
        meta["pca_components"] = HYBRID_CQ_COMPONENTS
        meta["quantum_kind"] = self.quantum_kind
        if self.pca_ is not None:
            meta["pca_meets_variance_target"] = bool(self.pca_.meets_variance_target)
        return meta
