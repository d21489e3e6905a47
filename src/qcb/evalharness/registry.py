"""The benchmark model registry: builders, categories, static metadata.

Seventeen entries: five simulated quantum models, four classical baselines,
four quantum-to-classical hybrids, three classical-to-quantum hybrids, and a
majority-class reference that anchors the chance level.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..classical import (
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
    ScalerKind,
    SvmClassifier,
    apply_scaler,
    fit_scaler,
)
from ..errors import UsageError
from ..modelbytes import Packed
from ..qmodels import (
    HybridCqPipeline,
    HybridQcPipeline,
    QKernelClassifier,
    QaoaClassifier,
    VqcClassifier,
)


class StandardizedModel(Packed):
    """Z-score preprocessing fitted on the training split, then any model."""

    _packed_fields = ("inner", "scaler_")

    def __init__(self, inner):
        self.inner = inner
        self.scaler_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        self.scaler_ = fit_scaler(ScalerKind.ZSCORE, X)
        self.inner.fit(apply_scaler(self.scaler_, X), y)
        return self

    def predict(self, X):
        if self.scaler_ is None:
            raise UsageError("model is not fitted")
        return self.inner.predict(apply_scaler(self.scaler_, np.asarray(X, dtype=float)))

    def metadata(self) -> dict:
        return getattr(self.inner, "metadata", dict)() or {}


class MajorityClassBaseline(Packed):
    """Predicts the most frequent training label (ties to the lowest label)."""

    _packed_fields = ("majority_", "classes_")

    def __init__(self):
        self.majority_ = None
        self.classes_ = None

    def fit(self, X, y):
        y = np.asarray(y)
        self.classes_, counts = np.unique(y, return_counts=True)
        self.majority_ = self.classes_[int(np.argmax(counts))]
        return self

    def predict(self, X):
        if self.majority_ is None:
            raise UsageError("model is not fitted")
        return np.full(len(X), self.majority_, dtype=self.classes_.dtype)

    def metadata(self) -> dict:
        return {}


@dataclass(frozen=True)
class ModelSpec:
    """Registry entry: display name, category, seeded builder, static metadata."""

    name: str
    category: str
    build: Callable[[int], object]
    metadata: dict = field(default_factory=dict)


def default_registry() -> dict[str, ModelSpec]:
    """All benchmark configurations, keyed by model name."""
    specs = [
        ModelSpec(
            "vqc_4q2l",
            "quantum",
            lambda seed: VqcClassifier(4, 2, seed=seed),
            {"n_qubits": 4, "layers": 2, "param_count": 8},
        ),
        ModelSpec(
            "vqc_6q3l",
            "quantum",
            lambda seed: VqcClassifier(6, 3, seed=seed),
            {"n_qubits": 6, "layers": 3, "param_count": 18},
        ),
        ModelSpec(
            "qaoa_4q2l",
            "quantum",
            lambda seed: QaoaClassifier(4, 2, seed=seed),
            {"n_qubits": 4, "layers": 2, "param_count": 16},
        ),
        ModelSpec(
            "qaoa_6q3l",
            "quantum",
            lambda seed: QaoaClassifier(6, 3, seed=seed),
            {"n_qubits": 6, "layers": 3, "param_count": 36},
        ),
        ModelSpec(
            "qkernel_svm",
            "quantum",
            lambda seed: QKernelClassifier(4, C=1.0),
            {"n_qubits": 4, "param_count": 0},
        ),
        ModelSpec(
            "random_forest",
            "classical",
            lambda seed: StandardizedModel(
                RandomForestClassifier(n_trees=150, max_depth=15, seed=seed)
            ),
            {"n_trees": 150, "max_depth": 15},
        ),
        ModelSpec(
            "svm_rbf",
            "classical",
            lambda seed: StandardizedModel(SvmClassifier(C=1.0, gamma="scale")),
            {"C": 1.0, "gamma": "scale"},
        ),
        ModelSpec(
            "logistic_regression",
            "classical",
            lambda seed: StandardizedModel(LogisticRegressionClassifier(C=1.0)),
            {"C": 1.0},
        ),
        ModelSpec(
            "decision_tree",
            "classical",
            lambda seed: StandardizedModel(DecisionTreeClassifier(max_depth=15)),
            {"max_depth": 15},
        ),
        ModelSpec(
            "q_rf",
            "hybrid_qc",
            lambda seed: HybridQcPipeline("random_forest", seed=seed),
            {"n_qubits": 6, "layers": 3, "head": "random_forest", "head_trees": 100},
        ),
        ModelSpec(
            "q_svm",
            "hybrid_qc",
            lambda seed: HybridQcPipeline("svm_rbf", seed=seed),
            {"n_qubits": 6, "layers": 3, "head": "svm_rbf"},
        ),
        ModelSpec(
            "q_logreg",
            "hybrid_qc",
            lambda seed: HybridQcPipeline("logistic_regression", seed=seed),
            {"n_qubits": 6, "layers": 3, "head": "logistic_regression"},
        ),
        ModelSpec(
            "q_dectree",
            "hybrid_qc",
            lambda seed: HybridQcPipeline("decision_tree", seed=seed),
            {"n_qubits": 6, "layers": 3, "head": "decision_tree"},
        ),
        ModelSpec(
            "pca_vqc",
            "hybrid_cq",
            lambda seed: HybridCqPipeline("vqc", seed=seed),
            {"n_qubits": 4, "layers": 2, "pca_components": 4},
        ),
        ModelSpec(
            "pca_qaoa",
            "hybrid_cq",
            lambda seed: HybridCqPipeline("qaoa", seed=seed),
            {"n_qubits": 4, "layers": 2, "pca_components": 4},
        ),
        ModelSpec(
            "pca_qkernel",
            "hybrid_cq",
            lambda seed: HybridCqPipeline("qkernel", seed=seed),
            {"n_qubits": 4, "pca_components": 4},
        ),
        ModelSpec(
            "majority_class",
            "baseline",
            lambda seed: MajorityClassBaseline(),
            {},
        ),
    ]
    return {spec.name: spec for spec in specs}


def select_models(names: str | list[str]) -> dict[str, ModelSpec]:
    """Subset the registry by name; ``"all"`` keeps everything."""
    registry = default_registry()
    if names == "all" or names == ["all"]:
        return registry
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise UsageError(
            f"unknown models {unknown}; available: {sorted(registry)}"
        )
    return {name: registry[name] for name in names}
