"""From-scratch classical learning: baselines, PCA, scalers, feature scoring."""

from .linear import LogisticRegressionClassifier
from .mi import mutual_information
from .pca import PcaTransform, fit_pca, pca_inverse_transform, pca_transform
from .scaling import ScalerKind, ScalerState, apply_scaler, fit_scaler, scale_rows
from .svm import SvmClassifier
from .trees import DecisionTreeClassifier, RandomForestClassifier

__all__ = [
    "DecisionTreeClassifier",
    "LogisticRegressionClassifier",
    "PcaTransform",
    "RandomForestClassifier",
    "ScalerKind",
    "ScalerState",
    "SvmClassifier",
    "apply_scaler",
    "fit_pca",
    "fit_scaler",
    "mutual_information",
    "pca_inverse_transform",
    "pca_transform",
    "scale_rows",
]

