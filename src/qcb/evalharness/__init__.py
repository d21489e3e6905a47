"""Cross-validation harness: folds, metrics, statistics, registry, reports."""

from .cv import CvPlan, HoldoutPlan, holdout_split, stratified_folds
from .metrics import ClassificationMetrics, classification_metrics
from .registry import ModelSpec, default_registry, select_models
from .report import emit_report, load_report
from .runner import audit_leakage, run_benchmark, strip_timing
from .stats import (
    TTestResult,
    confidence_interval,
    paired_ttest,
    regularized_incomplete_beta,
    significance_stars,
    student_t_cdf,
    student_t_ppf,
)

__all__ = [
    "ClassificationMetrics",
    "CvPlan",
    "HoldoutPlan",
    "ModelSpec",
    "TTestResult",
    "audit_leakage",
    "classification_metrics",
    "confidence_interval",
    "default_registry",
    "emit_report",
    "holdout_split",
    "load_report",
    "paired_ttest",
    "regularized_incomplete_beta",
    "run_benchmark",
    "select_models",
    "significance_stars",
    "strip_timing",
    "stratified_folds",
    "student_t_cdf",
    "student_t_ppf",
]
