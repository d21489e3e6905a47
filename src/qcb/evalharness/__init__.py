"""Cross-validation harness: folds, metrics, statistics, registry, reports.

The exported names load their submodule on first access (PEP 562), so a
command that only writes or re-renders reports does not import the model
stack that ``registry`` and ``runner`` pull in.
"""
from importlib import import_module

_EXPORTS = {
    "ClassificationMetrics": "metrics",
    "CvPlan": "cv",
    "HoldoutPlan": "cv",
    "ModelSpec": "registry",
    "TTestResult": "stats",
    "audit_leakage": "runner",
    "classification_metrics": "metrics",
    "confidence_interval": "stats",
    "default_registry": "registry",
    "emit_report": "report",
    "holdout_split": "cv",
    "load_report": "report",
    "paired_ttest": "stats",
    "regularized_incomplete_beta": "stats",
    "run_benchmark": "runner",
    "select_models": "registry",
    "significance_stars": "stats",
    "strip_timing": "runner",
    "stratified_folds": "cv",
    "student_t_cdf": "stats",
    "student_t_ppf": "stats",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
