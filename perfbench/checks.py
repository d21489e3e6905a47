"""Correctness checks the workloads apply to qcb's outputs.

Each check returns a list of problems (empty when the output is right).
Circuit outputs are held against the dense reference in ``reference.py``;
cross-validation reports are held against properties the protocol must
have, recomputed here with numpy from the input CSV.
"""
from __future__ import annotations

import csv

import numpy as np

import reference

TOLERANCE = 1e-10
ANCHOR_MARGIN = 0.20
CLASSICAL_BASELINES = ("random_forest", "svm_rbf", "logistic_regression", "decision_tree")

_VIOLENT = ("Murder", "Dacoity", "Robbery", "Kidnapping", "Riot")
# (label, violent-ratio bound, total-cases bound), first match wins
_TIERS = (("Critical", 0.3, 30_000), ("High", 0.15, 15_000), ("Medium", 0.05, 5_000))


def severity_labels(csv_path) -> np.ndarray:
    """Severity label per CSV row, from the ratio/volume rule in the README."""
    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    counts = np.array([[int(v) for v in row[2:]] for row in rows[1:] if row], dtype=float)
    total = counts.sum(axis=1)
    violent = counts[:, [header.index(name) - 2 for name in _VIOLENT]].sum(axis=1)
    ratio = np.divide(violent, total, out=np.zeros_like(total), where=total > 0)
    labels = np.full(len(total), "Low", dtype=object)
    for name, ratio_bound, case_bound in reversed(_TIERS):
        labels[(ratio > ratio_bound) | (total > case_bound)] = name
    return labels.astype(str)


def _close(name: str, what: str, got, want) -> list[str]:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: {what} shape {got.shape} != reference {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= TOLERANCE else [f"{name}: {what} differs from reference by {err:.3e}"]


def _circuit_part(model, X):
    """The circuit model inside a registry entry and the input it sees."""
    from qcb.qmodels import HybridCqPipeline, HybridQcPipeline

    if isinstance(model, HybridQcPipeline):
        return model.extractor_, X
    if isinstance(model, HybridCqPipeline):
        return model.model_, model.project(X)
    return model, X


def check_circuits(models: dict, X_rows: np.ndarray, X_train_rows: np.ndarray) -> list[str]:
    """Features and kernel entries of every fitted circuit model vs the reference."""
    from qcb import qmodels, qsim

    problems = []
    for name, model in models.items():
        inner, X = _circuit_part(model, X_rows)
        if isinstance(inner, qmodels.VqcClassifier):
            angles = inner.scale_chain_.transform(X)
            graph = inner.config_.correlation
            want = reference.vqc_features(
                angles, inner.theta_, graph.pairs if graph else (), inner.layers
            )
            problems += _close(name, "features()", inner.features(X), want)
        elif isinstance(inner, qmodels.QaoaClassifier):
            angles = inner.scale_chain_.transform(X)
            h = inner.hamiltonian_
            want = reference.qaoa_features(
                angles, inner.gamma_, inner.beta_, h.zz_terms, [q for q, _ in h.z_terms], inner.layers
            )
            problems += _close(name, "features()", inner.features(X), want)
        elif isinstance(inner, qmodels.QKernelClassifier):
            _, X_train = _circuit_part(model, X_train_rows)
            test_angles = inner.scale_chain_.transform(X)
            train_angles = inner.scale_chain_.transform(X_train)
            cross = qsim.cross_overlap_sq(
                qmodels.feature_map_states(test_angles), inner.train_states_[: len(X_train)]
            )
            problems += _close(
                name, "kernel entries", cross, reference.fidelity_kernel(test_angles, train_angles)
            )
            gram = qsim.cross_overlap_sq(inner.train_states_, inner.train_states_)
            if np.max(np.abs(gram - gram.T)) > TOLERANCE:
                problems.append(f"{name}: training Gram matrix is not symmetric")
            if np.max(np.abs(np.diag(gram) - 1.0)) > TOLERANCE:
                problems.append(f"{name}: training Gram matrix diagonal is not 1")
    return problems


def check_single_vs_batch(singles: dict, batches: dict) -> list[str]:
    """Every single-record prediction equals the batch prediction of that row."""
    problems = []
    for name, by_row in singles.items():
        batch = batches[name]
        wrong = [row for row, label in by_row.items() if label != batch[row]]
        if wrong:
            problems.append(f"{name}: {len(wrong)} single-record predictions differ from batch")
    return problems


def check_cv_report(report: dict, y: np.ndarray, n_folds: int) -> list[str]:
    """Fold, anchor and failure properties of one ``qcb run`` report."""
    from qcb.evalharness import stratified_folds

    problems = []
    if report["failures_total"]:
        problems.append(f"{report['failures_total']} CV cells failed")
    labels, counts = np.unique(y, return_counts=True)
    if report["dataset"]["class_counts"] != {str(k): int(v) for k, v in zip(labels, counts)}:
        problems.append("report class counts differ from labels recomputed from the CSV")
    models = report["models"]
    majority_cells = {
        (c["seed_index"], c["fold"]): c["accuracy"]
        for c in models["majority_class"]["cells"]
        if c["error"] is None
    }
    for seed_index, fold_seed in enumerate(report["plan"]["fold_seeds"]):
        folds = stratified_folds(y, n_folds, fold_seed)
        if set(np.unique(folds)) != set(range(n_folds)):
            problems.append(f"seed round {seed_index}: some fold holds out no row")
        for label, count in zip(labels, counts):
            per_fold = np.bincount(folds[y == label], minlength=n_folds)
            if np.any(np.abs(per_fold - count / n_folds) > 1.0):
                problems.append(f"seed round {seed_index}: class {label} fold counts {per_fold}")
        for fold in range(n_folds):
            train_labels, train_counts = np.unique(y[folds != fold], return_counts=True)
            majority = train_labels[np.argmax(train_counts)]
            share = float(np.mean(y[folds == fold] == majority))
            reported = majority_cells.get((seed_index, fold))
            if reported is not None and abs(reported - share) > 1e-12:
                problems.append(
                    f"majority_class seed {seed_index} fold {fold}: accuracy {reported} "
                    f"!= training-fold majority share {share}"
                )
    if models["majority_class"]["metrics"] is None:
        return problems  # every anchor cell failed; counted above
    anchor = models["majority_class"]["metrics"]["accuracy"]["mean"]
    for name in CLASSICAL_BASELINES:
        if models[name]["metrics"] is None:
            continue
        accuracy = models[name]["metrics"]["accuracy"]["mean"]
        if accuracy < anchor + ANCHOR_MARGIN:
            problems.append(f"{name}: accuracy {accuracy:.3f} is not 20 points above {anchor:.3f}")
    return problems


def check_first_cells(report: dict, fitted: dict) -> list[str]:
    """Models fitted in set-up on the first split equal the CV's first cells.

    Both use the same rows and cell seed, so their fitted-state checksums
    must match the checksum the report records for (round 0, fold 0).  A
    failed first cell has no checksum; ``check_cv_report`` counts it.
    """
    from qcb.evalharness.runner import state_checksum

    problems = []
    for name, (model, _) in fitted.items():
        cell = next(
            c for c in report["models"][name]["cells"] if c["seed_index"] == 0 and c["fold"] == 0
        )
        if cell["error"] is None and cell["checksum"] != state_checksum(model.fitted_state()):
            problems.append(f"{name}: set-up fit differs from the report's first cell")
    return problems
