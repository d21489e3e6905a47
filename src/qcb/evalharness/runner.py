"""Benchmark execution: seeded cells, aggregation, and the leakage audit.

Every randomized component draws from a stream derived deterministically
from (master seed, model name, seed index, fold index), so serial reruns
reproduce every non-timing report field byte for byte.  Model failures are
recorded per cell and the run continues.
"""
from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

import numpy as np

from ..data import SEVERITY_LEVELS, LabeledDataset
from ..errors import UsageError
from .cv import CvPlan, HoldoutPlan, derive_seed, stratified_folds
from .metrics import classification_metrics
from .registry import ModelSpec
from .stats import confidence_interval, paired_ttest, significance_stars

REPORT_SCHEMA = "qcb-report/1"

# engineering choices that intentionally depart from the textbook recipes;
# emitted with every report so downstream readers see them without digging
DEVIATIONS = [
    {
        "id": "optimizer_engine",
        "description": (
            "Derivative-free training uses a Nelder-Mead simplex (with "
            "deterministic restarts inside the fixed 150-evaluation budget) "
            "rather than a linear-approximation trust-region method; the "
            "objectives are unconstrained."
        ),
    },
    {
        "id": "optimizer_budget",
        "description": (
            "The training budget counts loss evaluations, including the "
            "initial simplex construction."
        ),
    },
    {
        "id": "feature_map_hadamard",
        "description": (
            "The kernel feature map prepends a Hadamard layer to the "
            "diagonal phase encoding; the purely diagonal map would leave "
            "|0...0> unchanged and make every kernel entry 1."
        ),
    },
    {
        "id": "qaoa_sample_encoding",
        "description": (
            "Per-qubit Z weights in the cost layer are each sample's scaled "
            "feature value; training-fold feature means are recorded as "
            "offsets instead of being used as sample-independent weights."
        ),
    },
    {
        "id": "qaoa_gamma_init",
        "description": (
            "Cost-layer couplings start in U[0, 1) rather than U[0, 2pi): "
            "features span [0, pi], so larger couplings alias the encoding."
        ),
    },
    {
        "id": "svm_multiclass",
        "description": "Multi-class SVMs use one-vs-one voting; gamma='scale' means 1/(n_features * Var(X)).",
    },
    {
        "id": "aggregate_defaults",
        "description": (
            "Property aggregate = {Theft, Robbery, Dacoity, Burglary}; "
            "social aggregate = {Woman & Child Repression, Riot, Narcotics, "
            "Smuggling}; both configurable in the ingestion schema."
        ),
    },
]


def state_checksum(state) -> str:
    """SHA-256 over a canonical encoding of a fitted-state tree."""
    digest = hashlib.sha256()
    _feed(digest, state)
    return digest.hexdigest()


def _feed(digest, obj) -> None:
    if isinstance(obj, dict):
        digest.update(b"{")
        for key in sorted(obj, key=str):
            digest.update(str(key).encode())
            digest.update(b"=")
            _feed(digest, obj[key])
            digest.update(b";")
        digest.update(b"}")
    elif isinstance(obj, (list, tuple)):
        digest.update(b"[")
        for item in obj:
            _feed(digest, item)
            digest.update(b",")
        digest.update(b"]")
    elif isinstance(obj, np.ndarray):
        digest.update(obj.dtype.str.encode())
        digest.update(str(obj.shape).encode())
        digest.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        _feed(digest, obj.item())
    elif isinstance(obj, float):
        digest.update(np.float64(obj).tobytes())
    else:
        digest.update(repr(obj).encode())


def run_cell(
    spec: ModelSpec,
    X: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    cell_seed: int,
    class_labels,
) -> dict:
    """Fit one model on one fold and score the held-out rows."""
    X_train, y_train = X[train_idx], y[train_idx]
    X_test, y_test = X[test_idx], y[test_idx]
    model = spec.build(cell_seed)
    started = time.perf_counter()
    model.fit(X_train, y_train)
    fit_seconds = time.perf_counter() - started
    predictions = model.predict(X_test)
    scored = classification_metrics(y_test, predictions, labels=class_labels)
    checksum = state_checksum(model.fitted_state())
    meta = model.metadata() if hasattr(model, "metadata") else {}
    return {
        "metrics": scored,
        "fit_seconds": fit_seconds,
        "checksum": checksum,
        "circuit_depth": meta.get("circuit_depth"),
        "model_metadata": meta,
    }


def _interval_or_none(values: list[float], level: float = 0.95):
    if len(values) < 2:
        mean = float(values[0]) if values else None
        return {"mean": mean, "ci95_half_width": None}
    mean, half = confidence_interval(np.array(values), level)
    return {"mean": mean, "ci95_half_width": half}


def _aggregate_model(
    spec: ModelSpec, cells: list[dict], class_labels
) -> dict:
    succeeded = [c for c in cells if c["error"] is None]
    entry: dict = {
        "category": spec.category,
        "config": dict(spec.metadata),
        "failures": len(cells) - len(succeeded),
        "cells": cells,
    }
    if not succeeded:
        entry["metrics"] = None
        entry["resources"] = None
        entry["timing"] = None
        entry["metadata"] = {}
        return entry

    def collect(key):
        return [c[key] for c in succeeded]

    metrics = {
        "accuracy": _interval_or_none(collect("accuracy")),
        "precision_weighted": _interval_or_none(collect("precision_weighted")),
        "recall_weighted": _interval_or_none(collect("recall_weighted")),
        "f1_weighted": _interval_or_none(collect("f1_weighted")),
        "per_class_f1": {
            str(label): _interval_or_none(
                [c["per_class_f1"][str(label)] for c in succeeded]
            )
            for label in class_labels
        },
        "per_class_recall": {
            str(label): _interval_or_none(
                [c["per_class_recall"][str(label)] for c in succeeded]
            )
            for label in class_labels
        },
    }
    metadata = dict(succeeded[0]["model_metadata"])
    n_qubits = metadata.get("n_qubits")
    depths = [c["circuit_depth"] for c in succeeded if c["circuit_depth"] is not None]
    mean_acc = metrics["accuracy"]["mean"]
    resources = {
        "n_qubits": n_qubits,
        "param_count": metadata.get("param_count"),
        "circuit_depth_mean": float(np.mean(depths)) if depths else None,
        "qubit_efficiency": (mean_acc / n_qubits) if n_qubits else None,
    }
    timing = {
        "fit_seconds_mean": float(np.mean(collect("fit_seconds"))),
    }
    entry["metrics"] = metrics
    entry["resources"] = resources
    entry["timing"] = timing
    entry["metadata"] = metadata
    return entry


def _cell_record(seed_index, seed, fold, outcome, error, class_labels) -> dict:
    record = {
        "seed_index": seed_index,
        "seed": seed,
        "fold": fold,
        "error": error,
    }
    if error is not None:
        return record
    scored = outcome["metrics"]
    record.update(
        {
            "accuracy": scored.accuracy,
            "precision_weighted": scored.precision_weighted,
            "recall_weighted": scored.recall_weighted,
            "f1_weighted": scored.f1_weighted,
            "per_class_f1": {
                str(label): scored.per_class[label].f1 for label in class_labels
            },
            "per_class_recall": {
                str(label): scored.per_class[label].recall for label in class_labels
            },
            "fit_seconds": outcome["fit_seconds"],
            "checksum": outcome["checksum"],
            "circuit_depth": outcome["circuit_depth"],
        }
    )
    record["model_metadata"] = outcome["model_metadata"]
    return record


def _compare_to_reference(report: dict, reference: str) -> None:
    models = report["models"]
    if reference not in models or models[reference]["metrics"] is None:
        for entry in models.values():
            entry["comparison"] = None
        return
    ref_entry = models[reference]
    ref_cells = {
        (c["seed_index"], c["fold"]): c
        for c in ref_entry["cells"]
        if c["error"] is None
    }
    ref_time = ref_entry["timing"]["fit_seconds_mean"]
    for name, entry in models.items():
        if entry["metrics"] is None:
            entry["comparison"] = None
            continue
        own_cells = {
            (c["seed_index"], c["fold"]): c
            for c in entry["cells"]
            if c["error"] is None
        }
        common = sorted(set(own_cells) & set(ref_cells))
        comparison = {
            "reference": reference,
            "is_reference": name == reference,
            "accuracy_gap_vs_reference": (
                ref_entry["metrics"]["accuracy"]["mean"]
                - entry["metrics"]["accuracy"]["mean"]
            ),
        }
        if entry["timing"] and entry["timing"]["fit_seconds_mean"] > 0:
            entry["timing"]["speedup_vs_reference"] = (
                ref_time / entry["timing"]["fit_seconds_mean"]
            )
        if len(common) >= 2:
            own_scores = [own_cells[key]["accuracy"] for key in common]
            ref_scores = [ref_cells[key]["accuracy"] for key in common]
            result = paired_ttest(np.array(own_scores), np.array(ref_scores))
            comparison["paired_t"] = {
                "t": result.t,
                "p": result.p,
                "cohens_d": result.cohens_d,
                "n_pairs": result.n,
                "stars": significance_stars(result.p),
            }
        else:
            comparison["paired_t"] = None
        entry["comparison"] = comparison


# the running benchmark's registry, data and labels; set before the pool
# starts, so forked workers inherit it rather than receive it pickled
_RUN_CTX: dict = {}


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_task(task):
    """Run one (model, split) cell from the run context; failures are recorded."""
    name, seed_index, fold, train_idx, test_idx, cell_seed = task
    ctx = _RUN_CTX
    try:
        outcome = run_cell(
            ctx["registry"][name],
            ctx["X"],
            ctx["y"],
            train_idx,
            test_idx,
            cell_seed,
            ctx["labels"],
        )
        return name, seed_index, fold, outcome, None
    except Exception as exc:  # recorded, run continues
        return name, seed_index, fold, None, _error_text(exc)


def _worker_run(task):
    """Pool entry point: one cell in a forked worker."""
    return _run_task(task)


def _run_cells_parallel(tasks, workers: int) -> list[tuple]:
    """Cells over a fork pool, in task order.

    A worker that dies (``os._exit``, an OOM kill) breaks the pool; every
    cell without a result then records the error instead of the run hanging.
    """
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(_worker_run, task) for task in tasks]
        results = []
        for task, future in zip(tasks, futures):
            try:
                results.append(future.result())
            except Exception as exc:  # BrokenProcessPool, or an unpicklable result
                name, seed_index, fold = task[:3]
                results.append((name, seed_index, fold, None, _error_text(exc)))
    return results


def _pool_size(workers: int, n_tasks: int) -> int:
    """Process count for ``workers`` requested: at most one per core and per cell."""
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1, n_tasks)


def run_benchmark(
    dataset: LabeledDataset,
    registry: dict[str, ModelSpec],
    plan: CvPlan | HoldoutPlan,
    master_seed: int = 0,
    reference: str = "random_forest",
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
) -> dict:
    """Fit every registry model on every split of ``plan`` and aggregate the report.

    ``workers > 1`` fans the independent (model, split) cells over a fork
    pool; the workers inherit this call's registry and data, and every cell
    draws from its own derived seed, so the non-timing report content is
    identical to a serial run.
    """
    if dataset.y is None:
        raise UsageError("dataset must be labeled")
    if not registry:
        raise UsageError("registry is empty")
    X = dataset.X
    y = dataset.y
    class_labels = [label for label in SEVERITY_LEVELS if label in set(y)]
    plan_block, splits = plan.splits(y, master_seed)

    report: dict = {
        "schema": REPORT_SCHEMA,
        "master_seed": int(master_seed),
        "reference_model": reference,
        "plan": plan_block,
        "dataset": {
            "n_samples": dataset.n_samples,
            "n_features": dataset.n_features,
            "feature_names": list(dataset.feature_names),
            "provenance": dataset.provenance,
            "classes": [str(label) for label in class_labels],
            "class_counts": {
                str(label): int(np.sum(y == label)) for label in class_labels
            },
        },
        "deviations": DEVIATIONS,
        "models": {},
    }

    tasks = [
        (name, seed_index, fold, train_idx, test_idx, derive_seed(master_seed, name, seed_index, fold))
        for name in registry
        for seed_index, _, fold, train_idx, test_idx in splits
    ]
    pool_size = _pool_size(workers, len(tasks))
    _RUN_CTX.update(registry=registry, X=X, y=y, labels=class_labels)
    try:
        if pool_size > 1:
            raw_results = _run_cells_parallel(tasks, pool_size)
        else:
            raw_results = [_run_task(task) for task in tasks]
    finally:
        _RUN_CTX.clear()

    by_cell = {(name, s, f): (outcome, error) for name, s, f, outcome, error in raw_results}
    for name, spec in registry.items():
        cells = [
            _cell_record(seed_index, seed, fold, *by_cell[(name, seed_index, fold)], class_labels)
            for seed_index, seed, fold, _, _ in splits
        ]
        report["models"][name] = _aggregate_model(spec, cells, class_labels)
        if progress is not None:
            entry = report["models"][name]
            if entry["metrics"] is None:
                progress(f"{name}: all {len(cells)} cells failed")
            else:
                acc = entry["metrics"]["accuracy"]
                half = acc["ci95_half_width"]
                progress(
                    f"{name}: accuracy {acc['mean']:.3f}"
                    + (f" +/- {half:.3f}" if half is not None else "")
                    + (f" ({entry['failures']} failed cells)" if entry["failures"] else "")
                )

    _compare_to_reference(report, reference)
    report["failures_total"] = int(
        sum(entry["failures"] for entry in report["models"].values())
    )
    return report


_TIMING_KEYS = {"fit_seconds", "timing", "speedup_vs_reference", "fit_seconds_mean"}


def strip_timing(report: dict):
    """Deep-copy a report without wall-clock-derived fields."""
    if isinstance(report, dict):
        return {
            key: strip_timing(value)
            for key, value in report.items()
            if key not in _TIMING_KEYS
        }
    if isinstance(report, list):
        return [strip_timing(item) for item in report]
    return report


def audit_leakage(
    dataset: LabeledDataset,
    registry: dict[str, ModelSpec],
    master_seed: int = 0,
    seed_index: int = 0,
    fold: int = 0,
) -> dict:
    """Train each model twice, permuting only the held-out rows in between.

    Fitted-state checksums must match: preprocessing statistics, correlation
    graphs, circuit parameters and heads may depend on training rows only.
    """
    if dataset.y is None:
        raise UsageError("dataset must be labeled")
    X, y = dataset.X, dataset.y
    class_labels = [label for label in SEVERITY_LEVELS if label in set(y)]
    fold_seed = derive_seed(master_seed, "folds", seed_index)
    folds = stratified_folds(y, 5, fold_seed)
    test_idx = np.nonzero(folds == fold)[0]
    train_idx = np.nonzero(folds != fold)[0]
    permuted_test = test_idx[::-1].copy()
    results = {}
    for name, spec in registry.items():
        cell_seed = derive_seed(master_seed, name, seed_index, fold)
        original = run_cell(spec, X, y, train_idx, test_idx, cell_seed, class_labels)
        permuted = run_cell(spec, X, y, train_idx, permuted_test, cell_seed, class_labels)
        results[name] = {
            "checksum": original["checksum"],
            "checksum_permuted": permuted["checksum"],
            "match": original["checksum"] == permuted["checksum"],
        }
    return results
