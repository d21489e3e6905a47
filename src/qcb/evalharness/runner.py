"""Benchmark execution: seeded cells, aggregation, and the leakage audit.

Every randomized component draws from a stream derived deterministically
from (master seed, model name, seed index, fold index), so serial reruns
reproduce every non-timing report field byte for byte.  Model failures are
recorded per cell and the run continues.

``run_cell`` returns a cell's report record.  ``run_benchmark`` puts the
split's seed index, seed, fold and error in front of it (a failed cell has
only those four keys) and aggregates each model's records into intervals.
"""
from __future__ import annotations

import hashlib
import os
import time
from typing import Callable

import numpy as np

from ..data import SEVERITY_LEVELS, LabeledDataset
from ..errors import UsageError
from ..qmodels import clear_extractor_memo
from .cv import CvPlan, HoldoutPlan, derive_seed
from .metrics import classification_metrics
from .registry import ModelSpec
from .report import REPORT_SCHEMA
from .stats import confidence_interval, paired_ttest, significance_stars

# engineering choices that intentionally depart from the textbook recipes;
# emitted with every report so downstream readers see them without digging
DEVIATIONS = [
    {
        "id": "optimizer_engine",
        "description": (
            "Derivative-free training uses one Nelder-Mead simplex search "
            "from a seeded start inside the fixed 150-evaluation budget, "
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
        "id": "head_solver",
        "description": (
            "Logistic-regression heads and the logistic_regression baseline "
            "are fitted by damped multinomial Newton iterations to a gradient "
            "norm below 1e-5.  During a circuit's training each head starts "
            "from the best head found so far; the kept head is refitted from "
            "zero on the features of the best angles, so on a near-tie its "
            "training accuracy can differ from the search's best loss."
        ),
    },
    {
        "id": "hybrid_qc_shared_extractor",
        "description": (
            "The four quantum-to-classical hybrids of one training split share "
            "one 6-qubit, 3-layer extractor, seeded from a digest of that "
            "split's rows and labels, so their heads are compared on identical "
            "features; a hybrid's own seed seeds only its head."
        ),
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


def state_checksum(state: bytes) -> str:
    """SHA-256 hex of a model's ``fitted_state``, its uncompressed packed stream."""
    return hashlib.sha256(state).hexdigest()


# held-out rows a cell scores one at a time to time a single-record predict
SINGLE_RECORD_ROWS = 3


def _single_record_us(model, rows: np.ndarray) -> float:
    """Median wall clock of ``predict`` on each row alone, in microseconds."""
    times = []
    for i in range(len(rows)):
        started = time.perf_counter()
        model.predict(rows[i : i + 1])
        times.append((time.perf_counter() - started) * 1e6)
    return float(np.median(times))


def run_cell(
    spec: ModelSpec,
    X: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    cell_seed: int,
    class_labels,
) -> dict:
    """Fit one model on one fold, score the held-out rows, and return the
    cell's report record: metrics, timings, checksum and model metadata."""
    X_train, y_train = X[train_idx], y[train_idx]
    X_test, y_test = X[test_idx], y[test_idx]
    model = spec.build(cell_seed)
    started = time.perf_counter()
    model.fit(X_train, y_train)
    fit_seconds = time.perf_counter() - started
    predictions = model.predict(X_test)
    predict_us = _single_record_us(model, X_test[:SINGLE_RECORD_ROWS])
    scored = classification_metrics(y_test, predictions, labels=class_labels)
    checksum = state_checksum(model.fitted_state())
    meta = model.metadata() if hasattr(model, "metadata") else {}
    return {
        "accuracy": scored.accuracy,
        "precision_weighted": scored.precision_weighted,
        "recall_weighted": scored.recall_weighted,
        "f1_weighted": scored.f1_weighted,
        "per_class_f1": {str(label): scored.per_class[label].f1 for label in class_labels},
        "per_class_recall": {
            str(label): scored.per_class[label].recall for label in class_labels
        },
        "fit_seconds": fit_seconds,
        "predict_us": predict_us,
        "checksum": checksum,
        "circuit_depth": meta.get("circuit_depth"),
        "model_metadata": meta,
    }


def _interval_or_none(values: list, level: float = 0.95):
    """Mean and t half-width of ``values``; for dicts, of each key's values."""
    if values and isinstance(values[0], dict):
        return {key: _interval_or_none([v[key] for v in values], level) for key in values[0]}
    if len(values) < 2:
        mean = float(values[0]) if values else None
        return {"mean": mean, "ci95_half_width": None}
    mean, half = confidence_interval(np.array(values), level)
    return {"mean": mean, "ci95_half_width": half}


# a cell's metrics, each aggregated to an interval (per class for the dicts)
_METRICS = (
    "accuracy", "precision_weighted", "recall_weighted", "f1_weighted",
    "per_class_f1", "per_class_recall",
)


def _aggregate_model(spec: ModelSpec, cells: list[dict]) -> dict:
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

    metrics = {key: _interval_or_none(collect(key)) for key in _METRICS}
    # the values every succeeded cell agrees on; per-split ones stay in the cells
    first, *rest = collect("model_metadata")
    metadata = {k: v for k, v in first.items() if all(k in m and m[k] == v for m in rest)}
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
        "predict_us_median": float(np.median(collect("predict_us"))),
    }
    entry["metrics"] = metrics
    entry["resources"] = resources
    entry["timing"] = timing
    entry["metadata"] = metadata
    return entry


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
    """One cell in a forked worker; ``_run_unit`` calls it per cell."""
    return _run_task(task)


def _run_unit(unit):
    """Pool entry point: one unit's cells in order in one forked worker."""
    return [_worker_run(task) for task in unit]


def _cell_units(registry, splits, master_seed) -> list[list[tuple]]:
    """Cell tasks in units, in registry order.

    The ``hybrid_qc`` cells of a split form one unit, placed where the first
    of them stands, so the split's extractor is trained once and stays in
    the process that trained it.  Every other cell is a unit of its own.
    """
    units: dict[tuple, list[tuple]] = {}
    for name, spec in registry.items():
        hybrid = spec.category == "hybrid_qc"
        for seed_index, _, fold, train_idx, test_idx in splits:
            cell_seed = derive_seed(master_seed, name, seed_index, fold)
            key = (seed_index, fold) if hybrid else (name, seed_index, fold)
            task = (name, seed_index, fold, train_idx, test_idx, cell_seed)
            units.setdefault(key, []).append(task)
    return list(units.values())


def _failed_unit(unit, exc: BaseException) -> list[tuple]:
    return [(*task[:3], None, _error_text(exc)) for task in unit]


def _run_cells_parallel(units, workers: int) -> list[tuple]:
    """Units over a fork pool, one submit each; one result per cell.

    A worker that dies (``os._exit``, an OOM kill) breaks the pool; every
    cell of a unit without a result then records the error instead of the
    run hanging, a cell that finished earlier in that unit included.
    """
    import multiprocessing  # here, so that a serial run loads no process pool
    from concurrent.futures import ProcessPoolExecutor
    results, submitted = [], []
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        for unit in units:
            try:
                submitted.append((unit, pool.submit(_run_unit, unit)))
            except Exception as exc:  # a broken pool takes no new units
                results.extend(_failed_unit(unit, exc))
        for unit, future in submitted:
            try:
                results.extend(future.result())
            except Exception as exc:  # BrokenProcessPool, or an unpicklable result
                results.extend(_failed_unit(unit, exc))
    return results


def _pool_size(workers: int, n_units: int) -> int:
    """Process count for ``workers`` requested: at most one per unit and per
    core this process may run on (its affinity mask, where the OS has one)."""
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(workers, cores, n_units)


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

    ``workers > 1`` fans the (model, split) cells over a fork pool; the
    workers inherit this call's registry and data, and every cell draws from
    its own derived seed.  The ``hybrid_qc`` cells of a split run as one
    unit, in order in one process, so the first trains the split's extractor
    and the others find it memoised, serial or parallel.  So the non-timing
    report content is identical to a serial run.
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

    units = _cell_units(registry, splits, master_seed)
    pool_size = _pool_size(workers, len(units))
    _RUN_CTX.update(registry=registry, X=X, y=y, labels=class_labels)
    try:
        if pool_size > 1:
            raw_results = _run_cells_parallel(units, pool_size)
        else:
            raw_results = [_run_task(task) for unit in units for task in unit]
    finally:
        _RUN_CTX.clear()
        clear_extractor_memo()

    by_cell = {
        (name, s, f): {"error": error} | (outcome or {})
        for name, s, f, outcome, error in raw_results
    }
    for name, spec in registry.items():
        cells = [
            {"seed_index": s, "seed": seed, "fold": f} | by_cell[(name, s, f)]
            for s, seed, f, _, _ in splits
        ]
        report["models"][name] = _aggregate_model(spec, cells)
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


_TIMING_KEYS = {"fit_seconds", "predict_us", "timing", "speedup_vs_reference", "fit_seconds_mean"}


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

    The cell checksums must match: they hash each model's packed stream, and
    preprocessing statistics, correlation graphs, circuit parameters and
    heads may depend on training rows only.
    The memoised hybrid extractor is forgotten before each fit, so both fits
    train their own.  The audited split is fold ``fold`` of seed round
    ``seed_index`` of a 5-fold ``CvPlan``.
    """
    if dataset.y is None:
        raise UsageError("dataset must be labeled")
    X, y = dataset.X, dataset.y
    class_labels = [label for label in SEVERITY_LEVELS if label in set(y)]
    if not 0 <= fold < 5:
        raise UsageError(f"fold must be in 0..4, got {fold}")
    _, splits = CvPlan(n_folds=5, seeds=tuple(range(seed_index + 1))).splits(y, master_seed)
    _, _, _, train_idx, test_idx = splits[5 * seed_index + fold]
    permuted_test = test_idx[::-1].copy()
    results = {}
    for name, spec in registry.items():
        cell_seed = derive_seed(master_seed, name, seed_index, fold)
        clear_extractor_memo()
        original = run_cell(spec, X, y, train_idx, test_idx, cell_seed, class_labels)
        clear_extractor_memo()
        permuted = run_cell(spec, X, y, train_idx, permuted_test, cell_seed, class_labels)
        results[name] = {
            "checksum": original["checksum"],
            "checksum_permuted": permuted["checksum"],
            "match": original["checksum"] == permuted["checksum"],
        }
    return results
