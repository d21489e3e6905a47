"""qcb benchmark: cross-validation passes plus edge-style scoring.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads:

* ``registry_cv``  -- ``qcb run --models all`` on the 288-record synthetic
  set, one seed round of 2-fold stratified CV, one worker per core.
* ``baselines_cv`` -- ``qcb run`` of the seven models that train no
  circuit, 5 seed rounds x 5 folds, one worker.

Each run has a set-up and two timed phases.  Set-up synthesizes the data
and fits the workload's models on the CV's first training fold (the same
fits as the report's first cells).  The CV phase is one ``qcb run``
process, driven as a user drives it.  The scoring phase calls the fitted
models' ``predict`` on held-out and foreign records, one record per call as
a sensor node would and in one batch per model.  It runs a fixed number of
passes that takes about ``--seconds`` seconds on the reference machine,
half of them before the CV phase and half after it.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` qcb's layers are wrapped in spans
and the per-layer metrics are printed instead.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(HERE), str(SRC)]
# One BLAS thread per process, set before numpy loads and inherited by every
# qcb process and pool worker, so that two pool workers do not run four BLAS
# threads on two cores.  On a baselines_cv CV pass it cost no time.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spantrace import Tracer, install, layer_metrics  # noqa: E402

REGISTRY = (
    "vqc_4q2l", "vqc_6q3l", "qaoa_4q2l", "qaoa_6q3l", "qkernel_svm",
    "random_forest", "svm_rbf", "logistic_regression", "decision_tree",
    "q_rf", "q_svm", "q_logreg", "q_dectree",
    "pca_vqc", "pca_qaoa", "pca_qkernel", "majority_class",
)
BASELINES = (
    "random_forest", "svm_rbf", "logistic_regression", "decision_tree",
    "qkernel_svm", "pca_qkernel", "majority_class",
)
SELECTED_FEATURES = 10  # as ``qcb run`` selects
# The CV and training set is one synthetic set: a new set per seed changes
# tree sizes and head iterations, and so the work done, by up to a third.
# --seed varies qcb's master seed (fold shuffles, model initialisation) and
# the foreign records that are scored.
DATA_SEED = 0
FOREIGN_SEED_OFFSET = 1000
SYNTH_REPEATS = 3
BATCHES_PER_PASS = 2
MAX_HELD_OUT = 72  # scored held-out rows; as many foreign rows join them
REFERENCE_ROWS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[str, ...]
    folds: int
    rounds: int
    parallel: bool  # one qcb worker per core, else one worker
    pass_seconds: float  # one scoring pass on the reference machine (README)


WORKLOADS = {
    "registry_cv": Workload("registry_cv", REGISTRY, folds=2, rounds=1, parallel=True, pass_seconds=2.7),
    "baselines_cv": Workload("baselines_cv", BASELINES, folds=5, rounds=5, parallel=False, pass_seconds=0.5),
}


@dataclass(frozen=True)
class Size:
    units: int
    years: int
    max_folds: int
    max_rounds: int
    max_passes: int


SIZES = {
    "full": Size(units=18, years=16, max_folds=5, max_rounds=5, max_passes=1_000),
    # the benchmark's own tests: 96 records, 2 folds, one scoring pass
    "smoke": Size(units=12, years=8, max_folds=2, max_rounds=2, max_passes=1),
}


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str], accepted=(0,)) -> tuple[float, int]:
    """Run one process to its end; return (wall seconds, peak RSS KiB).

    An exit code outside ``accepted`` raises.
    """
    launcher = [sys.executable, str(HERE / "timed_child.py"), *argv]
    done = subprocess.run(launcher, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, check=True)
    measured = json.loads(done.stdout.strip().splitlines()[-1])
    if measured["returncode"] not in accepted:
        raise RuntimeError(f"{' '.join(argv[1:4])} exited with code {measured['returncode']}")
    return measured["wall_s"], measured["peak_kib"]


# ---------------------------------------------------------------------------
# set-up: data and fitted models


def _synth(size: Size, seed: int, path: Path) -> float:
    argv = [sys.executable, "-m", "qcb.cli", "synth", "--units", str(size.units),
            "--years", str(size.years), "--seed", str(seed), "--out", str(path)]
    return _run_child(argv)[0]


def _prepare(path: Path):
    """Ingest, engineer and select features the way ``qcb run`` does."""
    from qcb.data import build_dataset, ingest_csv, select_features

    dataset = build_dataset(ingest_csv(path))
    return select_features(dataset, k=min(SELECTED_FEATURES, dataset.n_features))


def _fit_one(task) -> bytes:
    """Pool worker: fit one registry model, return it pickled."""
    name, X, y, seed = task
    from qcb.evalharness import default_registry

    return pickle.dumps(default_registry()[name].build(seed).fit(X, y))


def fit_models(names, X, y, master_seed: int) -> dict:
    """Fit each model on (X, y) with the seed its CV cell (round 0, fold 0) uses.

    Fits run in a fork pool of one process per core.  Returns name ->
    (model, pickled size in bytes).  A spawn pool would also start
    multiprocessing's resource tracker, which nothing waits for and which
    outlives this process.
    """
    from qcb.evalharness.runner import derive_seed

    tasks = [(n, X, y, derive_seed(master_seed, n, 0, 0)) for n in names]
    ctx = multiprocessing.get_context("fork")
    pool = ctx.Pool(processes=min(_cores(), len(tasks)))
    try:
        blobs = pool.map(_fit_one, tasks, chunksize=1)
    finally:
        pool.close()
        pool.join()
    return {name: (pickle.loads(blob), len(blob)) for name, blob in zip(names, blobs)}


# ---------------------------------------------------------------------------
# scoring


class Scoreboard:
    """Single-record and batch scoring of one set of fitted models."""

    def __init__(self, models: dict, records: np.ndarray):
        self.models = models
        self.records = records
        self.record_ms: list[float] = []
        self.model_us = {name: [] for name in models}
        self.batch_rows = 0
        self.batch_s = 0.0
        self.singles = {name: {} for name in models}
        self.batches: dict = {}
        self.calls = 0
        self.failed = 0

    def _predict(self, model, X):
        self.calls += 1
        try:
            return model.predict(X)
        except Exception as exc:  # counted as a failed operation, run continues
            self.failed += 1
            print(f"predict failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def score_pass(self) -> None:
        """Every record once, one call per model, then the batch calls."""
        for row in range(len(self.records)):
            X = self.records[row : row + 1]
            record_started = time.perf_counter()
            for name, model in self.models.items():
                started = time.perf_counter()
                label = self._predict(model, X)
                self.model_us[name].append((time.perf_counter() - started) * 1e6)
                if label is not None:
                    self.singles[name][row] = label[0]
            self.record_ms.append((time.perf_counter() - record_started) * 1e3)
        for _ in range(BATCHES_PER_PASS):
            started = time.perf_counter()
            for name, model in self.models.items():
                labels = self._predict(model, self.records)
                if labels is not None:
                    self.batches[name] = labels
            self.batch_s += time.perf_counter() - started
            self.batch_rows += len(self.records)

    def metrics(self) -> dict:
        return {
            "record_p50_ms": float(np.percentile(self.record_ms, 50)),
            "record_p95_ms": float(np.percentile(self.record_ms, 95)),
            "batch_rows_per_s": self.batch_rows / self.batch_s,
        }

    def problems(self) -> list[str]:
        if self.failed:
            return [f"{self.failed} predict calls failed"]
        return checks.check_single_vs_batch(self.singles, self.batches)

    def digest(self) -> str:
        """SHA-256 over batch predictions and fitted-state checksums."""
        from qcb.evalharness.runner import state_checksum

        content = {
            name: {
                "predictions": [str(v) for v in self.batches[name]],
                "state": state_checksum(model.fitted_state()),
            }
            for name, model in self.models.items()
        }
        return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# one run


def _report_digest(report: dict) -> str:
    from qcb.evalharness import strip_timing

    return hashlib.sha256(json.dumps(strip_timing(report), sort_keys=True).encode()).hexdigest()


def _cv_pass(workload: Workload, seed: int, csv_path: Path, work: Path, traced: bool) -> dict:
    """One ``qcb run`` process: wall clock, peak RSS, report and spans.

    A run in which some cells fail still writes its report and exits with
    ``EXIT_PARTIAL``; the failed cells are counted from the report.
    """
    from qcb.cli import EXIT_OK, EXIT_PARTIAL

    workers = _cores() if workload.parallel else 1
    models = "all" if workload.models == REGISTRY else ",".join(workload.models)
    out_dir = work / "report"
    qcb_args = ["run", "--data", str(csv_path), "--models", models, "--folds", str(workload.folds),
                "--seeds", str(workload.rounds), "--master-seed", str(seed), "--workers", str(workers),
                "--out-dir", str(out_dir), "--report-format", "json", "--quiet"]
    spans_path = work / "cv_spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "traced_qcb.py"), str(spans_path), *qcb_args]
    else:
        argv = [sys.executable, "-m", "qcb.cli", *qcb_args]
    wall, peak_kib = _run_child(argv, accepted=(EXIT_OK, EXIT_PARTIAL))
    with open(out_dir / "report.json", encoding="utf-8") as handle:
        report = json.load(handle)
    spans = Tracer.load(spans_path) if traced else None
    return {"wall": wall, "peak_kib": peak_kib, "report": report, "spans": spans, "workers": workers}


def _scoring_records(dataset, held: np.ndarray, foreign_path: Path, seed: int) -> np.ndarray:
    """Held-out rows plus as many foreign rows, cut to the selected columns."""
    from qcb.data import build_dataset, ingest_csv

    foreign = build_dataset(ingest_csv(foreign_path))
    columns = [foreign.feature_names.index(n) for n in dataset.feature_names]
    rng = np.random.default_rng(seed)
    held_rows = dataset.X[held][:MAX_HELD_OUT]
    picked = foreign.X[rng.choice(foreign.n_samples, size=len(held_rows), replace=False)]
    records = np.vstack([held_rows, picked[:, columns]])
    return records[rng.permutation(len(records))]


def run(workload: Workload, size: Size, seed: int, seconds: float, traced: bool) -> dict:
    units = _units("per_layer" if traced else "end_to_end")
    workload = dataclasses.replace(
        workload, folds=min(workload.folds, size.max_folds), rounds=min(workload.rounds, size.max_rounds)
    )
    passes = min(size.max_passes, max(1, round(seconds / workload.pass_seconds)))
    work = OUT / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv_path = work / "data.csv"
    foreign_path = work / "foreign.csv"
    problems: list[str] = []

    # --- set-up: synthesis (median of repeats), feature prep, model fits
    synth_s = statistics.median(_synth(size, DATA_SEED, csv_path) for _ in range(SYNTH_REPEATS))
    prep_started = time.perf_counter()
    _synth(size, seed + FOREIGN_SEED_OFFSET, foreign_path)
    dataset = _prepare(csv_path)
    from qcb.evalharness import stratified_folds
    from qcb.evalharness.runner import derive_seed

    # the CV's own first split (round 0, fold 0), so the fits equal its first cells
    folds = stratified_folds(dataset.y, workload.folds, derive_seed(seed, "folds", 0))
    train, held = folds != 0, folds == 0
    fitted = fit_models(list(workload.models), dataset.X[train], dataset.y[train], seed)
    setup_s = synth_s + (time.perf_counter() - prep_started)
    models = {name: model for name, (model, _) in fitted.items()}
    board = Scoreboard(models, _scoring_records(dataset, held, foreign_path, seed))

    # --- timed phases: scoring, the CV pass, scoring.  Scoring passes are
    # split around the CV pass so that they sample the machine at two times;
    # this VM's speed drifts by up to 1.5x over seconds to minutes (README).
    tracer = Tracer()
    if traced:
        install(tracer)
    before = (passes + 1) // 2
    for _ in range(before):
        board.score_pass()
    cv = _cv_pass(workload, seed, csv_path, work, traced)
    report = cv["report"]
    print(f"report_sha256 {_report_digest(report)}")
    for _ in range(passes - before):
        board.score_pass()
    scoring_spans = tracer.take()  # the checks below also call qcb
    print(f"predictions_sha256 {board.digest()}")

    # --- checks, outside the timed phases
    labels = checks.severity_labels(csv_path)
    if not np.array_equal(labels, dataset.y):
        problems.append("qcb severity labels differ from the rule recomputed from the CSV")
    problems += checks.check_cv_report(report, labels, workload.folds)
    problems += checks.check_first_cells(report, fitted)
    problems += board.problems()
    problems += checks.check_circuits(
        models, board.records[:REFERENCE_ROWS], dataset.X[train][:REFERENCE_ROWS]
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = sum(len(m["cells"]) for m in report["models"].values()) + board.calls
    failed = report["failures_total"] + board.failed

    scored = board.metrics()
    if traced:
        spans = cv["spans"]
        spans.merge(scoring_spans)
        spans.dump(work / "spans.json")
        # qcb's own wall clock, without the span dump that follows it
        values = layer_metrics(spans, spans.wall_s, cv["workers"])
        values["trace.run_s"] = spans.wall_s
        values.update({f"trace.{name}": value for name, value in scored.items()})
        for name in REGISTRY:
            cells = [c for c in report["models"].get(name, {}).get("cells", []) if c["error"] is None]
            values[f"registry.fit_s.{name}"] = (
                statistics.mean(c["fit_seconds"] for c in cells) if cells else 0.0
            )
            us = board.model_us.get(name)
            values[f"registry.predict_us.{name}"] = statistics.median(us) if us else 0.0
    else:
        values = {
            "setup_s": setup_s,
            "run_s": cv["wall"],
            "peak_rss_mib": cv["peak_kib"] / 1024.0,
            **scored,
            "model_kib": sum(size for _, size in fitted.values()) / 1024.0,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'smoke' shrinks the data for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "qcb" / "__init__.py").is_file():
        print(f"qcb sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], SIZES[args.size], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
