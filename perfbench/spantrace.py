"""In-memory span tracing of qcb, installed from outside the package.

``install`` replaces module attributes and class methods of qcb with
wrappers that record a span (name, start, end, parent) around each call and
bump a few exact counters.  Spans stay in memory until the benchmark writes
them out at the end of the run.  Nothing inside ``src/`` is edited: a call
is traced only if it goes through a wrapped attribute, so a function qcb
imports by name is wrapped where it is looked up.

qcb's parallel runner forks its pool workers, which inherit the wrappers.
Each worker ships the spans of one cell back inside the cell's outcome and
the parent merges them, so a traced parallel run sees every cell.
"""
from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict


class Tracer:
    """Span store for one process.  Parent links are indices into ``spans``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pid]
        self.counters: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0  # the traced command's own wall clock, if it set one
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, os.getpid()])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def take(self) -> dict:
        """Detach everything recorded so far (a worker ships this per cell)."""
        taken = {"spans": self.spans, "counters": dict(self.counters)}
        self.spans, self.counters, self._stack = [], defaultdict(float), []
        return taken

    def merge(self, shipped: dict) -> None:
        offset = len(self.spans)
        for name, start, end, parent, pid in shipped["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, pid])
        for name, value in shipped["counters"].items():
            self.counters[name] += value

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        columns = {
            "names": names,
            "name": [code[s[0]] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "pid": [s[4] for s in self.spans],
            "counters": dict(self.counters),
            "wall_s": self.wall_s,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(columns, handle)

    @classmethod
    def load(cls, path) -> "Tracer":
        with open(path, encoding="utf-8") as handle:
            columns = json.load(handle)
        tracer = cls()
        names = columns["names"]
        tracer.spans = [
            [names[n], s, e, p, pid]
            for n, s, e, p, pid in zip(
                columns["name"], columns["start"], columns["end"], columns["parent"], columns["pid"]
            )
        ]
        tracer.counters.update(columns["counters"])
        tracer.wall_s = columns["wall_s"]
        return tracer


def _wrap(owner, attr: str, name: str, tracer: Tracer, after=None) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(owner, attr, traced)


def _count_loss_evals(tracer, args, result):
    tracer.count("optimize.loss_evals", result.n_evals)


def _count_head_iters(tracer, args, result):
    tracer.count("classical.logreg_iters", args[0].n_iter_)


def install(tracer: Tracer) -> None:
    """Wrap qcb's public entry points of every layer; see the README table."""
    from qcb import circuits, cli, classical, qmodels, qsim
    from qcb.evalharness import runner

    plan = [
        (qsim, "apply_gate_amplitudes", "qsim.gate"),
        (qsim, "ry_rows", "qsim.gate"),
        (qsim, "rz_rows", "qsim.gate"),
        (qsim, "zz_phase_rows", "qsim.gate"),
        (qsim, "z_expectations", "qsim.readout"),
        (qsim, "x_expectations", "qsim.readout"),
        (qsim, "cross_overlap_sq", "qsim.overlap"),
        (circuits, "vqc_trainable_gates", "circuits.gatelist"),
        (qmodels, "build_vqc_circuit", "circuits.gatelist"),
        (qmodels, "build_qaoa_circuit", "circuits.gatelist"),
        (qmodels, "build_feature_map", "circuits.gatelist"),
        (qmodels, "build_correlation_graph", "circuits.correlation"),
        (qmodels, "vqc_features", "qmodels.vqc_features"),
        (qmodels, "qaoa_features", "qmodels.qaoa_features"),
        (qmodels, "feature_map_states", "qmodels.feature_map"),
        (qmodels.VqcClassifier, "fit", "qmodels.train"),
        (qmodels.QaoaClassifier, "fit", "qmodels.train"),
        (classical.RandomForestClassifier, "fit", "classical.forest_fit"),
        (classical.RandomForestClassifier, "predict", "classical.forest_predict"),
        (classical.SvmClassifier, "fit", "classical.svm_fit"),
        (classical.DecisionTreeClassifier, "fit", "classical.tree_fit"),
        (cli, "ingest_csv", "data.ingest"),
        (cli, "select_features", "data.select"),
        (cli, "emit_report", "evalharness.report_emit"),
        (runner, "run_cell", "evalharness.cell"),
    ]
    for owner, attr, name in plan:
        _wrap(owner, attr, name, tracer)
    _wrap(qmodels, "minimize", "optimize.minimize", tracer, after=_count_loss_evals)
    _wrap(
        classical.LogisticRegressionClassifier,
        "fit",
        "classical.logreg_fit",
        tracer,
        after=_count_head_iters,
    )
    _ship_worker_spans(runner, tracer)


def _ship_worker_spans(runner, tracer: Tracer) -> None:
    """Carry each pool worker's spans home inside the cell outcome.

    The pool pickles ``_worker_run`` by its import path, so the wrapper keeps
    that path and a forked worker resolves it to the wrapper it inherited.
    """
    worker_run = runner._worker_run
    run_parallel = runner._run_cells_parallel

    @functools.wraps(worker_run)
    def traced_worker_run(task):
        tracer.take()  # drop what the fork copied from the parent
        result = worker_run(task)
        outcome = result[3]
        if outcome is not None:
            outcome["bench_trace"] = tracer.take()
        return result

    @functools.wraps(run_parallel)
    def traced_run_parallel(*args, **kwargs):
        results = run_parallel(*args, **kwargs)
        for result in results:
            if result[3] is not None:
                tracer.merge(result[3].pop("bench_trace"))
        return results

    runner._worker_run = traced_worker_run
    runner._run_cells_parallel = traced_run_parallel


# ---------------------------------------------------------------------------
# per-layer metrics from a span store


def _spans_by_name(spans):
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span[0]].append(index)
    return by_name


def _outermost(spans, indices, family_prefixes):
    """Spans of one family that have no ancestor of the same family."""
    keep = []
    for index in indices:
        parent = spans[index][3]
        nested = False
        while parent >= 0:
            if spans[parent][0].startswith(family_prefixes):
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            keep.append(index)
    return keep


def _duration(spans, indices) -> float:
    return float(sum(spans[i][2] - spans[i][1] for i in indices))


def _union_seconds(intervals) -> float:
    """Wall time during which at least one interval is open."""
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_metrics(tracer: Tracer, wall_s: float, workers: int) -> dict[str, float]:
    """Aggregate the span store into the per-layer metrics of BENCHMARK.json.

    ``wall_s`` is the traced phase's wall clock and ``workers`` the process
    count that ran cells in it.
    """
    spans = tracer.spans
    by_name = _spans_by_name(spans)
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)

    def total(name, outermost_of=None):
        indices = by_name.get(name, [])
        if outermost_of:
            indices = _outermost(spans, indices, outermost_of)
        return _duration(spans, indices), len(indices)

    gate_s, gate_calls = total("qsim.gate")
    gatelist_s, gatelist_calls = total("circuits.gatelist", ("circuits.gatelist",))
    vqc_s, vqc_calls = total("qmodels.vqc_features")
    qaoa_s, qaoa_calls = total("qmodels.qaoa_features")
    minimize = by_name.get("optimize.minimize", [])
    optimizer_self = sum(
        spans[i][2] - spans[i][1] - _duration(spans, children[i]) for i in minimize
    )
    restarts = 0
    for index in by_name.get("qmodels.train", []):
        starts = sum(1 for c in children[index] if spans[c][0] == "optimize.minimize")
        restarts += max(0, starts - 1)
    logreg_s, logreg_fits = total("classical.logreg_fit")
    cells = by_name.get("evalharness.cell", [])
    cell_s = _duration(spans, cells)
    busy_wall = _union_seconds([(spans[i][1], spans[i][2]) for i in cells])
    return {
        "qsim.gate_calls": gate_calls,
        "qsim.gate_s": gate_s,
        "qsim.readout_s": total("qsim.readout")[0],
        "qsim.overlap_s": total("qsim.overlap")[0],
        "circuits.gatelist_calls": gatelist_calls,
        "circuits.gatelist_s": gatelist_s,
        "circuits.correlation_s": total("circuits.correlation")[0],
        "qmodels.feature_evals": vqc_calls + qaoa_calls,
        "qmodels.vqc_features_s": vqc_s,
        "qmodels.qaoa_features_s": qaoa_s,
        "qmodels.feature_map_s": total("qmodels.feature_map", ("qmodels.feature_map",))[0],
        "optimize.restarts": restarts,
        "optimize.loss_evals": int(tracer.counters.get("optimize.loss_evals", 0)),
        "optimize.self_s": float(optimizer_self),
        "classical.logreg_fits": logreg_fits,
        "classical.logreg_iters": int(tracer.counters.get("classical.logreg_iters", 0)),
        "classical.logreg_fit_s": logreg_s,
        "classical.forest_fit_s": total("classical.forest_fit")[0],
        "classical.svm_fit_s": total("classical.svm_fit")[0],
        "classical.tree_fit_s": total(
            "classical.tree_fit", ("classical.forest_fit", "classical.tree_fit")
        )[0],
        "classical.forest_predict_s": total("classical.forest_predict")[0],
        "data.ingest_s": total("data.ingest")[0],
        "data.select_s": total("data.select")[0],
        "evalharness.cells": len(cells),
        "evalharness.cell_s": cell_s,
        "evalharness.serial_s": max(0.0, wall_s - busy_wall) if cells else 0.0,
        "evalharness.report_emit_s": total("evalharness.report_emit")[0],
        "evalharness.pool_busy_ratio": cell_s / (workers * wall_s) if cells else 0.0,
    }

