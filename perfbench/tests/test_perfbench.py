"""Tests of the benchmark itself: smoke runs, tracing, reference, contract.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke runs use ``--size smoke`` (96 records, two folds, one scoring
pass) and take about four minutes in total on two cores.
"""
from __future__ import annotations

import copy
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spantrace import Tracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = (
    "qsim.gate_calls", "circuits.gatelist_calls", "qmodels.feature_evals",
    "optimize.restarts", "optimize.loss_evals", "classical.logreg_fits",
    "classical.logreg_iters", "evalharness.cells",
)


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """One smoke run in a session of its own, which it must leave empty."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        stdout, stderr = proc.communicate(timeout=300)
    assert _session_processes(proc.pid) == []
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def _session_processes(sid: int) -> list[str]:
    """Processes, zombies included, left in session ``sid``."""
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # ended while listed
            continue
        if int(text[text.rindex(")") + 2 :].split()[3]) == sid:
            left.append(text)
    return left


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


# ``qcb`` with every decision_tree cell failing, as a fault in a model would
FAILING_QCB = """
import sys
from qcb import cli
from qcb.evalharness import runner

run_cell = runner.run_cell


def failing_run_cell(spec, *args):
    if spec.name == "decision_tree":
        raise RuntimeError("injected fault")
    return run_cell(spec, *args)


runner.run_cell = failing_run_cell
sys.exit(cli.main(sys.argv[1:]))
"""


def test_failed_cells_are_counted_in_a_printed_result(tmp_path, monkeypatch, capsys):
    launcher = tmp_path / "failing_qcb.py"
    launcher.write_text(FAILING_QCB)
    run_child = run._run_child

    def with_failing_qcb(argv, accepted=(0,)):
        if argv[1:4] == ["-m", "qcb.cli", "run"]:
            argv = [argv[0], str(launcher), *argv[3:]]
        return run_child(argv, accepted)

    monkeypatch.setattr(run, "_run_child", with_failing_qcb)
    code = run.main(["--workload", "baselines_cv", "--seed", "7", "--seconds", "1", "--size", "smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == 4  # decision_tree, 2 seed rounds x 2 folds
    assert set(result["metrics"]) == _names("end_to_end")


def _digests(proc: subprocess.CompletedProcess) -> list[str]:
    return [line for line in proc.stdout.splitlines() if "_sha256 " in line]


def test_traced_counts_and_digests_repeat_exactly():
    runs = [_bench("registry_cv", 1), _bench("registry_cv", 1)]
    assert len(_digests(runs[0])) == 2 and _digests(runs[0]) == _digests(runs[1])
    first, second = (_result(proc) for proc in runs)
    assert set(first["metrics"]) == _names("per_layer")
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["optimize.loss_evals"]["value"] > 0
    assert first["metrics"]["evalharness.cells"]["value"] == 34


def _stripped_sha(out_dir: Path) -> str:
    from qcb.evalharness import strip_timing

    report = json.loads((out_dir / "report.json").read_text())
    return hashlib.sha256(json.dumps(strip_timing(report), sort_keys=True).encode()).hexdigest()


def test_parallel_and_serial_reports_match(tmp_path):
    env = run._env()
    qcb = [sys.executable, "-m", "qcb.cli"]
    data = tmp_path / "data.csv"
    subprocess.run([*qcb, "synth", "--units", "12", "--years", "8", "--seed", "3", "--out", str(data)],
                   check=True, env=env, capture_output=True)
    digests = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        subprocess.run(
            [*qcb, "run", "--data", str(data), "--models", "vqc_4q2l,qkernel_svm,random_forest,majority_class",
             "--folds", "2", "--seeds", "1", "--workers", str(workers), "--out-dir", str(out),
             "--report-format", "json", "--quiet"],
            check=True, env=env, capture_output=True, timeout=300,
        )
        digests.append(_stripped_sha(out))
    assert digests[0] == digests[1]


BASELINE_MODELS = ("random_forest", "svm_rbf", "logistic_regression", "decision_tree", "majority_class")
MASTER_SEED = 5


@pytest.fixture(scope="module")
def cv_run(tmp_path_factory):
    """A small serial ``qcb run`` report, its labels and set-up style first-cell fits."""
    from qcb import cli
    from qcb.evalharness import default_registry, stratified_folds
    from qcb.evalharness.runner import derive_seed

    work = tmp_path_factory.mktemp("cv")
    data = work / "data.csv"
    assert cli.main(["synth", "--units", "12", "--years", "8", "--seed", "3", "--out", str(data)]) == 0
    assert cli.main(["run", "--data", str(data), "--models", ",".join(BASELINE_MODELS), "--folds", "2",
                     "--seeds", "1", "--master-seed", str(MASTER_SEED), "--workers", "1",
                     "--out-dir", str(work), "--report-format", "json", "--quiet"]) == 0
    dataset = run._prepare(data)
    train = stratified_folds(dataset.y, 2, derive_seed(MASTER_SEED, "folds", 0)) != 0
    fitted = {
        name: (default_registry()[name].build(derive_seed(MASTER_SEED, name, 0, 0))
               .fit(dataset.X[train], dataset.y[train]), 0)
        for name in ("decision_tree", "majority_class")
    }
    report = json.loads((work / "report.json").read_text())
    return report, checks.severity_labels(data), fitted


def _fail_cell(report: dict, name: str, index: int) -> None:
    cell = report["models"][name]["cells"][index]
    report["models"][name]["cells"][index] = {
        key: cell[key] for key in ("seed_index", "seed", "fold")
    } | {"error": "RuntimeError: injected fault"}
    report["failures_total"] += 1


def test_cv_report_check_catches_corrupted_reports(cv_run):
    report, labels, _ = cv_run
    assert checks.check_cv_report(report, labels, 2) == []

    bad = copy.deepcopy(report)
    bad["models"]["majority_class"]["cells"][1]["accuracy"] += 0.01
    assert any("majority_class seed 0 fold" in p for p in checks.check_cv_report(bad, labels, 2))

    bad = copy.deepcopy(report)
    anchor = bad["models"]["majority_class"]["metrics"]["accuracy"]["mean"]
    bad["models"]["svm_rbf"]["metrics"]["accuracy"]["mean"] = anchor + 0.1
    assert any(p.startswith("svm_rbf: accuracy") for p in checks.check_cv_report(bad, labels, 2))

    flipped = labels.copy()
    flipped[0] = "Low" if labels[0] != "Low" else "High"
    assert any("class counts" in p for p in checks.check_cv_report(report, flipped, 2))


def test_cv_report_check_counts_failed_cells_without_crashing(cv_run):
    report, labels, _ = cv_run
    bad = copy.deepcopy(report)
    for index in range(2):
        _fail_cell(bad, "majority_class", index)
        _fail_cell(bad, "svm_rbf", index)
    bad["models"]["majority_class"]["metrics"] = bad["models"]["svm_rbf"]["metrics"] = None
    assert checks.check_cv_report(bad, labels, 2) == ["4 CV cells failed"]


def test_first_cell_check_catches_a_different_fit(cv_run):
    report, _, fitted = cv_run
    assert checks.check_first_cells(report, fitted) == []
    first = next(i for i, c in enumerate(report["models"]["decision_tree"]["cells"])
                 if c["seed_index"] == 0 and c["fold"] == 0)
    bad = copy.deepcopy(report)
    bad["models"]["decision_tree"]["cells"][first]["checksum"] = "0" * 64
    assert checks.check_first_cells(bad, fitted) == [
        "decision_tree: set-up fit differs from the report's first cell"
    ]
    bad = copy.deepcopy(report)
    _fail_cell(bad, "decision_tree", first)  # counted by check_cv_report instead
    assert checks.check_first_cells(bad, fitted) == []


def test_single_vs_batch_check_catches_a_differing_label():
    singles = {"m": {0: "Low", 1: "High"}}
    assert checks.check_single_vs_batch(singles, {"m": np.array(["Low", "High"])}) == []
    assert checks.check_single_vs_batch(singles, {"m": np.array(["Low", "Low"])}) == [
        "m: 1 single-record predictions differ from batch"
    ]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("baselines_cv", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_closed_forms():
    x = np.array([[0.3], [1.1], [2.9]])
    # one qubit, zero trainable angles: <Z> = cos(x)
    np.testing.assert_allclose(reference.vqc_features(x, np.zeros(1), (), 1)[:, 0], np.cos(x[:, 0]))
    # one-feature kernel: |<phi(a)|phi(b)>|**2 = cos**2(a - b)
    K = reference.fidelity_kernel(x, x)
    np.testing.assert_allclose(K, np.cos(x - x.T) ** 2, atol=1e-14)


def test_reference_matches_qcb_on_random_circuits():
    from qcb import qmodels
    from qcb.circuits import CircuitConfig, CircuitFamily, build_correlation_graph, build_cost_hamiltonian

    rng = np.random.default_rng(7)
    for n, layers in ((4, 2), (6, 3)):
        X = rng.uniform(0.0, np.pi, (30, n))
        graph = build_correlation_graph(X, threshold=0.05)
        config = CircuitConfig(CircuitFamily.VQC, n, layers, graph)
        theta = rng.uniform(0.0, 2 * np.pi, n * layers)
        np.testing.assert_allclose(
            qmodels.vqc_features(config, theta, X[:3]),
            reference.vqc_features(X[:3], theta, graph.pairs, layers), atol=1e-10,
        )
        qconfig = CircuitConfig(CircuitFamily.QAOA, n, layers, graph)
        h = build_cost_hamiltonian(graph, X.mean(axis=0))
        gamma, beta = rng.uniform(0, 1, n * layers), rng.uniform(0, 2 * np.pi, n * layers)
        np.testing.assert_allclose(
            qmodels.qaoa_features(qconfig, h, gamma, beta, X[:3]),
            reference.qaoa_features(X[:3], gamma, beta, h.zz_terms, [q for q, _ in h.z_terms], layers),
            atol=1e-10,
        )
        np.testing.assert_allclose(
            qmodels.quantum_kernel_matrix(X[:3], X[3:6]), reference.fidelity_kernel(X[:3], X[3:6]),
            atol=1e-10,
        )


def test_layer_metrics_self_time_and_busy_ratio():
    tracer = Tracer()
    tracer.spans = [
        ["qmodels.train", 0.0, 10.0, -1, 1],
        ["optimize.minimize", 1.0, 5.0, 0, 1],
        ["qmodels.vqc_features", 1.5, 2.5, 1, 1],
        ["classical.logreg_fit", 3.0, 4.0, 1, 1],
        ["optimize.minimize", 6.0, 9.0, 0, 1],
        ["evalharness.cell", 0.0, 4.0, -1, 2],
        ["evalharness.cell", 2.0, 6.0, -1, 3],
    ]
    tracer.counters.update({"optimize.loss_evals": 7})
    metrics = layer_metrics(tracer, wall_s=8.0, workers=2)
    assert metrics["optimize.self_s"] == pytest.approx(2.0 + 3.0)
    assert metrics["optimize.restarts"] == 1
    assert metrics["optimize.loss_evals"] == 7
    assert metrics["evalharness.cell_s"] == pytest.approx(8.0)
    assert metrics["evalharness.serial_s"] == pytest.approx(2.0)
    assert metrics["evalharness.pool_busy_ratio"] == pytest.approx(0.5)
    assert set(metrics) >= {
        n for n in _names("per_layer") if not n.startswith(("registry.", "trace."))
    }
