"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end criteria
synthesize a dataset through the CLI, cross-validate the full 17-model
registry twice (once for the determinism check), and audit every model for
training-fold leakage, so this module dominates the suite's runtime.
"""
import json
import os
from contextlib import contextmanager
from functools import reduce
from time import perf_counter

import mpmath as mp
import numpy as np
import pytest

from qcb import cli, qsim
from qcb.circuits import (
    CircuitConfig,
    CircuitFamily,
    build_correlation_graph,
    expressibility,
    param_count,
    spearman,
)
from qcb.data import (
    SEVERITY_LEVELS,
    SeverityInputs,
    build_dataset,
    select_features,
    severity_label,
    synthesize,
)
from qcb.evalharness import (
    audit_leakage,
    confidence_interval,
    load_report,
    paired_ttest,
    select_models,
    strip_timing,
)
from qcb.evalharness.cv import stratified_folds
from qcb.qmodels import (
    _fit_scale_chain,
    qaoa_features,
    quantum_kernel_matrix,
    vqc_features,
)
from qcb.circuits import build_cost_hamiltonian

from oracles import (
    dense_simulate,
    random_circuit,
    rank_then_pearson,
    states_match_up_to_phase,
    zero_state,
)

mp.mp.dps = 30

WORKERS = str(max(1, min(os.cpu_count() or 1, 4)))


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {label}: PASS")


@pytest.fixture(scope="module")
def synthetic_dataset():
    return build_dataset(synthesize(seed=0), provenance="synthetic")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    data = base / "synthetic.csv"
    assert cli.main(["synth", "--seed", "0", "--out", str(data)]) == 0
    out_dir = base / "run1"
    started = perf_counter()
    code = cli.main(
        [
            "run",
            "--data", str(data),
            "--models", "all",
            "--folds", "5",
            "--seeds", "5",
            "--master-seed", "0",
            "--out-dir", str(out_dir),
            "--report-format", "both",
            "--workers", WORKERS,
            "--quiet",
        ]
    )
    elapsed = perf_counter() - started
    assert code == 0
    return {
        "base": base,
        "data": data,
        "out_dir": out_dir,
        "report": load_report(out_dir / "report.json"),
        "elapsed": elapsed,
    }


def test_01_simulator_matches_dense_oracle():
    with criterion(1, "simulator vs dense matrix-chain oracle"):
        rng = np.random.default_rng(2024)
        started = perf_counter()
        for _ in range(200):
            depth = int(rng.integers(1, 11))
            gates = random_circuit(rng, 3, depth)
            ours = reduce(qsim.apply_gate_amplitudes, gates, zero_state(3))
            dense = dense_simulate(gates, 3)
            assert states_match_up_to_phase(ours, dense, atol=1e-10)
        assert perf_counter() - started < 5.0


def test_02_analytic_closed_forms():
    with criterion(2, "single-qubit cos(x) feature and cos^2 kernel"):
        rng = np.random.default_rng(7)
        config = CircuitConfig(CircuitFamily.VQC, 1, 1)
        xs = rng.uniform(0.0, 2.0 * np.pi, size=100)
        features = vqc_features(config, [0.0], xs[:, None])
        assert np.allclose(features[:, 0], np.cos(xs), atol=1e-10)
        pairs = rng.uniform(0.0, np.pi, size=(100, 2))
        kernel = quantum_kernel_matrix(pairs[:, :1], pairs[:, 1:])
        expected = np.cos(pairs[:, 0] - pairs[:, 1]) ** 2
        assert np.allclose(np.diag(kernel), expected, atol=1e-10)


def test_03_kernel_properties(synthetic_dataset):
    with criterion(3, "kernel symmetry, unit diagonal, PSD"):
        selected = select_features(synthetic_dataset, k=10)
        _, angles = _fit_scale_chain(selected.X[:20], 4)
        kernel = quantum_kernel_matrix(angles, angles)
        assert kernel.shape == (20, 20)
        assert np.allclose(kernel, kernel.T, atol=1e-12)
        assert np.allclose(np.diag(kernel), 1.0, atol=1e-10)
        assert np.min(np.linalg.eigvalsh((kernel + kernel.T) / 2)) >= -1e-8


def test_04_parameter_counts():
    with criterion(4, "trainable parameter counts"):
        assert param_count(CircuitConfig(CircuitFamily.VQC, 4, 2)) == 8
        assert param_count(CircuitConfig(CircuitFamily.VQC, 6, 3)) == 18
        assert param_count(CircuitConfig(CircuitFamily.QAOA, 4, 2)) == 16
        assert param_count(CircuitConfig(CircuitFamily.QAOA, 6, 3)) == 36


def test_05_qaoa_identity_case(synthetic_dataset):
    with criterion(5, "zero-angle cost/mixer features are exactly [0..0, 1..1]"):
        selected = select_features(synthetic_dataset, k=10)
        for n_qubits, layers in ((4, 2), (6, 3)):
            chain, angles = _fit_scale_chain(selected.X, n_qubits)
            graph = build_correlation_graph(angles)
            h = build_cost_hamiltonian(graph, angles.mean(axis=0))
            config = CircuitConfig(CircuitFamily.QAOA, n_qubits, layers, graph)
            zeros = np.zeros(n_qubits * layers)
            features = qaoa_features(config, h, zeros, zeros, angles)
            assert features.shape == (len(angles), 2 * n_qubits)
            assert np.all(features[:, :n_qubits] == 0.0)
            assert np.all(features[:, n_qubits:] == 1.0)


def test_06_severity_grid():
    with criterion(6, "severity tiers on the threshold grid (strict bounds)"):
        eps = 1e-9
        ratios = [0.0, 0.05 - eps, 0.05 + eps, 0.15 - eps, 0.15 + eps, 0.3 - eps, 0.3 + eps, 1.0]
        cases = [0.0, 4999.0, 5000.0, 5001.0, 14999.0, 15000.0, 15001.0, 29999.0, 30000.0, 30001.0]

        def reference_rule(r, c):
            if r > 0.3 or c > 30000:
                return "Critical"
            if r > 0.15 or c > 15000:
                return "High"
            if r > 0.05 or c > 5000:
                return "Medium"
            return "Low"

        for r in ratios:
            for c in cases:
                assert severity_label(SeverityInputs(r, c)) == reference_rule(r, c), (r, c)
        # boundary semantics: exact threshold values do not trigger the tier
        assert severity_label(SeverityInputs(0.3, 30000.0)) == "High"
        assert severity_label(SeverityInputs(0.15, 15000.0)) == "Medium"
        assert severity_label(SeverityInputs(0.05, 5000.0)) == "Low"


def test_07_spearman_and_pair_set(synthetic_dataset):
    with criterion(7, "rank correlation oracle and threshold pair scan"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(3, 60))
            x = rng.integers(0, 8, size=n).astype(float)  # ties included
            y = rng.integers(0, 8, size=n).astype(float)
            assert abs(spearman(x, y) - rank_then_pearson(x, y)) < 1e-12
        graph = build_correlation_graph(synthetic_dataset.X)
        brute = {
            (i, j)
            for i in range(graph.n_features)
            for j in range(i + 1, graph.n_features)
            if abs(graph.rho[i, j]) > graph.threshold
        }
        assert {(i, j) for i, j, _ in graph.pairs} == brute


def test_08_statistics_oracle():
    with criterion(8, "t-test, confidence interval, effect size oracles"):
        mean, half = confidence_interval(np.array([0.8, 0.9]), level=0.95)
        assert abs(half - 12.706204736174704 * np.std([0.8, 0.9], ddof=1) / np.sqrt(2)) < 1e-3
        result = paired_ttest(np.array([0.5, 1.5, 1.0, 2.0, 1.0]), np.zeros(5))
        assert abs(result.t - 4.706787243316416) < 1e-9
        assert abs(result.p - 0.0092616967595144252) < 1e-6
        assert abs(result.cohens_d - 2.10493924633687) < 1e-9
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.4, size=n) + rng.uniform(-0.2, 0.2)
            res = paired_ttest(a, b)
            df = n - 1
            x = df / (df + res.t**2)
            oracle_p = float(mp.betainc(df / 2, 0.5, 0, x, regularized=True))
            assert abs(res.p - oracle_p) < 1e-6
        diff = np.array([1.0, 2.0, 3.0])
        res = paired_ttest(diff, np.zeros(3))
        assert abs(res.cohens_d - diff.mean() / diff.std(ddof=1)) < 1e-12


def test_09_end_to_end_benchmark(full_run):
    with criterion(9, "desk-scale benchmark run"):
        report = full_run["report"]
        assert full_run["elapsed"] < 600.0, f"run took {full_run['elapsed']:.0f}s"
        assert report["failures_total"] == 0
        assert report["dataset"]["n_samples"] == 288

        # (a) classical baselines clear the majority-class anchor by >= 20 pts
        dummy = report["models"]["majority_class"]["metrics"]["accuracy"]["mean"]
        assert dummy <= 0.5
        for name in ("random_forest", "svm_rbf", "logistic_regression", "decision_tree"):
            model_acc = report["models"][name]["metrics"]["accuracy"]["mean"]
            assert model_acc >= dummy + 0.20, (name, model_acc, dummy)

        # (b) both cost/mixer configurations trained on all 25 cells
        for name in ("qaoa_4q2l", "qaoa_6q3l"):
            entry = report["models"][name]
            assert entry["failures"] == 0
            assert len(entry["cells"]) == 25
            assert all(cell["error"] is None for cell in entry["cells"])

        # (c) stratification invariant for every seed round
        data = build_dataset(synthesize(seed=0), provenance="synthetic")
        y = data.y
        class_counts = {label: int(np.sum(y == label)) for label in SEVERITY_LEVELS}
        for fold_seed in report["plan"]["fold_seeds"]:
            folds = stratified_folds(y, 5, fold_seed)
            seen = np.zeros(len(y), dtype=int)
            for fold in range(5):
                members = y[folds == fold]
                seen[folds == fold] += 1
                for label in SEVERITY_LEVELS:
                    share = class_counts[label] / 5
                    got = int(np.sum(members == label))
                    assert abs(got - share) <= 1
            assert np.all(seen == 1)

        # (d) re-running with the same master seed reproduces every
        # non-timing field byte for byte
        out2 = full_run["base"] / "run2"
        code = cli.main(
            [
                "run",
                "--data", str(full_run["data"]),
                "--models", "all",
                "--folds", "5",
                "--seeds", "5",
                "--master-seed", "0",
                "--out-dir", str(out2),
                "--report-format", "json",
                "--workers", WORKERS,
                "--quiet",
            ]
        )
        assert code == 0
        second = load_report(out2 / "report.json")
        first_bytes = json.dumps(strip_timing(report), sort_keys=True).encode()
        second_bytes = json.dumps(strip_timing(second), sort_keys=True).encode()
        assert first_bytes == second_bytes


def test_10_expressibility_trend():
    with criterion(10, "expressibility grows with layer count"):
        scores = [
            expressibility(CircuitConfig(CircuitFamily.VQC, 4, layers), 5000, seed=0).score
            for layers in (1, 2, 3)
        ]
        assert scores[0] < scores[1] < scores[2], scores


def test_11_no_leakage_audit(synthetic_dataset):
    with criterion(11, "fitted state untouched by test-row permutation (17 models)"):
        selected = select_features(synthetic_dataset, k=10)
        registry = select_models("all")
        assert len(registry) == 17
        results = audit_leakage(selected, registry, master_seed=0)
        assert len(results) == 17
        mismatched = [name for name, entry in results.items() if not entry["match"]]
        assert not mismatched, mismatched


def test_12_hybrid_structure_conformance(full_run):
    with criterion(12, "hybrid pipelines expose 6 features / 4 components"):
        report = full_run["report"]
        for name in ("q_rf", "q_svm", "q_logreg", "q_dectree"):
            metadata = report["models"][name]["metadata"]
            assert metadata["intermediate_features"] == 6, name
        for name in ("pca_vqc", "pca_qaoa", "pca_qkernel"):
            metadata = report["models"][name]["metadata"]
            assert metadata["pca_components"] == 4, name
