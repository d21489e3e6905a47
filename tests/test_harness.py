import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcb
from qcb import cli
from qcb.data import build_dataset, select_features, synthesize
from qcb.errors import UsageError
from qcb.evalharness import (
    CvPlan,
    HoldoutPlan,
    audit_leakage,
    default_registry,
    emit_report,
    load_report,
    run_benchmark,
    select_models,
    strip_timing,
)
from qcb.evalharness.registry import MajorityClassBaseline, ModelSpec
from qcb.evalharness.runner import _pool_size, derive_seed, state_checksum
from qcb.evalharness.cv import stratified_folds


class LowestLabelBaseline(MajorityClassBaseline):
    """Always predicts the lowest training label."""

    def fit(self, X, y):
        super().fit(X, y)
        self.majority_ = self.classes_[0]
        return self


@pytest.fixture(scope="module")
def small_dataset():
    records = synthesize(n_units=12, n_years=10, seed=3)
    return select_features(build_dataset(records, provenance="synthetic"), k=10)


@pytest.fixture(scope="module")
def fast_registry():
    return select_models("decision_tree,logistic_regression,majority_class")


@pytest.fixture(scope="module")
def small_report(small_dataset, fast_registry):
    plan = CvPlan(n_folds=5, seeds=(0, 1))
    return run_benchmark(
        small_dataset, fast_registry, plan, master_seed=7, reference="decision_tree"
    )


class TestRegistry:
    def test_seventeen_models(self):
        registry = default_registry()
        assert len(registry) == 17
        categories = {}
        for spec in registry.values():
            categories[spec.category] = categories.get(spec.category, 0) + 1
        assert categories == {
            "quantum": 5,
            "classical": 4,
            "hybrid_qc": 4,
            "hybrid_cq": 3,
            "baseline": 1,
        }

    def test_registry_param_counts(self):
        registry = default_registry()
        assert registry["vqc_4q2l"].metadata["param_count"] == 8
        assert registry["vqc_6q3l"].metadata["param_count"] == 18
        assert registry["qaoa_4q2l"].metadata["param_count"] == 16
        assert registry["qaoa_6q3l"].metadata["param_count"] == 36

    def test_select_models(self):
        subset = select_models("vqc_4q2l, random_forest")
        assert list(subset) == ["vqc_4q2l", "random_forest"]
        with pytest.raises(UsageError):
            select_models("nonexistent_model")

    def test_builders_produce_fresh_instances(self):
        spec = default_registry()["decision_tree"]
        assert spec.build(0) is not spec.build(0)

    def test_classical_baselines_separate_blobs(self):
        rng = np.random.default_rng(27)
        X = np.vstack([rng.normal((-2.0, 0.0), 0.5, (25, 2)), rng.normal((2.0, 0.0), 0.5, (25, 2))])
        y = np.repeat([0, 1], 25)
        for kind in ("decision_tree", "random_forest", "logistic_regression", "svm_rbf"):
            model = default_registry()[kind].build(3).fit(X, y)
            assert np.mean(model.predict(X) == y) > 0.9


class TestRunBenchmark:
    def test_fold_coverage_per_seed(self, small_dataset, small_report):
        y = small_dataset.y
        for i, fold_seed in enumerate(small_report["plan"]["fold_seeds"]):
            folds = stratified_folds(y, 5, fold_seed)
            covered = np.zeros(len(y), dtype=int)
            for fold in range(5):
                covered[folds == fold] += 1
            assert np.all(covered == 1)

    def test_cell_count(self, small_report):
        for entry in small_report["models"].values():
            assert len(entry["cells"]) == 10  # 2 seeds x 5 folds

    def test_reference_self_comparison(self, small_report):
        ref = small_report["models"]["decision_tree"]
        assert ref["comparison"]["is_reference"]
        assert ref["comparison"]["accuracy_gap_vs_reference"] == 0.0
        assert ref["timing"]["speedup_vs_reference"] == 1.0
        paired = ref["comparison"]["paired_t"]
        assert paired["t"] == 0.0
        assert paired["p"] == 1.0

    def test_majority_baseline_matches_class_prior(self, small_dataset, small_report):
        y = small_dataset.y
        prior = max(np.mean(y == label) for label in np.unique(y))
        measured = small_report["models"]["majority_class"]["metrics"]["accuracy"]["mean"]
        assert abs(measured - prior) < 0.08

    def test_majority_baseline_on_balanced_classes_near_quarter(self):
        from qcb.data import SEVERITY_LEVELS, LabeledDataset

        rng = np.random.default_rng(0)
        n_per = 30
        dataset = LabeledDataset(
            feature_names=[f"f{i}" for i in range(4)],
            X=rng.normal(size=(4 * n_per, 4)),
            y=np.repeat(SEVERITY_LEVELS, n_per),
            provenance="synthetic",
        )
        registry = select_models("majority_class")
        report = run_benchmark(
            dataset, registry, CvPlan(n_folds=5, seeds=(0, 1)),
            reference="majority_class",
        )
        accuracy = report["models"]["majority_class"]["metrics"]["accuracy"]
        assert abs(accuracy["mean"] - 0.25) < 0.05
        assert accuracy["ci95_half_width"] >= 0.0

    def test_deterministic_modulo_timing(self, small_dataset, fast_registry, small_report):
        plan = CvPlan(n_folds=5, seeds=(0, 1))
        again = run_benchmark(
            small_dataset, fast_registry, plan, master_seed=7, reference="decision_tree"
        )
        a = json.dumps(strip_timing(small_report), sort_keys=True)
        b = json.dumps(strip_timing(again), sort_keys=True)
        assert a == b

    def test_master_seed_changes_results(self, small_dataset, fast_registry, small_report):
        plan = CvPlan(n_folds=5, seeds=(0, 1))
        other = run_benchmark(
            small_dataset, fast_registry, plan, master_seed=8, reference="decision_tree"
        )
        assert other["plan"]["fold_seeds"] != small_report["plan"]["fold_seeds"]

    def test_failures_recorded_not_fatal(self, small_dataset):
        def build_broken(seed):
            class Broken:
                def fit(self, X, y):
                    raise RuntimeError("injected failure")

            return Broken()

        registry = {
            "majority_class": default_registry()["majority_class"],
            "broken": ModelSpec("broken", "classical", build_broken, {}),
        }
        plan = CvPlan(n_folds=5, seeds=(0,))
        report = run_benchmark(small_dataset, registry, plan, reference="majority_class")
        assert report["failures_total"] == 5
        assert report["models"]["broken"]["metrics"] is None
        assert all(
            "injected failure" in c["error"] for c in report["models"]["broken"]["cells"]
        )
        assert report["models"]["majority_class"]["failures"] == 0

    def test_deviations_block_present(self, small_report):
        ids = {d["id"] for d in small_report["deviations"]}
        assert {"optimizer_engine", "feature_map_hadamard", "qaoa_sample_encoding"} <= ids


class TestHoldout:
    def test_single_cell_report(self, small_dataset, fast_registry):
        report = run_benchmark(
            small_dataset, fast_registry, HoldoutPlan(test_fraction=0.2), master_seed=5,
            reference="decision_tree",
        )
        assert report["plan"]["mode"] == "holdout"
        assert report["plan"]["n_train"] + report["plan"]["n_test"] == small_dataset.n_samples
        for entry in report["models"].values():
            assert len(entry["cells"]) == 1
            cell = entry["cells"][0]
            assert (cell["seed_index"], cell["seed"], cell["fold"]) == (0, 5, 0)
            assert entry["metrics"]["accuracy"]["ci95_half_width"] is None


class TestParallelRuns:
    @pytest.mark.parametrize(
        "plan", [CvPlan(n_folds=2, seeds=(0,)), HoldoutPlan(test_fraction=0.2)], ids=["cv", "holdout"]
    )
    def test_parallel_equals_serial_for_a_custom_spec(self, small_dataset, plan):
        registry = select_models("decision_tree,logistic_regression")
        registry["majority_class"] = ModelSpec(
            "majority_class", "baseline", lambda seed: LowestLabelBaseline(), {}
        )
        serial, parallel = (
            json.dumps(
                strip_timing(
                    run_benchmark(
                        small_dataset, registry, plan, reference="decision_tree", workers=workers
                    )
                ),
                sort_keys=True,
            )
            for workers in (1, 2)
        )
        assert serial == parallel

    def test_pool_size_bounds(self):
        assert _pool_size(1, 10) == 1
        assert _pool_size(4, 3) <= 3
        assert _pool_size(4, 100) <= (os.cpu_count() or 1)
        with pytest.raises(UsageError):
            _pool_size(0, 5)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a one-core host runs cells serially")
    def test_dead_worker_records_failed_cells(self):
        script = """
import os
from qcb.data import build_dataset, select_features, synthesize
from qcb.evalharness import CvPlan, run_benchmark, select_models
from qcb.evalharness.registry import ModelSpec

class Crash:
    def fit(self, X, y):
        os._exit(1)

registry = select_models("majority_class")
registry["crash"] = ModelSpec("crash", "baseline", lambda seed: Crash(), {})
records = synthesize(n_units=12, n_years=10, seed=3)
dataset = select_features(build_dataset(records, provenance="synthetic"), k=10)
report = run_benchmark(
    dataset, registry, CvPlan(n_folds=2, seeds=(0,)), reference="majority_class", workers=2
)
crash = report["models"]["crash"]
print(report["failures_total"], crash["failures"], crash["cells"][0]["error"].split(":")[0])
"""
        src = str(Path(qcb.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        failures_total, crash_failures, error = done.stdout.split()
        assert int(crash_failures) == 2
        assert int(failures_total) >= 2
        assert error == "BrokenProcessPool"


class TestChecksums:
    def test_checksum_stable_across_equal_states(self):
        state = {"a": np.arange(4.0), "b": [1, 2.5, "x"], "c": {"z": None}}
        clone = {"a": np.arange(4.0), "b": [1, 2.5, "x"], "c": {"z": None}}
        assert state_checksum(state) == state_checksum(clone)

    def test_checksum_sensitive_to_values(self):
        a = {"w": np.array([1.0, 2.0])}
        b = {"w": np.array([1.0, 2.0000001])}
        assert state_checksum(a) != state_checksum(b)

    def test_derive_seed_deterministic_and_distinct(self):
        s1 = derive_seed(0, "model_a", 0, 1)
        assert s1 == derive_seed(0, "model_a", 0, 1)
        assert s1 != derive_seed(0, "model_b", 0, 1)
        assert s1 != derive_seed(1, "model_a", 0, 1)


class TestLeakageAudit:
    def test_fast_models_pass_audit(self, small_dataset):
        registry = select_models("decision_tree,majority_class,svm_rbf")
        results = audit_leakage(small_dataset, registry, master_seed=0)
        assert all(entry["match"] for entry in results.values())


class TestReportEmission:
    def test_json_round_trip(self, small_report, tmp_path):
        emit_report(small_report, tmp_path, "json")
        loaded = load_report(tmp_path / "report.json")
        assert loaded == json.loads(json.dumps(small_report))

    def test_csv_row_count_matches_models(self, small_report, tmp_path):
        emit_report(small_report, tmp_path, "csv")
        with open(tmp_path / "models.csv") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) - 1 == len(small_report["models"])

    def test_per_class_csv_has_severity_columns(self, small_report, tmp_path):
        emit_report(small_report, tmp_path, "both")
        with open(tmp_path / "per_class_accuracy.csv") as handle:
            header = next(csv.reader(handle))
        assert header == ["model", "Low", "Medium", "High", "Critical"]


class TestCli:
    def test_synth_writes_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = cli.main(["synth", "--units", "6", "--years", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 30
        assert rows[0][:2] == ["Unit", "Year"]

    def test_run_subcommand_end_to_end(self, tmp_path):
        data = tmp_path / "data.csv"
        cli.main(["synth", "--units", "12", "--years", "10", "--seed", "2", "--out", str(data)])
        out_dir = tmp_path / "out"
        code = cli.main(
            [
                "run",
                "--data", str(data),
                "--models", "decision_tree,majority_class",
                "--folds", "5",
                "--seeds", "2",
                "--master-seed", "0",
                "--out-dir", str(out_dir),
                "--report-format", "both",
                "--reference", "decision_tree",
                "--quiet",
            ]
        )
        assert code == 0
        report = load_report(out_dir / "report.json")
        assert set(report["models"]) == {"decision_tree", "majority_class"}
        assert (out_dir / "models.csv").exists()

    def test_expressibility_subcommand(self, tmp_path):
        code = cli.main(
            [
                "expressibility",
                "--qubits", "3",
                "--max-layers", "2",
                "--pairs", "200",
                "--seed", "0",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with (tmp_path / "expressibility.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 3  # header + 2 layer rows

    def test_report_subcommand(self, small_report, tmp_path):
        emit_report(small_report, tmp_path, "json")
        out2 = tmp_path / "rendered"
        code = cli.main(["report", "--report", str(tmp_path / "report.json"), "--out-dir", str(out2)])
        assert code == 0
        assert (out2 / "models.csv").exists()

    def test_usage_error_exit_code(self):
        assert cli.main(["run", "--data"]) == 1
        assert cli.main(["run", "--data", "x.csv", "--models", "bogus", "--out-dir", "o"]) == 1

    def test_workers_below_one_rejected(self, tmp_path):
        data = tmp_path / "data.csv"
        cli.main(["synth", "--units", "6", "--years", "5", "--seed", "1", "--out", str(data)])
        args = ["run", "--data", str(data), "--models", "majority_class", "--folds", "2",
                "--seeds", "1", "--out-dir", str(tmp_path / "out"), "--quiet"]
        assert cli.main([*args, "--workers", "0"]) == 1
        assert cli.main([*args, "--holdout", "0.2", "--workers", "-1"]) == 1

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "missing.csv"
        assert cli.main(["run", "--data", str(missing), "--out-dir", str(tmp_path)]) == 2

    def test_holdout_mode(self, tmp_path):
        data = tmp_path / "data.csv"
        cli.main(["synth", "--units", "12", "--years", "10", "--seed", "4", "--out", str(data)])
        out_dir = tmp_path / "holdout_out"
        code = cli.main(
            [
                "run",
                "--data", str(data),
                "--models", "majority_class,decision_tree",
                "--holdout", "0.2",
                "--out-dir", str(out_dir),
                "--reference", "decision_tree",
                "--quiet",
            ]
        )
        assert code == 0
        report = load_report(out_dir / "report.json")
        assert report["plan"]["mode"] == "holdout"
