import csv
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcb
from qcb import cli, modelbytes
from qcb.data import build_dataset, select_features, synthesize
from qcb.classical import LogisticRegressionClassifier, RandomForestClassifier
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
from qcb.evalharness.registry import MajorityClassBaseline, ModelSpec, StandardizedModel
from qcb.evalharness import runner, stats
from qcb.evalharness.runner import _pool_size, derive_seed, state_checksum
from qcb.evalharness.cv import stratified_folds
from qcb import qmodels
from qcb.qmodels import HYBRID_QC_FOREST_TREES, TRAINING_EVALS, HybridQcPipeline, VqcClassifier


@pytest.fixture(scope="module")
def small_dataset():
    records = synthesize(n_units=12, n_years=10, seed=3)
    return select_features(build_dataset(records, provenance="synthetic"), k=10)


@pytest.fixture(scope="module")
def fast_registry():
    return select_models("decision_tree,logistic_regression,majority_class")


HYBRID_QC = ("q_rf", "q_svm", "q_logreg", "q_dectree")


def fast_hybrid_registry(max_evals: int = 20) -> dict[str, ModelSpec]:
    """``vqc_4q2l`` and the four q_* hybrids of the default registry, each
    trained with ``max_evals`` loss evaluations instead of 150."""
    registry = {"vqc_4q2l": ModelSpec(
        "vqc_4q2l", "quantum", lambda seed: VqcClassifier(4, 2, max_evals=max_evals, seed=seed)
    )}
    for name in HYBRID_QC:
        spec = default_registry()[name]
        head = spec.metadata["head"]
        registry[name] = ModelSpec(
            name,
            spec.category,
            lambda seed, head=head: HybridQcPipeline(head, seed=seed, max_evals=max_evals),
            spec.metadata,
        )
    return registry


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

    def test_trained_circuits_use_the_150_evaluation_budget(self):
        trained = {
            name: spec
            for name, spec in default_registry().items()
            if name.startswith(("vqc_", "qaoa_", "q_")) or name in ("pca_vqc", "pca_qaoa")
        }
        assert len(trained) == 10
        for name, spec in trained.items():
            assert spec.build(0).max_evals == 150, name

    @pytest.mark.parametrize("name", sorted(default_registry()))
    def test_config_matches_fitted_model(self, small_dataset, name):
        spec = default_registry()[name]
        model = spec.build(0).fit(small_dataset.X[::4], small_dataset.y[::4])
        meta = model.metadata()
        shared = spec.metadata.keys() & meta.keys()
        assert {k: spec.metadata[k] for k in shared} == {k: meta[k] for k in shared}
        if spec.category == "hybrid_qc":
            assert spec.metadata["head"] == meta["head_kind"]
        if "head_trees" in spec.metadata:
            assert spec.metadata["head_trees"] == HYBRID_QC_FOREST_TREES
            assert len(model.head_._roots) == HYBRID_QC_FOREST_TREES
        if isinstance(model, StandardizedModel):
            # the classical entries have no metadata(); their config restates
            # the constructor arguments, which the wrapped model keeps
            assert spec.metadata
            assert spec.metadata == {k: getattr(model.inner, k) for k in spec.metadata}

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

    def test_cached_t_quantiles_leave_the_report_unchanged(
        self, small_dataset, fast_registry, small_report, monkeypatch
    ):
        ppf = stats.student_t_ppf

        def uncached(q, df):
            ppf.cache_clear()
            return ppf.__wrapped__(q, df)

        monkeypatch.setattr(stats, "student_t_ppf", uncached)
        plan = CvPlan(n_folds=5, seeds=(0, 1))
        again = run_benchmark(
            small_dataset, fast_registry, plan, master_seed=7, reference="decision_tree"
        )
        a = json.dumps(strip_timing(small_report), sort_keys=True)
        b = json.dumps(strip_timing(again), sort_keys=True)
        assert a == b

    def test_single_record_latency_is_timing(self, small_report):
        for entry in small_report["models"].values():
            cells = [c for c in entry["cells"] if c["error"] is None]
            assert cells and all(c["predict_us"] > 0.0 for c in cells)
            assert entry["timing"]["predict_us_median"] == np.median(
                [c["predict_us"] for c in cells]
            )
        stripped = json.dumps(strip_timing(small_report))
        assert "predict_us" not in stripped
        assert "fit_seconds" not in stripped

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


class TestCellUnits:
    @pytest.fixture(scope="class")
    def mixed(self, small_dataset):
        registry = {"decision_tree": default_registry()["decision_tree"]}
        registry.update(fast_hybrid_registry())
        registry["majority_class"] = default_registry()["majority_class"]
        _, splits = CvPlan(n_folds=2, seeds=(0, 1)).splits(small_dataset.y, 7)
        return registry, splits, runner._cell_units(registry, splits, 7)

    def test_each_cell_is_in_one_unit_with_its_derived_seed(self, mixed):
        registry, splits, units = mixed
        tasks = [task for unit in units for task in unit]
        cells = [(name, s, f) for name in registry for s, _, f, _, _ in splits]
        assert sorted(task[:3] for task in tasks) == sorted(cells)
        for name, seed_index, fold, train_idx, test_idx, cell_seed in tasks:
            assert cell_seed == derive_seed(7, name, seed_index, fold)
            split = next(sp for sp in splits if (sp[0], sp[2]) == (seed_index, fold))
            assert train_idx is split[3] and test_idx is split[4]

    def test_hybrid_cells_of_a_split_form_one_unit_at_the_first_of_them(self, mixed):
        registry, splits, units = mixed
        n = len(splits)
        # registry order: decision_tree's cells, then vqc_4q2l's, then one
        # hybrid unit per split, then majority_class's cells
        assert [len(unit) for unit in units] == [1] * 2 * n + [len(HYBRID_QC)] * n + [1] * n
        for unit, (seed_index, _, fold, _, _) in zip(units[2 * n : 3 * n], splits):
            assert [task[:3] for task in unit] == [
                (name, seed_index, fold) for name in HYBRID_QC
            ]
        assert [unit[0][0] for unit in units[: 2 * n]] == ["decision_tree"] * n + ["vqc_4q2l"] * n
        assert all(unit[0][0] == "majority_class" for unit in units[3 * n :])


class TestParallelRuns:
    @pytest.mark.parametrize(
        "plan, hybrids",
        [
            (CvPlan(n_folds=2, seeds=(0,)), False),
            (HoldoutPlan(test_fraction=0.2), False),
            (CvPlan(n_folds=2, seeds=(0,)), True),
            (HoldoutPlan(test_fraction=0.2), True),
        ],
        ids=["cv", "holdout", "cv_hybrid_qc", "holdout_hybrid_qc"],
    )
    def test_parallel_equals_serial_for_a_custom_spec(self, small_dataset, plan, hybrids):
        if hybrids:
            # the q_* cells of a split run as one unit: the first trains the extractor
            registry = fast_hybrid_registry()
        else:
            registry = select_models("decision_tree,logistic_regression")
            # a registered class, built with settings no registry entry uses
            registry["shallow_forest"] = ModelSpec(
                "shallow_forest", "baseline",
                lambda seed: RandomForestClassifier(n_trees=5, max_depth=2, seed=seed + 1), {},
            )
        reference = next(iter(registry))
        serial, parallel = (
            run_benchmark(small_dataset, registry, plan, reference=reference, workers=workers)
            for workers in (1, 2)
        )
        assert serial["failures_total"] == 0
        for report in (serial, parallel):
            assert all(
                c["predict_us"] > 0.0 for e in report["models"].values() for c in e["cells"]
            )
        assert json.dumps(strip_timing(serial), sort_keys=True) == json.dumps(
            strip_timing(parallel), sort_keys=True
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_extractor_fails_each_hybrid_cell(self, small_dataset, workers):
        # five columns are too few for the 6-qubit extractor
        narrow = select_features(small_dataset, k=5)
        registry = fast_hybrid_registry()
        registry["majority_class"] = default_registry()["majority_class"]
        del registry["vqc_4q2l"]
        report = run_benchmark(
            narrow, registry, CvPlan(n_folds=2, seeds=(0,)), reference="majority_class",
            workers=workers,
        )
        assert report["failures_total"] == 8
        for name in HYBRID_QC:
            errors = [cell["error"] for cell in report["models"][name]["cells"]]
            assert all(e.startswith("UsageError: need at least 6 feature columns") for e in errors)
        assert report["models"]["majority_class"]["failures"] == 0

    @pytest.mark.skipif(_pool_size(2, 2) < 2, reason="a one-core host runs cells serially")
    def test_no_model_object_crosses_the_pool(self, small_dataset, monkeypatch):
        # a cell's task and outcome hold no model: it stays in the worker.
        # A model pickles through modelbytes.dumps, which nothing else calls;
        # a cell's checksum hashes the uncompressed stream
        def unpicklable(model):
            raise TypeError(f"a {type(model).__name__} was pickled")

        monkeypatch.setattr(modelbytes, "dumps", unpicklable)
        hybrid = fast_hybrid_registry()["q_rf"].build(0).fit(small_dataset.X, small_dataset.y)
        with pytest.raises(TypeError, match="a HybridQcPipeline was pickled"):
            pickle.dumps(hybrid)
        report = run_benchmark(
            small_dataset, fast_hybrid_registry(), CvPlan(n_folds=2, seeds=(0,)),
            reference="q_rf", workers=2,
        )
        assert report["failures_total"] == 0

    def test_pool_size_bounds(self, monkeypatch):
        assert _pool_size(1, 10) == 1
        assert _pool_size(4, 3) <= 3
        assert _pool_size(4, 100) <= (os.cpu_count() or 1)
        with pytest.raises(UsageError):
            _pool_size(0, 5)
        # an affinity mask narrower than the machine (taskset, a cgroup cpuset) bounds the pool
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        assert _pool_size(8, 100) == 2
        # without affinity support the core count is the bound
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _pool_size(8, 100) == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _pool_size(8, 100) == 1

    @pytest.mark.skipif(_pool_size(2, 2) < 2, reason="a one-core host runs cells serially")
    def test_dead_worker_records_failed_cells(self):
        """A crashing cell fails every cell of its unit; as a ``hybrid_qc`` cell
        it crashes after its split's ``q_rf`` cell has finished in that unit."""
        script = """
import json, os, sys
from qcb.data import build_dataset, select_features, synthesize
from qcb.evalharness import CvPlan, run_benchmark, select_models
from qcb.evalharness.registry import ModelSpec
from qcb.qmodels import HybridQcPipeline

class Crash:
    def fit(self, X, y):
        os._exit(1)

category = sys.argv[1]
registry = select_models("majority_class")
if category == "hybrid_qc":
    registry["q_rf"] = ModelSpec(
        "q_rf", category, lambda seed: HybridQcPipeline("random_forest", seed=seed, max_evals=20)
    )
registry["crash"] = ModelSpec("crash", category, lambda seed: Crash(), {})
records = synthesize(n_units=12, n_years=10, seed=3)
dataset = select_features(build_dataset(records, provenance="synthetic"), k=10)
report = run_benchmark(
    dataset, registry, CvPlan(n_folds=2, seeds=(0,)), reference="majority_class", workers=2
)
errors = {name: [cell["error"] for cell in entry["cells"]] for name, entry in report["models"].items()}
print(json.dumps({"failures_total": report["failures_total"], "errors": errors}))
"""
        src = str(Path(qcb.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for category, crashed in (("baseline", ["crash"]), ("hybrid_qc", ["crash", "q_rf"])):
            done = subprocess.run(
                [sys.executable, "-c", script, category],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout)
            for name in crashed:
                errors = result["errors"][name]
                assert len(errors) == 2
                assert all(e and e.startswith("BrokenProcessPool") for e in errors), errors
            assert result["failures_total"] >= 2 * len(crashed)


class TestBenchmarkTracer:
    def test_spantrace_installs_and_traces_a_fit(self):
        """``perfbench/spantrace.install`` wraps qcb names by ``getattr``; a renamed
        or deleted name, a ``fit`` that stops calling ``minimize`` through the
        module, or a head without ``n_iter_`` breaks the benchmark's traced runs.
        One head is fitted per loss evaluation, and one more after the search:
        the kept head, refitted from zero on the best evaluation's features."""
        script = """
import numpy as np
from spantrace import Tracer, install
from qcb.classical import LogisticRegressionClassifier
from qcb.qmodels import VqcClassifier

tracer = Tracer()
install(tracer)
X = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
VqcClassifier(2, 1, max_evals=5).fit(X, (X[:, 0] > 0).astype(int))
names = [span[0] for span in tracer.spans]
assert names.count("optimize.minimize") == 1, names
assert tracer.counters["optimize.loss_evals"] == 5, dict(tracer.counters)
assert names.count("classical.logreg_fit") == 6, names
cap = LogisticRegressionClassifier().max_iter
assert 0 < tracer.counters["classical.logreg_iters"] <= 6 * cap, dict(tracer.counters)
"""
        root = Path(qcb.__file__).resolve().parents[2]
        src = str(Path(qcb.__file__).resolve().parents[1])
        path = [src, str(root / "perfbench"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr


    @pytest.mark.skipif(_pool_size(2, 2) < 2, reason="a one-core host runs cells serially")
    def test_traced_parallel_run_trains_one_extractor_per_split(self):
        """Under ``perfbench/spantrace`` a 2-fold run of ``vqc_4q2l`` and the
        four q_* hybrids trains one extractor per split, on 2 workers as on
        1, and a 2-worker run ships every cell's spans home.  A serial run
        does not go through ``_run_cells_parallel``."""
        script = """
import functools
from spantrace import Tracer, _wrap, install
from qcb import qmodels
from qcb.data import build_dataset, select_features, synthesize
from qcb.evalharness import CvPlan, run_benchmark
from qcb.evalharness import runner
from test_harness import HYBRID_QC, fast_hybrid_registry

tracer = Tracer()
install(tracer)
_wrap(qmodels, "split_extractor", "test.split_extractor", tracer)
returned = []
run_parallel = runner._run_cells_parallel

@functools.wraps(run_parallel)
def keep_results(*args, **kwargs):
    results = run_parallel(*args, **kwargs)
    returned.extend(results)
    return results

runner._run_cells_parallel = keep_results
dataset = select_features(build_dataset(synthesize(n_units=12, n_years=10, seed=3)), k=10)
registry = fast_hybrid_registry()

def counts(workers):
    returned.clear()
    report = run_benchmark(dataset, registry, CvPlan(n_folds=2, seeds=(0,)), workers=workers)
    assert report["failures_total"] == 0
    spans = tracer.take()["spans"]
    names = [span[0] for span in spans]

    def under_extractor(span):
        while span[3] >= 0:
            span = spans[span[3]]
            if span[0] == "test.split_extractor":
                return True
        return False

    if workers == 1:
        assert returned == []
    else:
        assert len(returned) == 10, returned
        assert all(len(result) == 5 and result[4] is None for result in returned)
        cells = {result[:3] for result in returned}
        assert cells == {(name, 0, fold) for name in registry for fold in (0, 1)}
    return (
        sum(1 for span in spans if span[0] == "qmodels.train" and under_extractor(span)),
        names.count("qmodels.train"),
        names.count("test.split_extractor"),
        names.count("evalharness.cell"),
    )

first = counts(2)
assert first == (2, 4, 8, 10), first
assert counts(2) == first
assert counts(1) == first
"""
        root = Path(qcb.__file__).resolve().parents[2]
        src = str(Path(qcb.__file__).resolve().parents[1])
        path = [src, str(root / "perfbench"), str(root / "tests"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert done.returncode == 0, done.stderr

    def test_circuit_checks_reach_every_circuit_model(self, small_dataset, monkeypatch):
        """``perfbench/checks.check_circuits`` finds a registry model's circuit
        through ``_circuit_part``; a wrapper that it cannot see through would
        make the check skip that model silently instead of failing."""
        root = Path(qcb.__file__).resolve().parents[2]
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        import checks

        X, y = small_dataset.X, small_dataset.y
        fitted = {}
        for name, spec in default_registry().items():
            model = spec.build(1)
            if hasattr(model, "max_evals"):
                model.max_evals = 10
            fitted[name] = model.fit(X[::2], y[::2])
        assert checks.check_circuits(fitted, X[1::2][:4], X[::2][:4]) == []
        circuit = (VqcClassifier, qmodels.QaoaClassifier, qmodels.QKernelClassifier)
        reached = {
            name
            for name, model in fitted.items()
            if isinstance(checks._circuit_part(model, X[:4])[0], circuit)
        }
        categories = {"quantum", "hybrid_qc", "hybrid_cq"}
        assert reached == {
            name for name, spec in default_registry().items() if spec.category in categories
        }
        assert len(reached) == 12


class TestSharedExtractor:
    """The q_* hybrids of one split share one extractor, trained once."""

    @pytest.fixture(scope="class")
    def hybrid_report(self, small_dataset):
        return run_benchmark(
            small_dataset, fast_hybrid_registry(), CvPlan(n_folds=2, seeds=(0, 1)),
            reference="q_rf",
        )

    def test_hybrid_cells_of_a_split_carry_one_extractor_seed(self, hybrid_report):
        seeds = {}
        for name in HYBRID_QC:
            for cell in hybrid_report["models"][name]["cells"]:
                split = (cell["seed_index"], cell["fold"])
                seeds.setdefault(split, set()).add(cell["model_metadata"]["extractor_seed"])
        assert len(seeds) == 4
        assert all(len(per_split) == 1 for per_split in seeds.values())
        assert len({seed for (seed,) in seeds.values()}) == 4
        assert "extractor_seed" not in hybrid_report["models"]["vqc_4q2l"]["metadata"]

    def test_model_metadata_keeps_the_values_every_cell_shares(self, hybrid_report):
        entry = hybrid_report["models"]["q_rf"]
        cells = [cell["model_metadata"] for cell in entry["cells"]]
        assert len(cells) == 4
        shared = {k: v for k, v in cells[0].items() if all(c[k] == v for c in cells)}
        assert entry["metadata"] == shared
        assert "extractor_seed" not in entry["metadata"]
        assert entry["metadata"]["intermediate_features"] == 6
        assert entry["resources"]["n_qubits"] == 6

    def test_serial_run_trains_one_extractor_per_split(self, small_dataset, monkeypatch):
        trained = []
        fit = VqcClassifier.fit

        def counting_fit(self, X, y):
            trained.append(self.n_qubits)
            return fit(self, X, y)

        monkeypatch.setattr(VqcClassifier, "fit", counting_fit)
        run_benchmark(small_dataset, fast_hybrid_registry(), CvPlan(n_folds=2, seeds=(0, 1)))
        assert sorted(trained) == [4] * 4 + [6] * 4

    def test_audit_trains_each_fit_its_own_extractor(self, small_dataset, monkeypatch):
        registry = {name: fast_hybrid_registry()[name] for name in ("q_svm", "q_dectree")}
        extractors = []
        split_extractor = qmodels.split_extractor

        def recording(*args):
            extractors.append(split_extractor(*args))
            return extractors[-1]

        monkeypatch.setattr(qmodels, "split_extractor", recording)
        results = audit_leakage(small_dataset, registry, master_seed=0)
        assert all(entry["match"] for entry in results.values())
        # four fits on one split, none served from another's memo entry
        assert len({id(extractor) for extractor in extractors}) == 4


class TestCellCounters:
    def test_trained_circuit_cells_count_search_and_head_work(self, small_dataset):
        registry = select_models("vqc_4q2l,qaoa_4q2l,pca_qaoa")
        plan = CvPlan(n_folds=2, seeds=(0,))

        def counters(workers=1):
            report = run_benchmark(
                small_dataset, registry, plan, master_seed=3, reference="vqc_4q2l",
                workers=workers,
            )
            return {
                (name, cell["fold"]): (
                    cell["model_metadata"]["loss_evals"],
                    cell["model_metadata"]["head_iters"],
                    cell["model_metadata"]["search_head_iters"],
                )
                for name, entry in report["models"].items()
                for cell in entry["cells"]
            }

        first = counters()
        cap = LogisticRegressionClassifier().max_iter
        assert len(first) == 6
        # the simplex may stop before its budget once it is flat and tight;
        # on these 120 records one vqc_4q2l cell does, at 144 evaluations
        for loss_evals, head_iters, search_head_iters in first.values():
            assert 1 <= loss_evals <= TRAINING_EVALS
            assert 1 <= head_iters < cap
            assert 1 <= search_head_iters < loss_evals * cap
        assert counters() == first
        assert counters(workers=2) == first


class TestChecksums:
    def test_checksum_stable_across_equal_states(self, small_dataset):
        X, y = small_dataset.X, small_dataset.y
        a, b = (LogisticRegressionClassifier().fit(X, y) for _ in range(2))
        assert a.weights_ is not b.weights_
        assert state_checksum(a.fitted_state()) == state_checksum(b.fitted_state())

    def test_checksum_sensitive_to_values(self, small_dataset):
        model = LogisticRegressionClassifier().fit(small_dataset.X, small_dataset.y)
        before = state_checksum(model.fitted_state())
        model.weights_[0, 0] += 1e-7
        assert state_checksum(model.fitted_state()) != before

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

    def test_audits_the_cv_plan_split(self, small_dataset, monkeypatch):
        calls = []

        def capture(spec, X, y, train_idx, test_idx, *rest):
            calls.append((train_idx, test_idx))
            return {"checksum": "same"}

        monkeypatch.setattr(runner, "run_cell", capture)
        audit_leakage(small_dataset, select_models("majority_class"), 7, seed_index=2, fold=3)
        _, splits = CvPlan(n_folds=5, seeds=(0, 1, 2)).splits(small_dataset.y, 7)
        seed_index, _, fold, train_idx, test_idx = splits[13]
        assert (seed_index, fold) == (2, 3)
        assert len(calls) == 2
        for got_train, _ in calls:
            assert np.array_equal(got_train, train_idx)
        assert np.array_equal(calls[0][1], test_idx)
        assert np.array_equal(calls[1][1], test_idx[::-1])

    @pytest.mark.parametrize("fold", [-1, 5])
    def test_fold_out_of_range(self, small_dataset, fold):
        with pytest.raises(UsageError):
            audit_leakage(small_dataset, select_models("majority_class"), fold=fold)


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

    def test_report_layout(self, tmp_path, monkeypatch):
        """Cell keys and the models.csv header, in order, on a run in which one
        model fails every cell; ``qcb report`` re-renders the same CSV bytes."""
        def broken_fit(self, X, y):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(MajorityClassBaseline, "fit", broken_fit)
        data = tmp_path / "data.csv"
        cli.main(["synth", "--units", "12", "--years", "10", "--seed", "2", "--out", str(data)])
        run_dir, render_dir = tmp_path / "run", tmp_path / "rendered"
        args = ["run", "--data", str(data), "--models", "decision_tree,majority_class",
                "--folds", "2", "--seeds", "1", "--reference", "decision_tree",
                "--out-dir", str(run_dir), "--quiet"]
        assert cli.main(args) == cli.EXIT_PARTIAL
        report = load_report(run_dir / "report.json")
        split_keys = ["seed_index", "seed", "fold", "error"]
        for cell in report["models"]["decision_tree"]["cells"]:
            assert list(cell) == split_keys + [
                "accuracy", "precision_weighted", "recall_weighted", "f1_weighted",
                "per_class_f1", "per_class_recall", "fit_seconds", "predict_us",
                "checksum", "circuit_depth", "model_metadata",
            ]
        failed = report["models"]["majority_class"]["cells"]
        assert len(failed) == 2
        assert all(list(cell) == split_keys for cell in failed)

        with (run_dir / "models.csv").open() as handle:
            header, *rows = list(csv.reader(handle))
        assert header == [
            "model", "category", "accuracy", "accuracy_ci95", "precision_weighted",
            "precision_weighted_ci95", "recall_weighted", "recall_weighted_ci95",
            "f1_weighted", "f1_weighted_ci95", "n_qubits", "param_count",
            "circuit_depth_mean", "qubit_efficiency", "fit_seconds_mean",
            "speedup_vs_reference", "accuracy_gap_vs_reference", "t_vs_reference",
            "p_vs_reference", "cohens_d_vs_reference", "significance", "failures",
        ]
        assert rows[1] == ["majority_class", "baseline"] + [""] * 19 + ["2"]

        code = cli.main(["report", "--report", str(run_dir / "report.json"),
                         "--out-dir", str(render_dir)])
        assert code == cli.EXIT_OK
        for name in ("models.csv", "per_class_accuracy.csv"):
            assert (render_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


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

    def test_malformed_report_is_data_error(self, small_report, tmp_path, capsys):
        no_failures = json.loads(json.dumps(small_report))
        del no_failures["models"]["majority_class"]["failures"]
        no_recall = json.loads(json.dumps(small_report))
        del no_recall["models"]["majority_class"]["metrics"]["per_class_recall"]
        extra_class = json.loads(json.dumps(small_report))
        extra_class["dataset"]["classes"].append("Extreme")
        bare_interval = json.loads(json.dumps(small_report))
        bare_interval["models"]["majority_class"]["metrics"]["accuracy"] = 0.9
        flat_resources = json.loads(json.dumps(small_report))
        flat_resources["models"]["majority_class"]["resources"] = [4]
        malformed = {
            "list": [1, 2],
            "no_models": {"schema": "qcb-report/1"},
            "no_failures": no_failures,
            "no_recall": no_recall,
            "extra_class": extra_class,
            "bare_interval": bare_interval,
            "flat_resources": flat_resources,
        }
        for name, content in malformed.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(content))
            out_dir = tmp_path / name
            args = ["report", "--report", str(path), "--out-dir", str(out_dir)]
            assert cli.main(args) == cli.EXIT_DATA == 2, name
            assert "data error" in capsys.readouterr().err
            assert not (out_dir / "models.csv").exists(), name

    def test_usage_error_exit_code(self):
        assert cli.main(["run", "--data"]) == 1
        assert cli.main(["run", "--data", "x.csv", "--models", "bogus", "--out-dir", "o"]) == 1

    def test_reference_outside_the_registry_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        cli.main(["synth", "--units", "6", "--years", "5", "--seed", "1", "--out", str(data)])
        args = ["run", "--data", str(data), "--models", "majority_class", "--folds", "2",
                "--seeds", "1", "--quiet"]
        assert cli.main([*args, "--reference", "bogus", "--out-dir", str(tmp_path / "bogus")]) == 1
        assert "unknown reference model 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "bogus").exists()
        # a registry model left out of --models is no error; nothing is compared with it
        out_dir = tmp_path / "absent"
        assert cli.main([*args, "--reference", "decision_tree", "--out-dir", str(out_dir)]) == 0
        report = load_report(out_dir / "report.json")
        assert [entry["comparison"] for entry in report["models"].values()] == [None]

    def test_class_in_too_few_records_is_named_plainly(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        cli.main(["synth", "--units", "2", "--years", "1", "--seed", "1", "--out", str(data)])
        args = ["run", "--data", str(data), "--models", "majority_class", "--folds", "2",
                "--seeds", "1", "--out-dir", str(tmp_path / "out"), "--quiet"]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert "usage error: class 'High' has 1 members, fewer than 2 folds" in err
        assert "np.str_" not in err

    def test_expressibility_without_layers_is_usage_error(self, tmp_path, capsys):
        for layers in ("0", "-2"):
            out = tmp_path / layers
            args = ["expressibility", "--qubits", "2", "--max-layers", layers, "--pairs", "10"]
            assert cli.main([*args, "--out", str(out)]) == 1
            assert "--max-layers must be >= 1" in capsys.readouterr().err
            assert not out.exists()

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

    def test_expressibility_out_under_a_file_is_data_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        args = ["expressibility", "--qubits", "2", "--max-layers", "1", "--pairs", "10"]
        assert cli.main([*args, "--out", str(blocker / "out")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_synth_out_into_a_missing_directory_or_under_a_file_is_data_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        args = ["synth", "--units", "6", "--years", "5"]
        for out in (tmp_path / "missing" / "data.csv", blocker / "data.csv"):
            assert cli.main([*args, "--out", str(out)]) == 2
            assert "data error" in capsys.readouterr().err

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


class TestImports:
    def test_cli_import_loads_no_model_stack(self):
        """``qcb synth``, ``qcb report`` and ``qcb --help`` start without the
        circuits, the models, the runner or the process pool."""
        script = """
import sys
import qcb.cli
heavy = ["qcb.qmodels", "qcb.qsim", "qcb.circuits", "qcb.optimize", "qcb.classical.trees",
         "qcb.evalharness.runner", "multiprocessing", "concurrent.futures"]
print([name for name in heavy if name in sys.modules])
"""
        src = str(Path(qcb.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_serial_run_loads_no_process_pool(self, tmp_path):
        """A ``--workers 1`` run of every model leaves the pool modules unloaded."""
        script = """
import sys
from qcb import cli
cli.main(["synth", "--units", "6", "--years", "5", "--seed", "1", "--out", "data.csv"])
code = cli.main(["run", "--data", "data.csv", "--models", "all", "--folds", "2", "--seeds", "1",
                 "--workers", "1", "--out-dir", "out", "--quiet"])
print(code, [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules])
"""
        src = str(Path(qcb.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            cwd=tmp_path, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_run_calls_the_traced_names_through_cli(self, tmp_path, monkeypatch):
        # perfbench/spantrace wraps these three by attribute on ``cli``
        data = tmp_path / "data.csv"
        cli.main(["synth", "--units", "6", "--years", "5", "--seed", "1", "--out", str(data)])
        called = []
        for name in ("ingest_csv", "select_features", "emit_report"):
            def wrapper(*args, _name=name, _inner=getattr(cli, name), **kwargs):
                called.append(_name)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)
        args = ["run", "--data", str(data), "--models", "majority_class", "--folds", "2",
                "--seeds", "1", "--reference", "majority_class", "--out-dir", str(tmp_path / "out"),
                "--quiet"]
        assert cli.main(args) == 0
        assert called == ["ingest_csv", "select_features", "emit_report"]

    def test_evalharness_exports_resolve_on_access(self):
        import importlib

        from qcb import evalharness

        for name in evalharness.__all__:
            module = importlib.import_module(f"qcb.evalharness.{evalharness._EXPORTS[name]}")
            assert getattr(evalharness, name) is getattr(module, name)
            assert name in dir(evalharness)
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            evalharness.bogus
