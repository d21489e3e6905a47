"""Report serialization: versioned JSON plus flat CSV views for plotting."""
from __future__ import annotations

import csv
import json
from pathlib import Path

from ..errors import DataError, UsageError

REPORT_SCHEMA = "qcb-report/1"
MODELS_CSV = "models.csv"
PER_CLASS_CSV = "per_class_accuracy.csv"
REPORT_JSON = "report.json"
EXPRESSIBILITY_CSV = "expressibility.csv"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report_to_rows(report: dict) -> list[dict]:
    """One flat summary row per model."""
    rows = []
    for name, entry in report["models"].items():
        row = {
            "model": name,
            "category": entry["category"],
            "failures": entry["failures"],
        }
        metrics = entry.get("metrics")
        if metrics:
            for key in ("accuracy", "precision_weighted", "recall_weighted", "f1_weighted"):
                row[key] = metrics[key]["mean"]
                row[f"{key}_ci95"] = metrics[key]["ci95_half_width"]
        resources = entry.get("resources") or {}
        row["n_qubits"] = resources.get("n_qubits")
        row["param_count"] = resources.get("param_count")
        row["circuit_depth_mean"] = resources.get("circuit_depth_mean")
        row["qubit_efficiency"] = resources.get("qubit_efficiency")
        timing = entry.get("timing") or {}
        row["fit_seconds_mean"] = timing.get("fit_seconds_mean")
        row["speedup_vs_reference"] = timing.get("speedup_vs_reference")
        comparison = entry.get("comparison") or {}
        row["accuracy_gap_vs_reference"] = comparison.get("accuracy_gap_vs_reference")
        paired = comparison.get("paired_t") or {}
        row["t_vs_reference"] = paired.get("t")
        row["p_vs_reference"] = paired.get("p")
        row["cohens_d_vs_reference"] = paired.get("cohens_d")
        row["significance"] = (
            "ref."
            if comparison.get("is_reference")
            else paired.get("stars", "")
        )
        rows.append(row)
    return rows


_CSV_COLUMNS = [
    "model",
    "category",
    "accuracy",
    "accuracy_ci95",
    "precision_weighted",
    "precision_weighted_ci95",
    "recall_weighted",
    "recall_weighted_ci95",
    "f1_weighted",
    "f1_weighted_ci95",
    "n_qubits",
    "param_count",
    "circuit_depth_mean",
    "qubit_efficiency",
    "fit_seconds_mean",
    "speedup_vs_reference",
    "accuracy_gap_vs_reference",
    "t_vs_reference",
    "p_vs_reference",
    "cohens_d_vs_reference",
    "significance",
    "failures",
]


def _output_dir(out_dir) -> Path:
    """Create ``out_dir`` if needed; a path that cannot be a directory is a data error."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out_dir}: {exc}") from exc
    return out_dir


def emit_report(report: dict, out_dir, formats: str = "both") -> list[Path]:
    """Write the report as JSON and/or CSV views; returns the written paths.

    CSV output includes the per-model summary table and a per-class recall
    table (one severity column per class) for plotting.
    """
    if formats not in ("json", "csv", "both"):
        raise UsageError(f"formats must be json|csv|both, got {formats!r}")
    out_dir = _output_dir(out_dir)
    written = []
    if formats in ("json", "both"):
        path = out_dir / REPORT_JSON
        path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
        written.append(path)
    if formats in ("csv", "both"):
        rows = report_to_rows(report)
        models_path = out_dir / MODELS_CSV
        with models_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(row.get(col)) for col in _CSV_COLUMNS])
        written.append(models_path)

        classes = report["dataset"]["classes"]
        per_class_path = out_dir / PER_CLASS_CSV
        with per_class_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["model", *classes])
            for name, entry in report["models"].items():
                metrics = entry.get("metrics")
                if not metrics:
                    writer.writerow([name] + [""] * len(classes))
                    continue
                writer.writerow(
                    [name]
                    + [
                        _fmt(metrics["per_class_recall"][label]["mean"])
                        for label in classes
                    ]
                )
        written.append(per_class_path)
    return written


def load_report(path) -> dict:
    """Read a stored JSON report back, checking the schema tag."""
    path = Path(path)
    try:
        report = json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read report {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if report.get("schema") != REPORT_SCHEMA:
        raise DataError(
            f"{path}: unsupported schema {report.get('schema')!r}, "
            f"expected {REPORT_SCHEMA!r}"
        )
    return report


def emit_expressibility_csv(rows: list[dict], out_dir) -> Path:
    """Write the layer-sweep expressibility table (one row per layer count)."""
    path = _output_dir(out_dir) / EXPRESSIBILITY_CSV
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n_qubits", "layers", "score", "kl_divergence", "n_pairs", "low_precision"])
        for row in rows:
            writer.writerow(
                [
                    row["n_qubits"],
                    row["layers"],
                    _fmt(row["score"]),
                    _fmt(row["kl_divergence"]),
                    row["n_pairs"],
                    row["low_precision"],
                ]
            )
    return path
