"""Command-line interface.

Subcommands: ``synth`` writes a synthetic crime-statistics CSV, ``run``
cross-validates the model registry on a CSV and emits reports,
``expressibility`` sweeps circuit layers, and ``report`` re-renders a stored
JSON report to the CSV views.

Exit codes: 0 success, 1 usage error, 2 data error, 3 benchmark completed
with per-cell failures recorded in the report.
"""
from __future__ import annotations

import argparse
import sys

from .data import build_dataset, ingest_csv, select_features, synthesize, write_csv
from .errors import DataError, UsageError
from .evalharness.report import emit_expressibility_csv, emit_report, load_report

# Each subcommand imports the modules only it runs, so that ``synth`` and
# ``report`` start without the model stack.  ``ingest_csv``,
# ``select_features`` and ``emit_report`` stay module names: ``_cmd_run``
# looks them up here, where a tracer may have wrapped them.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3

SELECTED_FEATURES = 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic crime-statistics CSV")
    synth.add_argument("--units", type=int, default=18)
    synth.add_argument("--years", type=int, default=16)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)

    run = sub.add_parser("run", help="cross-validate models on a CSV dataset")
    run.add_argument("--data", required=True, help="input CSV path")
    run.add_argument("--models", default="all", help="comma-separated names or 'all'")
    run.add_argument("--folds", type=int, default=5)
    run.add_argument("--seeds", type=int, default=5, help="number of CV seed rounds")
    run.add_argument("--master-seed", type=int, default=0)
    run.add_argument("--out-dir", required=True)
    run.add_argument("--report-format", choices=("json", "csv", "both"), default="both")
    run.add_argument("--reference", default="random_forest")
    run.add_argument(
        "--holdout",
        type=float,
        default=None,
        metavar="FRACTION",
        help="single stratified split with this test fraction instead of CV",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count for the (model, split) cells, at most one per core",
    )
    run.add_argument("--quiet", action="store_true")

    express = sub.add_parser("expressibility", help="layer sweep of the ansatz expressibility")
    express.add_argument("--qubits", type=int, default=4)
    express.add_argument("--max-layers", type=int, default=3)
    express.add_argument("--pairs", type=int, default=5000)
    express.add_argument("--seed", type=int, default=0)
    express.add_argument("--out", required=True, help="output directory")

    render = sub.add_parser("report", help="re-render a stored JSON report to CSV")
    render.add_argument("--report", required=True, help="stored report.json path")
    render.add_argument("--out-dir", required=True)
    return parser


def _cmd_synth(args) -> int:
    records = synthesize(n_units=args.units, n_years=args.years, seed=args.seed)
    write_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    # before the pool forks, so that its workers inherit the model stack
    from .evalharness import CvPlan, HoldoutPlan, run_benchmark, select_models

    registry = select_models(args.models)
    records = ingest_csv(args.data)
    dataset = build_dataset(records, provenance="ingested")
    k = min(SELECTED_FEATURES, dataset.n_features)
    dataset = select_features(dataset, k=k)
    progress = None if args.quiet else lambda line: print(line, flush=True)
    if args.holdout is not None:
        plan = HoldoutPlan(test_fraction=args.holdout)
    else:
        plan = CvPlan(n_folds=args.folds, seeds=tuple(range(args.seeds)))
    report = run_benchmark(
        dataset,
        registry,
        plan,
        master_seed=args.master_seed,
        reference=args.reference,
        progress=progress,
        workers=args.workers,
    )
    paths = emit_report(report, args.out_dir, args.report_format)
    for path in paths:
        print(f"wrote {path}")
    if report["failures_total"] > 0:
        print(f"{report['failures_total']} cell(s) failed; see the report", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_expressibility(args) -> int:
    from .circuits import CircuitConfig, CircuitFamily, expressibility

    rows = []
    for layers in range(1, args.max_layers + 1):
        config = CircuitConfig(CircuitFamily.VQC, args.qubits, layers)
        result = expressibility(config, args.pairs, args.seed)
        rows.append(
            {
                "n_qubits": args.qubits,
                "layers": layers,
                "score": result.score,
                "kl_divergence": result.kl_divergence,
                "n_pairs": result.n_pairs,
                "low_precision": result.low_precision,
            }
        )
        print(f"layers={layers} score={result.score:.4f}")
    path = emit_expressibility_csv(rows, args.out)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    report = load_report(args.report)
    paths = emit_report(report, args.out_dir, "csv")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "run": _cmd_run,
    "expressibility": _cmd_expressibility,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
