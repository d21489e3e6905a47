"""Run every workload over ten seeds and print medians and spreads.

Usage (from the repository root):

    python3 perfbench/medians.py [--trace 0|1] [--seeds 1,2,...] [--sets N]

For each workload and metric it prints the median of each set of runs and
the spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  With two or more sets it also prints
each later set's median relative to the first set's, and whether every seed
printed the same ``report_sha256`` in every set.  The sets run one after the
other, each over every workload.  Each run's result line is appended to
``.bench_out/medians-trace<T>.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: str, spec: dict, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digest = next(line.split()[1] for line in proc.stdout.splitlines() if line.startswith("report_sha256"))
    return result, digest


def _spread(values: list[float]) -> float:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    seeds = args.seeds.split(",")
    workloads = [w["name"] for w in spec["workloads"]]
    log_path = ROOT / ".bench_out" / f"medians-trace{args.trace}.jsonl"
    log_path.parent.mkdir(exist_ok=True)
    # results[workload][set] -> list of (result, digest), one per seed
    results = {w: [] for w in workloads}
    with log_path.open("a", encoding="utf-8") as log:
        for set_index in range(args.sets):
            for workload in workloads:
                runs = []
                for seed in seeds:
                    result, digest = _run(workload, seed, spec, args.trace)
                    log.write(json.dumps({"workload": workload, "set": set_index, "seed": int(seed),
                                          "sha256": digest, **result}) + "\n")
                    runs.append((result, digest))
                    print(f"set {set_index} {workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}", flush=True)
                results[workload].append(runs)
    for workload, sets in results.items():
        if len(sets) > 1:
            same = all(len({runs[i][1] for runs in sets}) == 1 for i in range(len(seeds)))
            print(f"{workload}: report_sha256 equal across sets for every seed: {same}")
        for name, first in sets[0][0][0]["metrics"].items():
            medians, spreads = [], []
            for runs in sets:
                values = [result["metrics"][name]["value"] for result, _ in runs]
                medians.append(statistics.median(values))
                spreads.append(_spread(values))
            cells = [f"{m:.4g} {first['unit']} | {s:.3f}" for m, s in zip(medians, spreads)]
            cells += [f"{m / medians[0] - 1:+.3f}" for m in medians[1:] if medians[0]]
            print(f"| {workload} | {name} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
