"""Self-test of the benchmark, on tiny versions of its workloads.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

For every workload it checks that
  * an untraced run prints every ``end_to_end`` metric of BENCHMARK.json and
    a traced run every ``per_layer`` metric, each a finite number, with no
    failed execution;
  * every ``.calls`` count and ``harness.bytes_written`` repeat exactly
    between two traced runs with the same seed;
  * a deliberately corrupted heatmap cell makes the error rate nonzero.
Prints one PASS/FAIL line per workload and exits 1 on any failure.
"""

from __future__ import annotations

import math
import sys

import run
import workloads

SEED = 3


def exact(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(".calls") or name == "harness.bytes_written"}


def check_workload(spec: dict, name: str) -> list[str]:
    problems = []
    plain = run.run_workload(spec, name, SEED, 1, 0, tiny=True)["printed"]
    traced = [run.run_workload(spec, name, SEED, 1, 1, tiny=True)["printed"]
              for _ in range(2)]
    for printed, key in ((plain, "end_to_end"), (traced[0], "per_layer")):
        wanted = [m["name"] for m in spec[key]]
        if list(printed["metrics"]) != wanted:
            problems.append(f"{key} metrics printed: {list(printed['metrics'])}")
        for metric, value in printed["metrics"].items():
            v = value["value"]
            if isinstance(v, bool) or not isinstance(v, (int, float)) \
                    or not math.isfinite(v):
                problems.append(f"{metric} is not a finite number: {v!r}")
        if printed["failed"] or not printed["correct"]:
            problems.append(f"{printed['failed']} of {printed['attempted']} "
                            f"executions failed on clean artifacts")
    for metric in ("wall_s", "setup_s", "peak_rss_mb"):
        if not plain["metrics"][metric]["value"] > 0:
            problems.append(f"{metric} is not positive")
    if exact(traced[0]["metrics"]) != exact(traced[1]["metrics"]):
        problems.append("exact counts differ between two traced runs")
    corrupted = run.run_workload(spec, name, SEED, 1, 0, tiny=True,
                                 corrupt=True)
    if corrupted["error_rate"] == 0:
        problems.append("a corrupted heatmap cell left the error rate at 0")
    return problems


def main() -> int:
    spec = run.load_spec()
    failed = False
    listed = [(w["name"], w["why"]) for w in spec["workloads"]]
    if listed != [(n, workloads.why(n)) for n in workloads.names()]:
        print("FAIL BENCHMARK.json workloads differ from workloads.py")
        failed = True
    for name in workloads.names():
        problems = check_workload(spec, name)
        print(f"{'FAIL' if problems else 'PASS'} {name}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
