"""Benchmark of dpogl's `run` and `account` commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

One run of one workload:

1. set-up: fresh interpreters each time `import dpogl` plus
   ``ExperimentConfig.from_dict`` on the workload's config, half of them
   before the executions and half after, so that a passing change in the
   host's load moves fewer of them; one more, run first, warms the bytecode
   cache and is discarded.  ``setup_s`` is the median in reference seconds;
2. a worker interpreter runs `run_experiment`, the body of `dpogl run` and
   `dpogl account`, in a closed loop with one client for ``--seconds``
   seconds (worker.py), cycling through the workload's configs for this seed
   (workloads.py).  ``wall_s`` is the mean over those configs of each one's
   median execution time.  With ``--trace 1`` untraced and
   traced executions alternate; the traced ones wrap every public function of
   each dpogl module (tracer.py);
3. outside the measured time the worker checks the artifacts against the
   propagation oracle (checks.py) and compares every execution's artifact
   digest with the first one's.

Times are reported in reference seconds (calibrate.py): each timed interval
is scaled by how long a fixed reference kernel, run from a timer signal every
few milliseconds inside that interval, took there.  This cancels the changing
CPU speed of a shared host.  The raw seconds are printed and kept in the
record too.

BLAS threads are capped at the number of CPUs the process may use.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, with the ``end_to_end`` metrics of BENCHMARK.json
untraced and its ``per_layer`` metrics traced.  Lines before it print every
metric with its unit, the sample count, the machine and the artifact digest.
The full record goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3  # timed set-up probes before, and again after, the worker
PAIRS_PER_EPOCH = 96  # heatmap cells per epoch checked against the oracle
RUN_LIMIT_S = 170.0   # a run must end within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def check_checkout() -> None:
    if not (ROOT / "src" / "dpogl" / "__init__.py").is_file():
        raise BenchError(f"no dpogl sources under {ROOT / 'src'}; run from "
                         f"the root of a checkout")


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Cache bytecode as a default install does, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    threads = str(cpu_count())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpogl").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": cpu_count(),
            "python": platform.python_version(),
            "blas_threads": cpu_count(), "git_commit": commit,
            "src_sha256": src.hexdigest()}


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of ``TAIL_PERCENTILES`` with at least ten samples beyond
    it (nearest rank), as (percentile, value); None while there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def measure_setup(config_path: Path, deadline: float,
                  warm: bool) -> list[dict]:
    """Set-up probes: the probe's output for each."""
    times = []
    for k in range(SETUP_PROBES + warm):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
            env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout)
        if not Path(probe["dpogl"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"dpogl imported from {probe['dpogl']}")
        if k or not warm:  # a warming probe fills the bytecode cache
            times.append(probe)
    return times


def mean_of_input_medians(executions: list[dict]) -> float:
    """The mean over the run's configs of each one's median execution time,
    in reference seconds, so that every input drawn weighs the same however
    often it ran."""
    by_input: dict[int, list[float]] = {}
    for r in executions:
        by_input.setdefault(r["input"], []).append(r["reference_s"])
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def layer_metrics(stats: dict, distinct: dict, record: dict,
                  defects: dict) -> dict:
    """The per-layer figures of one traced execution."""
    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def own(name):
        return stats.get(name, {}).get("layer_s", 0.0)

    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in stats.items()
                   if k.startswith(layer + "."))

    mu_calls = calls("accountant.degradation_mu")
    return {
        "data.s": layer_self("data"),
        "rng.derive_stream.calls": calls("rng.derive_stream"),
        "rng.derive_stream.s": own("rng.derive_stream"),
        "models.gradient.calls": calls("models.gradient"),
        "models.gradient.s": own("models.gradient"),
        "models.loss.calls": calls("models.loss"),
        "models.accuracy.calls": calls("models.accuracy"),
        "models.metrics.s": total("models.loss") + total("models.accuracy"),
        "trainer.run_training.s": own("trainer.run_training"),
        "trainer.local_train.calls": calls("trainer.local_train"),
        "trainer.local_train.s": own("trainer.local_train"),
        "trainer.clip_update.calls": calls("trainer.clip_update"),
        "trainer.mechanism_noise.calls": calls("trainer.mechanism_noise"),
        "topology.distance_matrix.calls": calls("topology.distance_matrix"),
        "topology.distance_matrix.s": own("topology.distance_matrix"),
        "topology.build_adjacency.calls": calls("topology.build_adjacency"),
        "topology.is_string.calls": calls("topology.is_string"),
        "topology.is_string.s": own("topology.is_string"),
        "accountant.delay_curve_matrix.calls":
            calls("accountant.delay_curve_matrix"),
        "accountant.delay_curve_matrix.s": own("accountant.delay_curve_matrix"),
        "accountant.pwp_rows_from_curves.s":
            own("accountant.pwp_rows_from_curves"),
        "accountant.admissible_adversaries.calls":
            calls("accountant.admissible_adversaries"),
        "accountant.dp_matrix_from_curves.s":
            own("accountant.dp_matrix_from_curves"),
        "accountant.thm2_pair_curve.calls": calls("accountant.thm2_pair_curve"),
        "accountant.thm2_pair_curve.s": own("accountant.thm2_pair_curve"),
        "accountant.degradation_mu.calls": mu_calls,
        "accountant.degradation_mu.useful_frac":
            distinct.get("accountant.degradation_mu", 0) / mu_calls
            if mu_calls else 0.0,
        "accountant.lsi_recursion.s": own("accountant.lsi_recursion"),
        "accountant.zero_cells_with_path": defects.get("zero_cells_with_path", 0),
        "accountant.overflow_warnings": record["runtime_warnings"],
        "harness.self_s": stats.get("harness.run_experiment",
                                    {}).get("self_s", 0.0),
        "harness.bytes_written": record.get("bytes_written", 0),
    }


def traced_metrics(result: dict) -> dict:
    """Per-layer metrics: counts from the first traced execution (they must
    repeat exactly), times as the median over the traced executions."""
    records = {r["index"]: r for r in result["executions"]}
    per_run = [layer_metrics(t["stats"], t["distinct_keys"],
                             records[int(index)], result["defects"])
               for index, t in sorted(result["traced"].items(),
                                      key=lambda kv: int(kv[0]))]
    if not per_run:
        raise BenchError("no traced execution completed")
    merged = {}
    for name, first in per_run[0].items():
        if isinstance(first, int):
            merged[name] = first
        else:
            merged[name] = statistics.median(m[name] for m in per_run)
    walls = {traced: [r["wall_s"] for r in result["executions"]
                      if r["traced"] == traced and not r["failed"]]
             for traced in (False, True)}
    if walls[False] and walls[True]:
        merged["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
    return merged


def run_workload(spec: dict, name: str, seed: int, seconds: int, trace: int,
                 tiny: bool = False, corrupt: bool = False) -> dict:
    """One benchmark run; returns the printed result plus its record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{name}{'-tiny' if tiny else ''}-seed{seed}-trace{trace}"
    work = OUT / f"work-{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # A traced run keeps to the first config, so that its exact counts
        # describe one input and repeat between runs.
        raw = workloads.configs(name, seed, tiny)[:1 if trace else None]
        config_path = work / "config.json"
        config_path.write_text(json.dumps(raw[0]), encoding="utf-8")
        setup = measure_setup(config_path, deadline, warm=True)
        job = {"src": str(ROOT / "src"), "configs": raw,
               "with_training": workloads.with_training(name),
               "seconds": seconds, "trace": trace, "work_dir": str(work),
               "pairs_per_epoch": PAIRS_PER_EPOCH, "corrupt": corrupt,
               "spans_path": str(OUT / f"{tag}-spans.jsonl.gz")}
        job_path, result_path = work / "job.json", work / "result.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path),
             str(result_path)],
            env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"worker failed:\n{proc.stderr[-4000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        setup += measure_setup(config_path, deadline, warm=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    executions = result["executions"]
    plain = [r for r in executions if not r["traced"] and not r["failed"]]
    if not plain:
        plain = [r for r in executions if not r["traced"]]
    untraced = [r["reference_s"] for r in plain]
    computed = {"wall_s": mean_of_input_medians(plain),
                "setup_s": statistics.median(p["reference_s"] for p in setup),
                "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
    if trace:
        computed.update(traced_metrics(result))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    failed = sum(r["failed"] for r in executions)
    tail = tail_percentile(untraced)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "configs": raw, "command":
            "run" if workloads.with_training(name) else "account",
        "machine": {**machine_record(), "numpy": result["numpy"]},
        "reference_sample_s": calibrate.MIXED_REFERENCE_S,
        "setup_s_samples": [p["reference_s"] for p in setup],
        "setup_s_raw_samples": [p["setup_s"] for p in setup],
        "wall_s_samples": untraced,
        "wall_s_raw_samples": [r["wall_s"] for r in plain],
        "sample_s": [r["sample_s"] for r in plain],
        "wall_s_tail": tail and {"percentile": tail[0], "value": tail[1]},
        "error_rate": failed / len(executions),
        "artifact_sha256": result["artifact_sha256"],
        "defects": {"zero_cells_with_path":
                    result["defects"].get("zero_cells_with_path"),
                    "overflow_warnings":
                    executions[0]["runtime_warnings"]},
        "executions": executions,
        "problems": result["problems"],
        "computed": computed,
        "printed": {"correct": failed == 0, "attempted": len(executions),
                    "failed": failed,
                    "metrics": {m["name"]: {"value": computed[m["name"]],
                                            "unit": m["unit"]}
                                for m in wanted}},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1),
                                     encoding="utf-8")
    return record


def report(record: dict) -> None:
    """Human-readable lines: every metric with its unit, and the context."""
    m = record["machine"]
    print(f"== {record['workload']} ({record['command']}) seed "
          f"{record['seed']} trace {record['trace']}")
    print(f"machine: cpu={m['cpu']!r} nproc={m['nproc']} python={m['python']} "
          f"numpy={m['numpy']} blas_threads={m['blas_threads']} "
          f"commit={m['git_commit']} src_sha256={m['src_sha256'][:16]}")
    samples = record["wall_s_samples"]
    tail = record["wall_s_tail"]
    print(f"wall_s samples: {len(samples)}; tail: "
          + (f"p{tail['percentile']:g} = {tail['value']:.6f} s" if tail
             else "needs at least 10 samples beyond a percentile"))
    print(f"raw seconds (not scaled to the reference host): wall_s median "
          f"{statistics.median(record['wall_s_raw_samples']):.6f}, setup_s "
          f"median {statistics.median(record['setup_s_raw_samples']):.6f}; "
          f"reference kernel median {statistics.median(record['sample_s']):.6f}"
          f" s against {record['reference_sample_s']} s")
    printed = record["printed"]
    print(f"error_rate: {record['error_rate']:.6g} "
          f"({printed['failed']} of {printed['attempted']} executions failed)")
    for sha, messages in record["problems"].items():
        for message in messages:
            print(f"  check failed [{sha[:12]}]: {message}")
    print(f"artifact_sha256: {record['artifact_sha256']}")
    print(f"known defects: {record['defects']}")
    for name, metric in printed["metrics"].items():
        print(f"  {name:42s} {metric['value']!r:>24} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.names(), "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        if args.seed < 0 or seconds < 1:
            raise BenchError("--seed must be >= 0 and --seconds >= 1")
        if args.workload != "all":
            record = run_workload(spec, args.workload, args.seed, seconds,
                                  args.trace)
            report(record)
            print(json.dumps(record["printed"]))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for name in workloads.names():
            for trace in (0, 1):
                record = run_workload(spec, name, args.seed, seconds, trace)
                report(record)
                printed = record["printed"]
                combined["correct"] &= printed["correct"]
                combined["attempted"] += printed["attempted"]
                combined["failed"] += printed["failed"]
                for metric, value in printed["metrics"].items():
                    combined["metrics"][f"{name}/{metric}"] = value
        print(json.dumps(combined))
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
