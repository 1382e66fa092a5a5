"""One benchmark run's executions, in a fresh interpreter.

Usage: worker.py JOB_JSON RESULT_JSON, with PYTHONPATH pointing at the
checkout's ``src``.  The job names the configs (the run's inputs), the
seconds to measure and whether to trace; the result holds every execution's wall time and outcome,
the peak resident memory, the artifact digest, the check results and, when
tracing, the per-layer figures.

Executions run back to back in a closed loop with one client: the next starts
when the previous one has ended.  Executions cycle through the job's configs,
so that a run measures several draws of the workload's random inputs.  A new
execution starts only while the time
elapsed plus the median time of that kind of execution so far fits in the
budget.  An untraced execution samples the host's speed in-band
(calibrate.py) and keeps its time in reference seconds too.  With tracing,
untraced and traced executions alternate, so both see the same host
conditions; traced executions are not sampled, so that the sampler's handler
falls into no span.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import dpogl
from dpogl import ExperimentConfig, harness

import calibrate
import checks
import tracer


def digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every artifact's name and bytes, and the bytes written."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest(), size


def corrupt_one_cell(out: Path, config) -> None:
    """Overwrite the first numeric heatmap cell (self-test only)."""
    path = out / f"heatmap_epoch_{config.heatmap_epochs[0]}.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines[1:], start=1):
        n, i, eps = line.split(",")
        if eps != "trusted":
            lines[k] = f"{n},{i},1e300"
            break
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def execute(config, with_training: bool, out: Path, kernel=None) -> dict:
    """One timed execution of the `dpogl run|account` body; with a reference
    ``kernel`` to sample, also in reference seconds."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # each execution starts from a collected heap
    error = None
    sampler = (calibrate.Sampler(kernel, calibrate.MIXED_REFERENCE_S)
               if kernel is not None else contextlib.nullcontext())
    with warnings.catch_warnings(record=True) as caught, sampler:
        warnings.simplefilter("always")
        start, cpu_start = time.perf_counter(), time.process_time()
        try:  # looked up at call time, so a traced run gets the wrapper
            manifest = harness.run_experiment(config,
                                              with_training=with_training)
        except Exception:  # an execution that raises is counted as failed
            manifest = None
            error = traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    if manifest is not None and manifest.get("accounting_error") is not None:
        error = f"accounting_error: {manifest['accounting_error']}"
    # CPU time is kept next to wall time: when the two move together, a slow
    # execution was slowed on the CPU (by other tenants), not kept off it.
    record = {"wall_s": wall, "cpu_s": cpu, "error": error,
              "runtime_warnings": sum(issubclass(w.category, RuntimeWarning)
                                      for w in caught)}
    if kernel is not None:
        record.update(reference_s=sampler.to_reference(wall),
                      samples=len(sampler.samples),
                      sample_s=sampler.mean_sample_s(),
                      handler_s=sampler.handler_s)
    return record


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    if src not in Path(dpogl.__file__).resolve().parents:
        print(f"dpogl imported from {dpogl.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    work = Path(job["work_dir"])
    out = work / "out"
    configs = [ExperimentConfig.from_dict({**raw, "output_dir": str(out)})
               for raw in job["configs"]]
    with_training = job["with_training"]
    trace = bool(job["trace"])
    tr = tracer.Tracer()
    kernel = calibrate.MixedKernel()

    executions: list[dict] = []
    kept: dict[str, Path] = {}  # artifact digest -> kept artifact directory
    input_of: dict[str, int] = {}  # artifact digest -> index of its config
    reference: dict[int, str] = {}  # config index -> first execution's digest
    budget = float(job["seconds"])
    kinds = [False, True] if trace else [False]
    begin = time.perf_counter()
    while True:
        traced = kinds[len(executions) % len(kinds)]
        done = [e["cost_s"] for e in executions if e["traced"] == traced]
        if done and len(executions) >= len(kinds) and (
                time.perf_counter() - begin + statistics.median(done)
                > budget):
            break
        k = len(executions) // len(kinds) % len(configs)
        config = configs[k]
        start = time.perf_counter()
        restore = None
        if traced:
            tr.execution = len(executions)
            restore = tracer.instrument(tr)
        try:
            record = execute(config, with_training, out,
                             kernel=None if traced else kernel)
        finally:
            if restore is not None:
                restore()
        record["traced"] = traced
        record["index"] = len(executions)
        record["input"] = k
        executions.append(record)
        if record["error"] is not None or not out.is_dir():
            record["digest"] = None
        else:
            if job.get("corrupt") and len(executions) == 1:
                corrupt_one_cell(out, config)
            record["digest"], record["bytes_written"] = digest(out)
            reference.setdefault(k, record["digest"])
            if record["digest"] not in kept:
                kept[record["digest"]] = work / f"kept-{len(kept)}"
                input_of[record["digest"]] = k
                out.rename(kept[record["digest"]])
        record["cost_s"] = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Everything below is outside the measured region.
    verdicts = {}
    defects = {}
    for sha, path in kept.items():
        k = input_of[sha]
        problems, found = checks.check_artifacts(
            path, configs[k], with_training, job["configs"][k]["seed"],
            job["pairs_per_epoch"])
        verdicts[sha] = problems
        if sha == reference.get(0):
            defects = found
    for record in executions:
        reasons = []
        if record["error"] is not None:
            reasons.append(record["error"])
        elif record["digest"] != reference.get(record["input"]):
            reasons.append("artifacts differ from the run's first execution "
                           "of the same config")
        if record.get("digest") in verdicts and verdicts[record["digest"]].count:
            reasons.extend(verdicts[record["digest"]].messages)
        record["failed"] = bool(reasons)
        record["reasons"] = reasons

    per_execution = {}
    if trace:
        for record in executions:
            if record["traced"]:
                index = record["index"]
                per_execution[index] = {
                    "stats": tracer.summarize(tr.spans, index),
                    "distinct_keys": {
                        name: sum(1 for key in keys if key[0] == index)
                        for name, keys in tr.keys.items()},
                }
        tracer.write_spans(tr.spans, job["spans_path"])

    result = {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "peak_rss_kb": peak_rss_kb,
        "artifact_sha256": [reference.get(k) for k in range(len(configs))],
        "executions": executions,
        "problems": {sha: p.messages for sha, p in verdicts.items()},
        "defects": defects,
        "traced": per_execution,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    for path in kept.values():
        shutil.rmtree(path, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
