"""Digest every artifact of a fixed set of runs, to check byte identity.

Usage: python3 tools/artifact_digest.py   (from any directory)

The runs are:

  {workload}-{seed}-{j}   config j of each perfbench workload for workload
                          seeds 0 and 1, run as the benchmark runs it
                          (``run`` or ``account``), from perfbench/workloads.py;
  desk_default            configs/desk_default.json under ``run``;
  string4-...             degradation ``account`` on a 4-group open string
                          under both algorithms, tm1 and tm2 (dpogl_plus
                          requires tm2) and S = 1 and 3;
  ring4-lists-...         delay ``account`` on a 4-group RI ring with
                          per-group sigma and participation lists, under
                          both algorithms (dpogl_plus requires tm2) and
                          S = 1 and 3;
  lb-string4              ``run`` on an LB structure, the only run whose
                          structure is built from the data partition (here
                          a 4-group string).

Each run writes into its own temporary directory.  The script prints one
``run file sha256`` line per file, then, on the last line, the SHA-256 of
``json.dumps({run: {file: sha256}}, sort_keys=True)``.  Two checkouts whose
last lines agree wrote the same bytes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dpogl.harness import ExperimentConfig, run_experiment  # noqa: E402


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _degradation_strings() -> dict[str, dict]:
    string = {"num_workers": 9,
              "members_of_group": [[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8]]}
    runs = {}
    for algorithm, threat_model, period in itertools.product(
            ("dpogl", "dpogl_plus"), ("tm1", "tm2"), (1, 3)):
        if algorithm == "dpogl_plus" and threat_model == "tm1":
            continue
        name = f"string4-{algorithm}-{threat_model}-S{period}"
        # One local step at a small learning rate keeps the LSI spread
        # small enough that the mu factors do not underflow to 0, so the
        # attenuated block budgets show in the text.
        runs[name] = {"seed": 0, "algorithm": algorithm,
                      "threat_model": threat_model,
                      "inter_group_period": period, "epochs": 24,
                      "local_iterations": 1, "learning_rate": 0.01,
                      "clip": 0.5, "sigma": 1.0, "participation": 1.0,
                      "bound": "degradation", "heatmap_epochs": [12, 24, 27],
                      "data": {"num_classes": 3, "dims": 2, "per_class": 20},
                      "structure": string}
    return runs


def _delay_lists() -> dict[str, dict]:
    runs = {}
    for (algorithm, threat_model), period in itertools.product(
            (("dpogl", "tm1"), ("dpogl_plus", "tm2")), (1, 3)):
        name = f"ring4-lists-{algorithm}-{threat_model}-S{period}"
        # Group 0's (sigma, participation) is a pair whose delay weight
        # 2 pi^2 / sigma^2 differs in the last bit between scalar and array
        # ``**``, so the text shows how the weight is rounded.
        runs[name] = {"seed": 0, "algorithm": algorithm,
                      "threat_model": threat_model,
                      "inter_group_period": period, "epochs": 15,
                      "sigma": [1.5952888379372823, 2.0, 0.7, 3.3],
                      "participation": [0.8133073424482733, 0.7, 1.0, 0.25],
                      "heatmap_epochs": [6, 15, 18],
                      "data": {"num_classes": 3, "dims": 2, "per_class": 20},
                      "structure": {"kind": "RI", "num_workers": 12,
                                    "num_groups": 4}}
    return runs


def runs() -> dict[str, tuple[dict, bool]]:
    """run name -> (raw config, runs training?)"""
    workloads = _load_workloads()
    table = {}
    for name in workloads.names():
        for seed in (0, 1):
            for j, raw in enumerate(workloads.configs(name, seed)):
                table[f"{name}-{seed}-{j}"] = (raw,
                                               workloads.with_training(name))
    desk = json.loads((ROOT / "configs" / "desk_default.json").read_text(
        encoding="utf-8"))
    table["desk_default"] = (desk, True)
    for name, raw in {**_degradation_strings(), **_delay_lists()}.items():
        table[name] = (raw, False)
    table["lb-string4"] = ({
        "seed": 0, "epochs": 12, "inter_group_period": 3,
        "heatmap_epochs": [6, 12],
        "data": {"num_classes": 4, "dims": 3, "per_class": 20,
                 "dirichlet_beta": 0.1},
        "structure": {"kind": "LB", "num_workers": 8, "num_groups": 4}}, True)
    return table


def digest_run(raw: dict, with_training: bool) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        run_experiment(ExperimentConfig.from_dict({**raw, "output_dir": str(out)}),
                       with_training=with_training)
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())}


def main() -> int:
    digests = {}
    for name, (raw, with_training) in runs().items():
        digests[name] = digest_run(raw, with_training)
        for file, sha in digests[name].items():
            print(name, file, sha, flush=True)
    text = json.dumps(digests, sort_keys=True)
    print(hashlib.sha256(text.encode("utf-8")).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
