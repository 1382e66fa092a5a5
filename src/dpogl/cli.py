"""Command-line interface.

Subcommands:
  run <config.json>       train, then write the privacy reports
  account <config.json>   privacy reports only (accounting is structural)
  distances <structure.json>  print group-to-group / group-to-worker distances

``--out``, ``--heatmap-epochs``, ``--variant`` and ``--threat`` override the
corresponding config fields; the OGL_SEED environment variable overrides the
config seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .accountant import VARIANTS
from .harness import ConfigError, ExperimentConfig, run_experiment
from .topology import GroupStructure
from .trainer import THREAT_MODELS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpogl",
        description="Simulate differentially private overlapping grouped "
                    "learning and report per-pair privacy bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "train and write the privacy reports"),
                       ("account", "write the privacy reports only")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--out", help="override the config's output_dir")
        p.add_argument("--heatmap-epochs", metavar="T1,T2,...",
                       help="heatmap epochs, e.g. 50,100,200")
        p.add_argument("--variant", choices=VARIANTS,
                       help="delivered-block counting convention")
        p.add_argument("--threat", choices=THREAT_MODELS,
                       help="override the config's threat model")
    d = sub.add_parser("distances",
                       help="print propagation distances for a structure")
    d.add_argument("structure", help="path to a structure JSON file")
    return parser


def _parse_epoch_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(
            "--heatmap-epochs must be comma-separated integers") from None


def _cmd_run(args, with_training: bool) -> int:
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if args.out is not None:
        raw["output_dir"] = args.out
    if args.heatmap_epochs is not None:
        raw["heatmap_epochs"] = _parse_epoch_list(args.heatmap_epochs)
    if args.variant is not None:
        raw["variant"] = args.variant
    if args.threat is not None:
        raw["threat_model"] = args.threat
    env_seed = os.environ.get("OGL_SEED")
    if env_seed is not None:
        try:
            raw["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError("OGL_SEED must be an integer") from None
    config = ExperimentConfig.from_dict(raw)
    manifest = run_experiment(config, with_training=with_training)
    for name in [*manifest["outputs"], "manifest.json"]:
        print(f"wrote {Path(config.output_dir) / name}")
    if manifest["accounting_error"]:
        print(f"accounting disabled: {manifest['accounting_error']}",
              file=sys.stderr)
    return 0


def _cmd_distances(args) -> int:
    try:
        text = Path(args.structure).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read structure file: {exc}") from exc
    try:
        structure = GroupStructure.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"structure: {exc}") from exc
    dist, to_worker = structure.distances, structure.worker_distances
    M, N = structure.num_groups, structure.num_workers

    def cell(x: float) -> str:
        return "inf" if math.isinf(x) else str(int(x))

    print("group-to-group distance")
    print("m," + ",".join(str(j) for j in range(M)))
    for m in range(M):
        print(f"{m}," + ",".join(cell(dist[m, j]) for j in range(M)))
    print("group-to-worker distance")
    print("m," + ",".join(str(n) for n in range(N)))
    for m in range(M):
        print(f"{m}," + ",".join(cell(to_worker[m, n]) for n in range(N)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "distances":
            return _cmd_distances(args)
        return _cmd_run(args, with_training=args.command == "run")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
