"""Differentially private overlapping grouped learning, with accounting.

Simulates two training algorithms over worker/group structures (dpogl and
its windowed variant dpogl_plus) and bounds, per ordered worker pair, how
much privacy budget the observer's view of its own models can consume:
a propagation-delay bound and a degradation-aware refinement of it, both in
the Renyi framework with conversion to (eps, delta)-DP.
"""

from .accountant import (DEFAULT_ALPHA_GRID, AccountingPreconditionError,
                         delay_sweep, dp_matrix_from_curves,
                         pwp_rows_from_curves, thm2_curve_sweep)
from .data import (Dataset, dirichlet_partition, load_csv, make_synthetic,
                   stratified_split, worker_labels)
from .harness import ConfigError, ExperimentConfig, run_experiment
from .topology import STRUCTURE_KINDS, GroupStructure, generate_structure
from .trainer import HyperParams, epoch_metrics, run_training

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ALPHA_GRID", "AccountingPreconditionError",
    "delay_sweep", "dp_matrix_from_curves", "pwp_rows_from_curves",
    "thm2_curve_sweep",
    "Dataset", "dirichlet_partition", "load_csv", "make_synthetic",
    "stratified_split", "worker_labels",
    "ConfigError", "ExperimentConfig", "run_experiment",
    "STRUCTURE_KINDS", "GroupStructure", "generate_structure",
    "HyperParams", "epoch_metrics", "run_training",
    "__version__",
]
