"""tools/artifact_digest.py: the fixed run set behind every byte-identity
claim.  Only the run table is checked; no experiment is run."""

import importlib.util
from pathlib import Path

from dpogl.harness import ExperimentConfig

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_digest_runs_are_fixed_and_valid():
    table = _load_tool().runs()
    assert len(table) == 44  # a dict: the 44 names are distinct
    for raw, with_training in table.values():
        assert isinstance(with_training, bool)
        ExperimentConfig.from_dict(raw)
