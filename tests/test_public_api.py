"""The documented public surface: the README example and ``dpogl.__all__``."""

import re
from pathlib import Path

import dpogl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_all_names_resolve_once():
    assert len(dpogl.__all__) == len(set(dpogl.__all__))
    missing = [name for name in dpogl.__all__ if not hasattr(dpogl, name)]
    assert missing == []
