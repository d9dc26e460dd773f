"""Every ``python`` block of README.md runs, in a child where any warning is an error.

So the Library section cannot name a removed helper, or show a call that fails.
"""

import re
from pathlib import Path

import pytest

from harness import run_python

_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8"),
    re.MULTILINE | re.DOTALL,
)


def test_the_readme_has_python_blocks():
    assert len(_BLOCKS) >= 2


@pytest.mark.parametrize("block", _BLOCKS, ids=[f"block-{i}" for i in range(len(_BLOCKS))])
def test_a_readme_python_block_runs_without_a_warning(block):
    child = run_python("-W", "error", "-c", block, encoding="utf-8")
    assert (child.returncode, child.stderr) == (0, "")
