"""Every ``python`` block of README.md runs, in a child where any warning is an error.

So the Library section cannot name a removed helper, or show a call that fails.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

_BLOCKS = re.findall(
    r"^```python\n(.*?)^```$",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8"),
    re.MULTILINE | re.DOTALL,
)


def test_the_readme_has_python_blocks():
    assert len(_BLOCKS) >= 2


@pytest.mark.parametrize("block", _BLOCKS, ids=[f"block-{i}" for i in range(len(_BLOCKS))])
def test_a_readme_python_block_runs_without_a_warning(block):
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        env=_child_env(),
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, "")
