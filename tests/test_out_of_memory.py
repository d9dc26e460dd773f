"""Running out of memory ends in one error line, and ``table`` goes on past the file, in one process or two.

Each case runs the CLI in a child process that caps its own address space a
little above what it has mapped once ``citemetric.cli`` is imported, then
loads a profile far larger than the cap.  Nothing outside the child's own
limits changes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env, _write_json

resource = pytest.importorskip("resource")
pytestmark = pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm for the baseline")

HEADROOM = 48 << 20  # bytes the child may map beyond its baseline; the large profile needs about 70 MB more
_CAPPED = """
import resource, sys
from citemetric import cli
cli._TWO_PROCESS_BYTES = cli._TWO_PROCESS_FILES = int(sys.argv[1])
with open("/proc/self/statm", encoding="ascii") as statm:
    baseline = int(statm.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (baseline + {headroom}, resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(cli.main(sys.argv[2:]))
""".format(headroom=HEADROOM)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory with a profile of 10^6 distinct counts (12 MB of JSON) and a small one."""
    directory = tmp_path_factory.mktemp("memory")
    citations = range(10**9, 10**9 + 10**6)  # ints above the small-int cache, 32 bytes each once parsed
    (directory / "big.json").write_text(json.dumps({"author_id": "big", "citations": list(citations)}), encoding="utf-8")
    _write_json(directory / "small.json", "small", [5, 3, 1])
    return directory


def _capped(directory, limit, *args):
    child = subprocess.run(
        [sys.executable, "-c", _CAPPED, str(limit), *args],
        cwd=directory,
        env=_child_env(),
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )
    return child.returncode, child.stdout, child.stderr


def test_compute_ends_in_one_line(inputs):
    assert _capped(inputs, 0, "compute", "big.json") == (1, "", "error: out of memory\n")


def test_table_records_the_file_and_tabulates_the_rest(inputs):
    code, stdout, stderr = _capped(inputs, 0, "table", ".")
    assert (code, stderr) == (1, "error: big.json: out of memory\n")
    assert [row.split(",")[0] for row in stdout.splitlines()] == ["no", "small"]


@pytest.mark.parametrize("big", ["a.json", "b.json"], ids=["first-half", "second-half"])
def test_table_records_the_file_in_either_half_in_one_or_two_processes(inputs, tmp_path, big):
    # with the threshold at 0 a forked child reads b.json, and records running out as this process does
    (tmp_path / big).symlink_to(inputs / "big.json")
    (tmp_path / ({"a.json": "b.json", "b.json": "a.json"}[big])).symlink_to(inputs / "small.json")
    runs = [_capped(tmp_path, limit, "table", ".") for limit in (0, sys.maxsize)]
    assert runs[0] == runs[1]
    code, stdout, stderr = runs[0]
    assert (code, stderr) == (1, f"error: {big}: out of memory\n")
    assert [row.split(",")[0] for row in stdout.splitlines()] == ["no", "small"]


@pytest.mark.parametrize("args", [("merge", "small.json", "big.json"), ("plot", "big.json", "small.json")])
def test_commands_of_several_inputs_name_the_input_in_one_or_two_processes(inputs, args):
    # with the threshold at 0 a forked child loads the second input; one that runs out falls back to this process
    runs = [_capped(inputs, limit, *args) for limit in (0, sys.maxsize)]
    assert runs[0] == runs[1] == (1, "", "error: big.json: out of memory\n")
