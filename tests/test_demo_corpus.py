"""scripts/make_demo_corpus.py writes the files of scripts/demo_corpus.sha256, byte for byte, whatever the hash seed.

The script drives every writer: profiles as JSON and CSV, report tables as
CSV and Markdown, SVG charts and the point CSV.  So a byte change in any of
them must come with a new manifest.  It runs in a child under ``-W error``
and the tests' guards.
"""

import hashlib
from pathlib import Path

from harness import child_env, run_python

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _tree(directory):
    """Each file and directory under ``directory`` by its relative name: a file's bytes, or None."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes() if path.is_file() else None
        for path in sorted(directory.rglob("*"))
    }


def test_the_demo_corpus_matches_its_manifest_whatever_the_hash_seed(tmp_path):
    manifest = {}
    for line in (SCRIPTS / "demo_corpus.sha256").read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)  # the layout of sha256sum
        manifest[name] = digest
    trees = []
    for seed in ("0", "1"):
        out = tmp_path / f"demo-{seed}"
        argv = ("-W", "error", str(SCRIPTS / "make_demo_corpus.py"), "--out", str(out))
        child = run_python(*argv, env={**child_env(), "PYTHONHASHSEED": seed}, encoding="utf-8")
        assert (child.returncode, child.stderr) == (0, "")
        trees.append(_tree(out))
    assert trees[0] == trees[1]
    files = {name: hashlib.sha256(data).hexdigest() for name, data in trees[0].items() if data is not None}
    assert files == manifest
