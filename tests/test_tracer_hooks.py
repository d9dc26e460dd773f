"""The benchmark's traced run still sees every call it times.

``bench/tracer.py`` opens its spans by rebinding names inside the
library's modules, so a call routed around one of those names drops a
span without any error.  This runs the tracer on a tiny ``table`` corpus
and checks that every span and counter the corpus_table workload reads
is still there.
"""

import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402  (from bench/, on the path above)

COUNTS = {"a": [9, 4, 4, 0, 1], "b": [30, 2], "c": [0, 0], "d": [7, 7, 7, 1]}


def _write_corpus(directory: Path) -> None:
    for author, counts in COUNTS.items():
        if author in "ab":  # two JSON files, two CSV files
            document = {"author_id": author, "citations": counts, "career_years": 5}
            (directory / f"{author}.json").write_text(json.dumps(document), encoding="utf-8")
        else:
            (directory / f"{author}.csv").write_text("citations\n" + "".join(f"{c}\n" for c in counts), encoding="utf-8")


def test_traced_table_opens_every_span_once_per_file(tmp_path):
    _write_corpus(tmp_path)
    trace, code, stdout, stderr = tracer.traced_command(
        ("table", str(tmp_path), "--with-total", "--include-kh", "--format", "csv")
    )
    assert (code, stderr) == (0, b"")
    assert stdout.decode("utf-8").splitlines()[-1].startswith("total,")

    spans = Counter(name for name, _, _, _ in trace.spans)
    expected = {
        "ingest.scan", "ingest.read", "ingest.parse", "ingest.decode", "profile.build",
        "indices.report", "collective.merge", "ingest.table", "cli.emit",
    }
    assert expected <= set(spans)
    files = len(COUNTS)
    assert spans["ingest.read"] == spans["profile.build"] == spans["ingest.parse"] == files
    assert spans["ingest.decode"] == 2  # the JSON files
    assert spans["indices.report"] == files + 1  # and the total
    assert trace.counts["ingest.files"] == files
    assert trace.counts["profile.works"] == sum(map(len, COUNTS.values()))

    built = sorted(profile.author_id for profile in trace.profiles[:-1])
    assert built == sorted(COUNTS)
    total = trace.profiles[-1]
    assert total.author_id == "total"
    assert sorted(total.counts) == sorted(c for counts in COUNTS.values() for c in counts)
