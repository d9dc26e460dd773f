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


def test_traced_merge_decodes_only_the_json_file(tmp_path):
    # the CSV is bare digit lines, which the parser reads with json's scanner, yet under ingest.parse only
    a, b = COUNTS["a"], COUNTS["d"]
    (tmp_path / "a.json").write_text(json.dumps({"author_id": "a", "citations": a}), encoding="utf-8")
    (tmp_path / "b.csv").write_text("citations\n" + "".join(f"{c}\n" for c in b), encoding="utf-8")
    out = tmp_path / "merged.json"
    trace, code, stdout, stderr = tracer.traced_command(
        ("merge", str(tmp_path / "a.json"), str(tmp_path / "b.csv"), "--label", "pooled", "-o", str(out))
    )
    assert (code, stderr) == (0, b"")
    assert sorted(json.loads(out.read_text(encoding="utf-8"))["citations"]) == sorted(a + b)

    spans = Counter(name for name, _, _, _ in trace.spans)
    assert spans["ingest.decode"] == 1  # the JSON file only
    assert spans["ingest.parse"] == spans["profile.build"] == 2
    assert spans["collective.merge"] == spans["ingest.write_profile"] == 1
    assert trace.counts["profile.works"] == len(a) + len(b)
