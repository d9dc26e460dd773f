"""Seeded inputs, CLI commands and output checks for each workload.

Counts come from ``random.Random(seed)`` and ``synthesize_counts``, in
the mix ``scripts/make_demo_corpus.py`` uses: Pareto-law counts, greedy
synthetic shapes, and flat blocks whose kh crossings clamp on the
constant extension.  The program sees only the files written here.  The
raw counts stay with the benchmark, so ``oracle`` can check every output
without calling the library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from citemetric.synth import synthesize_counts

import oracle

PARETO_ALPHA = 1.1
CORPUS_UNCITED = 0.2  # share of uncited works in corpus_table, big_author and cold_compute
PLOT_UNCITED = 0.1
CSV_SHARE = 0.15  # share of profile files written as CSV instead of JSON
REGIMES = (("pareto", 0.5), ("synthetic", 0.3), ("block", 0.2))

# author -> raw counts, in the order written to the file
Counts = dict[str, list[int]]


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the files it reads and what it must print."""

    args: tuple[str, ...]  # citemetric CLI arguments, without the interpreter
    inputs: tuple[Path, ...]  # the files or directory named in args, in order
    key: str  # commands with the same key must produce the same bytes
    output: Path | None  # the -o target; None when the output is stdout
    profiles: int  # profile files the command reads
    works: int  # works in those files, r0 summed
    check: Callable[[bytes, bytes], list[str]] = field(compare=False)  # (stdout, -o bytes) -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]  # one round; runs repeat whole rounds


def pareto_counts(rng: random.Random, n: int, uncited: float) -> list[int]:
    return [0 if rng.random() < uncited else int(2.0 * rng.paretovariate(PARETO_ALPHA)) for _ in range(n)]


def mixed_counts(rng: random.Random, r0: int, regime: str) -> list[int]:
    """One profile of r0 works in one of the demo-corpus regimes, in shuffled order."""
    if regime == "pareto":
        return pareto_counts(rng, r0, CORPUS_UNCITED)
    r = sum(rng.random() >= CORPUS_UNCITED for _ in range(r0))
    if regime == "synthetic":
        c_max = rng.randint(1, 400) if r else 0
        c_sigma = rng.randint(c_max + r - 1, r * c_max) if r else 0
        counts = synthesize_counts(r0, r, c_sigma, c_max)
    else:
        # a flat block: kh1 always clamps, kh3 clamps once r >= the block height
        counts = [rng.randint(1, 40)] * r + [0] * (r0 - r)
    rng.shuffle(counts)
    return counts


def mixed_corpus(rng: random.Random, n: int, low: int, high: int) -> list[tuple[list[int], bool]]:
    """n profiles of low..high works: (counts, written as CSV).

    Sizes, regime shares and the CSV share are fixed by n, and only
    their order and the counts depend on the seed, so that runs with
    different seeds do the same amount of work.
    """
    sizes = [low + (high - low) * i // max(n - 1, 1) for i in range(n)]
    regimes = [name for name, share in REGIMES for _ in range(round(share * n))]
    regimes = (regimes + ["pareto"] * n)[:n]
    as_csv = [i < round(CSV_SHARE * n) for i in range(n)]
    for column in (sizes, regimes, as_csv):
        rng.shuffle(column)
    return [(mixed_counts(rng, size, regime), csv) for size, regime, csv in zip(sizes, regimes, as_csv)]


def write_profile_file(directory: Path, author: str, counts: list[int], rng: random.Random, as_csv: bool) -> Path:
    """Write one profile as CSV (author from the stem) or as a JSON document."""
    if as_csv:
        path = directory / f"{author}.csv"
        path.write_text("citations\n" + "".join(f"{value}\n" for value in counts), encoding="utf-8")
        return path
    document: dict[str, object] = {"author_id": author, "citations": counts}
    if rng.random() < 0.7:
        document["career_years"] = rng.randint(1, 40)
    path = directory / f"{author}.json"
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")
    return path


def _dirs(base: Path) -> tuple[Path, Path]:
    """Input and output directories; no -o target lands where a command scans."""
    inputs, outputs = base / "in", base / "out"
    inputs.mkdir(parents=True)
    outputs.mkdir(parents=True)
    return inputs, outputs


def corpus_table(rng: random.Random, base: Path, scale: float) -> Workload:
    inputs, outputs = _dirs(base)
    counts: Counts = {}
    for i, (values, as_csv) in enumerate(mixed_corpus(rng, max(4, round(2000 * scale)), 1, 300)):
        counts[f"a{i:05d}"] = values
        write_profile_file(inputs, f"a{i:05d}", values, rng, as_csv)
    out = outputs / "table.csv"
    command = Command(
        args=("table", str(inputs), "--with-total", "--include-kh", "-o", str(out)),
        inputs=(inputs,),
        key="table",
        output=out,
        profiles=len(counts),
        works=sum(map(len, counts.values())),
        check=lambda stdout, data: oracle.expect_empty(stdout) + oracle.check_table(data, counts),
    )
    return Workload("corpus_table", (command,))


def big_author(rng: random.Random, base: Path, scale: float) -> Workload:
    inputs, outputs = _dirs(base)
    n = max(50, round(500_000 * scale))
    a, b = pareto_counts(rng, n, CORPUS_UNCITED), pareto_counts(rng, n, CORPUS_UNCITED)
    write_profile_file(inputs, "A", a, rng, as_csv=False)
    write_profile_file(inputs, "B", b, rng, as_csv=True)
    out = outputs / "pooled.json"
    command = Command(
        args=(
            "merge", str(inputs / "A.json"), str(inputs / "B.csv"), "--label", "pooled",
            "-o", str(out), "--format", "csv", "--include-kh",
        ),
        inputs=(inputs / "A.json", inputs / "B.csv"),
        key="merge",
        output=out,
        profiles=2,
        works=2 * n,
        check=lambda stdout, data: oracle.check_merge(data, stdout, "pooled", a + b),
    )
    return Workload("big_author", (command,))


def cold_compute(rng: random.Random, base: Path, scale: float) -> Workload:
    inputs, _ = _dirs(base)
    commands = []
    for i, (counts, as_csv) in enumerate(mixed_corpus(rng, 16, 3, 40)):
        author = f"c{i:02d}"
        path = write_profile_file(inputs, author, counts, rng, as_csv)
        commands.append(Command(
            args=("compute", str(path)),
            inputs=(path,),
            key=author,
            output=None,
            profiles=1,
            works=len(counts),
            check=lambda stdout, data, author=author, counts=counts: (
                oracle.check_compute(stdout, author, counts)
            ),
        ))
    return Workload("cold_compute", tuple(commands))


def long_curve_plot(rng: random.Random, base: Path, scale: float) -> Workload:
    inputs, outputs = _dirs(base)
    n = max(50, round(50_000 * scale))
    counts: Counts = {"A": pareto_counts(rng, n, PLOT_UNCITED), "B": pareto_counts(rng, n, PLOT_UNCITED)}
    for author, values in counts.items():
        write_profile_file(inputs, author, values, rng, as_csv=False)
    curves = dict(counts, merged=counts["A"] + counts["B"])
    out = outputs / "curves.svg"
    command = Command(
        args=(
            "plot", str(inputs / "A.json"), str(inputs / "B.json"),
            "--guides", "--include-g", "--with-merged", "-o", str(out),
        ),
        inputs=(inputs / "A.json", inputs / "B.json"),
        key="plot",
        output=out,
        profiles=2,
        works=2 * n,
        check=lambda stdout, data: oracle.expect_empty(stdout) + oracle.check_svg(data, curves),
    )
    return Workload("long_curve_plot", (command,))


GENERATORS: dict[str, Callable[[random.Random, Path, float], Workload]] = {
    "corpus_table": corpus_table,
    "big_author": big_author,
    "cold_compute": cold_compute,
    "long_curve_plot": long_curve_plot,
}


def generate(name: str, seed: int, base: Path, scale: float = 1.0) -> Workload:
    """Write the inputs of workload ``name`` under ``base``; same seed, same bytes."""
    return GENERATORS[name](random.Random(seed), base, scale)
