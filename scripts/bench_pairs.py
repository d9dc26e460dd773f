#!/usr/bin/env python3
"""Alternating pairs of benchmark runs between two git revisions.

    python3 scripts/bench_pairs.py BASE CHANGE --workload corpus_table --pairs 10

Each revision is extracted with ``git archive`` into a fresh temporary
directory (under ``$TMPDIR``), so neither side starts with a bytecode
cache or an earlier run's ``.bench_work/``.  Pair i (from 1) runs
``bench/run.py`` of each side on seed i for ``BENCHMARK.json``'s run
length, the base first in odd pairs and the change first in even ones,
so that a drift in machine speed does not fall on one side only.  Each
pair's end-to-end metrics are printed as the pair ends, then one summary
row per metric: each side's median and quartiles, and the pairs the
change won in the direction ``BENCHMARK.json`` gives the metric (ties
count for neither).  ``gain`` marks a metric measured on at least ten
pairs whose change won at least nine pairs in ten and whose median moved
the right way by more than the base's interquartile range.

With ``--trace``, each side runs ``bench/run.py --trace 1`` and the
pairs are of the per-layer metrics instead, summarised the same way.  A
count, a byte total or ``ingest.parsed_ratio`` that differs between the
two sides of a pair, as a dropped or doubled span makes it, is printed
as a failure, and the script exits 1.

The header line and the summary say which start-up the pairs measured:
whether the children write a bytecode cache, which they inherit from
``PYTHONDONTWRITEBYTECODE`` in this script's environment.  Without one,
every child compiles each module it imports.  They also give the Python
version and the CPUs this script may run on, which the children inherit;
with fewer than two, the CLI never loads its inputs in two processes, and a
warning says that the pairs measure the one-process path only.

BASE and CHANGE are anything ``git archive`` takes; a revision git cannot
read is a usage error that names it.  They must hold the same ``bench/``
and ``BENCHMARK.json``, so that both sides run one harness.  Uncommitted
work can be measured as ``$(git stash create)``, a commit of the tracked
changes that moves no branch.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Mapping

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # fewer pairs never make a gain


def pair_count(text: str) -> int:
    """``--pairs``: at least one, as fewer pairs measure nothing; argparse reports a ValueError as a usage error."""
    pairs = int(text)
    if pairs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {pairs}")
    return pairs


def extract(revision: str) -> Path:
    """A fresh temporary directory holding the files of ``revision``."""
    directory = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    return directory


def run_once(checkout: Path, workload: str, seed: int, trace: bool = False) -> dict[str, float]:
    """The metrics of one ``bench/run.py`` run in ``checkout``, per layer if ``trace``; raises if any command failed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    result = subprocess.run(argv, cwd=checkout, capture_output=True, encoding="utf-8")
    if result.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {result.returncode}:\n{result.stderr}")
    summary = json.loads(result.stdout.splitlines()[-1])
    if not summary["correct"]:
        raise RuntimeError(f"{checkout}: {summary['failed']} of {summary['attempted']} commands failed")
    return {name: metric["value"] for name, metric in summary["metrics"].items()}


def bytecode_cache(environ: Mapping[str, str]) -> str:
    """Whether children started with ``environ`` write a bytecode cache: Python writes none when
    ``PYTHONDONTWRITEBYTECODE`` is a non-empty string."""
    if environ.get("PYTHONDONTWRITEBYTECODE"):
        return "no bytecode cache (PYTHONDONTWRITEBYTECODE is set)"
    return "children write a bytecode cache (PYTHONDONTWRITEBYTECODE is unset or empty)"


def machine(version: str, cpus: int) -> str:
    """The Python version and the number of usable CPUs that the children run with."""
    return f"Python {version}, {cpus} usable CPU{'' if cpus == 1 else 's'}"


def fork_warning(cpus: int) -> str | None:
    """A warning when the children cannot fork: ``cli._may_fork`` needs at least two usable CPUs."""
    if cpus >= 2:
        return None
    return f"warning: {cpus} usable CPU, so the CLI never forks and the pairs measure the one-process path only"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated between the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict[str, float], dict[str, float]]], better: dict[str, str]) -> list[dict]:
    """One row per metric in ``better`` (name -> "lower" or "higher") that every pair reports.

    Each row holds both sides' quartiles, the pairs the change won and
    lost, and whether that makes a gain: at least ``MIN_PAIRS`` pairs, at
    least nine wins in ten, and a median moved in the better direction by
    more than the base's interquartile range.
    """
    rows = []
    for name, direction in better.items():
        if not pairs or any(name not in base or name not in change for base, change in pairs):
            continue
        sign = 1 if direction == "lower" else -1  # sign * (base - change) > 0 when the change is better
        base = [pair[0][name] for pair in pairs]
        change = [pair[1][name] for pair in pairs]
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        losses = sum(sign * (b - c) < 0 for b, c in zip(base, change))
        rows.append({
            "metric": name,
            "base": (b1, b2, b3),
            "change": (c1, c2, c3),
            "relative": (c2 - b2) / b2 if b2 else float("nan"),
            "wins": wins,
            "losses": losses,
            "pairs": len(pairs),
            "gain": len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and sign * (b2 - c2) > b3 - b1,
        })
    return rows


def exact_metrics(declared: list[dict]) -> list[str]:
    """The metrics that the same inputs fix whatever the machine's speed: counts, byte totals, and
    ``ingest.parsed_ratio``, which is documents over files."""
    return [metric["name"] for metric in declared if metric["unit"] in ("count", "B") or metric["name"] == "ingest.parsed_ratio"]


def mismatches(pairs: list[tuple[dict[str, float], dict[str, float]]], exact: list[str]) -> list[str]:
    """One line per pair and metric in ``exact`` whose two sides differ; a pair lacking the metric is skipped."""
    return [
        f"pair {i}: {name} {base[name]:.10g} -> {change[name]:.10g}"
        for i, (base, change) in enumerate(pairs, 1)
        for name in exact
        if name in base and name in change and base[name] != change[name]
    ]


def _format_row(row: dict) -> str:
    base, change = row["base"], row["change"]
    return (
        f"{row['metric']:<24} {base[1]:>12.6g} [{base[0]:.6g}, {base[2]:.6g}]"
        f"  ->  {change[1]:>12.6g} [{change[0]:.6g}, {change[2]:.6g}]"
        f"  {row['relative']:+7.2%}  wins {row['wins']}/{row['pairs']}, losses {row['losses']}"
        + ("  gain" if row["gain"] else "")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="the revision to compare against, such as the parent commit")
    parser.add_argument("change", help="the revision under test")
    parser.add_argument("--workload", required=True, help="one workload named in BENCHMARK.json")
    parser.add_argument("--pairs", type=pair_count, default=MIN_PAIRS)
    parser.add_argument("--trace", action="store_true", help="pair the per-layer metrics of traced runs instead")
    args = parser.parse_args(argv)

    git = ["git", "-C", str(ROOT)]
    for side in ("base", "change"):
        revision = getattr(args, side)
        tree = subprocess.run([*git, "rev-parse", "--verify", "--quiet", f"{revision}^{{tree}}"], stdout=subprocess.DEVNULL)
        if tree.returncode:
            parser.error(f"{side} {revision} is not a revision git can read")
    diff = subprocess.run([*git, "diff", "--quiet", args.base, args.change, "--", "bench", "BENCHMARK.json"])
    if diff.returncode == 1:  # git diff --quiet exits 1 for "the files differ" only
        parser.error(f"{args.base} and {args.change} must hold the same bench/ and BENCHMARK.json")
    diff.check_returncode()
    show = [*git, "show", f"{args.base}:BENCHMARK.json"]
    spec = json.loads(subprocess.run(show, capture_output=True, check=True, encoding="utf-8").stdout)
    workloads = [workload["name"] for workload in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    better = {metric["name"]: metric["better"] for metric in declared}
    exact = exact_metrics(declared)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    setting = f"{bytecode_cache(os.environ)}, {machine(platform.python_version(), cpus)}"
    warning = fork_warning(cpus)
    print(f"{args.workload}: base {args.base} -> change {args.change}, {args.pairs} pairs, {setting}", flush=True)
    if warning:
        print(warning, flush=True)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # run the cleanup below
    sides = {}
    try:
        for side in ("base", "change"):
            sides[side] = extract(getattr(args, side))
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = ("base", "change") if seed % 2 else ("change", "base")
            metrics = {side: run_once(sides[side], args.workload, seed, args.trace) for side in order}
            pairs.append((metrics["base"], metrics["change"]))
            cells = ", ".join(
                f"{name} {metrics['base'][name]:.6g} -> {metrics['change'][name]:.6g}"
                for name in better
                if name in metrics["base"] and name in metrics["change"]
            )
            print(f"pair {seed} ({order[0]} first): {cells}", flush=True)
    finally:
        for directory in sides.values():
            shutil.rmtree(directory, ignore_errors=True)
    print(f"{args.workload}: base {args.base} -> change {args.change}, {len(pairs)} pairs, {setting}, "
          "median [first quartile, third quartile]")
    if warning:
        print(warning)
    for row in summarize(pairs, better):
        print("  " + _format_row(row))
    failures = mismatches(pairs, exact)
    for failure in failures:
        print(f"failure: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
